"""A deterministic, prompt-driven scripted backend.

Stands in for a live model in end-to-end runs: it reads the rendered prompt
and plays a fixed diagnosis policy (fetch runtime logs, send them to the log
expert, finalize with the expert's findings).  Being a pure function of the
prompt, whole runs replay byte-identically.

A configurable fraction of controller actions is emitted with JSON
corruption (trailing commas) to exercise the repair pipeline; the corruption
decision is a stable hash of (job id, action), so a corrupted action stays
corrupted on retry.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Sequence

from .backends import ChatExchange, EmbeddingVector, GenerationParams, hash_embed

_SNAPSHOT_RE = re.compile(r"(?:\[|<:) snapshot: (\d{10}) (?:\]|:>)")
_JOB_RE = re.compile(r"job (fj[0-9a-f]{8})")
_EVIDENCE_RE = re.compile(r"^Evidence: (.+)$", re.MULTILINE)
_INTERPRETATION_RE = re.compile(r"^Interpretation: (.+)$", re.MULTILINE)

_SIGNAL_MARKERS = ("ERROR", "Exception", "evicted", "OutOfMemory", "WARN")

_USER_MARKERS = ("OutOfMemory", "NullPointer", "heap", "user code")


def _stable_pct(key: str) -> int:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % 100


def _corrupt(action_json: str) -> str:
    """Insert trailing commas: rejected by a strict parser, repairable by the
    local escape/comma fixer."""
    idx = action_json.rfind("}")
    inner = action_json.rfind("}", 0, idx)
    if inner != -1:
        action_json = action_json[:inner] + ",}" + action_json[inner + 1 :]
        idx += 1
    return action_json[:idx] + ",}" + action_json[idx + 1 :]


@dataclass
class PolicyBackend:
    """Deterministic diagnosis policy over the sandbox toolset."""

    malformed_pct: int = 0
    seed: int = 0

    def clone(self) -> "PolicyBackend":
        return PolicyBackend(self.malformed_pct, self.seed)

    # -- embeddings --------------------------------------------------------

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return hash_embed(texts, self.seed)

    # -- completion dispatch ------------------------------------------------

    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str:
        exchange.validate()
        system = exchange.system_prompt
        user = exchange.messages[-1][1]
        if "convert data between structured formats" in system:
            return self._regen(user)
        if "=== Log chunk to analyze ===" in user:
            return self._analyze_chunk(user)
        if user.startswith("Summarize the following log analyses"):
            return self._summarize_logs(user)
        if "You analyze source code" in system:
            return json.dumps(
                {"analysis": "Utility service code; no defect visible.", "suggestions": []}
            )
        if "per-file code analyses" in user:
            return "The service code paths show no defects relevant to the anomaly."
        if user.startswith("Several candidate answers"):
            match = re.search(r"^Candidate 1: (.*)$", user, re.MULTILINE)
            return match.group(1) if match else user
        return self._controller(user)

    # -- sub-policies -------------------------------------------------------

    def _regen(self, user: str) -> str:
        # echo the payload; local fixing handles our corruption patterns
        _, _, payload = user.partition("\n\n")
        return payload

    def _analyze_chunk(self, user: str) -> str:
        chunk = user.rsplit("=== Log chunk to analyze ===\n", 1)[-1]
        interpretations, evidences = [], []
        for line in chunk.splitlines():
            if any(marker in line for marker in _SIGNAL_MARKERS):
                interpretations.append(f"Anomalous log line indicates: {line.strip()}")
                evidences.append(line)
        return json.dumps(
            {"interpretations": interpretations, "evidences": evidences}
        )

    def _summarize_logs(self, user: str) -> str:
        pairs = list(
            zip(_INTERPRETATION_RE.findall(user), _EVIDENCE_RE.findall(user))
        )
        if not pairs:
            return json.dumps({"interpretation": "No anomaly found.", "evidence": ""})
        best = next(
            (p for p in pairs if "ERROR" in p[1] or "Exception" in p[1]), pairs[0]
        )
        return json.dumps({"interpretation": best[0], "evidence": best[1]})

    def _controller(self, user: str) -> str:
        job_match = _JOB_RE.search(user)
        job_id = job_match.group(1) if job_match else "unknown"
        snapshots = _SNAPSHOT_RE.findall(user)
        analyzed = "Interpretation:" in user

        if not snapshots:
            action = {"function": "runtime_log", "kwargs": {"job_id": job_id}}
            thought = (
                "I will examine the runtime logs of the job to look for "
                "anomalous entries."
            )
        elif not analyzed:
            action = {
                "function": "log_agent",
                "kwargs": {"snapshot": snapshots[0]},
            }
            thought = (
                "The runtime logs are long; I will pass their snapshot to the "
                "log analysis expert."
            )
        else:
            interpretation = _INTERPRETATION_RE.findall(user)[-1]
            evidence_matches = _EVIDENCE_RE.findall(user)
            evidence = evidence_matches[-1] if evidence_matches else interpretation
            haystack = interpretation + " " + evidence
            if any(marker in haystack for marker in _USER_MARKERS):
                responsibility = "User"
                solution = (
                    "Adjust the job configuration or code indicated by the "
                    "evidence and redeploy."
                )
            else:
                responsibility = "Platform"
                solution = (
                    "Escalate to the platform team to address the service-side "
                    "issue indicated by the evidence."
                )
            action = {
                "function": "finalize",
                "kwargs": {
                    "root_cause": interpretation,
                    "solution": solution,
                    "evidence": evidence,
                    "responsibility": responsibility,
                },
            }
            thought = "The expert analysis is conclusive; reporting the findings."

        action_json = json.dumps(action, sort_keys=True)
        if (
            self.malformed_pct > 0
            and _stable_pct(f"{job_id}:{action['function']}:corrupt")
            < self.malformed_pct
        ):
            action_json = _corrupt(action_json)
        return f"{thought}\nFunction: {action_json}"
