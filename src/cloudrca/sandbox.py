"""Synthetic incident environment: deterministic scenario bundles (job
records, three-level logs, advisor history, a toy code repo, ground truth)
and the information-gathering tools bound to them.

Tools only ever return entries timestamped strictly before the anomaly's
detection time: the loader keeps no other entry.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

from .backends import Backend
from .codeexpert import RepoIndex, code_agent_toolspec, make_code_agent_handler
from .errors import ConfigurationError
from .logexpert import RetrievalStore, log_agent_toolspec, make_log_agent_handler
from .structured import checked_entry, read_jsonl
from .tools import ToolParam, ToolRegistry, ToolSpec, finalize_spec
from .trajectory import AnalysisResult

LOG_LEVELS = ("platform", "runtime", "infrastructure")

# each information tool returns the pre-detection text of one bundle file
INFO_TOOLS = {
    "runtime_log": (
        "logs.runtime.jsonl",
        "Fetch the runtime-level logs of a job "
        "(task manager and job manager output).",
    ),
    "platform_log": (
        "logs.platform.jsonl",
        "Fetch the platform-level logs of a job "
        "(control plane and deployment events).",
    ),
    "infra_log": (
        "logs.infrastructure.jsonl",
        "Fetch the infrastructure-level logs of a job "
        "(cluster, scheduler, and node events).",
    ),
    "advisor_history": (
        "advisor.jsonl",
        "Fetch prior advisor-service diagnosis records for a job.",
    ),
}

_BASE_TS = 1_750_000_000  # fixed epoch origin for deterministic timestamps


def _ts(offset: int) -> str:
    return f"T{_BASE_TS + offset:012d}"


@dataclass(slots=True)
class JobRecord:
    job_id: str
    detection_time: str
    scenario_id: str
    ground_truth: AnalysisResult
    # what each INFO_TOOLS tool returns: its file's entry texts timestamped
    # strictly before detection_time, joined by newlines; no later entry is kept
    texts: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Scenario templates (mirroring a small responsibility taxonomy)

_NOISE_TEMPLATES = [
    "INFO  checkpoint {n} completed in {ms} ms",
    "INFO  task slot {n} heartbeat ok latency={ms}ms",
    "INFO  source operator emitted {n} records",
    "INFO  watermark advanced to {ms}",
    "DEBUG metrics reporter flushed {n} series",
]


def _scenario_timeout(rng: random.Random) -> dict:
    host = f"es-node-{rng.randrange(10, 99)}"
    signal = (
        f"ERROR org.apache.flink.elasticsearch - SocketTimeoutException: "
        f"connect to {host} timed out after {rng.choice([30, 60, 180])}s"
    )
    return {
        "scenario_id": "timeout",
        "signal_lines": [
            signal,
            "WARN  elasticsearch client retrying bulk request after timeout",
        ],
        "ground_truth": {
            "root_cause": (
                f"High pressure on the Elasticsearch client caused connection "
                f"timeouts against {host}"
            ),
            "solution": (
                "Escalate to the Elasticsearch service team; repeated timeouts "
                "indicate server-side pressure rather than a job defect"
            ),
            "evidence": signal,
            "responsibility": "Platform",
        },
        "signal_level": "runtime",
    }


def _scenario_oom(rng: random.Random) -> dict:
    mb = rng.choice([512, 1024, 2048])
    signal = (
        f"ERROR taskmanager - java.lang.OutOfMemoryError: Java heap space "
        f"(configured heap {mb}m exhausted)"
    )
    return {
        "scenario_id": "oom_config",
        "signal_lines": [
            signal,
            f"WARN  memory usage above 95% of {mb}m for 120s",
        ],
        "ground_truth": {
            "root_cause": (
                f"Task manager heap of {mb}m is insufficient for the job's "
                f"state size, exhausting memory"
            ),
            "solution": (
                f"Raise the task manager heap beyond {mb}m or reduce state "
                "retention in the job configuration"
            ),
            "evidence": signal,
            "responsibility": "User",
        },
        "signal_level": "runtime",
    }


def _scenario_code_exception(rng: random.Random) -> dict:
    op = f"MapOperator-{rng.randrange(1, 9)}"
    signal = (
        f"ERROR {op} - java.lang.NullPointerException at "
        f"com.user.job.RecordMapper.map(RecordMapper.java:{rng.randrange(20, 200)})"
    )
    return {
        "scenario_id": "code_exception",
        "signal_lines": [
            signal,
            f"INFO  {op} restarting from last checkpoint after failure",
        ],
        "ground_truth": {
            "root_cause": (
                f"A NullPointerException thrown by user code in RecordMapper "
                f"crashes {op} on malformed input records"
            ),
            "solution": (
                "Add a null guard in RecordMapper.map and redeploy the job "
                "after validating input records"
            ),
            "evidence": signal,
            "responsibility": "User",
        },
        "signal_level": "runtime",
    }


def _scenario_eviction(rng: random.Random) -> dict:
    pod = f"tm-pod-{rng.randrange(100, 999)}"
    signal = (
        f"WARN  scheduler - pod {pod} evicted to free resources for a "
        f"higher priority job"
    )
    return {
        "scenario_id": "platform_eviction",
        "signal_lines": [
            signal,
            f"INFO  {pod} deleted by cluster autoscaler",
        ],
        "ground_truth": {
            "root_cause": (
                f"The platform scheduler evicted {pod} in favor of a higher "
                f"priority job, killing the task manager"
            ),
            "solution": (
                "Platform side: rebalance cluster capacity or raise the job's "
                "scheduling priority class"
            ),
            "evidence": signal,
            "responsibility": "Platform",
        },
        "signal_level": "infrastructure",
    }


_TEMPLATES = [
    _scenario_timeout,
    _scenario_oom,
    _scenario_code_exception,
    _scenario_eviction,
]

_TOY_SOURCES = {
    "AdvisorService.java": (
        "public class AdvisorService {\n"
        "    // entry point of the advisor: loads rules and scans job logs\n"
        "    private final RuleEngine engine = new RuleEngine();\n"
        "    public Report diagnose(String jobId) {\n"
        "        return engine.apply(LogFetcher.fetch(jobId));\n"
        "    }\n"
        "}\n"
    ),
    "RuleEngine.java": (
        "public class RuleEngine {\n"
        "    public Report apply(LogBundle logs) {\n"
        "        // iterate advisor rules against the fetched logs\n"
        "        return Report.fromMatches(Rules.all(), logs);\n"
        "    }\n"
        "}\n"
    ),
    "LogFetcher.java": (
        "public class LogFetcher {\n"
        "    public static LogBundle fetch(String jobId) {\n"
        "        return org.apache.sls.Client.query(jobId);\n"
        "    }\n"
        "}\n"
    ),
}


def generate_scenarios(seed: int, count: int, out_dir: str) -> list[str]:
    """Write ``count`` deterministic scenario bundles under ``out_dir``.

    Templates rotate so responsibilities stay balanced; the same seed always
    produces byte-identical bundles.  Returns the job ids in order.
    """
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    src_dir = os.path.join(out_dir, "src")
    os.makedirs(src_dir, exist_ok=True)
    for name, content in _TOY_SOURCES.items():
        with open(os.path.join(src_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content)

    job_ids = []
    for i in range(count):
        template = _TEMPLATES[i % len(_TEMPLATES)]
        scenario = template(rng)
        job_id = f"fj{rng.randrange(16**8):08x}"
        job_ids.append(job_id)
        detection_offset = rng.randrange(600, 1200)
        job_dir = os.path.join(out_dir, job_id)
        os.makedirs(job_dir, exist_ok=True)

        logs: dict[str, list[dict]] = {level: [] for level in LOG_LEVELS}
        for level in LOG_LEVELS:
            for _ in range(rng.randrange(8, 16)):
                offset = rng.randrange(0, detection_offset)
                noise = rng.choice(_NOISE_TEMPLATES).format(
                    n=rng.randrange(1, 500), ms=rng.randrange(5, 900)
                )
                logs[level].append({"timestamp": _ts(offset), "text": noise})
            # a few entries after detection; tools must never return these
            for _ in range(2):
                offset = detection_offset + rng.randrange(1, 300)
                logs[level].append(
                    {
                        "timestamp": _ts(offset),
                        "text": "INFO  post-detection entry (must stay hidden)",
                    }
                )
        signal_level = scenario["signal_level"]
        for line in scenario["signal_lines"]:
            offset = rng.randrange(detection_offset // 2, detection_offset)
            logs[signal_level].append({"timestamp": _ts(offset), "text": line})
        for level in LOG_LEVELS:
            logs[level].sort(key=lambda e: e["timestamp"])
            path = os.path.join(job_dir, f"logs.{level}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for entry in logs[level]:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")

        advisor = [
            {
                "timestamp": _ts(rng.randrange(0, detection_offset)),
                "text": f"advisor scan {rng.randrange(1000, 9999)}: no matching rule",
            }
            for _ in range(rng.randrange(1, 4))
        ]
        advisor.sort(key=lambda e: e["timestamp"])
        with open(os.path.join(job_dir, "advisor.jsonl"), "w", encoding="utf-8") as fh:
            for entry in advisor:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

        ground_truth = dict(scenario["ground_truth"])
        ground_truth.update(
            {
                "job_id": job_id,
                "scenario_id": scenario["scenario_id"],
                "detection_time": _ts(detection_offset),
            }
        )
        with open(
            os.path.join(job_dir, "ground_truth.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(ground_truth, fh, indent=2, sort_keys=True)
            fh.write("\n")

    with open(os.path.join(out_dir, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "job_ids": job_ids}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return job_ids


# ---------------------------------------------------------------------------
# Loading and tool binding


# the entries of a bundle JSONL file; see structured.read_jsonl
_read_jsonl = functools.partial(read_jsonl, keys=("timestamp", "text"))


def _read_ground_truth(path: str) -> dict:
    """A job's ground truth; a file that is not a UTF-8 JSON object with
    string ``detection_time`` and ``scenario_id`` raises ValueError naming
    ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            gt = json.load(fh)
    except json.JSONDecodeError as exc:  # keeps its type, which a batch row shows
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return checked_entry(gt, ("detection_time", "scenario_id"), path)


def _text_before(path: str, detection_time: str) -> str:
    return "\n".join(
        entry["text"] for entry in _read_jsonl(path) if entry["timestamp"] < detection_time
    )


class Sandbox:
    """A loaded scenario bundle directory.  It is read-only once loaded, so
    each job is parsed once and the code repository is indexed once."""

    def __init__(self, root: str):
        self.root = root
        index_path = os.path.join(root, "index.json")
        if not os.path.exists(index_path):
            raise ConfigurationError(f"no scenario index at {index_path}")
        try:
            with open(index_path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read scenario index {index_path}: {exc}")
        job_ids = index.get("job_ids") if isinstance(index, dict) else None
        if not isinstance(job_ids, list):
            raise ConfigurationError(f"scenario index {index_path} holds no job_ids list")
        # a job id names its directory, in the bundle and under --out-dir
        for job_id in job_ids:
            if not isinstance(job_id, str) or job_id in ("", ".", "..") or any(
                sep in job_id for sep in ("/", os.sep)
            ):
                raise ConfigurationError(
                    f"scenario index {index_path} holds job id {job_id!r}, "
                    "which is not a single path component"
                )
        if len(set(job_ids)) < len(job_ids):
            raise ConfigurationError(f"scenario index {index_path} lists a job id twice")
        self.job_ids: list[str] = job_ids
        self.repo_index = RepoIndex.build(os.path.join(root, "src"))
        self._records: dict[str, JobRecord] = {}

    def job(self, job_id: str) -> JobRecord:
        if job_id not in self._records:
            # threads share the record; a job that fails to parse raises again
            self._records[job_id] = self._load(job_id)
        return self._records[job_id]

    def _load(self, job_id: str) -> JobRecord:
        job_dir = os.path.join(self.root, job_id)
        gt_path = os.path.join(job_dir, "ground_truth.json")
        if not os.path.exists(gt_path):
            raise ConfigurationError(f"unknown job id: {job_id}")
        gt = _read_ground_truth(gt_path)
        cut = gt["detection_time"]
        return JobRecord(
            job_id=job_id,
            detection_time=cut,
            scenario_id=gt["scenario_id"],
            ground_truth=AnalysisResult.from_dict(gt),
            texts={
                name: _text_before(os.path.join(job_dir, filename), cut)
                for name, (filename, _) in INFO_TOOLS.items()
            },
        )

    def _read(self, name: str, kwargs: dict) -> str:
        job_id = kwargs.get("job_id", "")
        if job_id not in self.job_ids:
            raise ValueError(f"unknown job_id {job_id!r}")
        return self.job(job_id).texts[name]

    def build_registry(
        self, backend: Backend, retrieval_store: Optional[RetrievalStore] = None
    ) -> ToolRegistry:
        registry = ToolRegistry()
        for name, (_, description) in INFO_TOOLS.items():
            registry.register(
                ToolSpec(name, description, [ToolParam("job_id", "the job identifier")]),
                functools.partial(self._read, name),
            )
        registry.register(
            log_agent_toolspec(),
            make_log_agent_handler(backend, store=retrieval_store),
        )
        registry.register(
            code_agent_toolspec(),
            make_code_agent_handler(backend, self.repo_index),
        )
        registry.register(finalize_spec(), lambda kwargs: "Finalized.")
        return registry
