"""Benchmark inputs and the model stand-in.

Everything here is benchmark-side: it writes scenario bundles for a seed,
stretches runtime logs for the ``longlog`` workload, and wraps the scripted
``PolicyBackend`` so that every model call is counted and, for the live
workload, delayed by a deterministic latency model.  The program under test
only ever sees the bundle files and the ``Backend`` protocol.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import cloudrca
from cloudrca.consistency import DEFAULT_K

CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")

# Offset of the synthetic epoch the sandbox writes timestamps against.
_BASE_TS = 1_750_000_000


def load_config() -> dict:
    with open(CONFIG_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    mode: str
    k: int
    live_latency: bool
    longlog: bool
    pass_s: float  # wall seconds of one pass of the bundle at the parent

    def passes(self, seconds: float) -> int:
        """Timed passes in a run of ``seconds``.  The count depends only on
        the run length, never on how fast the program runs, so two versions
        are compared over the same number of samples."""
        return max(1, round(seconds / self.pass_s))


def workload(config: dict, name: str) -> Workload:
    spec = config["workloads"][name]
    return Workload(
        name=name,
        jobs=spec["jobs"],
        mode=spec["mode"],
        k=spec.get("k", DEFAULT_K),
        live_latency=spec["live_latency"],
        longlog=spec["longlog"],
        pass_s=spec["pass_s"],
    )


# ---------------------------------------------------------------------------
# Inputs


def make_bundle(config: dict, wl: Workload, seed: int, out_dir: str) -> list[str]:
    """Write the workload's scenario bundle for ``seed``; returns job ids."""
    job_ids = cloudrca.generate_scenarios(seed, wl.jobs, out_dir)
    if wl.longlog:
        for job_id in job_ids:
            extend_runtime_log(config["longlog"], os.path.join(out_dir, job_id), seed)
    return job_ids


_COMPONENTS = [
    "ingest", "shuffle", "sink", "router", "compactor", "indexer",
    "fetcher", "scheduler", "codec", "ledger", "gateway", "planner",
]
_UPPER = "ABCDEFGHJKLMNPQRSTUVWXYZ"

# Two threads that interleave in one log.  Lines of one thread share a
# long prefix and differ in a random 16-character tag, so no two of them are
# 0.9-similar; the two prefixes share almost no character trigrams, so the
# stand-in embedding keeps the threads apart, as a real embedding would.


def _operator_line(tag: str, duration: int) -> str:
    return f"INFO  backend uploaded incremental chunk in {duration} ms id {tag}"


def _safepoint_line(tag: str, duration: int) -> str:
    return f"jvm safepoint, mutator threads stopped for {duration // 100}.{duration % 100:02d}s tag {tag}"


def longlog_lines(spec: dict, rng: random.Random) -> list[str]:
    """The added pre-detection lines of one job, in time order.

    Slot kinds follow ``spec["pattern"]`` cyclically; ``warn_lines`` WARN
    lines replace evenly spaced distinct slots.  A repeat copies the line
    one third of the way into the lines so far and a near-duplicate
    re-renders the distinct line one third of the way into the distinct
    lines so far, so every job and every seed gets the same mix and the
    same dedup work; only the content is random.
    """
    total = spec["extra_lines"]
    pattern = spec["pattern"]
    kinds = [pattern[i % len(pattern)] for i in range(total)]
    distinct_slots = [i for i, kind in enumerate(kinds) if kind == "d"]
    warns = spec["warn_lines"]
    for n in range(warns):
        kinds[distinct_slots[(2 * n + 1) * len(distinct_slots) // (2 * warns)]] = "w"

    lines: list[str] = []
    distinct: list[tuple] = []  # (render function, tag)
    for kind in kinds:
        if kind == "w":
            lines.append(
                f"WARN  {rng.choice(_COMPONENTS)} backlog of "
                f"{rng.randrange(10000, 99999)} records above high watermark "
                f"on {rng.getrandbits(64):016x}"
            )
        elif kind == "r" and lines:
            lines.append(lines[len(lines) // 3])
        elif kind == "n" and distinct:
            render, tag = distinct[len(distinct) // 3]
            lines.append(render(tag, rng.randrange(100, 999)))
        else:
            if len(distinct) % 2 == 0:
                render, tag = _operator_line, f"{rng.getrandbits(64):016x}"
            else:
                render, tag = _safepoint_line, "".join(rng.choice(_UPPER) for _ in range(16))
            distinct.append((render, tag))
            lines.append(render(tag, rng.randrange(100, 999)))
    return lines


def _read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def extend_runtime_log(spec: dict, job_dir: str, seed: int):
    """Insert the longlog lines into a job's runtime log, strictly before its
    detection time, keeping the file sorted by timestamp."""
    with open(os.path.join(job_dir, "ground_truth.json"), "r", encoding="utf-8") as fh:
        detection = int(json.load(fh)["detection_time"][1:]) - _BASE_TS
    rng = random.Random(f"longlog:{seed}:{os.path.basename(job_dir)}")
    added = longlog_lines(spec, rng)
    offsets = sorted(rng.randrange(0, detection) for _ in added)
    path = os.path.join(job_dir, "logs.runtime.jsonl")
    entries = _read_jsonl(path)
    entries += [
        {"timestamp": f"T{_BASE_TS + offset:012d}", "text": text}
        for offset, text in zip(offsets, added)
    ]
    entries.sort(key=lambda e: e["timestamp"])
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


@dataclass
class JobInputs:
    """Benchmark-side view of one job's files, read without the sandbox."""

    pre_detection: set[str]
    post_detection_only: set[str]
    runtime_lines: list[str]


def read_job_inputs(bundle_dir: str, job_id: str) -> JobInputs:
    job_dir = os.path.join(bundle_dir, job_id)
    with open(os.path.join(job_dir, "ground_truth.json"), "r", encoding="utf-8") as fh:
        detection = json.load(fh)["detection_time"]
    pre: set[str] = set()
    post: set[str] = set()
    runtime: list[str] = []
    for level in ("platform", "runtime", "infrastructure"):
        for entry in _read_jsonl(os.path.join(job_dir, f"logs.{level}.jsonl")):
            if entry["timestamp"] < detection:
                pre.add(entry["text"])
                if level == "runtime":
                    runtime.append(entry["text"])
            else:
                post.add(entry["text"])
    return JobInputs(pre, post - pre, runtime)


def exact_repeat_share(lines: list[str]) -> float:
    """Share of lines equal to an earlier line."""
    seen: set[str] = set()
    repeats = 0
    for line in lines:
        repeats += line in seen
        seen.add(line)
    return repeats / len(lines) if lines else 0.0


# ---------------------------------------------------------------------------
# Model stand-in: counting and simulated latency


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic per-call model latency of a live endpoint."""

    completion_base_ms: float
    completion_us_per_prompt_char: float
    completion_us_per_output_char: float
    embed_base_ms: float
    embed_ms_per_text: float

    @classmethod
    def from_config(cls, config: dict) -> "LatencyModel":
        return cls(**config["latency_model"])

    def completion_s(self, prompt_chars: int, output_chars: int) -> float:
        return (
            self.completion_base_ms * 1e-3
            + self.completion_us_per_prompt_char * 1e-6 * prompt_chars
            + self.completion_us_per_output_char * 1e-6 * output_chars
        )

    def embed_s(self, texts: int) -> float:
        return (self.embed_base_ms + self.embed_ms_per_text * texts) * 1e-3


@dataclass
class CallCounts:
    completions: int = 0
    prompt_chars: int = 0
    output_chars: int = 0
    embed_calls: int = 0
    embed_texts: int = 0
    model_cpu_s: float = 0.0
    model_wait_s: float = 0.0

    def add(self, other: "CallCounts"):
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class MeteredBackend:
    """Pass-through ``Backend`` that counts every call and, with a latency
    model, sleeps the simulated endpoint latency after the inner call.

    Prompt characters are the system prompt plus all message contents.
    """

    inner: object
    latency: Optional[LatencyModel] = None
    counts: CallCounts = field(default_factory=CallCounts)
    sleep: object = time.sleep

    def complete(self, exchange, params) -> str:
        prompt_chars = len(exchange.system_prompt) + sum(
            len(content) for _, content in exchange.messages
        )
        start = time.perf_counter()
        text = self.inner.complete(exchange, params)
        self.counts.model_cpu_s += time.perf_counter() - start
        self.counts.completions += 1
        self.counts.prompt_chars += prompt_chars
        self.counts.output_chars += len(text)
        if self.latency is not None:
            self._wait(self.latency.completion_s(prompt_chars, len(text)))
        return text

    def embed(self, texts):
        start = time.perf_counter()
        vectors = self.inner.embed(texts)
        self.counts.model_cpu_s += time.perf_counter() - start
        self.counts.embed_calls += 1
        self.counts.embed_texts += len(texts)
        if self.latency is not None:
            self._wait(self.latency.embed_s(len(texts)))
        return vectors

    def _wait(self, seconds: float):
        start = time.perf_counter()
        self.sleep(seconds)
        self.counts.model_wait_s += time.perf_counter() - start
