"""Synthetic incident environment: deterministic scenario bundles (job
records, three-level logs, advisor history, a toy code repo, ground truth)
and the information-gathering tools bound to them.

Tools only ever return entries timestamped strictly before the anomaly's
detection time: the loader keeps no other entry.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from .backends import Backend
from .codeexpert import CODE_AGENT_SPEC, RepoIndex, make_code_agent_handler
from .errors import ConfigurationError
from .logexpert import LOG_AGENT_SPEC, make_log_agent_handler
from .structured import json_text, jsonl_text, read_json, read_jsonl, write_files
from .tools import FINALIZE_SPEC, ToolParam, ToolRegistry, ToolSpec
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
# built once; every registry registers these same specs
_JOB_ID = ToolParam("job_id", "the job identifier")
_INFO_SPECS = tuple(
    ToolSpec(name, description, (_JOB_ID,)) for name, (_, description) in INFO_TOOLS.items()
)

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
# Scenario families, one row each, mirroring a small responsibility taxonomy.
# A row holds only what differs between families: its draw takes the row's
# parameters from the generator's random stream, and its templates are
# formatted with them.

_NOISE_TEMPLATES = [
    "INFO  checkpoint {n} completed in {ms} ms",
    "INFO  task slot {n} heartbeat ok latency={ms}ms",
    "INFO  source operator emitted {n} records",
    "INFO  watermark advanced to {ms}",
    "DEBUG metrics reporter flushed {n} series",
]


@dataclass(frozen=True, slots=True)
class _Family:
    scenario_id: str
    signal_level: str  # the log level that gets the signal lines
    responsibility: str
    draw: Callable[[random.Random], dict]
    signal: str
    follow_up: str
    root_cause: str
    solution: str


_FAMILIES = (
    _Family(
        "timeout",
        "runtime",
        "Platform",
        lambda rng: {
            "host": f"es-node-{rng.randrange(10, 99)}",
            "secs": rng.choice([30, 60, 180]),
        },
        "ERROR org.apache.flink.elasticsearch - SocketTimeoutException: "
        "connect to {host} timed out after {secs}s",
        "WARN  elasticsearch client retrying bulk request after timeout",
        "High pressure on the Elasticsearch client caused connection timeouts "
        "against {host}",
        "Escalate to the Elasticsearch service team; repeated timeouts "
        "indicate server-side pressure rather than a job defect",
    ),
    _Family(
        "oom_config",
        "runtime",
        "User",
        lambda rng: {"mb": rng.choice([512, 1024, 2048])},
        "ERROR taskmanager - java.lang.OutOfMemoryError: Java heap space "
        "(configured heap {mb}m exhausted)",
        "WARN  memory usage above 95% of {mb}m for 120s",
        "Task manager heap of {mb}m is insufficient for the job's state size, "
        "exhausting memory",
        "Raise the task manager heap beyond {mb}m or reduce state retention "
        "in the job configuration",
    ),
    _Family(
        "code_exception",
        "runtime",
        "User",
        lambda rng: {
            "op": f"MapOperator-{rng.randrange(1, 9)}",
            "line": rng.randrange(20, 200),
        },
        "ERROR {op} - java.lang.NullPointerException at "
        "com.user.job.RecordMapper.map(RecordMapper.java:{line})",
        "INFO  {op} restarting from last checkpoint after failure",
        "A NullPointerException thrown by user code in RecordMapper crashes "
        "{op} on malformed input records",
        "Add a null guard in RecordMapper.map and redeploy the job after "
        "validating input records",
    ),
    _Family(
        "platform_eviction",
        "infrastructure",
        "Platform",
        lambda rng: {"pod": f"tm-pod-{rng.randrange(100, 999)}"},
        "WARN  scheduler - pod {pod} evicted to free resources for a higher "
        "priority job",
        "INFO  {pod} deleted by cluster autoscaler",
        "The platform scheduler evicted {pod} in favor of a higher priority "
        "job, killing the task manager",
        "Platform side: rebalance cluster capacity or raise the job's "
        "scheduling priority class",
    ),
)


def _scenario(family: _Family, rng: random.Random) -> dict:
    """A family's signal lines and its ground truth short of the job id and
    detection time; the signal line is the evidence."""
    params = family.draw(rng)
    signal = family.signal.format(**params)
    return {
        "signal_level": family.signal_level,
        "signal_lines": [signal, family.follow_up.format(**params)],
        "ground_truth": {
            "scenario_id": family.scenario_id,
            "root_cause": family.root_cause.format(**params),
            "solution": family.solution.format(**params),
            "evidence": signal,
            "responsibility": family.responsibility,
        },
    }


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


def _jsonl(draws: list[tuple[int, str]]) -> str:
    """A bundle JSONL file of the ``(offset, text)`` entries drawn, in
    timestamp order; entries at the same offset keep their draw order."""
    draws.sort(key=lambda draw: draw[0])
    return jsonl_text({"timestamp": _ts(at), "text": text} for at, text in draws)


def generate_scenarios(seed: int, count: int, out_dir: str) -> list[str]:
    """Write ``count`` deterministic scenario bundles under ``out_dir``.

    Families rotate so responsibilities stay balanced; the same seed always
    produces byte-identical bundles.  Returns the job ids in order.
    """
    rng = random.Random(seed)
    write_files(os.path.join(out_dir, "src"), _TOY_SOURCES)
    job_ids = []
    for i in range(count):
        scenario = _scenario(_FAMILIES[i % len(_FAMILIES)], rng)
        job_id = f"fj{rng.randrange(16**8):08x}"
        job_ids.append(job_id)
        detection = rng.randrange(600, 1200)
        logs: dict[str, list[tuple[int, str]]] = {level: [] for level in LOG_LEVELS}
        for draws in logs.values():
            for _ in range(rng.randrange(8, 16)):
                offset = rng.randrange(0, detection)
                noise = rng.choice(_NOISE_TEMPLATES)
                n, ms = rng.randrange(1, 500), rng.randrange(5, 900)
                draws.append((offset, noise.format(n=n, ms=ms)))
            # a few entries after detection; tools must never return these
            hidden = "INFO  post-detection entry (must stay hidden)"
            draws += [(detection + rng.randrange(1, 300), hidden) for _ in range(2)]
        signal_draws = logs[scenario["signal_level"]]
        for line in scenario["signal_lines"]:
            signal_draws.append((rng.randrange(detection // 2, detection), line))
        advisor = [
            (
                rng.randrange(0, detection),
                f"advisor scan {rng.randrange(1000, 9999)}: no matching rule",
            )
            for _ in range(rng.randrange(1, 4))
        ]
        ground_truth = dict(
            scenario["ground_truth"], job_id=job_id, detection_time=_ts(detection)
        )
        files = {f"logs.{level}.jsonl": _jsonl(draws) for level, draws in logs.items()}
        files["advisor.jsonl"] = _jsonl(advisor)
        files["ground_truth.json"] = json_text(ground_truth)
        # each job's files are written when it is drawn, so one job's text
        # is held at a time
        write_files(os.path.join(out_dir, job_id), files)
    write_files(out_dir, {"index.json": json_text({"seed": seed, "job_ids": job_ids})})
    return job_ids


# ---------------------------------------------------------------------------
# Loading and tool binding


def _text_before(path: str, detection_time: str) -> str:
    entries = read_jsonl(path, ("timestamp", "text"))
    return "\n".join(entry["text"] for entry in entries if entry["timestamp"] < detection_time)


class Sandbox:
    """A loaded scenario bundle directory.  It is read-only once loaded, so
    each job is parsed once and the code repository is indexed once."""

    def __init__(self, root: str):
        self.root = root
        index_path = os.path.join(root, "index.json")
        try:
            job_ids = read_json(index_path).get("job_ids")
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read scenario index {index_path}: {exc}")
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
        gt = read_json(gt_path, ("detection_time", "scenario_id"))
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

    def build_registry(self, backend: Backend) -> ToolRegistry:
        registry = ToolRegistry()
        for spec in _INFO_SPECS:
            registry.register(spec, functools.partial(self._read, spec.name))
        registry.register(LOG_AGENT_SPEC, make_log_agent_handler(backend))
        registry.register(CODE_AGENT_SPEC, make_code_agent_handler(backend, self.repo_index))
        registry.register(FINALIZE_SPEC, lambda kwargs: "Finalized.")
        return registry
