"""The benchmark's job loop, correctness checks and metrics.

Jobs run one at a time through the public library API, the way
``cloudrca diagnose`` and ``cloudrca batch`` drive it: one closed-loop
client, no extra threads.  ``measure`` gives the end-to-end metrics with
tracing off; ``measure_traced`` gives the per-layer metrics from a separate
traced pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import cloudrca
from cloudrca.logexpert import NO_EVIDENCE_SENTINEL
from cloudrca.metrics import JobOutcome
from cloudrca.trajectory import UNCLEAR

from .tracer import Tracer
from .workloads import (
    CallCounts,
    JobInputs,
    LatencyModel,
    MeteredBackend,
    Workload,
    exact_repeat_share,
    read_job_inputs,
)

VERDICTS = ("User", "Platform", UNCLEAR)

# Every timing's CPU part is reported at the speed at which
# reference_seconds() takes this long.  Changing it rescales every timing,
# so it must stay fixed once a baseline has been measured.
REFERENCE_MS = 0.7
# Set-up samples per run, spread evenly over its jobs.
SETUP_REPEATS = 8

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)

# Run in a fresh interpreter: import cloudrca, load the sandbox, build the
# first registry, and print the seconds that took.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cloudrca
sandbox = cloudrca.Sandbox(sys.argv[2])
sandbox.build_registry(cloudrca.PolicyBackend(malformed_pct=int(sys.argv[3])))
print(time.perf_counter() - start)
"""


# The reference loop gathers from a table too large for a core's share of
# the cache, so other tenants slow it as they slow the program's heap work;
# a loop over a few KB alone corrected only about half of a slowdown.
_REF_TABLE = np.random.default_rng(1).integers(0, 1 << 30, size=1 << 21)  # 16 MiB
_REF_INDEX = np.random.default_rng(2).integers(0, 1 << 21, size=1 << 14)


def reference_seconds() -> float:
    """Mean of two runs of a fixed loop of random gathers from a 16 MiB
    table and small-array work.

    It shares no code with the program, so it tracks only how fast the
    machine runs right now; on a shared machine that speed drifts by up to
    1.8x within minutes."""
    start = time.perf_counter()
    for _ in range(2):
        total = 0
        for _ in range(8):
            total += int(_REF_TABLE[_REF_INDEX].sum())
        row = np.arange(64)
        for _ in range(50):
            row = np.minimum(row[::-1], row + 1)
    return (time.perf_counter() - start) / 2


def timed_at_reference(fn):
    """Run ``fn`` between two reference timings.  Returns its result, its
    wall seconds, and the factor that scales CPU seconds to the reference
    speed."""
    before = reference_seconds()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, seconds, REFERENCE_MS * 1e-3 * 2 / (before + reference_seconds())


@dataclass
class Context:
    config: dict
    workload: Workload
    bundle_dir: str
    sandbox: object
    job_ids: list
    inputs: dict  # job id -> JobInputs
    latency: Optional[LatencyModel]
    scorer: object
    tracer: Optional[Tracer] = None
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class JobRun:
    job_id: str
    seconds: float
    passed: bool
    counts: CallCounts
    outcome: JobOutcome
    scale: float = 1.0  # CPU seconds -> seconds at the reference speed

    @property
    def scaled_seconds(self) -> float:
        """Job time at the reference speed; simulated model wait is a sleep
        and is not scaled."""
        wait = self.counts.model_wait_s
        return wait + (self.seconds - wait) * self.scale


@dataclass
class Batch:
    runs: list
    pass_s: list  # scaled seconds of each pass: its jobs plus its scoring
    first_report: Optional[dict]

    def job_medians(self) -> list[float]:
        """Each job's median scaled run time, in bundle order; every job
        ran once per pass."""
        times: dict = {}
        for run in self.runs:
            times.setdefault(run.job_id, []).append(run.scaled_seconds)
        return [statistics.median(values) for values in times.values()]


def make_context(config: dict, wl: Workload, bundle_dir: str) -> Context:
    sandbox = cloudrca.Sandbox(bundle_dir)
    return Context(
        config=config,
        workload=wl,
        bundle_dir=bundle_dir,
        sandbox=sandbox,
        job_ids=list(sandbox.job_ids),
        inputs={j: read_job_inputs(bundle_dir, j) for j in sandbox.job_ids},
        latency=LatencyModel.from_config(config) if wl.live_latency else None,
        scorer=cloudrca.PolicyBackend(),
    )


def agent_config(config: dict, job_id: str):
    """The AgentConfig that ``cloudrca diagnose`` builds for a job."""
    return cloudrca.AgentConfig(
        max_steps=config["max_steps"],
        task_statement=f"Diagnose the anomalous job {job_id}.",
        json_regen_enabled=True,
        params=cloudrca.GenerationParams(mode="greedy"),
    )


def _digest(report) -> str:
    payload = report.greedy.to_jsonl() + json.dumps(
        report.outcome.result.to_dict(), sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_digest(ctx: Context) -> str:
    """Digest over every job's greedy trajectory and final result, in bundle
    order; equal digests mean byte-identical outputs."""
    joined = "\n".join(ctx.digests.get(job_id, "missing") for job_id in ctx.job_ids)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _check(ctx: Context, job_id: str, report):
    """Record every way the job's output breaks the program's contract."""
    inputs: JobInputs = ctx.inputs[job_id]
    digest = _digest(report)
    first = ctx.digests.setdefault(job_id, digest)
    if digest != first:
        ctx.problems.append(f"{job_id}: output differs between repeats")
    allowed = inputs.pre_detection | {NO_EVIDENCE_SENTINEL, UNCLEAR}
    for label, result in (("greedy", report.greedy.result), ("final", report.outcome.result)):
        if result is None:
            continue
        if result.evidence not in allowed:
            ctx.problems.append(f"{job_id}: {label} evidence is not a pre-detection log line")
        if result.responsibility not in VERDICTS:
            ctx.problems.append(f"{job_id}: {label} verdict {result.responsibility!r}")
    for step in report.greedy.steps:
        if inputs.post_detection_only & set(step.observation.splitlines()):
            ctx.problems.append(f"{job_id}: observation shows a post-detection entry")


def run_job(ctx: Context, job_id: str) -> JobRun:
    backend = MeteredBackend(
        cloudrca.PolicyBackend(malformed_pct=ctx.config["malformed_pct"]), ctx.latency
    )
    if ctx.tracer is not None:
        ctx.tracer.job = job_id
        ctx.tracer.instrument_backend(backend)
    config = agent_config(ctx.config, job_id)
    wl = ctx.workload
    start = time.perf_counter()
    try:
        report = cloudrca.run_with_consistency(
            config,
            lambda bound: ctx.sandbox.build_registry(bound),
            backend,
            mode=wl.mode,
            aggregation=ctx.config["aggregation"],
            k=wl.k,
        )
    except Exception:  # one failing job never aborts the run
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        outcome = JobOutcome(job_id, cloudrca.Trajectory(), None, None)
        return JobRun(job_id, seconds, False, backend.counts, outcome)
    seconds = time.perf_counter() - start
    _check(ctx, job_id, report)
    outcome = JobOutcome(job_id, report.greedy, report.outcome.result, None)
    return JobRun(job_id, seconds, report.greedy.passed, backend.counts, outcome)


def run_passes(ctx: Context, passes: int, between_jobs=None) -> Batch:
    """Run every job of the bundle ``passes`` times, in bundle order, and
    score each pass with ``build_report``, as ``cloudrca batch`` does.
    ``between_jobs(i)`` runs untimed before the i-th job."""
    runs: list[JobRun] = []
    pass_s: list[float] = []
    first_report = None
    for _ in range(passes):
        outcomes: list[JobOutcome] = []
        for job_id in ctx.job_ids:
            if between_jobs is not None:
                between_jobs(len(runs))
            run, _, run.scale = timed_at_reference(lambda: run_job(ctx, job_id))
            run.outcome.reference = ctx.sandbox.job(job_id).ground_truth
            runs.append(run)
            outcomes.append(run.outcome)
        report, seconds, scale = timed_at_reference(
            lambda: cloudrca.build_report(outcomes, ctx.scorer)
        )
        first_report = first_report or report
        jobs_s = sum(run.scaled_seconds for run in runs[-len(outcomes):])
        pass_s.append(jobs_s + seconds * scale)
    return Batch(runs, pass_s, first_report)


def warm_up(ctx: Context):
    """Run the first job once untimed: lazy set-up finishes and its output
    becomes the reference the timed repeats are compared with."""
    run_job(ctx, ctx.job_ids[0])


def measure_setup(ctx: Context, src_dir: str) -> float:
    """Seconds to import cloudrca, load the sandbox and build the first
    registry, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, src_dir, ctx.bundle_dir,
         str(ctx.config["malformed_pct"])],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Takes SETUP_REPEATS set-up samples, scaled to the reference speed,
    spread evenly over the ``jobs`` of a run, so that one slow stretch of a
    shared machine cannot skew them all."""

    def __init__(self, ctx: Context, src_dir: str, jobs: int):
        self.ctx, self.src_dir = ctx, src_dir
        self.every = max(1, jobs // SETUP_REPEATS)
        self.samples: list[float] = []

    def __call__(self, job_index: int):
        if len(self.samples) < SETUP_REPEATS and job_index % self.every == 0:
            self._sample()

    def _sample(self):
        seconds, _, scale = timed_at_reference(lambda: measure_setup(self.ctx, self.src_dir))
        self.samples.append(seconds * scale)

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self._sample()
        return self.samples


def _pass_counts(runs: list[JobRun]) -> CallCounts:
    total = CallCounts()
    for run in runs:
        total.add(run.counts)
    return total


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` with 100 cuts."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def input_properties(ctx: Context) -> dict:
    runtime = [ctx.inputs[j].runtime_lines for j in ctx.job_ids]
    return {
        "runtime_lines_per_job": statistics.fmean(len(lines) for lines in runtime),
        "exact_repeat_pct": 100.0 * statistics.fmean(exact_repeat_share(l) for l in runtime),
    }


def listed(section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under ``section``, in its order and
    with its units, taken from ``values``."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        entries = json.load(fh)[section]
    return {entry["name"]: (values[entry["name"]], entry["unit"]) for entry in entries}


def measure(ctx: Context, seconds: float, src_dir: str) -> tuple[dict, dict]:
    """Untraced run.  Returns (end-to-end metrics, printed-only details).

    Timings are scaled to the reference speed.  ``job_p50_ms`` is the median
    over jobs of each job's median run, ``jobs_per_s`` the bundle size over
    the median pass.  Cost counts and scores come from the first pass."""
    warm_up(ctx)
    n = len(ctx.job_ids)
    passes = ctx.workload.passes(seconds)
    sampler = SetupSampler(ctx, src_dir, passes * n)
    batch = run_passes(ctx, passes, between_jobs=sampler)
    setup = sampler.finish()
    counts = _pass_counts(batch.runs[:n])
    job_ms = sorted(s * 1e3 for s in batch.job_medians())
    failed = sum(1 for run in batch.runs if not run.passed)
    report = batch.first_report
    wall_s = sum(run.seconds for run in batch.runs)
    wait_s = sum(run.counts.model_wait_s for run in batch.runs)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": n / statistics.median(batch.pass_s),
        "job_p50_ms": statistics.median(job_ms),
        "job_pass_pct": 100.0 * (len(batch.runs) - failed) / len(batch.runs),
        "completions_per_job": counts.completions / n,
        "prompt_kchars_per_job": counts.prompt_chars / n / 1e3,
        "embed_texts_per_job": counts.embed_texts / n,
        "responsibility_acc_pct": report["fields"]["responsibility"]["precision"],
        "root_cause_score": report["fields"]["root_cause"]["emb_score"],
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - _REF_TABLE.nbytes
        )
        / 2**20,
    }
    details = {
        "timed_jobs": len(batch.runs),
        "passes": passes,
        "failed_jobs": failed,
        "job_fail_pct": 100.0 * failed / len(batch.runs),
        "job_p90_ms": _quantile(job_ms, 90) if n >= 100 else None,
        "job_p90_samples": n,
        "setup_samples": len(setup),
        "model_wait_pct": 100.0 * wait_s / wall_s,
        "measured_reference_ms": REFERENCE_MS / statistics.median(run.scale for run in batch.runs),
        "completions_per_job_exact": f"{counts.completions}/{n}",
        "prompt_chars_per_job_exact": f"{counts.prompt_chars}/{n}",
        "embed_texts_per_job_exact": f"{counts.embed_texts}/{n}",
        **input_properties(ctx),
    }
    return listed("end_to_end", values), details


# ---------------------------------------------------------------------------
# Traced run

# Source of each per-layer metric (names and units are in BENCHMARK.json):
# ("count", key) and ("kchars", key) read the tracer's counters,
# ("span_ms", name) a span's inclusive time, ("self_ms", layer) a layer's
# self time and ("calls", field) the metered backend's CallCounts.
PER_LAYER = {
    "agent.steps": ("count", "agent.run_step"),
    "agent.invalid_steps": ("count", "agent.invalid_steps"),
    "agent.run_step_ms": ("span_ms", "agent.run_step"),
    "agent.assemble_prompt_ms": ("span_ms", "agent.assemble_prompt"),
    "agent.self_ms": ("self_ms", "agent"),
    "backends.completions": ("calls", "completions"),
    "backends.prompt_chars": ("calls", "prompt_chars"),
    "backends.output_chars": ("calls", "output_chars"),
    "backends.embed_calls": ("calls", "embed_calls"),
    "backends.embed_texts": ("calls", "embed_texts"),
    "backends.complete_ms": ("span_ms", "backends.complete"),
    "backends.embed_ms": ("span_ms", "backends.embed"),
    "backends.adaptive_attempts": ("count", "backends.adaptive_attempts"),
    "backends.self_ms": ("self_ms", "backends"),
    "consistency.branches": ("count", "consistency.branches"),
    "consistency.candidates": ("count", "consistency.candidates"),
    "consistency.greedy_ms": ("span_ms", "consistency.run_greedy"),
    "consistency.branching_ms": ("span_ms", "consistency.tsc"),
    "consistency.aggregate_ms": ("span_ms", "consistency.aggregate"),
    "consistency.self_ms": ("self_ms", "consistency"),
    "structured.json_regen_calls": ("count", "structured.json_regen"),
    "structured.stage.direct": ("count", "structured.stage.direct"),
    "structured.stage.escape_fixed": ("count", "structured.stage.escape_fixed"),
    "structured.stage.regenerated": ("count", "structured.stage.regenerated"),
    "structured.stage.failed": ("count", "structured.stage.failed"),
    "structured.regen_attempts": ("count", "structured.regen_attempts"),
    "structured.json_regen_ms": ("span_ms", "structured.json_regen"),
    "structured.self_ms": ("self_ms", "structured"),
    "tools.dispatches": ("count", "tools.dispatch"),
    "tools.dispatch_ms": ("span_ms", "tools.dispatch"),
    "tools.rule.duplicate_call": ("count", "tools.rule.duplicate_call"),
    "tools.rule.trivial_input": ("count", "tools.rule.trivial_input"),
    "tools.rule.early_finalize": ("count", "tools.rule.early_finalize"),
    "tools.dedup_lines_in": ("count", "tools.dedup_lines_in"),
    "tools.dedup_lines_out": ("count", "tools.dedup_lines_out"),
    "tools.dedup_ms": ("span_ms", "tools.deduplicate_entries"),
    "tools.self_ms": ("self_ms", "tools"),
    "textdist.levenshtein_calls": ("count", "textdist.levenshtein"),
    "textdist.levenshtein_cells": ("count", "textdist.levenshtein_cells"),
    "textdist.levenshtein_ms": ("span_ms", "textdist.levenshtein"),
    "textdist.self_ms": ("self_ms", "textdist"),
    "logexpert.lines": ("count", "logexpert.lines"),
    "logexpert.partition_ms": ("span_ms", "logexpert.partition"),
    "logexpert.build_graph_ms": ("span_ms", "logexpert.build_graph"),
    "logexpert.graph_edges": ("count", "logexpert.graph_edges"),
    "logexpert.louvain_calls": ("count", "logexpert.louvain"),
    "logexpert.louvain_exact": ("count", "logexpert.exact_partition"),
    "logexpert.louvain_large": ("count", "logexpert.louvain_large"),
    "logexpert.louvain_ms": ("span_ms", "logexpert.louvain"),
    "logexpert.remove_overlaps_ms": ("span_ms", "logexpert.remove_overlaps"),
    "logexpert.overlap_greedy": ("count", "logexpert.greedy_contiguous"),
    "logexpert.chunks": ("count", "logexpert.chunks"),
    "logexpert.chunk_analyses": ("count", "logexpert.analyze_chunk"),
    "logexpert.evidence_checked": ("count", "logexpert.evidence_accepted"),
    "logexpert.evidence_kept": ("count", "logexpert.evidence_kept"),
    "logexpert.evidence_filter_ms": ("span_ms", "logexpert.filter_evidence"),
    "logexpert.self_ms": ("self_ms", "logexpert"),
    "snapshots.puts": ("count", "snapshots.put"),
    "snapshots.put_kchars": ("kchars", "snapshots.put_chars"),
    "snapshots.put_ms": ("span_ms", "snapshots.put"),
    "snapshots.resolves": ("count", "snapshots.resolve_args"),
    "snapshots.render_head_ms": ("span_ms", "snapshots.render_head"),
    "snapshots.self_ms": ("self_ms", "snapshots"),
    "sandbox.job_loads": ("count", "sandbox.job"),
    "sandbox.job_load_ms": ("span_ms", "sandbox.job"),
    "sandbox.build_registry_calls": ("count", "sandbox.build_registry"),
    "sandbox.build_registry_ms": ("span_ms", "sandbox.build_registry"),
    "sandbox.self_ms": ("self_ms", "sandbox"),
    "metrics.build_report_ms": ("span_ms", "metrics.build_report"),
    "metrics.self_ms": ("self_ms", "metrics"),
    "mockpolicy.cpu_ms": ("self_ms", "mockpolicy"),
}


def _per_layer(tracer: Tracer, counts: CallCounts, jobs: int) -> dict:
    """Every PER_LAYER metric as a per-job figure over one traced pass."""
    spans_s = tracer.inclusive()
    self_s = tracer.self_times()
    values = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind == "count":
            value = tracer.counts[key]
        elif kind == "kchars":
            value = tracer.counts[key] / 1e3
        elif kind == "calls":
            value = getattr(counts, key)
        elif kind == "span_ms":
            value = spans_s.get(key, 0.0) * 1e3
        else:
            value = self_s.get(key, 0.0) * 1e3
        values[name] = value / jobs
    return values


def measure_traced(ctx: Context, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """Half the run's passes untraced (at least one), then one traced pass.

    Tracing overhead compares the traced pass's job_p50_ms with the median
    of each job's untraced runs."""
    warm_up(ctx)
    plain = run_passes(ctx, max(1, ctx.workload.passes(seconds) // 2))
    tracer = Tracer()
    ctx.tracer = tracer
    tracer.install()
    try:
        traced = run_passes(ctx, 1)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    tracer.write(spans_path)
    untraced_p50 = statistics.median(plain.job_medians()) * 1e3
    traced_p50 = statistics.median(traced.job_medians()) * 1e3
    jobs = len(traced.runs)
    branches = tracer.counts["consistency.branches"]
    values = _per_layer(tracer, _pass_counts(traced.runs), jobs)
    values.update(
        {
            "consistency.candidate_yield": (
                tracer.counts["consistency.candidates"] / branches if branches else 0.0
            ),
            "trace.untraced_job_p50_ms": untraced_p50,
            "trace.job_p50_ms": traced_p50,
            "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
            "trace.spans": len(tracer.spans) / jobs,
        }
    )
    coverage = tracer.coverage_failures(ctx.workload.name)
    ctx.problems.extend(f"coverage: {failure}" for failure in coverage)
    failed = sum(1 for run in plain.runs + traced.runs if not run.passed)
    details = {
        "timed_jobs": len(plain.runs) + jobs,
        "failed_jobs": failed,
        "traced_jobs": jobs,
        "coverage": "ok" if not coverage else "FAILED",
        **input_properties(ctx),
    }
    return listed("per_layer", values), details
