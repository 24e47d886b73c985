"""Self-checks of the benchmark: exact cost counts, the latency model, the
longlog input mix, span accounting, wrapper coverage and the metric lists
in BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import cloudrca
from perfbench import harness, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Totals over the acceptance bundle (seed 4242, 50 jobs, 10% malformed
# actions).  Prompt characters are the system prompt plus all messages.
ACCEPTANCE_SEED = 4242
EXPECTED_TOTALS = {
    "greedy": {"completions": 317, "prompt_chars": 744406, "embed_calls": 50, "embed_texts": 415},
    "tsc": {"completions": 817, "prompt_chars": 3152336, "embed_calls": 200, "embed_texts": 1915},
}


def _context(tmp_path, name: str, jobs: int, **changes):
    config = workloads.load_config()
    wl = replace(workloads.workload(config, name), jobs=jobs, **changes)
    bundle = str(tmp_path / "bundle")
    workloads.make_bundle(config, wl, ACCEPTANCE_SEED, bundle)
    return harness.make_context(config, wl, bundle)


@pytest.mark.parametrize("mode", ["greedy", "tsc"])
def test_counting_wrapper_reproduces_acceptance_counts(tmp_path, mode):
    """The counting wrapper, traced, matches the pinned totals; every job
    passes; the wrappers its workload needs all fired."""
    name = "batch-greedy" if mode == "greedy" else "batch-tsc-live"
    ctx = _context(tmp_path, name, jobs=50, live_latency=False, mode=mode)
    ctx.tracer = tracer.Tracer()
    ctx.tracer.install()
    try:
        runs = [harness.run_job(ctx, job_id) for job_id in ctx.job_ids]
        for run in runs:
            run.outcome.reference = ctx.sandbox.job(run.job_id).ground_truth
        report = cloudrca.build_report([run.outcome for run in runs], ctx.scorer)
    finally:
        ctx.tracer.uninstall()
    total = workloads.CallCounts()
    for run in runs:
        total.add(run.counts)
    got = {key: getattr(total, key) for key in EXPECTED_TOTALS[mode]}
    assert got == EXPECTED_TOTALS[mode]
    assert all(run.passed for run in runs)
    assert ctx.problems == []
    per_job = total.completions / 50, total.prompt_chars / 50 / 1e3
    assert per_job == pytest.approx((6.3, 14.9) if mode == "greedy" else (16.3, 63.0), abs=0.1)
    assert ctx.tracer.coverage_failures(name) == []
    assert report["pass_rate"] == 100.0
    assert report["fields"]["responsibility"]["precision"] == 100.0
    if mode == "greedy":
        assert report["fields"]["root_cause"]["emb_score"] == pytest.approx(0.651, abs=5e-4)


def test_tracing_leaves_outputs_unchanged(tmp_path):
    ctx = _context(tmp_path, "batch-greedy", jobs=6)
    for job_id in ctx.job_ids:
        harness.run_job(ctx, job_id)
    plain = dict(ctx.digests)
    ctx.digests.clear()
    ctx.tracer = tracer.Tracer()
    ctx.tracer.install()
    try:
        for job_id in ctx.job_ids:
            harness.run_job(ctx, job_id)
    finally:
        ctx.tracer.uninstall()
    assert ctx.digests == plain
    assert ctx.problems == []
    assert cloudrca.tools.deduplicate_entries is cloudrca.textdist.deduplicate_entries


def test_coverage_reports_missing_and_silent_wrappers(monkeypatch):
    monkeypatch.setattr(
        tracer, "BINDINGS", tracer.BINDINGS + [tracer.Binding("cloudrca.tools:no_such_fn", "tools.x")]
    )
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    failures = t.coverage_failures("longlog")
    assert "cloudrca.tools:no_such_fn: not found" in failures
    assert "cloudrca.logexpert:levenshtein: fired 0 times" in failures
    assert "cloudrca.logexpert:_greedy_contiguous: fired 0 times" in failures
    assert "logexpert.louvain_large: counted 0" in failures
    assert not hasattr(cloudrca.tools, "no_such_fn")


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans.extend(
        [
            ["agent.run_step", 0.0, 10.0, -1, "j"],
            ["tools.dispatch", 1.0, 7.0, 0, "j"],
            ["textdist.levenshtein", 2.0, 5.0, 1, "j"],
            ["backends.complete", 8.0, 9.0, 0, "j"],
        ]
    )
    assert t.self_times() == {"agent": 3.0, "tools": 3.0, "textdist": 3.0, "backends": 1.0}
    assert t.inclusive()["tools.dispatch"] == 6.0


class _Echo:
    def complete(self, exchange, params):
        return "x" * 40

    def embed(self, texts):
        return [None] * len(texts)


def test_latency_model_sleeps_the_stated_formula():
    model = workloads.LatencyModel.from_config(workloads.load_config())
    slept = []
    backend = workloads.MeteredBackend(_Echo(), model, sleep=slept.append)
    exchange = cloudrca.ChatExchange("s" * 100, [("user", "u" * 900)])
    backend.complete(exchange, cloudrca.GenerationParams(mode="greedy"))
    backend.embed(["a", "b", "c"])
    assert slept == [
        pytest.approx(
            model.completion_base_ms / 1e3
            + model.completion_us_per_prompt_char * 1000 / 1e6
            + model.completion_us_per_output_char * 40 / 1e6
        ),
        pytest.approx((model.embed_base_ms + 3 * model.embed_ms_per_text) / 1e3),
    ]
    counts = backend.counts
    assert (counts.completions, counts.prompt_chars, counts.output_chars) == (1, 1000, 40)
    assert (counts.embed_calls, counts.embed_texts) == (1, 3)


def test_longlog_inputs_follow_the_stated_mix(tmp_path):
    config = workloads.load_config()
    spec = config["longlog"]
    wl = workloads.workload(config, "longlog")
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    job_ids = workloads.make_bundle(config, wl, 11, first)
    workloads.make_bundle(config, wl, 11, second)
    pattern = spec["pattern"]
    repeats = spec["extra_lines"] * pattern.count("r") // len(pattern)
    for job_id in job_ids:
        with open(os.path.join(first, job_id, "logs.runtime.jsonl"), encoding="utf-8") as fh:
            text = fh.read()
        with open(os.path.join(second, job_id, "logs.runtime.jsonl"), encoding="utf-8") as fh:
            assert fh.read() == text
        inputs = workloads.read_job_inputs(first, job_id)
        added = workloads.longlog_lines(
            spec, random.Random(f"longlog:11:{job_id}")
        )
        assert len(added) == spec["extra_lines"]
        assert set(added) <= inputs.pre_detection
        assert sum(line.startswith("WARN") for line in set(added)) == spec["warn_lines"]
        share = workloads.exact_repeat_share(added)
        assert abs(share * len(added) - repeats) <= 2


@pytest.mark.parametrize("trace", [0, 1])
def test_one_pass_reports_every_listed_metric(tmp_path, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.load_config()["workloads"])
    ctx = _context(tmp_path, "batch-greedy", jobs=3)
    if trace:
        metrics, _ = harness.measure_traced(ctx, 0.0, str(tmp_path / "spans.jsonl"))
    else:
        metrics, _ = harness.measure(ctx, 0.0, os.path.join(ROOT, "src"))
    section = bench["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in section
    }


def test_run_refuses_a_checkout_without_program_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-greedy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
