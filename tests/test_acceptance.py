"""End-to-end acceptance suite.

One test per acceptance criterion; ``pytest -v`` prints one pass/fail line
per criterion.  Each test also emits a ``CRITERION nn [PASS]`` line (visible
with ``-s``) once its assertions hold.  Tolerances are pinned inline.
"""

import functools
import importlib.resources
import json
import random
import time
from dataclasses import replace

import pytest
from click.testing import CliRunner

from cloudrca import MockBackend, PolicyBackend, Sandbox, generate_scenarios
from cloudrca.agent import run_trajectory
from cloudrca.backends import GenerationParams, generate_adaptive, ChatExchange
from cloudrca.cli import main
from cloudrca.consistency import (
    METHOD_EMBEDDING_VOTE,
    METHOD_LLM_AGGREGATE,
    aggregate,
    run_greedy,
    run_with_consistency,
    tsc,
)
from cloudrca.logexpert import (
    evidence_accepted,
    louvain,
    remove_overlaps,
)
from cloudrca.metrics import (
    NotComputable,
    invalid_rate,
    norm_score,
    pass_rate,
)
from cloudrca.snapshots import SnapshotStore, render_head
from cloudrca.structured import STAGE_FAILED, json_regen
from cloudrca.textdist import levenshtein

from conftest import job_entries, make_config
from oracles import emb_score
from test_consistency import DetourBackend, VariantBackend, _registry_factory
from test_logexpert import (
    best_partition_oracle,
    flips_between,
    is_contiguous,
    min_flips_oracle,
    modularity_oracle,
    random_graph,
)
from test_metrics import _trajectory


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {num:02d} [FAIL] {title}")
                raise
            print(f"CRITERION {num:02d} [PASS] {title}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def suite50(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite50") / "bundle"
    generate_scenarios(seed=4242, count=50, out_dir=str(out))
    return Sandbox(str(out))


def _run_suite(sandbox: Sandbox, malformed_pct: int, regen: bool) -> float:
    trajectories = []
    for job_id in sandbox.job_ids:
        backend = PolicyBackend(malformed_pct=malformed_pct)
        config = make_config(job_id, max_steps=15, json_regen_enabled=regen)
        registry = sandbox.build_registry(backend)
        trajectories.append(run_trajectory(config, registry, backend))
    return pass_rate(trajectories)


@criterion(1, "deterministic golden runs, < 5 s per job")
def test_criterion_01_golden_determinism(scenario_dir, sandbox, tmp_path):
    runner = CliRunner()
    job_id = sandbox.job_ids[0]
    texts, durations = [], []
    for i in range(3):
        out = tmp_path / f"run{i}"
        started = time.perf_counter()
        result = runner.invoke(
            main,
            [
                "diagnose",
                job_id,
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(out),
                "--seed",
                "0",
            ],
        )
        durations.append(time.perf_counter() - started)
        assert result.exit_code == 0, result.output
        texts.append((out / job_id / "trajectory.jsonl").read_bytes())
    assert texts[0] == texts[1] == texts[2]
    assert all(d < 5.0 for d in durations), durations


@criterion(2, "pass rate >= 95% at 10% malformed; >= 10-point drop without repair")
def test_criterion_02_stability_under_malformed_actions(suite50):
    with_regen = _run_suite(suite50, malformed_pct=10, regen=True)
    without_regen = _run_suite(suite50, malformed_pct=10, regen=False)
    assert with_regen >= 95.0, (with_regen, without_regen)
    assert with_regen - without_regen >= 10.0, (with_regen, without_regen)


@criterion(3, "repair corpus: >= 90% non-LLM parse; no exceptions with regeneration")
def test_criterion_03_repair_corpus():
    corpus_text = (
        importlib.resources.files("cloudrca")
        .joinpath("data/repair_corpus.jsonl")
        .read_text(encoding="utf-8")
    )
    records = [json.loads(line) for line in corpus_text.splitlines() if line.strip()]
    assert len(records) >= 100
    local_ok = 0
    for record in records:
        outcome = json_regen(None, record["raw"])
        if outcome.ok:
            local_ok += 1
        assert outcome.ok == record["expected_parse_ok"]
        # scripted regeneration backend: never raises, dict or {} sentinel
        regen = json_regen(PolicyBackend(), record["raw"])
        assert isinstance(regen.value, dict)
        if not regen.ok:
            assert regen.value == {} and regen.stage == STAGE_FAILED
    assert 100.0 * local_ok / len(records) >= 90.0


@criterion(4, "clustering equals exhaustive oracle; minimum flips; contiguity")
def test_criterion_04_clustering_oracles():
    rng = random.Random(7)
    # exhaustive modularity maximum on every graph with <= 8 vertices
    for _ in range(30):
        graph = random_graph(rng, rng.randrange(2, 9))
        labels = louvain(graph)
        assert modularity_oracle(graph, labels) == pytest.approx(
            best_partition_oracle(graph), abs=1e-9
        )
    # brute-force minimum flip count on <= 6-line cases
    for _ in range(200):
        labels = [rng.randrange(3) for _ in range(rng.randrange(1, 7))]
        repaired = remove_overlaps(list(labels))
        assert is_contiguous(repaired)
        assert flips_between(labels, repaired) == min_flips_oracle(labels)
    # contiguity and coverage on 1000 randomized logs
    for _ in range(1000):
        n = rng.randrange(1, 40)
        labels = [rng.randrange(6) for _ in range(n)]
        repaired = remove_overlaps(list(labels))
        assert len(repaired) == n
        assert is_contiguous(repaired)


@criterion(5, "evidence filter threshold and monotonicity under chunk extension")
def test_criterion_05_evidence_filter():
    chunk = "ERROR taskmanager - heap exhausted\nINFO checkpoint 4 ok"

    def literal_threshold(evidence: str, text: str) -> bool:
        return levenshtein(evidence, text) < len(text) - 0.9 * len(evidence)

    cases = [
        "ERROR taskmanager - heap exhausted",  # exact substring
        chunk,  # identity
        "a completely unrelated sentence about databases",  # absent
        "",
    ]
    for evidence in cases:
        expected = bool(evidence) and literal_threshold(evidence, chunk)
        assert evidence_accepted(evidence, chunk) == expected
    assert evidence_accepted(cases[0], chunk)
    assert not evidence_accepted(cases[2], chunk)
    # monotonicity: accepted evidence stays accepted as the chunk grows
    rng = random.Random(11)
    alphabet = "abcdef \n"
    checked = 0
    while checked < 500:
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(20, 80)))
        start = rng.randrange(0, len(text) // 2)
        evidence = text[start : start + rng.randrange(3, 12)]
        if not evidence_accepted(evidence, text):
            continue
        extension = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
        assert evidence_accepted(evidence, text + extension)
        checked += 1


@criterion(6, "snapshot rendering is bit-exact for the 60-line/7-head case")
def test_criterion_06_snapshot_protocol():
    store = SnapshotStore()
    body = "\n".join(f"line {i:02d}" for i in range(60))
    key = store.put(body)
    assert len(key) == 10 and key.isdigit()
    rendered = render_head(body, key)
    lines = rendered.splitlines()
    assert lines[:7] == body.splitlines()[:7]
    assert lines[7] == "...53 lines omitted."
    assert lines[8] == f"[ snapshot: {key} ]"
    assert store.get(key) == body


@criterion(7, "branch prefix sharing, bound exclusion, majority vote, K=1 parity")
def test_criterion_07_trajectory_self_consistency(sandbox):
    job_id = sandbox.job_ids[0]
    config = make_config(job_id)
    factory = _registry_factory(sandbox)
    backend = PolicyBackend()
    greedy, store = run_greedy(config, factory, backend)
    assert greedy.passed

    # shared prefix on every branch of a k=10 run
    candidates = tsc(config, factory, backend, k=10, store=store, greedy=greedy)
    assert len(candidates) == 10
    prefix = [s.to_dict() for s in greedy.steps[:-1]]
    for cand in candidates:
        assert [s.to_dict() for s in cand.steps[: len(prefix)]] == prefix

    # branches exceeding the global bound produce no candidate
    slow = lambda _i: DetourBackend(detours=1)
    excluded = tsc(
        replace(config, max_steps=len(greedy.steps)),
        factory,
        backend,
        k=3,
        store=store,
        greedy=greedy,
        branch_backend_factory=slow,
    )
    assert excluded == []

    # 2-vs-1 vote returns a majority-cluster member
    variants = lambda i: (
        VariantBackend("unrelated cosmic ray event") if i == 2 else PolicyBackend()
    )
    voted = tsc(
        config,
        factory,
        backend,
        k=3,
        store=store,
        greedy=greedy,
        branch_backend_factory=variants,
    )
    outcome = aggregate(voted, METHOD_EMBEDDING_VOTE, backend)
    assert outcome.result.root_cause == voted[0].result.root_cause
    assert voted[2].result.root_cause != voted[0].result.root_cause

    # K=1 equals greedy for both aggregation methods
    for method in (METHOD_EMBEDDING_VOTE, METHOD_LLM_AGGREGATE):
        report = run_with_consistency(
            config, factory, backend, mode="tsc", aggregation=method, k=1
        )
        assert report.outcome.result.to_dict() == greedy.result.to_dict()


@criterion(8, "metric identities to 1e-9; hand-computed 5-trajectory rates")
def test_criterion_08_metrics():
    backend = MockBackend()
    assert emb_score("same text", "same text", backend) == pytest.approx(1.0, abs=1e-9)
    fn = lambda p, r: emb_score(p, r, backend)
    assert norm_score(fn, "Unclear", "reference answer") == pytest.approx(0.0, abs=1e-9)
    assert norm_score(fn, "reference answer", "reference answer") == pytest.approx(
        1.0, abs=1e-9
    )
    with pytest.raises(NotComputable):
        norm_score(fn, "anything", "Unclear")
    fixture = [
        _trajectory(4, 0, True),
        _trajectory(5, 1, True),
        _trajectory(10, 5, False),
        _trajectory(2, 2, True),
        _trajectory(4, 1, False),
    ]
    assert pass_rate(fixture) == pytest.approx(60.0, abs=1e-9)
    assert invalid_rate(fixture) == pytest.approx(39.0, abs=1e-9)


@criterion(9, "no tool output contains entries at or after detection time")
def test_criterion_09_temporal_soundness(tmp_path):
    out = tmp_path / "bundle"
    generate_scenarios(seed=99, count=200, out_dir=str(out))
    sandbox = Sandbox(str(out))
    registry = sandbox.build_registry(PolicyBackend())
    source_for = {
        "runtime_log": "logs.runtime",
        "platform_log": "logs.platform",
        "infra_log": "logs.infrastructure",
        "advisor_history": "advisor",
    }
    for job_id in sandbox.job_ids:
        detection_time = sandbox.job(job_id).detection_time
        entries = {
            name: job_entries(str(out), job_id, source)
            for name, source in source_for.items()
        }
        late = {
            e["text"]
            for listed in entries.values()
            for e in listed
            if e["timestamp"] >= detection_time
        }
        assert late  # the generator plants post-detection entries
        for name, listed in entries.items():
            observed = registry.handler(name)({"job_id": job_id})
            for line in observed.splitlines():
                assert line not in late
            expected = [e["text"] for e in listed if e["timestamp"] < detection_time]
            assert observed == "\n".join(expected)


@criterion(10, "over-length output triggers one regeneration with +0.5 penalties")
def test_criterion_10_adaptive_penalty():
    long_reply = "x" * (4096 * 4 + 4)  # one token over the restart threshold
    backend = MockBackend([long_reply, "short reply"])
    exchange = ChatExchange(system_prompt="s", messages=[("user", "u")])
    params = GenerationParams(mode="greedy")
    outcome = generate_adaptive(backend, exchange, params)
    assert outcome.text == "short reply"
    assert outcome.attempts == 2
    assert len(backend.calls) == 2
    first, second = (call.params for call in backend.calls)
    assert second.penalty == pytest.approx(first.penalty + 0.5, abs=1e-12)
