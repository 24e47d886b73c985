"""Self-consistency sampling and aggregation tests.

The sandbox policy backend is deterministic, which makes the sampling
strategies easy to pin down: branches that share a greedy prefix must
reproduce its steps verbatim, and a single-candidate aggregation must
return the greedy answer unchanged.
"""

import copy
import json
import random
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from cloudrca import (
    MockBackend,
    PolicyBackend,
    Sandbox,
    backends,
    consistency,
    generate_scenarios,
    prompts,
)
from cloudrca.backends import LAST_COMPLETION_WAITED, GenerationParams, HttpBackend
from cloudrca.agent import run_trajectory
from cloudrca.consistency import (
    DEFAULT_K,
    METHOD_EMBEDDING_VOTE,
    METHOD_LLM_AGGREGATE,
    aggregate,
    aggregate_with_llm,
    _majority_responsibility,
    _strip_enumeration,
    run_greedy,
    run_with_consistency,
    sc_stepwise,
    tsc,
    vote_with_embedding,
)
from cloudrca.errors import ConfigurationError, TransportError
from cloudrca.logexpert import CHUNK_BUDGET
from cloudrca.mockpolicy import _SINGLE_TURN
from cloudrca.textdist import deduplicate_entries, split_log
from cloudrca.trajectory import AnalysisResult, Trajectory

from conftest import SlowBackend, make_config
from test_backends import _FakeResponse, _FakeSession
from test_golden import stretch_runtime_logs


class DetourBackend(PolicyBackend):
    """Policy variant that takes ``detours`` extra info steps before it is
    willing to finalize."""

    def __init__(self, detours: int):
        super().__init__()
        self.detours = detours
        self.taken = 0

    def _controller(self, user: str) -> str:
        if "Interpretation:" in user and self.taken < self.detours:
            self.taken += 1
            job_id = user.split("anomalous job ")[1].split(".")[0]
            action = {"function": "platform_log", "kwargs": {"job_id": job_id}}
            return (
                "Checking the platform logs before concluding.\n"
                f"Function: {json.dumps(action, sort_keys=True)}"
            )
        return super()._controller(user)


class VariantBackend(PolicyBackend):
    """Policy variant that finalizes with a fixed alternative root cause."""

    def __init__(self, root_cause: str):
        super().__init__()
        self.variant_root_cause = root_cause

    def _controller(self, user: str) -> str:
        reply = super()._controller(user)
        if '"function": "finalize"' not in reply:
            return reply
        thought, _, action_json = reply.partition("\nFunction: ")
        action = json.loads(action_json)
        action["kwargs"]["root_cause"] = self.variant_root_cause
        return f"{thought}\nFunction: {json.dumps(action, sort_keys=True)}"


class RecordingBackend(DetourBackend):
    """DetourBackend that appends the params of each completion to
    ``calls``, a list the caller may share between instances."""

    def __init__(self, detours: int, calls: list):
        super().__init__(detours)
        self.calls = calls

    def complete(self, exchange, params):
        self.calls.append(params)
        return super().complete(exchange, params)


class FailingBackend(PolicyBackend):
    """Policy variant whose every completion fails at the transport level."""

    def complete(self, exchange, params):
        raise TransportError("connection reset")


def _registry_factory(sandbox):
    return lambda backend: sandbox.build_registry(backend)


# ---------------------------------------------------------------------------
# Aggregation primitives


class TestVoteWithEmbedding:
    def test_majority_wins(self, policy_backend):
        texts = ["disk quota exceeded", "disk quota exceeded", "network flake"]
        assert vote_with_embedding(texts, policy_backend) == 0

    def test_single_candidate(self, policy_backend):
        assert vote_with_embedding(["anything"], policy_backend) == 0

    def test_tie_takes_lowest_index(self, policy_backend):
        # identical texts embed identically: every similarity ties
        assert vote_with_embedding(["same", "same", "same"], policy_backend) == 0

    def test_empty_rejected(self, policy_backend):
        with pytest.raises(ValueError):
            vote_with_embedding([], policy_backend)


class TestMajorityResponsibility:
    def test_clear_majority(self):
        assert _majority_responsibility(["User", "User", "Platform"]) == "User"

    def test_tie_is_unclear(self):
        assert _majority_responsibility(["User", "Platform"]) == "Unclear"

    def test_unanimous(self):
        assert _majority_responsibility(["Platform"] * 3) == "Platform"


class TestAggregate:
    def _candidates(self):
        results = [
            AnalysisResult("oom", "raise memory", "ev-a", "User"),
            AnalysisResult("oom", "raise memory", "ev-a", "User"),
            AnalysisResult("timeout", "retry", "ev-b", "Platform"),
        ]
        return [Trajectory(result=r) for r in results]

    def test_embedding_vote_per_field(self, policy_backend):
        outcome = aggregate(self._candidates(), METHOD_EMBEDDING_VOTE, policy_backend)
        assert outcome.result.root_cause == "oom"
        assert outcome.result.solution == "raise memory"
        assert outcome.result.evidence == "ev-a"
        assert outcome.result.responsibility == "User"

    def test_llm_aggregate(self, policy_backend):
        # the policy's merge sub-policy echoes candidate 1
        outcome = aggregate(self._candidates(), METHOD_LLM_AGGREGATE, policy_backend)
        assert outcome.result.root_cause == "oom"
        assert outcome.result.responsibility == "User"

    def test_unknown_method(self, policy_backend):
        with pytest.raises(ValueError):
            aggregate(self._candidates(), "median", policy_backend)

    def test_no_candidates(self, policy_backend):
        with pytest.raises(ValueError):
            aggregate([], METHOD_EMBEDDING_VOTE, policy_backend)

    def test_llm_merge_of_no_candidates_is_an_error(self):
        backend = MockBackend([])
        with pytest.raises(ValueError, match="need at least one candidate"):
            aggregate_with_llm([], backend)
        assert backend.calls == []

    def test_llm_fallback_on_backend_failure(self):
        # exhausted script raises; the merge falls back to the vote
        backend = MockBackend([])
        merged = aggregate_with_llm(["alpha", "alpha", "beta"], backend)
        assert merged == "alpha"

    def test_llm_strips_enumeration(self):
        backend = MockBackend(["1. merged answer"])
        assert aggregate_with_llm(["a", "b"], backend) == "merged answer"

    @pytest.mark.parametrize(
        "reply, expected",
        [
            ("- merged answer", "merged answer"),
            ("* merged answer", "merged answer"),
            ("  - first\n* second\n2) third  ", "first\nsecond\nthird"),
            ("-1 degree", "-1 degree"),
        ],
    )
    def test_strip_enumeration_drops_list_markers(self, reply, expected):
        assert _strip_enumeration(reply) == expected


# ---------------------------------------------------------------------------
# Sampling strategies against the sandbox


class TestTsc:
    def test_branches_share_greedy_prefix(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        assert greedy.passed
        candidates = tsc(
            config, factory, policy_backend, k=10, store=store, greedy=greedy
        )
        assert len(candidates) == 10
        prefix = [s.to_dict() for s in greedy.steps[:-1]]
        for cand in candidates:
            shared = [s.to_dict() for s in cand.steps[: len(prefix)]]
            assert shared == prefix
            assert cand.seed_prefix_len == len(prefix)
            assert cand.passed

    def test_bound_excludes_slow_branches(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        bound = len(greedy.steps)

        def detouring(_: int):
            return DetourBackend(detours=1)

        candidates = tsc(
            replace(config, max_steps=bound),
            factory,
            policy_backend,
            k=3,
            store=store,
            greedy=greedy,
            branch_backend_factory=detouring,
        )
        assert candidates == []

        # one more step of headroom and the same branches finalize
        candidates = tsc(
            replace(config, max_steps=bound + 1),
            factory,
            policy_backend,
            k=3,
            store=store,
            greedy=greedy,
            branch_backend_factory=detouring,
        )
        assert len(candidates) == 3
        for cand in candidates:
            assert len(cand.steps) == bound + 1

    def test_bound_must_cover_greedy(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        with pytest.raises(ValueError):
            tsc(
                replace(config, max_steps=len(greedy.steps) - 1),
                factory,
                policy_backend,
                k=2,
                store=store,
                greedy=greedy,
            )

    def test_two_versus_one_vote(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)

        def variants(i: int):
            if i == 2:
                return VariantBackend("a stray cosmic ray flipped a bit")
            return policy_backend.clone()

        candidates = tsc(
            config,
            factory,
            policy_backend,
            k=3,
            store=store,
            greedy=greedy,
            branch_backend_factory=variants,
        )
        assert len(candidates) == 3
        outcome = aggregate(candidates, METHOD_EMBEDDING_VOTE, policy_backend)
        majority = candidates[0].result.root_cause
        assert candidates[2].result.root_cause != majority
        assert outcome.result.root_cause == majority

    def test_requires_passing_greedy(self, sandbox):
        config = make_config("fj00000000")  # unknown job: greedy cannot pass
        factory = _registry_factory(sandbox)
        backend = PolicyBackend()
        greedy, store = run_greedy(config, factory, backend)
        assert not greedy.passed
        with pytest.raises(ConfigurationError):
            tsc(config, factory, backend, k=2, store=store, greedy=greedy)

    def test_k_validation(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        with pytest.raises(ValueError, match="k must be >= 1"):
            tsc(config, factory, policy_backend, k=0, store=store, greedy=greedy)


class TestScStepwise:
    def test_resamples_only_finalize(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        candidates = sc_stepwise(
            config, factory, policy_backend, k=5, store=store, greedy=greedy
        )
        assert len(candidates) == 5
        for cand in candidates:
            assert len(cand.steps) == len(greedy.steps)
            assert cand.steps[-1].action.function == "finalize"
            assert cand.result.to_dict() == greedy.result.to_dict()

    def test_non_finalize_samples_dropped(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)

        def detouring(_: int):
            # never finalizes within the single re-sampled generation
            return DetourBackend(detours=10)

        candidates = sc_stepwise(
            config,
            factory,
            policy_backend,
            k=4,
            store=store,
            greedy=greedy,
            branch_backend_factory=detouring,
        )
        assert candidates == []


def test_branches_decode_sampled_with_the_config_penalties(sandbox):
    config = make_config(
        sandbox.job_ids[0], params=GenerationParams(penalty=0.5)
    )
    factory = _registry_factory(sandbox)
    greedy_calls, branch_calls = [], []
    greedy, store = run_greedy(config, factory, RecordingBackend(0, greedy_calls))
    assert greedy_calls and {p.mode for p in greedy_calls} == {"greedy"}
    sampled = GenerationParams(penalty=0.5, mode="sampled")

    def detouring(_: int):
        return RecordingBackend(1, branch_calls)

    # sc: the one re-sampled step detours, and a budget of len(greedy.steps)
    # ends every branch there
    candidates = sc_stepwise(
        config, factory, PolicyBackend(), k=3, store=store, greedy=greedy,
        branch_backend_factory=detouring,
    )
    assert candidates == []
    assert branch_calls == [sampled] * 3

    # tsc: the same branches take the detour, then finalize
    branch_calls.clear()
    candidates = tsc(
        config, factory, PolicyBackend(), k=3, store=store, greedy=greedy,
        branch_backend_factory=detouring,
    )
    assert [len(c.steps) for c in candidates] == [len(greedy.steps) + 1] * 3
    assert branch_calls == [sampled] * 6


class TestRunWithConsistency:
    def test_greedy_mode(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        report = run_with_consistency(
            config, _registry_factory(sandbox), policy_backend, mode="greedy"
        )
        assert report.greedy.passed
        assert len(report.candidates) == 1
        assert report.outcome.result.to_dict() == report.greedy.result.to_dict()

    @pytest.mark.parametrize(
        "method", [METHOD_EMBEDDING_VOTE, METHOD_LLM_AGGREGATE]
    )
    @pytest.mark.parametrize("mode", ["sc", "tsc"])
    def test_k1_matches_greedy_either_method(
        self, sandbox, policy_backend, mode, method
    ):
        config = make_config(sandbox.job_ids[0])
        factory = _registry_factory(sandbox)
        greedy_report = run_with_consistency(
            config, factory, policy_backend, mode="greedy"
        )
        report = run_with_consistency(
            config, factory, policy_backend, mode=mode, aggregation=method, k=1
        )
        assert (
            report.outcome.result.to_dict()
            == greedy_report.outcome.result.to_dict()
        )

    def test_sample_full_mode(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[1])
        report = run_with_consistency(
            config, _registry_factory(sandbox), policy_backend, mode="sample-full", k=3
        )
        assert len(report.candidates) == 3
        for cand in report.candidates:
            assert cand.seed_prefix_len == 0

    def test_empty_candidates_fall_back_to_greedy(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        factory = _registry_factory(sandbox)

        def detouring(_: int):
            return DetourBackend(detours=10)

        report = run_with_consistency(
            config,
            factory,
            policy_backend,
            mode="sc",
            k=2,
            branch_backend_factory=detouring,
        )
        assert len(report.candidates) == 1
        assert report.outcome.result.to_dict() == report.greedy.result.to_dict()

    def test_unknown_mode(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        with pytest.raises(ValueError):
            run_with_consistency(
                config, _registry_factory(sandbox), policy_backend, mode="vote"
            )

    @pytest.mark.parametrize(
        "mode, aggregation",
        [("vote", METHOD_EMBEDDING_VOTE), ("greedy", "median"), ("tsc", "median")],
    )
    def test_bad_input_raises_before_any_model_call(self, sandbox, mode, aggregation):
        calls = []
        with pytest.raises(ValueError):
            run_with_consistency(
                make_config(sandbox.job_ids[0]),
                _registry_factory(sandbox),
                RecordingBackend(0, calls),
                mode=mode,
                aggregation=aggregation,
                branch_backend_factory=lambda _: RecordingBackend(0, calls),
            )
        assert calls == []


@pytest.mark.parametrize("mode", ["sc", "tsc", "sample-full"])
def test_failed_branch_yields_no_candidate(sandbox, policy_backend, mode):
    config = make_config(sandbox.job_ids[0])
    report = run_with_consistency(
        config,
        _registry_factory(sandbox),
        policy_backend,
        mode=mode,
        k=3,
        branch_backend_factory=lambda _: FailingBackend(),
    )
    assert report.greedy.passed
    assert len(report.candidates) == 1
    assert report.candidates[0] is report.greedy
    assert report.outcome.result.to_dict() == report.greedy.result.to_dict()


def null_content_backend() -> HttpBackend:
    """HTTP backend whose endpoint answers with ``content: null``, as servers
    do for refusals; a scripted session stands in for the network."""
    chat = {"choices": [{"message": {"content": None}}]}
    session = _FakeSession([_FakeResponse(200, chat)])
    return HttpBackend("http://localhost:1", "m", session=session)


class TestNonStringContent:
    def test_greedy_run_records_the_failure(self, sandbox):
        config = make_config(sandbox.job_ids[0])
        greedy, _ = run_greedy(config, _registry_factory(sandbox), null_content_backend())
        assert not greedy.passed
        assert "backend failure" in greedy.diagnostic
        assert "not a string" in greedy.diagnostic

    def test_faulty_tsc_branch_yields_no_candidate(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        report = run_with_consistency(
            config,
            _registry_factory(sandbox),
            policy_backend,
            mode="tsc",
            k=3,
            branch_backend_factory=lambda i: (
                null_content_backend() if i == 1 else PolicyBackend()
            ),
        )
        assert report.greedy.passed
        assert len(report.candidates) == 2
        assert all(c.passed for c in report.candidates)


# ---------------------------------------------------------------------------
# Concurrent branches


def _sequential_branches(
    config,
    registry_factory,
    backend,
    k,
    backend_factory,
    max_steps,
    greedy=None,
    store=None,
):
    """The branch runner as it was before branches ran concurrently: one
    branch after another, in index order."""
    config = replace(
        config, params=replace(config.params, mode="sampled"), max_steps=max_steps
    )
    candidates = []
    for i in range(k):
        branch_backend = backend_factory(i) if backend_factory else backend
        initial = None
        if greedy is not None:
            steps = copy.deepcopy(greedy.steps[:-1])
            initial = Trajectory(steps=steps, seed_prefix_len=len(steps))
        trajectory = run_trajectory(
            config,
            registry_factory(branch_backend),
            branch_backend,
            store=store.branch() if store is not None else None,
            initial=initial,
        )
        if trajectory.passed:
            candidates.append(trajectory)
    return candidates


class TestConcurrentBranches:
    def test_branches_overlap(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        # as after a greedy run whose final call waited on the model
        LAST_COMPLETION_WAITED.set(True)
        delay = 0.1
        slow = SlowBackend(delay)
        start = time.perf_counter()
        candidates = tsc(config, factory, slow, k=10, store=store, greedy=greedy)
        elapsed = time.perf_counter() - start
        assert len(candidates) == 10
        assert slow.peaks["complete"] >= 2
        # one after another, ten branches would wait at least 10 * delay
        assert elapsed < 5 * delay

    def test_candidates_keep_index_order(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        # as after a greedy run whose final call waited on the model
        LAST_COMPLETION_WAITED.set(True)
        k = 5
        finished = []

        class Delayed(VariantBackend):
            def __init__(self, index):
                super().__init__(f"variant root cause {index}")
                self.index = index

            def complete(self, exchange, params):
                # branch i waits (k - i) steps: the last branch finishes first
                time.sleep(0.03 * (k - self.index))
                reply = super().complete(exchange, params)
                finished.append(self.index)
                return reply

        candidates = tsc(
            config,
            factory,
            policy_backend,
            k=k,
            store=store,
            greedy=greedy,
            branch_backend_factory=Delayed,
        )
        assert finished != sorted(finished)
        assert [c.result.root_cause for c in candidates] == [
            f"variant root cause {i}" for i in range(k)
        ]

    def test_backend_factory_runs_on_the_calling_thread_in_order(
        self, sandbox, policy_backend
    ):
        config = make_config(sandbox.job_ids[0])
        calls = []

        def factory(i):
            calls.append((i, threading.get_ident()))
            return policy_backend.clone()

        run_with_consistency(
            config,
            _registry_factory(sandbox),
            policy_backend,
            mode="tsc",
            k=DEFAULT_K,
            branch_backend_factory=factory,
        )
        assert calls == [(i, threading.get_ident()) for i in range(DEFAULT_K)]

    @pytest.mark.parametrize("mode", ["sc", "tsc", "sample-full"])
    def test_no_worker_thread_outlives_the_job(self, sandbox, policy_backend, mode):
        config = make_config(sandbox.job_ids[0])
        before = threading.active_count()
        run_with_consistency(
            config, _registry_factory(sandbox), policy_backend, mode=mode, k=4
        )
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", ["sc", "tsc", "sample-full"])
    def test_no_branches_is_an_error(self, sandbox, policy_backend, mode):
        config = make_config(sandbox.job_ids[0])
        with pytest.raises(ValueError, match="k must be >= 1"):
            run_with_consistency(
                config, _registry_factory(sandbox), policy_backend, mode=mode, k=0
            )

    @pytest.mark.parametrize("mode", ["sc", "tsc", "sample-full"])
    def test_no_branches_fails_before_any_model_call(self, sandbox, mode):
        # the greedy run of this backend would fail on its first call
        backend = MockBackend([])
        config = make_config(sandbox.job_ids[0])
        with pytest.raises(ValueError, match="k must be >= 1"):
            run_with_consistency(
                config, _registry_factory(sandbox), backend, mode=mode, k=0
            )
        assert backend.calls == []

    @pytest.mark.parametrize("mode", ["sc", "tsc", "sample-full"])
    def test_report_equals_sequential_run(self, sandbox, monkeypatch, mode):
        backend = PolicyBackend(malformed_pct=30)
        factory = _registry_factory(sandbox)
        for job_id in sandbox.job_ids:
            config = make_config(job_id)
            concurrent = run_with_consistency(config, factory, backend, mode=mode, k=4)
            with monkeypatch.context() as patch:
                patch.setattr(consistency, "_run_branches", _sequential_branches)
                sequential = run_with_consistency(
                    config, factory, backend, mode=mode, k=4
                )
            assert concurrent == sequential
            assert [c.to_jsonl() for c in concurrent.candidates] == [
                c.to_jsonl() for c in sequential.candidates
            ]


# ---------------------------------------------------------------------------
# Independent calls of one job overlap once the model makes the job wait


class BusyBackend(PolicyBackend):
    """Policy backend that computes for about 20 ms of this thread's CPU time
    per completion, as a model run in-process does; ``threads`` holds the
    number of live threads at each completion."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def complete(self, exchange, params):
        self.threads.append(threading.active_count())
        end = time.thread_time() + 0.02
        while time.thread_time() < end:
            pass
        return super().complete(exchange, params)


def _job_bytes(report) -> tuple:
    return (
        report.greedy.to_jsonl(),
        json.dumps(report.outcome.result.to_dict(), sort_keys=True),
        [c.to_jsonl() for c in report.candidates],
    )


@pytest.fixture(scope="module")
def long_log_sandbox(scenario_dir, tmp_path_factory):
    """The sandbox bundle with its runtime logs stretched by
    ``stretch_runtime_logs``, so that some of them run past CHUNK_BUDGET."""
    out = tmp_path_factory.mktemp("long") / "bundle"
    shutil.copytree(scenario_dir, out)
    stretch_runtime_logs(sorted(out.glob("*/logs.runtime.jsonl")), random.Random(43), 60)
    return Sandbox(str(out))


@pytest.fixture(scope="class")
def multi_chunk_job(sandbox):
    """A job of ``sandbox`` whose deduplicated runtime log is longer than
    CHUNK_BUDGET and whose log expert analyzes several chunks."""
    for job_id in sandbox.job_ids:
        log = "\n".join(deduplicate_entries(split_log(sandbox.job(job_id).texts["runtime_log"])))
        if len(log) <= CHUNK_BUDGET:
            continue
        counted = SlowBackend(0.0)
        run_with_consistency(make_config(job_id), _registry_factory(sandbox), counted)
        if counted.calls[prompts.LOG_CHUNK_SYSTEM] >= 2:
            return job_id
    raise AssertionError("no job of the bundle has a log past CHUNK_BUDGET in two chunks")


@pytest.fixture
def pools(monkeypatch):
    """The keyword arguments of each pool ``overlapped`` opens."""
    opened = []

    def counted_pool(**kwargs):
        opened.append(kwargs)
        return ThreadPoolExecutor(**kwargs)

    monkeypatch.setattr(backends, "ThreadPoolExecutor", counted_pool)
    return opened


def _four_jobs_at_once(sandbox, job_id, backend):
    """Four runs of one job on four threads sharing ``backend``, as
    ``cloudrca batch --jobs 4`` runs a bundle."""
    config, factory = make_config(job_id), _registry_factory(sandbox)
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [pool.submit(run_with_consistency, config, factory, backend) for _ in range(4)]
        return [run.result() for run in runs]


@pytest.fixture(scope="module")
def acceptance_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "bundle"
    generate_scenarios(seed=4242, count=50, out_dir=str(out))
    return Sandbox(str(out))


class WaitsOn(PolicyBackend):
    """Policy backend that sleeps 20 ms in each controller generation, or
    else in each single-turn call, as an endpoint that is slow for one kind
    of call; ``chunk_threads`` holds the thread of each chunk analysis."""

    def __init__(self, controller: bool):
        super().__init__()
        self.controller = controller
        self.chunk_threads = []

    def complete(self, exchange, params):
        if (exchange.system_prompt not in _SINGLE_TURN) == self.controller:
            time.sleep(0.02)
        if exchange.system_prompt == prompts.LOG_CHUNK_SYSTEM:
            self.chunk_threads.append(threading.get_ident())
        return super().complete(exchange, params)


class TestOverlappedCalls:
    @pytest.fixture(scope="class")
    def sandbox(self, long_log_sandbox):
        """Every test of the class runs on the long-log bundle, so that its
        multi-chunk job's log is past CHUNK_BUDGET."""
        return long_log_sandbox

    @pytest.mark.parametrize("controller", [True, False], ids=["controller", "single-turn"])
    def test_only_a_waiting_controller_generation_opens_the_chunk_pool(
        self, sandbox, multi_chunk_job, controller
    ):
        backend = WaitsOn(controller)
        report = run_with_consistency(
            make_config(multi_chunk_job), _registry_factory(sandbox), backend
        )
        assert report.greedy.passed
        assert len(backend.chunk_threads) >= 2
        assert (threading.get_ident() not in backend.chunk_threads) is controller

    def test_chunk_analyses_overlap_with_the_same_bytes(
        self, sandbox, multi_chunk_job
    ):
        config = make_config(multi_chunk_job)
        factory = _registry_factory(sandbox)
        slow = SlowBackend(0.02, malformed_pct=10)
        overlapped = run_with_consistency(config, factory, slow)
        plain = run_with_consistency(config, factory, PolicyBackend(malformed_pct=10))
        assert slow.peaks[prompts.LOG_CHUNK_SYSTEM] >= 2
        assert _job_bytes(overlapped) == _job_bytes(plain)

    @pytest.mark.parametrize("method", [METHOD_EMBEDDING_VOTE, METHOD_LLM_AGGREGATE])
    def test_field_picks_equal_the_sequential_picks(self, method):
        results = [
            AnalysisResult(f"cause {i % 3}", f"fix {i % 2}", f"ev {i % 4}", "User")
            for i in range(7)
        ]
        candidates = [Trajectory(result=r) for r in results]
        slow = SlowBackend(0.02)
        sequential = aggregate(candidates, method, slow)
        assert max(slow.peaks.values()) == 1
        LAST_COMPLETION_WAITED.set(True)
        overlapped = aggregate(candidates, method, slow)
        kind = "embed" if method == METHOD_EMBEDDING_VOTE else prompts.MERGE_SYSTEM
        assert slow.peaks[kind] >= 2
        assert overlapped == sequential

    @pytest.mark.parametrize("mode", ["greedy", "sc", "tsc", "sample-full"])
    def test_a_computing_backend_never_opens_a_pool(
        self, sandbox, multi_chunk_job, pools, mode
    ):
        busy = BusyBackend()
        before = threading.active_count()
        report = run_with_consistency(
            make_config(multi_chunk_job), _registry_factory(sandbox), busy, mode=mode, k=3
        )
        assert report.greedy.passed
        assert pools == []
        assert busy.threads and set(busy.threads) == {before}
        assert LAST_COMPLETION_WAITED.get() is False

    def test_computing_jobs_that_share_the_interpreter_open_no_pool(
        self, sandbox, multi_chunk_job, pools
    ):
        # a job queued for the interpreter lock behind the others is not
        # waiting on the model
        reports = _four_jobs_at_once(sandbox, multi_chunk_job, BusyBackend())
        assert all(report.greedy.passed for report in reports)
        assert pools == []

    def test_waiting_jobs_that_share_the_interpreter_still_open_pools(
        self, sandbox, multi_chunk_job, pools
    ):
        reports = _four_jobs_at_once(sandbox, multi_chunk_job, SlowBackend(0.02))
        assert all(report.greedy.passed for report in reports)
        assert pools != []

    def test_acceptance_counts_hold_when_calls_overlap(self, acceptance_bundle):
        """The 50-job acceptance bundle in tsc, with every call 2 ms late,
        makes the totals perfbench pins for it and writes the bytes of a run
        without latency."""
        sandbox = acceptance_bundle
        factory = _registry_factory(sandbox)
        slow = SlowBackend(0.002, malformed_pct=10)
        for job_id in sandbox.job_ids:
            config = make_config(job_id, max_steps=15, json_regen_enabled=True)
            late = run_with_consistency(config, factory, slow, mode="tsc", k=10)
            plain = run_with_consistency(
                config, factory, PolicyBackend(malformed_pct=10), mode="tsc", k=10
            )
            assert _job_bytes(late) == _job_bytes(plain)
        assert slow.peaks[prompts.LOG_CHUNK_SYSTEM] >= 2
        assert slow.peaks["embed"] >= 2
        totals = {
            key: slow.calls[key]
            for key in ("complete", "prompt_chars", "embed", "embed_texts")
        }
        assert totals == {
            "complete": 817,
            "prompt_chars": 3152336,
            "embed": 200,
            "embed_texts": 1915,
        }
