"""Self-consistency sampling and aggregation tests.

The sandbox policy backend is deterministic, which makes the sampling
strategies easy to pin down: branches that share a greedy prefix must
reproduce its steps verbatim, and a single-candidate aggregation must
return the greedy answer unchanged.
"""

import copy
import json
import threading
import time

import pytest

from cloudrca import MockBackend, PolicyBackend, consistency
from cloudrca.backends import GenerationParams, HttpBackend
from cloudrca.agent import run_trajectory
from cloudrca.consistency import (
    DEFAULT_K,
    METHOD_EMBEDDING_VOTE,
    METHOD_LLM_AGGREGATE,
    Candidate,
    aggregate,
    aggregate_with_llm,
    _majority_responsibility,
    run_greedy,
    run_with_consistency,
    sampled_params,
    sc_stepwise,
    tsc,
    vote_with_embedding,
)
from cloudrca.errors import ConfigurationError, TransportError
from cloudrca.trajectory import AnalysisResult, Trajectory

from conftest import make_config
from test_backends import _FakeResponse, _FakeSession


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


class FailingBackend(PolicyBackend):
    """Policy variant whose every completion fails at the transport level."""

    def complete(self, exchange, params):
        raise TransportError("connection reset", attempts=3)


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
        return [Candidate(r, Trajectory()) for r in results]

    def test_embedding_vote_per_field(self, policy_backend):
        outcome = aggregate(self._candidates(), METHOD_EMBEDDING_VOTE, policy_backend)
        assert outcome.result.root_cause == "oom"
        assert outcome.result.solution == "raise memory"
        assert outcome.result.evidence == "ev-a"
        assert outcome.result.responsibility == "User"
        assert outcome.candidate_count == 3
        assert outcome.chosen_index == 0
        assert set(outcome.field_choices) == {"root_cause", "solution", "evidence"}

    def test_llm_aggregate(self, policy_backend):
        # the policy's merge sub-policy echoes candidate 1
        outcome = aggregate(self._candidates(), METHOD_LLM_AGGREGATE, policy_backend)
        assert outcome.result.root_cause == "oom"
        assert outcome.result.responsibility == "User"
        assert outcome.field_choices == {}
        assert outcome.chosen_index is None

    def test_unknown_method(self, policy_backend):
        with pytest.raises(ValueError):
            aggregate(self._candidates(), "median", policy_backend)

    def test_no_candidates(self, policy_backend):
        with pytest.raises(ValueError):
            aggregate([], METHOD_EMBEDDING_VOTE, policy_backend)

    def test_llm_fallback_on_backend_failure(self):
        # exhausted script raises; the merge falls back to the vote
        backend = MockBackend([])
        merged = aggregate_with_llm(["alpha", "alpha", "beta"], backend)
        assert merged == "alpha"

    def test_llm_strips_enumeration(self):
        backend = MockBackend(["1. merged answer"])
        assert aggregate_with_llm(["a", "b"], backend) == "merged answer"


def test_sampled_params_overrides_mode():
    base = GenerationParams(mode="greedy", repetition_penalty=0.5)
    out = sampled_params(base)
    assert out.mode == "sampled"
    assert out.repetition_penalty == 0.5
    assert base.mode == "greedy"


# ---------------------------------------------------------------------------
# Sampling strategies against the sandbox


class TestTsc:
    def test_branches_share_greedy_prefix(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        assert greedy.passed
        candidates, _ = tsc(
            config, factory, policy_backend, k=10, store=store, greedy=greedy
        )
        assert len(candidates) == 10
        prefix = [s.to_dict() for s in greedy.steps[:-1]]
        for cand in candidates:
            shared = [s.to_dict() for s in cand.trajectory.steps[: len(prefix)]]
            assert shared == prefix
            assert cand.trajectory.seed_prefix_len == len(prefix)
            assert cand.trajectory.passed

    def test_bound_excludes_slow_branches(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        bound = len(greedy.steps)

        def detouring(_: int):
            return DetourBackend(detours=1)

        candidates, _ = tsc(
            config,
            factory,
            policy_backend,
            k=3,
            global_step_bound=bound,
            store=store,
            greedy=greedy,
            branch_backend_factory=detouring,
        )
        assert candidates == []

        # one more step of headroom and the same branches finalize
        candidates, _ = tsc(
            config,
            factory,
            policy_backend,
            k=3,
            global_step_bound=bound + 1,
            store=store,
            greedy=greedy,
            branch_backend_factory=detouring,
        )
        assert len(candidates) == 3
        for cand in candidates:
            assert len(cand.trajectory.steps) == bound + 1

    def test_bound_must_cover_greedy(self, sandbox, policy_backend):
        job_id = sandbox.job_ids[0]
        config = make_config(job_id)
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        with pytest.raises(ValueError):
            tsc(
                config,
                factory,
                policy_backend,
                k=2,
                global_step_bound=len(greedy.steps) - 1,
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

        candidates, _ = tsc(
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
        with pytest.raises(ValueError):
            tsc(config, _registry_factory(sandbox), policy_backend, k=0)


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
            assert len(cand.trajectory.steps) == len(greedy.steps)
            assert cand.trajectory.steps[-1].action.function == "finalize"
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
            sample_backend_factory=detouring,
        )
        assert candidates == []


class TestRunWithConsistency:
    def test_greedy_mode(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        report = run_with_consistency(
            config, _registry_factory(sandbox), policy_backend, mode="greedy"
        )
        assert report.mode == "greedy"
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
        assert report.mode == "sample-full"
        assert len(report.candidates) == 3
        for cand in report.candidates:
            assert cand.trajectory.seed_prefix_len == 0

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
    assert report.candidates[0].trajectory is report.greedy
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
        assert all(c.trajectory.passed for c in report.candidates)


# ---------------------------------------------------------------------------
# Concurrent branches


class SlowBackend(PolicyBackend):
    """Policy backend that sleeps ``delay`` seconds per completion and keeps
    the peak number of completions in flight."""

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def complete(self, exchange, params):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay)
            return super().complete(exchange, params)
        finally:
            with self._lock:
                self.in_flight -= 1


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
    params = sampled_params(config.params)
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
            params=params,
            max_steps=max_steps,
        )
        if trajectory.passed:
            candidates.append(Candidate(trajectory.result, trajectory))
    return candidates


class TestConcurrentBranches:
    def test_branches_overlap(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
        delay = 0.1
        slow = SlowBackend(delay)
        start = time.perf_counter()
        candidates, _ = tsc(config, factory, slow, k=10, store=store, greedy=greedy)
        elapsed = time.perf_counter() - start
        assert len(candidates) == 10
        assert slow.peak >= 2
        # one after another, ten branches would wait at least 10 * delay
        assert elapsed < 5 * delay

    def test_candidates_keep_index_order(self, sandbox, policy_backend):
        config = make_config(sandbox.job_ids[0])
        factory = _registry_factory(sandbox)
        greedy, store = run_greedy(config, factory, policy_backend)
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

        candidates, _ = tsc(
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

    def test_sample_full_with_no_branches_falls_back_to_greedy(
        self, sandbox, policy_backend
    ):
        config = make_config(sandbox.job_ids[0])
        report = run_with_consistency(
            config, _registry_factory(sandbox), policy_backend, mode="sample-full", k=0
        )
        assert report.candidates == [Candidate(report.greedy.result, report.greedy)]

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
            assert [c.trajectory.to_jsonl() for c in concurrent.candidates] == [
                c.trajectory.to_jsonl() for c in sequential.candidates
            ]
