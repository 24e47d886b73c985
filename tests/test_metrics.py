"""Scoring metric tests against hand-computed fixtures."""

import json

import pytest

from cloudrca import MockBackend, metrics
from cloudrca.metrics import (
    JobOutcome,
    NotComputable,
    build_report,
    invalid_rate,
    mean_trajectory_length,
    norm_score,
    pass_rate,
    prediction_rows,
)
from cloudrca.trajectory import AnalysisResult, Step, Trajectory

from oracles import emb_score


def _trajectory(n_steps: int, n_invalid: int, passed: bool) -> Trajectory:
    steps = [
        Step(thought=f"t{i}", action=None, observation="", invalid_flag=i < n_invalid)
        for i in range(n_steps)
    ]
    return Trajectory(steps=steps, result=AnalysisResult() if passed else None)


def neumaier_sum(values):
    """The compensated sum CPython's builtin sum of floats computes from 3.12
    on (Neumaier's variant of Kahan summation)."""
    total = compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.fixture
def five_trajectories():
    # hand-built: (steps, invalid, passed)
    spec = [(4, 0, True), (5, 1, True), (10, 5, False), (2, 2, True), (4, 1, False)]
    return [_trajectory(*row) for row in spec]


class TestEmbScore:
    def test_identical_is_one(self):
        backend = MockBackend()
        assert emb_score("disk quota exceeded", "disk quota exceeded", backend) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_bounded(self):
        backend = MockBackend()
        score = emb_score("network partition", "stale cache entry", backend)
        assert 0.0 <= score <= 1.0

    def test_similar_scores_higher(self):
        backend = MockBackend()
        reference = "the job ran out of memory during the shuffle phase"
        near = "the job ran out of memory during its shuffle phase"
        far = "container image pull failed"
        assert emb_score(near, reference, backend) > emb_score(
            far, reference, backend
        )


class TestNormScore:
    def _score_fn(self, backend):
        return lambda p, r: emb_score(p, r, backend)

    def test_baseline_maps_to_zero(self):
        backend = MockBackend()
        score = norm_score(self._score_fn(backend), "Unclear", "the real answer")
        assert score == pytest.approx(0.0, abs=1e-9)

    def test_reference_maps_to_one(self):
        backend = MockBackend()
        score = norm_score(self._score_fn(backend), "the real answer", "the real answer")
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_not_computable_when_baseline_perfect(self):
        backend = MockBackend()
        with pytest.raises(NotComputable):
            norm_score(self._score_fn(backend), "whatever", "Unclear")

    def test_matches_hand_rescale(self):
        backend = MockBackend()
        fn = self._score_fn(backend)
        prediction, reference = "quota exhausted on disk", "disk quota exceeded"
        base = fn("Unclear", reference)
        expected = (fn(prediction, reference) - base) / (1.0 - base)
        assert norm_score(fn, prediction, reference) == pytest.approx(
            expected, abs=1e-12
        )


class TestTrajectoryStats:
    def test_pass_rate(self, five_trajectories):
        # 3 of 5 passed
        assert pass_rate(five_trajectories) == pytest.approx(60.0, abs=1e-9)

    def test_invalid_rate_is_macro_average(self, five_trajectories):
        # per-trajectory ratios: 0, 1/5, 1/2, 1, 1/4 -> mean 0.39 -> 39%
        expected = 100.0 * (0 + 0.2 + 0.5 + 1.0 + 0.25) / 5
        assert invalid_rate(five_trajectories) == pytest.approx(expected, abs=1e-9)

    def test_mean_trajectory_length(self, five_trajectories):
        assert mean_trajectory_length(five_trajectories) == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "fn", [pass_rate, invalid_rate, mean_trajectory_length]
    )
    def test_empty_not_computable(self, fn):
        with pytest.raises(NotComputable):
            fn([])


class TestBuildReport:
    def _outcomes(self, five_trajectories):
        refs = [
            AnalysisResult("oom", "raise limit", "ev", "User"),
            AnalysisResult("timeout", "retry", "ev", "Platform"),
            AnalysisResult("eviction", "resubmit", "ev", "Platform"),
            None,
            AnalysisResult("bug", "patch", "ev", "User"),
        ]
        preds = [
            AnalysisResult("oom", "raise limit", "ev", "User"),
            AnalysisResult("timeout", "retry", "ev", "User"),
            None,
            AnalysisResult("noise", "noise", "noise", "Unclear"),
            AnalysisResult("bug", "patch", "ev", "User"),
        ]
        return [
            JobOutcome(f"fj0000000{i}", t, preds[i], refs[i])
            for i, t in enumerate(five_trajectories)
        ]

    def test_summary_statistics(self, five_trajectories):
        backend = MockBackend()
        report = build_report(self._outcomes(five_trajectories), backend)
        assert report["pass_rate"] == pytest.approx(60.0)
        assert report["invalid_rate"] == pytest.approx(39.0)
        assert report["mean_trajectory_length"] == pytest.approx(5.0)
        assert len(report["jobs"]) == 5
        assert json.dumps(report)  # JSON-serializable

    def test_responsibility_precision(self, five_trajectories):
        backend = MockBackend()
        report = build_report(self._outcomes(five_trajectories), backend)
        # 4 scored jobs (one has no reference); exact matches: jobs 0 and 4
        assert report["fields"]["responsibility"]["precision"] == pytest.approx(50.0)

    def test_text_field_scores_match_hand_average(self, five_trajectories):
        backend = MockBackend()
        outcomes = self._outcomes(five_trajectories)
        report = build_report(outcomes, backend)
        scored = [o for o in outcomes if o.reference is not None]
        # job 2 failed: its None prediction scores as the baseline text
        expected = sum(
            emb_score(
                o.prediction.root_cause if o.prediction else "Unclear",
                o.reference.root_cause,
                backend,
            )
            for o in scored
        ) / len(scored)
        assert report["fields"]["root_cause"]["emb_score"] == pytest.approx(
            expected, abs=1e-12
        )
        assert report["fields"]["root_cause"]["norm_score"] is not None

    def test_one_embed_call_scores_as_emb_score(self, five_trajectories, monkeypatch):
        backend = MockBackend()
        embed_calls = []
        real_embed = backend.embed
        monkeypatch.setattr(
            backend, "embed", lambda texts: embed_calls.append(texts) or real_embed(texts)
        )
        outcomes = self._outcomes(five_trajectories)
        report = build_report(outcomes, backend)
        assert len(embed_calls) == 1
        assert len(set(embed_calls[0])) == len(embed_calls[0])
        # bit for bit what pairwise emb_score calls give
        scorer = MockBackend()
        scored = [o for o in outcomes if o.reference is not None]
        for name in ("root_cause", "solution", "evidence"):
            pairs = [
                (
                    getattr(o.prediction, name) if o.prediction else "Unclear",
                    getattr(o.reference, name),
                )
                for o in scored
            ]
            emb = [emb_score(p, r, scorer) for p, r in pairs]
            norm = [
                norm_score(lambda a, b: emb_score(a, b, scorer), p, r) for p, r in pairs
            ]
            assert report["fields"][name] == {
                "emb_score": _left_to_right(emb) / len(emb),
                "norm_score": _left_to_right(norm) / len(norm),
            }

    def test_prediction_none_degrades_to_baseline(self, five_trajectories):
        backend = MockBackend()
        report = build_report(self._outcomes(five_trajectories), backend)
        row = report["jobs"][2]
        assert row["prediction"] == {k: "Unclear" for k in row["prediction"]}


class TestReportSums:
    """report.json's float means are left-to-right sums, so its bytes do not
    depend on whether the interpreter's builtin sum is compensated."""

    def test_means_do_not_follow_a_compensated_builtin_sum(self, monkeypatch):
        backend = MockBackend()
        # ten ratios of 0.1, and ten equal scores, sum to another last bit
        # when compensated
        trajectories = [_trajectory(10, 1, True) for _ in range(10)]
        prediction, reference = "disk full on the shuffle node", "disk quota exceeded"
        score = emb_score(prediction, reference, backend)
        for values in ([0.1] * 10, [score] * 10):
            assert neumaier_sum(values) != _left_to_right(values)
        outcomes = [
            JobOutcome(
                f"fj{i:08d}",
                t,
                AnalysisResult(prediction, prediction, prediction, "User"),
                AnalysisResult(reference, reference, reference, "User"),
            )
            for i, t in enumerate(trajectories)
        ]
        monkeypatch.setattr(metrics, "sum", neumaier_sum, raising=False)
        assert invalid_rate(trajectories) == 100.0 * _left_to_right([0.1] * 10) / 10
        report = build_report(outcomes, backend)
        assert report["invalid_rate"] == 100.0 * _left_to_right([0.1] * 10) / 10
        assert report["fields"]["root_cause"]["emb_score"] == (
            _left_to_right([score] * 10) / 10
        )
        # the integer counts keep the builtin sum, which gives the same value
        assert report["pass_rate"] == 100.0
        assert report["mean_trajectory_length"] == 10.0


class TestPredictionRows:
    def test_rows_per_scored_job_and_field(self, five_trajectories):
        outcomes = [
            JobOutcome(
                "fj00000001",
                five_trajectories[0],
                AnalysisResult("oom", "raise", "ev", "User"),
                AnalysisResult("oom", "raise", "ev", "User"),
            ),
            JobOutcome("fj00000002", five_trajectories[1], AnalysisResult(), None),
        ]
        rows = prediction_rows(outcomes)
        assert len(rows) == 4  # one scored job x four fields
        assert {r["field"] for r in rows} == {
            "root_cause",
            "solution",
            "evidence",
            "responsibility",
        }
        assert all(r["job_id"] == "fj00000001" for r in rows)
