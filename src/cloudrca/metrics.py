"""Scoring and trajectory statistics: embedding similarity score, its
baseline-normalized form, pass rate, and invalid rate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .backends import Backend, cosine, left_sum
from .errors import CloudRcaError
from .trajectory import RESULT_FIELDS, TEXT_FIELDS, AnalysisResult, Trajectory, UNCLEAR

BASELINE_TEXT = UNCLEAR


class NotComputable(CloudRcaError):
    """A metric is undefined for the given inputs."""


def _embedding_scorer(
    texts: Sequence[str], backend: Backend
) -> Callable[[str, str], float]:
    """A score over pairs of ``texts``: (1 + cosine similarity of the two
    embeddings) / 2, in [0, 1].  Each distinct text is embedded once, and
    all of them in one ``embed`` call."""
    row_of = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    rows = backend.embed(list(row_of))
    return lambda a, b: (1.0 + cosine(rows[row_of[a]], rows[row_of[b]])) / 2.0


def norm_score(
    score_fn: Callable[[str, str], float],
    prediction: str,
    reference: str,
) -> float:
    """Rescale a similarity score so BASELINE_TEXT maps to 0 and a perfect
    prediction to 1; worse-than-baseline predictions go negative."""
    baseline_score = score_fn(BASELINE_TEXT, reference)
    if baseline_score >= 1.0:
        raise NotComputable("baseline scores 1.0 against the reference")
    return (score_fn(prediction, reference) - baseline_score) / (1.0 - baseline_score)


def pass_rate(trajectories: Sequence[Trajectory]) -> float:
    if not trajectories:
        raise NotComputable("pass rate of an empty trajectory set")
    return 100.0 * sum(1 for t in trajectories if t.passed) / len(trajectories)


def invalid_rate(trajectories: Sequence[Trajectory]) -> float:
    """Mean across trajectories of the per-trajectory invalid-step ratio."""
    if not trajectories:
        raise NotComputable("invalid rate of an empty trajectory set")
    ratios = [t.invalid_ratio() for t in trajectories]
    return 100.0 * left_sum(ratios) / len(ratios)


def mean_trajectory_length(trajectories: Sequence[Trajectory]) -> float:
    if not trajectories:
        raise NotComputable("mean length of an empty trajectory set")
    return sum(len(t.steps) for t in trajectories) / len(trajectories)


@dataclass(slots=True)
class JobOutcome:
    job_id: str
    trajectory: Trajectory
    prediction: Optional[AnalysisResult]  # None for a job that failed
    reference: Optional[AnalysisResult] = None

    @property
    def scored_prediction(self) -> AnalysisResult:
        """The prediction as it is reported and scored: a failed job's None
        reads as all Unclear."""
        return self.prediction or AnalysisResult()


def build_report(outcomes: Sequence[JobOutcome], backend: Backend) -> dict:
    """Summary statistics plus per-job rows, JSON-serializable.  Every
    distinct text it scores is embedded once, in one ``embed`` call."""
    trajectories = [o.trajectory for o in outcomes]
    report = {
        "pass_rate": pass_rate(trajectories),
        "invalid_rate": invalid_rate(trajectories),
        "mean_trajectory_length": mean_trajectory_length(trajectories),
        "jobs": [],
        "fields": {},
    }
    predictions = [o.scored_prediction for o in outcomes]
    scored = [
        (prediction, o.reference)
        for prediction, o in zip(predictions, outcomes)
        if o.reference is not None
    ]
    if scored:
        pairs = {
            name: [(getattr(p, name), getattr(r, name)) for p, r in scored]
            for name in TEXT_FIELDS
        }
        texts = [text for field in pairs.values() for pair in field for text in pair]
        score = _embedding_scorer([BASELINE_TEXT, *texts], backend)
        for name, field_pairs in pairs.items():
            emb_values, norm_values = [], []
            for pair in field_pairs:
                emb_values.append(score(*pair))
                try:
                    norm_values.append(norm_score(score, *pair))
                except NotComputable:
                    pass
            report["fields"][name] = {
                "emb_score": left_sum(emb_values) / len(emb_values),
                "norm_score": (
                    left_sum(norm_values) / len(norm_values) if norm_values else None
                ),
            }
        correct = sum(p.responsibility == r.responsibility for p, r in scored)
        precision = 100.0 * correct / len(scored)
        report["fields"]["responsibility"] = {"precision": precision}
    for o, prediction in zip(outcomes, predictions):
        report["jobs"].append(
            {
                "job_id": o.job_id,
                "passed": o.trajectory.passed,
                "steps": len(o.trajectory.steps),
                "invalid_ratio": o.trajectory.invalid_ratio(),
                "diagnostic": o.trajectory.diagnostic,
                "prediction": prediction.to_dict(),
                "reference": o.reference.to_dict() if o.reference else None,
            }
        )
    return report


def prediction_rows(outcomes: Sequence[JobOutcome]) -> list[dict]:
    """The rows of the comparison-ready predictions file: one per scored
    job and field."""
    rows = []
    for o in outcomes:
        if o.reference is not None:
            prediction = o.scored_prediction
            rows += [
                {
                    "job_id": o.job_id,
                    "field": name,
                    "prediction": getattr(prediction, name),
                    "reference": getattr(o.reference, name),
                }
                for name in RESULT_FIELDS
            ]
    return rows
