"""Self-consistency aggregation for open-ended text output.

Two aggregation methods (embedding vote and LLM merge) and three sampled
modes, all run by one branch runner: step-wise SC (``sc``), which only
re-samples the finalization step; trajectory-level SC (``tsc``), which
branches sampled continuations from the step before the greedy trajectory
finalizes, sharing the greedy prefix; and ``sample-full``, an evaluation
baseline of full sampled trajectories from step 1.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import prompts
# run_step is not called here; it stays importable because the benchmark's
# tracer binds ``cloudrca.consistency:run_step`` by its lookup name.
from .agent import AgentConfig, run_step, run_trajectory  # noqa: F401
from .backends import Backend, ask, cosine, first_best, overlapped
from .errors import CloudRcaError, ConfigurationError
from .snapshots import SnapshotStore
from .tools import ToolRegistry
from .trajectory import TEXT_FIELDS, AnalysisResult, Trajectory, UNCLEAR

DEFAULT_K = 10

METHOD_EMBEDDING_VOTE = "embedding_vote"
METHOD_LLM_AGGREGATE = "llm_aggregate"
MODES = ("greedy", "sc", "tsc", "sample-full")

RegistryFactory = Callable[[Backend], ToolRegistry]
BackendFactory = Callable[[int], Backend]


@dataclass
class AggregationOutcome:
    result: AnalysisResult


def vote_with_embedding(field_texts: list[str], backend: Backend) -> int:
    """Index of the text whose embedding is closest (``cosine``) to the mean
    of all candidate embeddings; ``first_best`` resolves ties to the lowest
    index."""
    if not field_texts:
        raise ValueError("need at least one candidate")
    if len(field_texts) == 1:
        return 0
    vectors = backend.embed(field_texts)
    mean = vectors.mean(axis=0)
    return first_best(np.array([cosine(row, mean) for row in vectors]), 0)


def _strip_enumeration(text: str) -> str:
    lines = []
    for line in text.strip().splitlines():
        stripped = line.lstrip()
        for prefix in ("- ", "* "):
            if stripped.startswith(prefix):
                stripped = stripped[len(prefix) :]
        if (
            len(stripped) > 2
            and stripped[0].isdigit()
            and stripped[1] in ".)"
            and stripped[2] == " "
        ):
            stripped = stripped[3:]
        lines.append(stripped)
    return "\n".join(lines).strip()


def aggregate_with_llm(field_texts: list[str], backend: Backend) -> str:
    """One model call merging all candidates into an answer of similar form
    and length.  Falls back to the embedding vote on backend failure."""
    if not field_texts:
        raise ValueError("need at least one candidate")
    listing = "\n".join(
        f"Candidate {i + 1}: {text}" for i, text in enumerate(field_texts)
    )
    try:
        merged = ask(
            backend,
            prompts.MERGE_SYSTEM,
            f"{prompts.AGGREGATE_INSTRUCTION}\n\n{listing}",
        )
        return _strip_enumeration(merged)
    except CloudRcaError:
        return field_texts[vote_with_embedding(field_texts, backend)]


def _majority_responsibility(values: list[str]) -> str:
    modes = statistics.multimode(values)
    return modes[0] if len(modes) == 1 else UNCLEAR


def aggregate(
    candidates: list[Trajectory], method: str, backend: Backend
) -> AggregationOutcome:
    """Per-field aggregation: each text field is voted or merged on its own,
    through ``overlapped``; responsibility is a categorical majority with
    ties going to Unclear."""
    if not candidates:
        raise ValueError("no candidates to aggregate")
    if method == METHOD_EMBEDDING_VOTE:
        def pick(texts: list[str]) -> str:
            return texts[vote_with_embedding(texts, backend)]
    elif method == METHOD_LLM_AGGREGATE:
        def pick(texts: list[str]) -> str:
            return aggregate_with_llm(texts, backend)
    else:
        raise ValueError(f"unknown aggregation method: {method!r}")
    fields = [[getattr(c.result, name) for c in candidates] for name in TEXT_FIELDS]
    merged = dict(zip(TEXT_FIELDS, overlapped(pick, fields)))
    merged["responsibility"] = _majority_responsibility(
        [c.result.responsibility for c in candidates]
    )
    return AggregationOutcome(AnalysisResult.from_dict(merged))


# ---------------------------------------------------------------------------
# Sampling strategies


def run_greedy(
    config: AgentConfig, registry_factory: RegistryFactory, backend: Backend
) -> tuple[Trajectory, SnapshotStore]:
    store = SnapshotStore()
    registry = registry_factory(backend)
    trajectory = run_trajectory(config, registry, backend, store=store)
    return trajectory, store


def _run_branches(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    k: int,
    backend_factory: Optional[BackendFactory],
    max_steps: int,
    greedy: Optional[Trajectory] = None,
    store: Optional[SnapshotStore] = None,
) -> list[Trajectory]:
    """Run k sampled trajectories, each on its own backend, registry and
    snapshot-store branch, under ``config`` with sampled decoding and a
    budget of ``max_steps``.  With ``greedy``, which must have passed within
    ``max_steps`` steps and whose snapshot state is ``store``, every branch
    starts from its steps before finalization, shared with it.  A branch that
    fails or never finalizes within ``max_steps`` yields no candidate.

    The branches' inputs are built here in index order; the branches then
    run through ``overlapped``, so a backend they share must accept
    concurrent calls, and candidates keep index order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if greedy is not None:
        if not greedy.passed:
            raise ConfigurationError(
                "greedy trajectory did not pass; self-consistency unavailable"
            )
        if max_steps < len(greedy.steps):
            raise ValueError("max_steps must cover the greedy trajectory")
    config = replace(
        config, params=replace(config.params, mode="sampled"), max_steps=max_steps
    )
    branches = []
    for i in range(k):
        branch_backend = backend_factory(i) if backend_factory else backend
        initial = None
        if greedy is not None:
            steps = greedy.steps[:-1]
            initial = Trajectory(steps=steps, seed_prefix_len=len(steps))
        branches.append(
            functools.partial(
                run_trajectory,
                config,
                registry_factory(branch_backend),
                branch_backend,
                store=store.branch() if store is not None else None,
                initial=initial,
            )
        )
    return [t for t in overlapped(lambda branch: branch(), branches) if t.passed]


def sc_stepwise(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    k: int,
    *,
    store: SnapshotStore,
    greedy: Trajectory,
    branch_backend_factory: Optional[BackendFactory] = None,
) -> list[Trajectory]:
    """Re-sample only the finalization generation of the greedy trajectory.

    Samples whose parsed action is not finalize are dropped; no additional
    action steps are permitted."""
    return _run_branches(
        config, registry_factory, backend, k, branch_backend_factory,
        max_steps=len(greedy.steps), greedy=greedy, store=store,
    )


def tsc(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    k: int,
    *,
    store: SnapshotStore,
    greedy: Trajectory,
    branch_backend_factory: Optional[BackendFactory] = None,
) -> list[Trajectory]:
    """Trajectory-level self-consistency: branch sampled continuations from
    the step preceding the greedy finalization.  Each branch reuses the
    greedy prefix and may take zero or more extra full steps until it
    finalizes or hits ``config.max_steps``; branches that never finalize
    yield no candidate."""
    return _run_branches(
        config, registry_factory, backend, k, branch_backend_factory,
        max_steps=config.max_steps, greedy=greedy, store=store,
    )


@dataclass
class ConsistencyReport:
    outcome: AggregationOutcome
    candidates: list[Trajectory]
    greedy: Trajectory


def run_with_consistency(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    mode: str = "greedy",
    aggregation: str = METHOD_EMBEDDING_VOTE,
    k: int = DEFAULT_K,
    branch_backend_factory: Optional[BackendFactory] = None,
) -> ConsistencyReport:
    """End-to-end orchestration: greedy run, optional sampling, per-field
    aggregation.  ``sample-full`` runs full sampled trajectories from step 1
    and exists only as an evaluation baseline.  An unknown ``mode`` or
    ``aggregation``, or a sampled mode with ``k`` below 1, raises ValueError
    before any model call."""
    if mode not in MODES:
        raise ValueError(f"unknown consistency mode: {mode!r}")
    if aggregation not in (METHOD_EMBEDDING_VOTE, METHOD_LLM_AGGREGATE):
        raise ValueError(f"unknown aggregation method: {aggregation!r}")
    if mode != "greedy" and k < 1:
        raise ValueError("k must be >= 1")
    greedy, store = run_greedy(config, registry_factory, backend)
    if mode == "greedy" or not greedy.passed:
        result = greedy.result if greedy.result else AnalysisResult()
        candidates = [greedy] if greedy.passed else []
        return ConsistencyReport(AggregationOutcome(result), candidates, greedy)
    if mode == "sample-full":
        candidates = _run_branches(
            config, registry_factory, backend, k, branch_backend_factory,
            max_steps=config.max_steps,
        )
    else:
        # looked up at call time, so a rebinding of either name takes effect
        sample = tsc if mode == "tsc" else sc_stepwise
        candidates = sample(
            config, registry_factory, backend, k, store=store, greedy=greedy,
            branch_backend_factory=branch_backend_factory,
        )
    if not candidates:
        # all samples rejected: fall back to the (passing) greedy result
        candidates = [greedy]
    outcome = aggregate(candidates, aggregation, backend)
    return ConsistencyReport(outcome, candidates, greedy)
