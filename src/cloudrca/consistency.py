"""Self-consistency aggregation for open-ended text output.

Two aggregation methods (embedding vote and LLM merge) and two sampling
strategies: step-wise SC, which only re-samples the finalization step, and
trajectory-level SC, which branches sampled continuations from the step
before the greedy trajectory finalizes, sharing the greedy prefix.
"""

from __future__ import annotations

import copy
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import prompts
# run_step is not called here; it stays importable because the benchmark's
# tracer binds ``cloudrca.consistency:run_step`` by its lookup name.
from .agent import AgentConfig, run_step, run_trajectory  # noqa: F401
from .backends import (
    GREEDY_PARAMS,
    Backend,
    ChatExchange,
    GenerationParams,
)
from .errors import CloudRcaError, ConfigurationError
from .snapshots import SnapshotStore
from .tools import ToolRegistry
from .trajectory import AnalysisResult, Trajectory, UNCLEAR

DEFAULT_K = 10

TEXT_FIELDS = ("root_cause", "solution", "evidence")

METHOD_EMBEDDING_VOTE = "embedding_vote"
METHOD_LLM_AGGREGATE = "llm_aggregate"

RegistryFactory = Callable[[Backend], ToolRegistry]
BackendFactory = Callable[[int], Backend]


@dataclass
class Candidate:
    result: AnalysisResult
    trajectory: Trajectory


@dataclass
class AggregationOutcome:
    result: AnalysisResult
    method: str
    candidate_count: int
    chosen_index: Optional[int] = None
    field_choices: dict = field(default_factory=dict)


def sampled_params(base: GenerationParams) -> GenerationParams:
    return replace(base, mode="sampled")


def vote_with_embedding(field_texts: list[str], backend: Backend) -> int:
    """Index of the text whose embedding is closest (cosine) to the mean of
    all candidate embeddings; ties resolve to the lowest index."""
    if not field_texts:
        raise ValueError("need at least one candidate")
    if len(field_texts) == 1:
        return 0
    vectors = backend.embed(field_texts)
    mean = vectors.mean(axis=0)
    mean_norm = np.linalg.norm(mean)
    if mean_norm == 0:
        return 0
    norms = np.linalg.norm(vectors, axis=1)
    norms[norms == 0] = 1.0
    sims = vectors @ mean / (norms * mean_norm)
    best = 0
    for i in range(1, len(sims)):
        if sims[i] > sims[best] + 1e-12:
            best = i
    return best


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
        merged = backend.complete(
            ChatExchange(
                system_prompt="You merge candidate answers.",
                messages=[("user", f"{prompts.AGGREGATE_INSTRUCTION}\n\n{listing}")],
            ),
            GREEDY_PARAMS,
        )
        return _strip_enumeration(merged)
    except CloudRcaError:
        return field_texts[vote_with_embedding(field_texts, backend)]


def _majority_responsibility(values: list[str]) -> str:
    counts: dict[str, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return UNCLEAR
    return ranked[0][0]


def aggregate(
    candidates: list[Candidate], method: str, backend: Backend
) -> AggregationOutcome:
    """Per-field aggregation: each text field is voted or merged on its own;
    responsibility is a categorical majority with ties going to Unclear."""
    if not candidates:
        raise ValueError("no candidates to aggregate")
    merged = {}
    field_choices: dict[str, int] = {}
    for name in TEXT_FIELDS:
        texts = [c.result.field_text(name) for c in candidates]
        if method == METHOD_EMBEDDING_VOTE:
            idx = vote_with_embedding(texts, backend)
            field_choices[name] = idx
            merged[name] = texts[idx]
        elif method == METHOD_LLM_AGGREGATE:
            merged[name] = aggregate_with_llm(texts, backend)
        else:
            raise ValueError(f"unknown aggregation method: {method!r}")
    merged["responsibility"] = _majority_responsibility(
        [c.result.responsibility for c in candidates]
    )
    chosen = field_choices.get("root_cause") if field_choices else None
    return AggregationOutcome(
        result=AnalysisResult(**merged),
        method=method,
        candidate_count=len(candidates),
        chosen_index=chosen,
        field_choices=field_choices,
    )


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
) -> list[Candidate]:
    """Run k sampled trajectories, each on its own backend, registry and
    snapshot-store branch.  With ``greedy`` every branch starts from a copy
    of its steps before finalization.  A branch that fails or never
    finalizes within ``max_steps`` yields no candidate.

    Branches run concurrently, at most ``DEFAULT_K`` at a time, so a backend
    shared by the branches must accept concurrent calls.  Their inputs are
    built here in index order and candidates keep that order."""
    params = sampled_params(config.params)
    branches = []
    for i in range(k):
        branch_backend = backend_factory(i) if backend_factory else backend
        initial = None
        if greedy is not None:
            steps = copy.deepcopy(greedy.steps[:-1])
            initial = Trajectory(steps=steps, seed_prefix_len=len(steps))
        branches.append(
            functools.partial(
                run_trajectory,
                config,
                registry_factory(branch_backend),
                branch_backend,
                store=store.branch() if store is not None else None,
                initial=initial,
                params=params,
                max_steps=max_steps,
            )
        )
    # at least one worker: sample-full does not reject k < 1, which runs no
    # branch
    with ThreadPoolExecutor(max_workers=max(1, min(k, DEFAULT_K))) as pool:
        trajectories = list(pool.map(lambda branch: branch(), branches))
    return [Candidate(t.result, t) for t in trajectories if t.passed]


def _branch_from_greedy(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    k: int,
    store: Optional[SnapshotStore],
    greedy: Optional[Trajectory],
    backend_factory: Optional[BackendFactory],
    bound: Optional[int],
) -> tuple[list[Candidate], Trajectory]:
    """The body of sc_stepwise and tsc: k branches from the step before the
    greedy finalization, each run to at most ``bound`` steps (None: the
    length of the greedy trajectory)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if greedy is None or store is None:
        greedy, store = run_greedy(config, registry_factory, backend)
    if not greedy.passed:
        raise ConfigurationError(
            "greedy trajectory did not pass; self-consistency unavailable"
        )
    if bound is None:
        bound = len(greedy.steps)
    elif bound < len(greedy.steps):
        raise ValueError("global_step_bound must cover the greedy trajectory")
    candidates = _run_branches(
        config, registry_factory, backend, k, backend_factory,
        max_steps=bound, greedy=greedy, store=store,
    )
    return candidates, greedy


def sc_stepwise(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    k: int,
    store: Optional[SnapshotStore] = None,
    greedy: Optional[Trajectory] = None,
    sample_backend_factory: Optional[BackendFactory] = None,
) -> list[Candidate]:
    """Re-sample only the finalization generation of the greedy trajectory.

    Samples whose parsed action is not finalize are dropped; no additional
    action steps are permitted."""
    candidates, _ = _branch_from_greedy(
        config, registry_factory, backend, k, store, greedy,
        sample_backend_factory, None,
    )
    return candidates


def tsc(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    k: int,
    global_step_bound: Optional[int] = None,
    store: Optional[SnapshotStore] = None,
    greedy: Optional[Trajectory] = None,
    branch_backend_factory: Optional[BackendFactory] = None,
) -> tuple[list[Candidate], Trajectory]:
    """Trajectory-level self-consistency: branch sampled continuations from
    the step preceding the greedy finalization.  Each branch reuses the
    greedy prefix and may take zero or more extra full steps until it
    finalizes or hits the global step bound; branches that never finalize
    yield no candidate."""
    bound = global_step_bound if global_step_bound is not None else config.max_steps
    return _branch_from_greedy(
        config, registry_factory, backend, k, store, greedy,
        branch_backend_factory, bound,
    )


@dataclass
class ConsistencyReport:
    outcome: AggregationOutcome
    candidates: list[Candidate]
    greedy: Trajectory
    mode: str


def run_with_consistency(
    config: AgentConfig,
    registry_factory: RegistryFactory,
    backend: Backend,
    mode: str = "greedy",
    aggregation: str = METHOD_EMBEDDING_VOTE,
    k: int = DEFAULT_K,
    global_step_bound: Optional[int] = None,
    branch_backend_factory: Optional[BackendFactory] = None,
) -> ConsistencyReport:
    """End-to-end orchestration: greedy run, optional sampling, per-field
    aggregation.  ``sample-full`` runs full sampled trajectories from step 1
    and exists only as an evaluation baseline."""
    greedy, store = run_greedy(config, registry_factory, backend)
    if mode == "greedy" or not greedy.passed:
        result = greedy.result if greedy.result else AnalysisResult()
        candidates = [Candidate(result, greedy)] if greedy.passed else []
        outcome = AggregationOutcome(
            result=result,
            method=aggregation,
            candidate_count=len(candidates),
            chosen_index=0 if candidates else None,
        )
        return ConsistencyReport(outcome, candidates, greedy, mode)
    if mode == "sc":
        candidates = sc_stepwise(
            config,
            registry_factory,
            backend,
            k,
            store=store,
            greedy=greedy,
            sample_backend_factory=branch_backend_factory,
        )
    elif mode == "tsc":
        candidates, greedy = tsc(
            config,
            registry_factory,
            backend,
            k,
            global_step_bound=global_step_bound,
            store=store,
            greedy=greedy,
            branch_backend_factory=branch_backend_factory,
        )
    elif mode == "sample-full":
        candidates = _run_branches(
            config,
            registry_factory,
            backend,
            k,
            branch_backend_factory,
            max_steps=config.max_steps,
        )
    else:
        raise ValueError(f"unknown consistency mode: {mode!r}")
    if not candidates:
        # all samples rejected: fall back to the (passing) greedy result
        candidates = [Candidate(greedy.result, greedy)]
    outcome = aggregate(candidates, aggregation, backend)
    return ConsistencyReport(outcome, candidates, greedy, mode)
