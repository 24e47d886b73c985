"""The controller agent: prompt assembly from the three base prompts, the
thought-action-observation loop, the step budget, and trajectory recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import prompts
from .backends import (
    GREEDY_PARAMS,
    Backend,
    ChatExchange,
    GenerationParams,
    generate_adaptive,
)
from .errors import CloudRcaError
from .snapshots import SnapshotStore
from .structured import json_regen, sanitize_prompt
from .tools import (
    KIND_FINALIZE,
    DispatchResult,
    ToolRegistry,
    check_errors,
    dispatch,
)
from .trajectory import AnalysisResult, Step, ToolCall, Trajectory

DEFAULT_MAX_STEPS = 15


@dataclass
class AgentConfig:
    max_steps: int = DEFAULT_MAX_STEPS
    params: GenerationParams = GREEDY_PARAMS
    task_statement: str = "Diagnose the anomalous job."
    json_regen_enabled: bool = True

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def render_history(steps: list[Step]) -> str:
    """Render completed steps as Thought/Function/Observation blocks.  The
    thought and the observation are sanitized; the action JSON is sent as
    it is."""
    return "".join(
        sanitize_prompt(f"Thought: {step.thought}\n")
        + "Function: "
        + (step.action.wire() if step.action else "(none)")
        + sanitize_prompt(f"\nObservation:\n{step.observation}\n")
        for step in steps
    )


def assemble_prompt(
    config: AgentConfig, registry: ToolRegistry, trajectory: Trajectory
) -> ChatExchange:
    system = "\n\n".join(
        [prompts.FRAMEWORK_RULES, prompts.TASK_REQUIREMENTS, registry.documentation]
    )
    history = render_history(trajectory.steps)
    user = config.task_statement
    if history:
        user = f"{user}\n\n{history}"
    user += "\nThought:"
    return ChatExchange(system_prompt=system, messages=[("user", user)])


def _split_thought(text: str, start: int) -> str:
    """Thought is everything before the action JSON at ``start`` (-1: none)."""
    if start == -1:
        return text.strip()
    # drop a trailing "Function:" label left over from the block layout
    thought = text[:start].rstrip()
    if thought.lower().endswith("function:"):
        thought = thought[: -len("function:")].rstrip()
    if thought.lower().startswith("thought:"):
        thought = thought[len("thought:") :].strip()
    return thought.strip()


def run_step(
    config: AgentConfig,
    trajectory: Trajectory,
    backend: Backend,
    registry: ToolRegistry,
    store: SnapshotStore,
) -> Step:
    """One decision cycle.  Appends the produced step to the trajectory and
    fills trajectory.result when the step finalizes."""
    exchange = assemble_prompt(config, registry, trajectory)
    generation = generate_adaptive(backend, exchange, config.params)
    text = generation.text
    outcome = json_regen(backend, text, config.json_regen_enabled, key="function")
    thought = _split_thought(text, outcome.start)
    function = outcome.value.get("function")
    call = None
    if not isinstance(function, str):
        result = DispatchResult(prompts.INVALID_ACTION_OBSERVATION, True, True)
    else:
        kwargs = outcome.value.get("kwargs")
        call = ToolCall(function, kwargs if isinstance(kwargs, dict) else {})
        spec = registry.spec(call.function)
        result = check_errors(trajectory.steps, call, registry, store)
        if result is None and spec is not None and spec.kind == KIND_FINALIZE:
            trajectory.result = AnalysisResult.from_dict(call.kwargs)
            result = DispatchResult("Finalized.")
        elif result is None:
            result = dispatch(registry, call, store)
    step = Step(thought, call, result.observation, result.error, result.invalid)
    trajectory.steps.append(step)
    return step


def run_trajectory(
    config: AgentConfig,
    registry: ToolRegistry,
    backend: Backend,
    store: Optional[SnapshotStore] = None,
    initial: Optional[Trajectory] = None,
) -> Trajectory:
    """Loop run_step until finalize or ``config.max_steps`` steps are taken.

    ``initial`` seeds the trajectory with already-completed steps (the shared
    greedy prefix of a consistency branch); ``store`` carries the matching
    snapshot state.
    """
    trajectory = initial if initial is not None else Trajectory()
    store = store if store is not None else SnapshotStore()
    try:
        while trajectory.result is None and len(trajectory.steps) < config.max_steps:
            run_step(config, trajectory, backend, registry, store)
    except CloudRcaError as exc:
        trajectory.diagnostic = f"backend failure: {exc}"
    return trajectory
