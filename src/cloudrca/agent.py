"""The controller agent: prompt assembly from the three base prompts, the
thought-action-observation loop, the step budget, and trajectory recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from . import prompts
from .backends import Backend, ChatExchange, GenerationParams, generate_adaptive
from .errors import CloudRcaError
from .snapshots import SnapshotStore
from .structured import (
    balanced_spans,
    fix_escapes,
    json_regen,
    sanitize_prompt,
    try_parse,
)
from .tools import (
    KIND_FINALIZE,
    ToolRegistry,
    check_errors,
    dispatch,
    parse_finalize,
    render_documentation,
)
from .trajectory import Step, ToolCall, Trajectory

DEFAULT_MAX_STEPS = 15


@dataclass
class AgentConfig:
    max_steps: int = DEFAULT_MAX_STEPS
    params: GenerationParams = field(
        default_factory=lambda: GenerationParams(mode="greedy")
    )
    # rendered from the registry by run_trajectory when left empty
    tool_docs: str = ""
    task_statement: str = "Diagnose the anomalous job."
    json_regen_enabled: bool = True

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def render_history(steps: list[Step]) -> tuple[str, list[tuple[int, int]]]:
    """Render completed steps as Thought/Function/Observation blocks and
    report the spans of the action JSON, which must survive sanitization."""
    pieces: list[str] = []
    spans: list[tuple[int, int]] = []
    offset = 0

    def append(text: str, protect: bool = False):
        nonlocal offset
        if protect:
            spans.append((offset, offset + len(text)))
        pieces.append(text)
        offset += len(text)

    for step in steps:
        append(f"Thought: {step.thought}\n")
        append("Function: ")
        append(step.action.wire() if step.action else "(none)", protect=True)
        append(f"\nObservation:\n{step.observation}\n")
    return "".join(pieces), spans


def assemble_prompt(config: AgentConfig, trajectory: Trajectory) -> ChatExchange:
    system = "\n\n".join(
        [prompts.FRAMEWORK_RULES, prompts.TASK_REQUIREMENTS, config.tool_docs]
    )
    history, spans = render_history(trajectory.steps)
    history = sanitize_prompt(history, spans)
    user = config.task_statement
    if history:
        user = f"{user}\n\n{history}"
    user += "\nThought:"
    return ChatExchange(system_prompt=system, messages=[("user", user)])


def _action_start(text: str) -> int:
    """Index of the first balanced span that parses, directly or after
    escape fixing, to an object with a string ``function`` key; otherwise the
    first brace, or -1 when there is none.  Braces in the thought are skipped."""
    for start, span in balanced_spans(text):
        for candidate in (span, fix_escapes(span)):
            value = try_parse(candidate)
            if value is not None and isinstance(value.get("function"), str):
                return start
    return text.find("{")


def _split_thought(text: str) -> tuple[str, Optional[str]]:
    """Thought is everything before the action JSON."""
    brace = _action_start(text)
    if brace == -1:
        return text.strip(), None
    thought = text[:brace]
    # drop a trailing "Function:" label left over from the block layout
    thought = thought.rstrip()
    if thought.lower().endswith("function:"):
        thought = thought[: -len("function:")].rstrip()
    if thought.lower().startswith("thought:"):
        thought = thought[len("thought:") :].strip()
    return thought.strip(), text[brace:]


def run_step(
    config: AgentConfig,
    trajectory: Trajectory,
    backend: Backend,
    registry: ToolRegistry,
    store: SnapshotStore,
    params: Optional[GenerationParams] = None,
) -> Step:
    """One decision cycle.  Appends the produced step to the trajectory and
    fills trajectory.result when the step finalizes."""
    exchange = assemble_prompt(config, trajectory)
    generation = generate_adaptive(backend, exchange, params or config.params)
    thought, action_text = _split_thought(generation.text)
    function = None
    if action_text is not None:
        outcome = json_regen(backend, action_text, enabled=config.json_regen_enabled)
        function = outcome.value.get("function") if outcome.ok else None

    if not isinstance(function, str):
        step = Step(
            thought=thought,
            action=None,
            observation=prompts.INVALID_ACTION_OBSERVATION,
            error_flag=True,
            invalid_flag=True,
        )
    else:
        kwargs = outcome.value.get("kwargs")
        call = ToolCall(function, kwargs if isinstance(kwargs, dict) else {})
        spec = registry.spec(call.function)
        error = check_errors(trajectory.steps, call, registry, store)
        if error is not None:
            step = Step(thought, call, error.render(), error_flag=True)
        elif spec is not None and spec.kind == KIND_FINALIZE:
            trajectory.result = parse_finalize(call).result
            step = Step(thought, call, "Finalized.")
        else:
            result = dispatch(registry, call, store)
            structural_invalid = spec is None or any(
                p.required and p.name not in call.kwargs for p in spec.params
            )
            step = Step(
                thought=thought,
                action=call,
                observation=result.observation,
                error_flag=result.error,
                invalid_flag=structural_invalid,
            )
    trajectory.steps.append(step)
    return step


def run_trajectory(
    config: AgentConfig,
    registry: ToolRegistry,
    backend: Backend,
    store: Optional[SnapshotStore] = None,
    initial: Optional[Trajectory] = None,
    params: Optional[GenerationParams] = None,
    max_steps: Optional[int] = None,
) -> Trajectory:
    """Loop run_step until finalize or the step budget is exhausted.

    ``initial`` seeds the trajectory with already-completed steps (the shared
    greedy prefix of a consistency branch); ``store`` carries the matching
    snapshot state.
    """
    if not config.tool_docs:
        config = replace(config, tool_docs=render_documentation(registry))
    trajectory = initial if initial is not None else Trajectory()
    store = store if store is not None else SnapshotStore()
    budget = max_steps if max_steps is not None else config.max_steps
    try:
        while trajectory.result is None and len(trajectory.steps) < budget:
            run_step(config, trajectory, backend, registry, store, params=params)
    except CloudRcaError as exc:
        trajectory.diagnostic = f"backend failure: {exc}"
        trajectory.passed = False
        return trajectory
    trajectory.passed = trajectory.result is not None
    return trajectory
