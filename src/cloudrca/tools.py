"""Tool registry, documentation rendering, dispatch, and the three-rule
error handler that intercepts problematic calls before execution.

Dispatch never raises: every failure mode becomes an error observation so
the trajectory keeps going.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .errors import ConfigurationError, SnapshotKeyError
from .snapshots import SnapshotStore, render_head, EMPTY_OBSERVATION
from .textdist import deduplicate_entries, split_log
from .trajectory import RESULT_FIELDS, Step, ToolCall

KIND_INFO = "info"
KIND_EXPERT = "expert"
KIND_FINALIZE = "finalize"

DEFAULT_TRIVIAL_INPUT_FLOOR = 32

RULE_DUPLICATE_CALL = "duplicate_call"
RULE_TRIVIAL_INPUT = "trivial_input"
RULE_EARLY_FINALIZE = "early_finalize"

OBSK_USAGE_RULES = """Observation snapshots:
Long tool observations are truncated; the omitted content is stored under a
snapshot key shown as `[ snapshot: KEY ]` at the end of the observation.
To analyze the full content, pass the 10-digit key string as a tool parameter
(for example {"snapshot": "1234567890"}) instead of copying long text into
arguments."""


@dataclass(frozen=True)
class ToolParam:
    """A required string parameter of a tool."""

    name: str
    description: str


# frozen: registries in concurrent branches and batch threads share the
# module-level specs
@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    params: tuple[ToolParam, ...] = ()
    kind: str = KIND_INFO
    # expert tools taking naturally short input (a class name) lower the
    # trivial-input floor
    trivial_input_floor: int = DEFAULT_TRIVIAL_INPUT_FLOOR


Handler = Callable[[dict], str]


class ToolRegistry:
    def __init__(self):
        self._tools: dict[str, tuple[ToolSpec, Handler]] = {}

    def register(self, spec: ToolSpec, handler: Handler):
        if spec.name in self._tools:
            raise ConfigurationError(f"tool {spec.name!r} already registered")
        if spec.kind == KIND_FINALIZE and self.has_finalize():
            raise ConfigurationError("a finalize tool is already registered")
        self._tools[spec.name] = (spec, handler)
        self.__dict__.pop("documentation", None)

    def spec(self, name: str) -> Optional[ToolSpec]:
        tool = self._tools.get(name)
        return tool[0] if tool else None

    def handler(self, name: str) -> Handler:
        return self._tools[name][1]

    def specs(self) -> list[ToolSpec]:
        return [spec for spec, _ in self._tools.values()]

    def has_finalize(self) -> bool:
        return any(spec.kind == KIND_FINALIZE for spec, _ in self._tools.values())

    @cached_property
    def documentation(self) -> str:
        """The controller's tool documentation, rendered once per registry;
        ``register`` drops it."""
        return render_documentation(self)


def render_documentation(registry: ToolRegistry) -> str:
    """Deterministic tool documentation, in registration order, plus the
    snapshot usage rules the controller must follow."""
    specs = registry.specs()
    if not specs:
        raise ConfigurationError("registry is empty")
    if not registry.has_finalize():
        raise ConfigurationError("registry has no finalize tool")
    sections = ["Available tools:"]
    for spec in specs:
        lines = [f"- {spec.name}: {spec.description}"]
        for param in spec.params:
            lines.append(f"    {param.name} (string, required): {param.description}")
        sections.append("\n".join(lines))
    sections.append(OBSK_USAGE_RULES)
    sections.append(
        'Invoke exactly one tool per step with a JSON object of the form '
        '{"function": "<name>", "kwargs": { ... }}.'
    )
    return "\n\n".join(sections)


@dataclass
class DispatchResult:
    observation: str
    error: bool = False
    # the call itself is malformed: an unknown tool or a missing parameter
    invalid: bool = False
    # the check_errors rule that stopped the call
    rule: str = ""


def _error_result(message: str, invalid: bool = False, rule: str = "") -> DispatchResult:
    return DispatchResult(f"Error: {message}", error=True, invalid=invalid, rule=rule)


def dispatch(
    registry: ToolRegistry, call: ToolCall, store: SnapshotStore
) -> DispatchResult:
    spec = registry.spec(call.function)
    if spec is None:
        names = ", ".join(spec.name for spec in registry.specs())
        return _error_result(
            f"unknown tool {call.function!r}. Valid tools: {names}.", invalid=True
        )
    for param in spec.params:
        if param.name not in call.kwargs:
            return _error_result(
                f"call to {call.function!r} is missing required parameter "
                f"{param.name!r}.",
                invalid=True,
            )
    try:
        resolved = store.resolve_args(call.kwargs)
    except SnapshotKeyError as exc:
        return _error_result(
            f"parameter references snapshot key {exc.key!r} which was never issued."
        )
    try:
        raw = registry.handler(call.function)(resolved)
    except Exception as exc:  # trajectory continuity: never propagate
        return _error_result(f"tool {call.function!r} failed: {exc}")

    if spec.kind == KIND_INFO:
        raw = "\n".join(deduplicate_entries(split_log(raw)))
    if not raw:
        raw = EMPTY_OBSERVATION
    key = store.put(raw)
    return DispatchResult(observation=render_head(raw, key))


def check_errors(
    steps: list[Step],
    call: ToolCall,
    registry: ToolRegistry,
    store: SnapshotStore,
) -> Optional[DispatchResult]:
    """Pre-execution screening of a parsed call against the trajectory so far.

    Fires on (i) duplicate invocation of any tool but finalize with
    byte-identical kwargs, (ii) trivial or unresolved input to an expert
    tool, and (iii) finalizing before both an info and an expert tool have
    produced a successful observation.  A fired rule replaces execution:
    its error result, with the rule's name in ``rule``, is the step's outcome.
    """
    spec = registry.spec(call.function)
    if spec is None:
        return None  # dispatch reports unknown tools itself

    if spec.kind != KIND_FINALIZE:
        signature = call.kwargs_signature()
        for step in steps:
            if (
                step.action is not None
                and step.action.function == call.function
                and step.action.kwargs_signature() == signature
            ):
                return _error_result(
                    f"duplicate invocation of stateless tool {call.function!r} "
                    "with identical arguments. Suggestion: That result is "
                    "already in the trajectory; inspect it or call a different "
                    "tool.",
                    rule=RULE_DUPLICATE_CALL,
                )

    if spec.kind == KIND_EXPERT:
        try:
            resolved = store.resolve_args(call.kwargs)
        except SnapshotKeyError as exc:
            return _error_result(
                f"call to {call.function!r} references unresolved snapshot key "
                f"{exc.key!r}. Suggestion: Use a snapshot key issued by an "
                "earlier observation.",
                rule=RULE_TRIVIAL_INPUT,
            )
        text_input = " ".join(
            str(v) for v in resolved.values() if isinstance(v, str)
        ).strip()
        if len(text_input) < spec.trivial_input_floor:
            return _error_result(
                f"call to expert tool {call.function!r} provides trivial input "
                f"({len(text_input)} characters). Suggestion: Gather "
                "substantial data first and pass its snapshot key to the expert.",
                rule=RULE_TRIVIAL_INPUT,
            )

    if spec.kind == KIND_FINALIZE:
        kinds_seen = set()
        for step in steps:
            if step.action is None or step.error_flag or step.invalid_flag:
                continue
            prior = registry.spec(step.action.function)
            if prior is not None:
                kinds_seen.add(prior.kind)
        if KIND_INFO not in kinds_seen or KIND_EXPERT not in kinds_seen:
            return _error_result(
                f"call to {call.function!r} before a thorough investigation. "
                "Suggestion: Gather data with an information tool and analyze "
                "it with an expert tool before finalizing.",
                rule=RULE_EARLY_FINALIZE,
            )
    return None


# the finalize tool; its parameters are the fields ``AnalysisResult.from_dict``
# reads, in ``RESULT_FIELDS`` order
_FINALIZE_PARAMS = {
    "root_cause": "the fundamental cause",
    "solution": "the mitigation method",
    "evidence": "direct supportive content copied from observations",
    "responsibility": 'either "User" or "Platform"',
}
FINALIZE_SPEC = ToolSpec(
    name="finalize",
    description="Report findings and end the diagnosis.",
    params=tuple(ToolParam(name, _FINALIZE_PARAMS[name]) for name in RESULT_FIELDS),
    kind=KIND_FINALIZE,
)
