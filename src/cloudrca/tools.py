"""Tool registry, documentation rendering, dispatch, and the three-rule
error handler that intercepts problematic calls before execution.

Dispatch never raises: every failure mode becomes an error observation so
the trajectory keeps going.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConfigurationError, SnapshotKeyError
from .snapshots import SnapshotStore, render_head, EMPTY_OBSERVATION
from .textdist import deduplicate_entries
from .trajectory import AnalysisResult, Step, ToolCall, UNCLEAR

KIND_INFO = "info"
KIND_EXPERT = "expert"
KIND_FINALIZE = "finalize"

FINALIZE_NAME = "finalize"

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


@dataclass
class ToolParam:
    name: str
    type: str = "string"
    required: bool = True
    description: str = ""


@dataclass
class ToolSpec:
    name: str
    description: str
    params: list[ToolParam] = field(default_factory=list)
    kind: str = KIND_INFO
    stateless: bool = True
    # expert tools taking naturally short input (a class name) override the
    # default trivial-input floor
    trivial_input_floor: Optional[int] = None


@dataclass
class ErrorMessage:
    rule: str
    message: str
    suggestion: str

    def render(self) -> str:
        return f"Error: {self.message} Suggestion: {self.suggestion}"


Handler = Callable[[dict], str]


class ToolRegistry:
    def __init__(self):
        self._specs: dict[str, ToolSpec] = {}
        self._handlers: dict[str, Handler] = {}
        self._order: list[str] = []

    def register(self, spec: ToolSpec, handler: Handler):
        if spec.name in self._specs:
            raise ConfigurationError(f"tool {spec.name!r} already registered")
        if spec.kind == KIND_FINALIZE and any(
            s.kind == KIND_FINALIZE for s in self._specs.values()
        ):
            raise ConfigurationError("a finalize tool is already registered")
        self._specs[spec.name] = spec
        self._handlers[spec.name] = handler
        self._order.append(spec.name)

    def spec(self, name: str) -> Optional[ToolSpec]:
        return self._specs.get(name)

    def handler(self, name: str) -> Handler:
        return self._handlers[name]

    def names(self) -> list[str]:
        return list(self._order)

    def specs(self) -> list[ToolSpec]:
        return [self._specs[name] for name in self._order]

    def has_finalize(self) -> bool:
        return any(s.kind == KIND_FINALIZE for s in self._specs.values())


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
            req = "required" if param.required else "optional"
            lines.append(
                f"    {param.name} ({param.type}, {req}): {param.description}"
            )
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
    snapshot_key: Optional[str] = None
    raw_text: Optional[str] = None


def _error_result(message: str) -> DispatchResult:
    return DispatchResult(observation=f"Error: {message}", error=True)


def dispatch(
    registry: ToolRegistry, call: ToolCall, store: SnapshotStore
) -> DispatchResult:
    spec = registry.spec(call.function)
    if spec is None:
        names = ", ".join(registry.names())
        return _error_result(
            f"unknown tool {call.function!r}. Valid tools: {names}."
        )
    for param in spec.params:
        if param.required and param.name not in call.kwargs:
            return _error_result(
                f"call to {call.function!r} is missing required parameter "
                f"{param.name!r}."
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
        entries = deduplicate_entries(
            [line for line in raw.splitlines() if line.strip()]
        )
        raw = "\n".join(entries)
    if not raw:
        raw = EMPTY_OBSERVATION
    key = store.put(raw, origin_tool=call.function)
    return DispatchResult(
        observation=render_head(raw, key),
        snapshot_key=key,
        raw_text=raw,
    )


def check_errors(
    steps: list[Step],
    call: ToolCall,
    registry: ToolRegistry,
    store: SnapshotStore,
) -> Optional[ErrorMessage]:
    """Pre-execution screening of a parsed call against the trajectory so far.

    Fires on (i) duplicate invocation of a stateless tool with byte-identical
    kwargs, (ii) trivial or unresolved input to an expert tool, and
    (iii) finalizing before both an info and an expert tool have produced a
    successful observation.  A fired rule replaces execution.
    """
    spec = registry.spec(call.function)
    if spec is None:
        return None  # dispatch reports unknown tools itself

    if spec.stateless and spec.kind != KIND_FINALIZE:
        signature = call.kwargs_signature()
        for step in steps:
            if (
                step.action is not None
                and step.action.function == call.function
                and step.action.kwargs_signature() == signature
            ):
                return ErrorMessage(
                    rule=RULE_DUPLICATE_CALL,
                    message=(
                        f"duplicate invocation of stateless tool "
                        f"{call.function!r} with identical arguments."
                    ),
                    suggestion="That result is already in the trajectory; "
                    "inspect it or call a different tool.",
                )

    if spec.kind == KIND_EXPERT:
        try:
            resolved = store.resolve_args(call.kwargs)
        except SnapshotKeyError as exc:
            return ErrorMessage(
                rule=RULE_TRIVIAL_INPUT,
                message=(
                    f"call to {call.function!r} references unresolved snapshot "
                    f"key {exc.key!r}."
                ),
                suggestion="Use a snapshot key issued by an earlier observation.",
            )
        text_input = " ".join(
            str(v) for v in resolved.values() if isinstance(v, str)
        ).strip()
        floor = (
            spec.trivial_input_floor
            if spec.trivial_input_floor is not None
            else DEFAULT_TRIVIAL_INPUT_FLOOR
        )
        if len(text_input) < floor:
            return ErrorMessage(
                rule=RULE_TRIVIAL_INPUT,
                message=(
                    f"call to expert tool {call.function!r} provides trivial "
                    f"input ({len(text_input)} characters)."
                ),
                suggestion="Gather substantial data first and pass its "
                "snapshot key to the expert.",
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
            return ErrorMessage(
                rule=RULE_EARLY_FINALIZE,
                message=(
                    f"call to {call.function!r} before a thorough investigation."
                ),
                suggestion="Gather data with an information tool and analyze "
                "it with an expert tool before finalizing.",
            )
    return None


@dataclass
class FinalizeParse:
    result: AnalysisResult
    complete: bool
    unrecognized_responsibility: bool = False


def parse_finalize(call: ToolCall) -> FinalizeParse:
    """Extract the analysis payload from a finalize call; missing or empty
    fields are filled with the baseline string."""
    kwargs = call.kwargs or {}
    values = {}
    complete = True
    for name in ("root_cause", "solution", "evidence", "responsibility"):
        value = kwargs.get(name)
        if not isinstance(value, str) or not value.strip():
            values[name] = UNCLEAR
            complete = False
        else:
            values[name] = value.strip()
    unrecognized = False
    resp = values["responsibility"].lower()
    if resp == "user":
        values["responsibility"] = "User"
    elif resp == "platform":
        values["responsibility"] = "Platform"
    elif values["responsibility"] != UNCLEAR:
        values["responsibility"] = UNCLEAR
        unrecognized = True
        complete = False
    return FinalizeParse(AnalysisResult(**values), complete, unrecognized)
