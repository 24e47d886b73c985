"""Core record types for a diagnosis run: tool calls, steps, trajectories,
and the finalize payload.  Imported by both the tool layer and the
controller; from the package it takes only the JSONL renderer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .structured import jsonl_text

UNCLEAR = "Unclear"

RESULT_FIELDS = ("root_cause", "solution", "evidence", "responsibility")
# the free-text fields; responsibility is one of two categories
TEXT_FIELDS = RESULT_FIELDS[:-1]
RESPONSIBILITIES = {"user": "User", "platform": "Platform"}  # by lower-cased text


@dataclass(slots=True)
class ToolCall:
    function: str
    kwargs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"function": self.function, "kwargs": self.kwargs}

    def wire(self) -> str:
        """Canonical wire form: {"function": ..., "kwargs": {...}}."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def kwargs_signature(self) -> str:
        return json.dumps(self.kwargs, sort_keys=True)


@dataclass(slots=True)
class AnalysisResult:
    root_cause: str = UNCLEAR
    solution: str = UNCLEAR
    evidence: str = UNCLEAR
    responsibility: str = UNCLEAR

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in RESULT_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisResult":
        """The one rule that normalizes a result: each field is stripped, and a
        missing, non-string or blank field, or a responsibility other than User
        or Platform in any case, reads Unclear."""
        values = {}
        for name in RESULT_FIELDS:
            value = data.get(name)
            values[name] = (value.strip() if isinstance(value, str) else "") or UNCLEAR
        responsibility = values["responsibility"].lower()
        values["responsibility"] = RESPONSIBILITIES.get(responsibility, UNCLEAR)
        return cls(**values)


@dataclass(frozen=True, slots=True)
class Step:
    thought: str
    action: Optional[ToolCall]
    observation: str
    error_flag: bool = False
    invalid_flag: bool = False

    def to_dict(self) -> dict:
        return {
            "thought": self.thought,
            "action": self.action.to_dict() if self.action else None,
            "observation": self.observation,
            "error_flag": self.error_flag,
            "invalid_flag": self.invalid_flag,
        }


@dataclass(slots=True)
class Trajectory:
    steps: list[Step] = field(default_factory=list)
    result: Optional[AnalysisResult] = None
    seed_prefix_len: int = 0
    diagnostic: str = ""

    @property
    def passed(self) -> bool:
        """A run passes when it finalized with a result."""
        return self.result is not None

    def invalid_ratio(self) -> float:
        if not self.steps:
            return 0.0
        return sum(1 for s in self.steps if s.invalid_flag) / len(self.steps)

    def to_jsonl(self) -> str:
        """One step object per line, then a trailing result object."""
        record = {
            "result": self.result.to_dict() if self.result else None,
            "passed": self.passed,
            "seed_prefix_len": self.seed_prefix_len,
            "diagnostic": self.diagnostic,
        }
        return jsonl_text([*({"step": s.to_dict()} for s in self.steps), record])
