"""Observation snapshot store.

Long tool observations are stored under a 10-digit content-hash key; the
controller agent only sees the head of the observation plus the key, and can
pass the key back to tools that need the full text.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import SnapshotKeyError

KEY_WIDTH = 10
DEFAULT_HEAD_LINES = 7
EMPTY_OBSERVATION = "(empty observation)"
# the one tool parameter that takes a snapshot key, the name the usage rules
# tell the controller to pass keys under
SNAPSHOT_PARAM = "snapshot"

_KEY_RE = re.compile(r"^\d{10}$")
_SNAPSHOT_LINE_RE = re.compile(r"^\[ snapshot: (\d{10}) \]$", re.MULTILINE)

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def _fnv1a_32(text: str) -> int:
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFF
    return value


def looks_like_key(value: str) -> bool:
    return bool(_KEY_RE.match(value))


class SnapshotStore:
    """Key-value store for full observations, scoped to one trajectory run.

    Keys are the 32-bit FNV-1a hash of the content rendered as a zero-padded
    decimal string; collisions between distinct contents are resolved by
    linear probing on the key value.  A branch store (self-consistency
    branches) reads through to its parent and writes locally.
    """

    def __init__(self, parent: Optional["SnapshotStore"] = None):
        self._records: dict[str, str] = {}
        self._parent = parent

    def branch(self) -> "SnapshotStore":
        return SnapshotStore(parent=self)

    def _lookup(self, key: str) -> Optional[str]:
        text = self._records.get(key)
        if text is None and self._parent is not None:
            return self._parent._lookup(key)
        return text

    def put(self, full_text: str) -> str:
        if not full_text:
            raise ValueError("cannot store an empty observation")
        value = _fnv1a_32(full_text)
        while True:
            key = f"{value:0{KEY_WIDTH}d}"
            existing = self._lookup(key)
            if existing is None:
                self._records[key] = full_text
                return key
            if existing == full_text:
                return key
            value = (value + 1) & 0xFFFFFFFF  # probe past a collision

    def get(self, key: str) -> str:
        text = self._lookup(key)
        if text is None:
            raise SnapshotKeyError(key)
        return text

    def resolve_args(self, kwargs: dict) -> dict:
        """Replace a ``snapshot`` argument that is an issued snapshot key with
        the stored full text.  A key-shaped ``snapshot`` that was never issued
        is an error; every other argument, a 10-digit number included, passes
        through unchanged."""
        resolved = dict(kwargs)
        value = kwargs.get(SNAPSHOT_PARAM)
        if isinstance(value, str) and looks_like_key(value):
            resolved[SNAPSHOT_PARAM] = self.get(value)
        return resolved


def render_head(full_text: str, key: str, head_lines: int = DEFAULT_HEAD_LINES) -> str:
    """Render the truncated view shown to the controller agent.

    Format is bit-exact: head lines, then `...N lines omitted.` when lines
    were dropped, then `[ snapshot: KEY ]`.
    """
    if head_lines < 1:
        raise ValueError("head_lines must be >= 1")
    lines = full_text.splitlines()
    if not lines:
        lines = [EMPTY_OBSERVATION]
    shown = lines[:head_lines]
    omitted = len(lines) - head_lines
    parts = list(shown)
    if omitted > 0:
        parts.append(f"...{omitted} lines omitted.")
    parts.append(f"[ snapshot: {key} ]")
    return "\n".join(parts)


def parse_snapshot_key(rendered: str) -> Optional[str]:
    """Recover the snapshot key from a rendered observation, if present."""
    matches = _SNAPSHOT_LINE_RE.findall(rendered)
    return matches[-1] if matches else None
