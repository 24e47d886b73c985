"""Observation snapshot store.

Long tool observations are stored under a 10-digit content-hash key; the
controller agent only sees the head of the observation plus the key, and can
pass the key back to tools that need the full text.
"""

from __future__ import annotations

import re
import zlib

from .errors import SnapshotKeyError

KEY_WIDTH = 10
DEFAULT_HEAD_LINES = 7
# most chars of one line the head shows; a longer line is cut
HEAD_LINE_CHARS = 512
EMPTY_OBSERVATION = "(empty observation)"
# the one tool parameter that takes a snapshot key, the name the usage rules
# tell the controller to pass keys under
SNAPSHOT_PARAM = "snapshot"

# a key is exactly ten ASCII digits (\d would take any Unicode digit)
_KEY_RE = re.compile(r"[0-9]{10}")
_SNAPSHOT_LINE_RE = re.compile(r"^(?:\[|<:) snapshot: ([0-9]{10}) (?:\]|:>)$", re.M)


def looks_like_key(value: str) -> bool:
    return _KEY_RE.fullmatch(value) is not None


class SnapshotStore:
    """Key-value store for full observations, scoped to one trajectory run.

    Keys are the CRC-32 of the content's UTF-8 bytes (a lone surrogate passes
    as its three bytes) rendered as a zero-padded decimal string; collisions
    between distinct contents are resolved by linear probing on the key
    value.  A branch (self-consistency branches) starts as a copy of its
    parent's records and writes locally.
    """

    def __init__(self):
        self._records: dict[str, str] = {}

    def branch(self) -> "SnapshotStore":
        child = SnapshotStore()
        child._records = dict(self._records)
        return child

    def put(self, full_text: str) -> str:
        if not full_text:
            raise ValueError("cannot store an empty observation")
        value = zlib.crc32(full_text.encode("utf-8", "surrogatepass"))
        while True:
            key = f"{value:0{KEY_WIDTH}d}"
            existing = self._records.get(key)
            if existing is None:
                self._records[key] = full_text
                return key
            if existing == full_text:
                return key
            value = (value + 1) & 0xFFFFFFFF  # probe past a collision

    def get(self, key: str) -> str:
        text = self._records.get(key)
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


def render_head(full_text: str, key: str) -> str:
    """Render the truncated view shown to the controller agent.

    Format is bit-exact: the first DEFAULT_HEAD_LINES lines, each longer
    than HEAD_LINE_CHARS cut there and ended with `...N chars omitted.`,
    then `...N lines omitted.` when lines were dropped, then
    `[ snapshot: KEY ]`.
    """
    lines = full_text.splitlines()
    if not lines:
        lines = [EMPTY_OBSERVATION]
    parts = [
        line
        if len(line) <= HEAD_LINE_CHARS
        else f"{line[:HEAD_LINE_CHARS]}...{len(line) - HEAD_LINE_CHARS} chars omitted."
        for line in lines[:DEFAULT_HEAD_LINES]
    ]
    omitted = len(lines) - DEFAULT_HEAD_LINES
    if omitted > 0:
        parts.append(f"...{omitted} lines omitted.")
    parts.append(f"[ snapshot: {key} ]")
    return "\n".join(parts)


def snapshot_keys(text: str) -> list[str]:
    """The key of every snapshot line in ``text``, in order: the rendered
    ``[ snapshot: KEY ]`` form and the sanitized ``<: snapshot: KEY :>``."""
    return _SNAPSHOT_LINE_RE.findall(text)
