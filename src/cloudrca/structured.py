"""Structured-output repair: sanitize prompts, extract and fix JSON from model
output, and fall back to a YAML round trip through the model when local
repair fails (after all retries the result is an empty object, not an
exception).  The program's files are read, rendered and written here too:
input files checked entry by entry, written files in one layout by one writer.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from . import prompts
from .backends import Backend, ask

DEFAULT_RETRY_LIMIT = 3
# json_regen parses at most this many key-holding spans of one reply
MAX_KEY_SPANS = 16

# Sensitive control characters and their safe substitutes.  Double quotes
# become single quotes; bracket openers become C-digraph-style pairs, and the
# closers are substituted symmetrically so text stays balanced.
SUBSTITUTION_TABLE: list[tuple[str, str]] = [
    ('"', "'"),
    ("[", "<:"),
    ("]", ":>"),
    ("{", "<%"),
    ("}", "%>"),
]

STAGE_DIRECT = "direct"
STAGE_ESCAPE_FIXED = "escape_fixed"
STAGE_REGENERATED = "regenerated"
STAGE_FAILED = "failed"


@dataclass
class RepairOutcome:
    value: Any
    attempts: int
    stage: str
    # where the text read begins: with a key, the span holding it or else
    # the first brace (-1: none); without a key, 0
    start: int

    @property
    def ok(self) -> bool:
        return self.stage != STAGE_FAILED


def sanitize_prompt(text: str) -> str:
    """Apply the substitution table to every character of ``text``.

    No substitute holds a character the table replaces, so one
    ``str.replace`` pass per entry maps each character once, and sanitizing
    commutes with concatenation: pieces can be sanitized one at a time.
    """
    for char, substitute in SUBSTITUTION_TABLE:
        text = text.replace(char, substitute)
    return text


# A JSON string literal (RFC 8259 section 7): an unescaped ``"`` closes it
# and ``\`` escapes the next character.  An open literal runs to the end of
# the text, a lone ``\`` at the very end included.  ``fix_escapes`` reads
# literals through this pattern; ``balanced_spans`` follows the same rule.
_STRING = r'"(?:[^"\\]+|\\.)*(?:"|\\?\Z)'

# A literal holding no quote, backslash or brace, or one such character.
_SPAN_TOKENS = re.compile(r'"[^"\\{}]*"|[{}"\\]')


def _merge(base: list[list[int]], other: list[list[int]]) -> list[list[int]]:
    """Two stacks of start groups joined level by level from the top."""
    if len(base) < len(other):
        base, other = other, base
    for level in range(1, len(other) + 1):
        # the larger group takes the smaller: a start is copied O(log n) times
        small, large = sorted((base[-level], other[-level]), key=len)
        large += small
        base[-level] = large
    return base


def balanced_spans(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(start, span)`` for every ``{`` that opens a balanced
    curly-brace span, in text order.

    Braces inside string literals are ignored; backslash escapes inside
    strings are honoured.

    One pass reads every scan at once.  At any character a scan is outside
    a literal or inside one, and two scans in the same state read the rest
    alike, so the scans travel in two lanes.  Each lane is a stack of
    groups of starts that one ``}`` closes together; the inside lane
    ignores braces.  An unescaped ``"`` swaps the lanes.  A quote that the
    inside lane reads as escaped keeps that lane in and opens a literal for
    the outside lane, which then merges into it.
    """
    outside: list[list[int]] = []
    inside: list[list[int]] = []
    ends: list[tuple[int, int]] = []
    escaped = -1  # the position the inside lane reads as escaped
    for match in _SPAN_TOKENS.finditer(text):
        pos, token = match.start(), match[0]
        if token == "{":
            outside.append([pos])
        elif token == "}":
            if outside:
                ends.extend((start, pos + 1) for start in outside.pop())
        elif pos == escaped:
            if token != "\\":  # an escaped quote, perhaps opening a literal
                inside, outside = _merge(outside, inside), []
                if len(token) > 1:
                    inside, outside = outside, inside
        elif token == "\\":
            escaped = pos + 1
        elif len(token) == 1:
            inside, outside = outside, inside
    for start, end in sorted(ends):
        yield start, text[start:end]


def extract_json(text: str) -> Optional[str]:
    """Return the first maximal balanced curly-brace span, or None."""
    return next((span for _, span in balanced_spans(text)), None)


_SMART_QUOTES = {
    "“": '"',
    "”": '"',
    "‘": "'",
    "’": "'",
}

# A string literal, or a trailing comma: one whose next non-whitespace
# character closes the container.
_STRING_OR_TRAILING_COMMA = re.compile(_STRING + r"|,(?=[ \t\r\n]*[}\]])", re.S)

# Inside a literal: a valid escape pair stays; any other backslash is doubled,
# a raw newline or tab is escaped and a raw carriage return is dropped.
# _NEEDS_FIX finds every literal that sub would change (and a few it would
# not), so a literal it does not match is kept as it is.
_IN_STRING_FIX = re.compile(r'\\["\\/bfnrtu]|[\\\n\t\r]')
_IN_STRING_SUBSTITUTES = {"\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": ""}
_NEEDS_FIX = re.compile(r'\\(?:[^"\\/bfnrtu]|\Z)|[\n\t\r]')


def _fix_token(match: re.Match) -> str:
    token = match[0]
    if token == ",":
        return ""
    if not _NEEDS_FIX.search(token):
        return token
    return _IN_STRING_FIX.sub(lambda m: _IN_STRING_SUBSTITUTES.get(m[0], m[0]), token)


def fix_escapes(text: str) -> str:
    """Best-effort repair of a fixed catalog of corruption patterns:
    smart quotes, lone backslashes before non-escape characters, raw newlines
    inside string literals, and trailing commas.  Valid JSON is a fixpoint.
    """
    for smart, plain in _SMART_QUOTES.items():
        text = text.replace(smart, plain)
    return _STRING_OR_TRAILING_COMMA.sub(_fix_token, text)


_DECODER = json.JSONDecoder()


def _object_at(text: str, brace: int) -> Optional[dict]:
    """The JSON object that opens at ``text[brace]``, text after it
    ignored; None when there is no brace (-1) or no object parses there.

    A valid object ends at the ``}`` that balances its first brace under
    the string-literal rule of ``balanced_spans``, so at the first brace
    of a text it is the parse of the first balanced span.
    """
    if brace == -1:
        return None
    try:
        return _DECODER.raw_decode(text, brace)[0]
    except (ValueError, RecursionError):  # RecursionError: nesting too deep
        return None


def try_parse(text: Optional[str]) -> Optional[Any]:
    if text is None:
        return None
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: nesting too deep
        return None
    return value if isinstance(value, dict) else None


def json_regen(
    backend: Optional[Backend],
    raw_output: str,
    enabled: bool = True,
    key: Optional[str] = None,
) -> RepairOutcome:
    """Extract a structured object from model output, repairing as needed;
    regeneration makes at most DEFAULT_RETRY_LIMIT round trips.

    With ``enabled`` false the local-fix and regeneration stages are skipped
    entirely (strict bracket-match + parse only); this is the ablation switch.

    With a ``key`` (a plain word) the object is the first balanced span
    whose parse, as it is or else escape-fixed, has a string under ``key``,
    among the first MAX_KEY_SPANS spans holding ``key``, a backslash or a
    carriage return (no parse can find ``key`` in any other span).  When
    none qualifies, the stages below run on the text from the first brace.

    Before any span scan, the object at the first brace is decoded: when it
    is one (with a ``key``, one holding a string under it), it is the first
    span those stages would read, and it is returned as the direct read.
    """
    brace = raw_output.find("{")
    first = _object_at(raw_output, brace)
    if first is not None and (key is None or isinstance(first.get(key), str)):
        return RepairOutcome(first, 0, STAGE_DIRECT, 0 if key is None else brace)
    start = 0
    if key is not None:
        holding = (
            (start, span) for start, span in balanced_spans(raw_output)
            if key in span or "\\" in span or "\r" in span
        )
        for start, span in itertools.islice(holding, MAX_KEY_SPANS):
            value = try_parse(span)
            if isinstance((value or {}).get(key), str):
                return RepairOutcome(value, 0, STAGE_DIRECT, start)
            value = try_parse(fix_escapes(span))
            if isinstance((value or {}).get(key), str):
                stage = STAGE_ESCAPE_FIXED if enabled else STAGE_FAILED
                return RepairOutcome(value if enabled else {}, 0, stage, start)
        start = brace
        if start == -1:
            return RepairOutcome({}, 0, STAGE_FAILED, start)
        raw_output = raw_output[start:]

    direct = try_parse(extract_json(raw_output))
    if direct is not None:
        return RepairOutcome(direct, 0, STAGE_DIRECT, start)
    if not enabled:
        return RepairOutcome({}, 0, STAGE_FAILED, start)

    fixed = try_parse(extract_json(fix_escapes(raw_output)))
    if fixed is not None:
        return RepairOutcome(fixed, 0, STAGE_ESCAPE_FIXED, start)

    if backend is None:
        return RepairOutcome({}, 0, STAGE_FAILED, start)

    current = raw_output
    for attempts in range(1, DEFAULT_RETRY_LIMIT + 1):
        for instruction in (
            prompts.YAML_EXTRACT_INSTRUCTION,
            prompts.JSON_RESTORE_INSTRUCTION,
        ):
            current = ask(backend, prompts.REGEN_SYSTEM, f"{instruction}\n\n{current}")
        value = try_parse(extract_json(fix_escapes(current)))
        if value is not None:
            return RepairOutcome(value, attempts, STAGE_REGENERATED, start)
    return RepairOutcome({}, DEFAULT_RETRY_LIMIT, STAGE_FAILED, start)


# ---------------------------------------------------------------------------
# Files: every file the program writes is written by write_files, every JSON
# file it writes is rendered by json_text or jsonl_text, and every JSON or
# JSONL file it reads is read by read_json or read_jsonl


def write_files(root: str, files: dict[str, str]) -> None:
    """Write each file of a ``{relative path: text}`` table under ``root``,
    making its directories, as UTF-8 with no newline translation."""
    for rel, text in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def json_text(value: Any) -> str:
    """A JSON file's text: two-space indent, sorted keys, a final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def jsonl_text(entries: Iterable[Any]) -> str:
    """A JSONL file's text: one entry per line, keys sorted."""
    return "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)


def _entry(data: bytes, keys: tuple[str, ...], path: str, line: Optional[int] = None) -> dict:
    """The object UTF-8 JSON ``data`` holds, with a string under each of
    ``keys``.  A syntax error stays a JSONDecodeError; bytes that are not
    UTF-8 or nest too deep, and any other value, raise ValueError.  Each
    message begins with ``path`` (and ``line``), built only on failure."""
    try:
        entry = json.loads(data.decode("utf-8"))
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        for key in keys:
            if not isinstance(entry.get(key), str):
                raise ValueError(f"entry has no string {key!r}")
        return entry
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        where = path if line is None else f"{path}:{line}"
        if isinstance(exc, json.JSONDecodeError):  # keeps its type, which a batch row shows
            raise json.JSONDecodeError(f"{where}: {exc.msg}", exc.doc, exc.pos) from None
        raise ValueError(f"{where}: {exc}") from None


def read_json(path: str, keys: tuple[str, ...] = ()) -> dict:
    """The object a JSON file holds; see _entry for what a malformed file
    raises (ValueError naming ``path``)."""
    with open(path, "rb") as fh:
        return _entry(fh.read(), keys, path)


def read_jsonl(path: str, keys: tuple[str, ...]) -> Iterator[dict]:
    """Each entry of a JSONL file (one entry per "\\n"-ended line, blank
    lines skipped), in file order; see _entry for what a malformed line
    raises (ValueError naming ``path:line``)."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                yield _entry(line, keys, path, number)
