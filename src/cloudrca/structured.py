"""Structured-output repair: sanitize prompts, extract and fix JSON from model
output, and fall back to a YAML round trip through the model when local
repair fails.  After all retries the result degrades to an empty object
rather than an exception.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from . import prompts
from .backends import Backend, ask

DEFAULT_RETRY_LIMIT = 3

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

# No substitute holds a character the table replaces, so sanitizing
# commutes with concatenation: pieces can be sanitized one at a time.
_SANITIZE = str.maketrans(dict(SUBSTITUTION_TABLE))

STAGE_DIRECT = "direct"
STAGE_ESCAPE_FIXED = "escape_fixed"
STAGE_REGENERATED = "regenerated"
STAGE_FAILED = "failed"


@dataclass
class RepairOutcome:
    value: Any
    attempts: int
    stage: str

    @property
    def ok(self) -> bool:
        return self.stage != STAGE_FAILED


def sanitize_prompt(text: str) -> str:
    """Apply the substitution table to every character of ``text``."""
    return text.translate(_SANITIZE)


# the only characters balanced_spans acts on
_SPAN_TOKENS = re.compile(r'[{}"\\]')


def balanced_spans(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(start, span)`` for every ``{`` that opens a balanced
    curly-brace span, in text order.

    Braces inside string literals are ignored; backslash escapes inside
    strings are honoured.
    """
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = -1  # the position an in-string backslash escapes
        for match in _SPAN_TOKENS.finditer(text, start):
            i = match.start()
            if i == escaped:
                continue
            ch = match.group()
            if in_string:
                if ch == "\\":
                    escaped = i + 1
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    yield start, text[start : i + 1]
                    break
        start = text.find("{", start + 1)


def extract_json(text: str) -> Optional[str]:
    """Return the first maximal balanced curly-brace span, or None."""
    return next((span for _, span in balanced_spans(text)), None)


_SMART_QUOTES = {
    "“": '"',
    "”": '"',
    "‘": "'",
    "’": "'",
}

# Valid JSON escape successors; anything else after a backslash is a wrong
# escape and the backslash gets doubled.
_VALID_ESCAPES = set('"\\/bfnrtu')



def fix_escapes(text: str) -> str:
    """Best-effort repair of a fixed catalog of corruption patterns:
    smart quotes, lone backslashes before non-escape characters, raw newlines
    inside string literals, and trailing commas.  Valid JSON is a fixpoint.
    """
    for smart, plain in _SMART_QUOTES.items():
        text = text.replace(smart, plain)

    out = []
    in_string = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            if ch == "\\":
                nxt = text[i + 1] if i + 1 < len(text) else ""
                if nxt in _VALID_ESCAPES:
                    out.append(ch)
                    out.append(nxt)
                    i += 2
                    continue
                out.append("\\\\")  # lone backslash: double it
                i += 1
                continue
            if ch == "\n":
                out.append("\\n")
                i += 1
                continue
            if ch == "\r":
                i += 1
                continue
            if ch == "\t":
                out.append("\\t")
                i += 1
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == ",":
            # trailing comma: next non-whitespace char closes the container
            j = i + 1
            while j < len(text) and text[j] in " \t\r\n":
                j += 1
            if j < len(text) and text[j] in "}]":
                i += 1
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def try_parse(text: Optional[str]) -> Optional[Any]:
    if text is None:
        return None
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return None
    return value if isinstance(value, dict) else None


def json_regen(
    backend: Optional[Backend],
    raw_output: str,
    enabled: bool = True,
) -> RepairOutcome:
    """Extract a structured object from model output, repairing as needed;
    regeneration makes at most DEFAULT_RETRY_LIMIT round trips.

    With ``enabled`` false the local-fix and regeneration stages are skipped
    entirely (strict bracket-match + parse only); this is the ablation switch.
    """
    direct = try_parse(extract_json(raw_output))
    if direct is not None:
        return RepairOutcome(direct, 0, STAGE_DIRECT)
    if not enabled:
        return RepairOutcome({}, 0, STAGE_FAILED)

    fixed = try_parse(extract_json(fix_escapes(raw_output)))
    if fixed is not None:
        return RepairOutcome(fixed, 0, STAGE_ESCAPE_FIXED)

    if backend is None:
        return RepairOutcome({}, 0, STAGE_FAILED)

    current = raw_output
    for attempts in range(1, DEFAULT_RETRY_LIMIT + 1):
        for instruction in (
            prompts.YAML_EXTRACT_INSTRUCTION,
            prompts.JSON_RESTORE_INSTRUCTION,
        ):
            current = ask(backend, prompts.REGEN_SYSTEM, f"{instruction}\n\n{current}")
        value = try_parse(extract_json(fix_escapes(current)))
        if value is not None:
            return RepairOutcome(value, attempts, STAGE_REGENERATED)
    return RepairOutcome({}, DEFAULT_RETRY_LIMIT, STAGE_FAILED)
