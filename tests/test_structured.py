import importlib.resources
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrca import structured
from cloudrca.agent import _split_thought
from cloudrca.backends import MockBackend
from cloudrca.mockpolicy import _corrupt
from cloudrca.structured import (
    STAGE_DIRECT,
    STAGE_ESCAPE_FIXED,
    STAGE_FAILED,
    STAGE_REGENERATED,
    SUBSTITUTION_TABLE,
    balanced_spans,
    extract_json,
    fix_escapes,
    json_regen,
    read_json,
    read_jsonl,
    sanitize_prompt,
    try_parse,
)

from oracles import span_scan_read


class TestSanitize:
    def test_substitution_table_contents(self):
        table = dict(SUBSTITUTION_TABLE)
        assert table['"'] == "'"
        assert table["["] == "<:"
        assert table["{"] == "<%"
        assert table["]"] == ":>"
        assert table["}"] == "%>"

    def test_plain_text(self):
        assert sanitize_prompt('say "hi" [now] {ok}') == "say 'hi' <:now:> <%ok%>"

    def test_protected_spans_untouched(self):
        # JSON that must survive is left out of the sanitized pieces
        out = sanitize_prompt("before ") + '{"a": 1}' + sanitize_prompt(' after ["x"]')
        assert '{"a": 1}' in out
        assert "<:'x':>" in out

    def test_snapshot_line_sanitized_form(self):
        out = sanitize_prompt("[ snapshot: 0123456789 ]")
        assert out == "<: snapshot: 0123456789 :>"

    def test_no_substitute_holds_a_replaced_character(self):
        # the replace passes and the piecewise history rendering rely on it
        replaced = {char for char, _ in SUBSTITUTION_TABLE}
        assert len(replaced) == len(SUBSTITUTION_TABLE)
        for _, substitute in SUBSTITUTION_TABLE:
            assert not replaced & set(substitute)

    @settings(max_examples=500)
    @given(
        st.text(
            st.characters(exclude_categories=())
            | st.sampled_from([char for char, _ in SUBSTITUTION_TABLE] + ["\ud800", "\udfff"])
        )
    )
    def test_equals_the_per_character_mapping(self, text):
        table = dict(SUBSTITUTION_TABLE)
        assert sanitize_prompt(text) == "".join(table.get(char, char) for char in text)


class TestExtractJson:
    def test_plain_object(self):
        assert try_parse(extract_json('{"a": 1}')) == {"a": 1}

    def test_prose_wrapped(self):
        text = 'Thought: done.\nFunction: {"function": "f", "kwargs": {}}\nok'
        assert try_parse(extract_json(text)) == {"function": "f", "kwargs": {}}

    def test_braces_inside_strings_ignored(self):
        text = '{"a": "literal } brace", "b": 2}'
        assert try_parse(extract_json(text)) == {"a": "literal } brace", "b": 2}

    def test_escaped_quotes_inside_strings(self):
        text = '{"a": "say \\"hi\\""}'
        assert try_parse(extract_json(text)) == {"a": 'say "hi"'}

    def test_no_object(self):
        assert extract_json("no braces here") is None

    def test_unbalanced_first_brace_tries_later(self):
        text = '{ broken\n{"a": 1}'
        assert try_parse(extract_json(text)) == {"a": 1}


def char_by_char_spans(text):
    """Reference scanner: visit every character from each ``{``."""
    spans = []
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    spans.append((start, text[start : i + 1]))
                    break
        start = text.find("{", start + 1)
    return spans


# JSON punctuation, every character the repair acts on, and plain text
REPLY_ALPHABET = '{}[]"\\ab:, \n\r\t\f/u\u201c\u201d\u2018\u2019'


class TestBalancedSpans:
    @settings(max_examples=500)
    @given(st.text(alphabet=REPLY_ALPHABET, max_size=40))
    def test_matches_the_char_by_char_scanner(self, text):
        assert list(balanced_spans(text)) == char_by_char_spans(text)

    @pytest.mark.parametrize(
        "text, spans",
        [
            # the escaped quote keeps the string open, so its } is text
            ('{"a": "x\\"}", "b": 1}', [(0, '{"a": "x\\"}", "b": 1}')]),
            # a trailing backslash inside a string leaves it open
            ('{"a": "\\', []),
            ('{"a": 1} {"b": "\\', [(0, '{"a": 1}')]),
            # outside a string a backslash is text and the brace after it counts
            ("{\\}", [(0, "{\\}")]),
            ("{a\\{}}", [(0, "{a\\{}}"), (3, "{}")]),
            # each { opens its own span, outer first
            ('{"a": {"b": {}}}', [(0, '{"a": {"b": {}}}'), (6, '{"b": {}}'), (12, "{}")]),
            # an unclosed literal swallows the later } of the outer span
            ('{"a": "} {}', [(9, "{}")]),
        ],
        ids=[
            "escaped-quote-before-brace",
            "trailing-backslash",
            "trailing-backslash-later",
            "backslash-outside-string",
            "backslash-before-brace",
            "nested",
            "unclosed-literal",
        ],
    )
    def test_explicit_cases(self, text, spans):
        assert list(balanced_spans(text)) == spans
        assert char_by_char_spans(text) == spans


class TestOnePassSpans:
    @settings(max_examples=500)
    @given(st.text(alphabet=REPLY_ALPHABET + '"""{}\\', max_size=60))
    def test_quote_and_brace_heavy_replies_match_the_char_by_char_scanner(self, text):
        assert list(balanced_spans(text)) == char_by_char_spans(text)

    @pytest.mark.parametrize(
        "text, spans",
        [
            # the escaped quote opens a literal for the scan at 2 and keeps
            # the scan at 0 in its literal; one } then closes both
            ('{"{\\""}', [(0, '{"{\\""}'), (2, '{\\""}')]),
            ('{{"{\\""}}', [(0, '{{"{\\""}}'), (1, '{"{\\""}'), (3, '{\\""}')]),
            ('{"x{\\"{}"}', [(0, '{"x{\\"{}"}'), (3, '{\\"{}"}'), (6, "{}")]),
            # the escaped quote opens a literal token: merge, then swap
            ('{"{\\"a"}"}', [(0, '{"{\\"a"}'), (2, '{\\"a"}')]),
        ],
        ids=[
            "merge-closes-two",
            "merge-under-an-outer-brace",
            "merge-then-braces",
            "merge-opens-a-literal",
        ],
    )
    def test_lanes_merge_on_an_escaped_quote(self, text, spans):
        assert list(balanced_spans(text)) == spans
        assert char_by_char_spans(text) == spans


class CountingPattern:
    """Stands in for a compiled pattern and fails as soon as ``finditer``
    has yielded more than ``limit`` matches in all."""

    def __init__(self, pattern, limit):
        self.pattern, self.limit, self.visits = pattern, limit, 0

    def finditer(self, *args):
        for match in self.pattern.finditer(*args):
            self.visits += 1
            assert self.visits <= self.limit, "a token was visited twice"
            yield match


@pytest.mark.parametrize(
    "text, spans",
    [
        ("{" * 16384, []),
        ("{" * 8192 + "}" * 8192, [(i, 16384 - 2 * i) for i in range(8192)]),
        ('{"a":' * 3000 + "1" + "}" * 3000, [(5 * i, 18001 - 6 * i) for i in range(3000)]),
    ],
    ids=["unclosed", "nested", "nested-keys"],
)
def test_span_scan_visits_each_token_once(monkeypatch, text, spans):
    tokens = len(structured._SPAN_TOKENS.findall(text))
    monkeypatch.setattr(
        structured, "_SPAN_TOKENS", CountingPattern(structured._SPAN_TOKENS, tokens)
    )
    assert [(start, len(span)) for start, span in balanced_spans(text)] == spans


def char_by_char_fix_escapes(text):
    """Reference repair: one pass over every character with a string flag."""
    for smart, plain in {"\u201c": '"', "\u201d": '"', "\u2018": "'", "\u2019": "'"}.items():
        text = text.replace(smart, plain)
    out = []
    in_string = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            if ch == "\\":
                nxt = text[i + 1] if i + 1 < len(text) else ""
                if nxt and nxt in '"\\/bfnrtu':
                    out.append(ch + nxt)
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


class TestFixEscapes:
    @settings(max_examples=500)
    @given(st.text(alphabet=REPLY_ALPHABET, max_size=40))
    def test_matches_the_char_by_char_repair(self, text):
        assert fix_escapes(text) == char_by_char_fix_escapes(text)

    @pytest.mark.parametrize(
        "text, fixed",
        [
            # an open literal keeps its lone trailing backslash, doubled
            ('{"a": "x\\', '{"a": "x\\\\'),
            # a backslash before a raw newline is doubled, the newline escaped
            ('{"a": "x\\\ny"}', '{"a": "x\\\\\\ny"}'),
            # a raw carriage return inside a string is dropped
            ('{"a": "x\ry"}', '{"a": "xy"}'),
            # a form feed is not JSON whitespace, so the comma stays
            ('{"a": 1,\f}', '{"a": 1,\f}'),
            # ",}" inside a string is text
            ('{"a": ",}"}', '{"a": ",}"}'),
            # an unclosed literal swallows the later "}" and its comma
            ('{"a": "x, }\n', '{"a": "x, }\\n'),
        ],
        ids=[
            "trailing-backslash",
            "backslash-newline",
            "raw-carriage-return",
            "form-feed-before-brace",
            "comma-brace-in-string",
            "unclosed-literal",
        ],
    )
    def test_explicit_cases(self, text, fixed):
        assert fix_escapes(text) == fixed
        assert char_by_char_fix_escapes(text) == fixed

    def test_smart_quotes(self):
        assert try_parse(extract_json(fix_escapes("{\u201ca\u201d: 1}"))) == {"a": 1}

    def test_lone_backslash_doubled(self):
        raw = '{"path": "C:\\jobs\\run"}'
        assert try_parse(raw) is None  # \j and \r(un) are invalid escapes? \r valid...
        fixed = fix_escapes(raw)
        value = try_parse(fixed)
        assert value is not None and "jobs" in value["path"]

    def test_valid_escapes_preserved(self):
        raw = '{"a": "tab\\there \\"quoted\\""}'
        assert try_parse(fix_escapes(raw)) == {"a": 'tab\there "quoted"'}

    def test_raw_newline_in_string(self):
        raw = '{"a": "line one\nline two"}'
        assert try_parse(raw) is None
        assert try_parse(fix_escapes(raw)) == {"a": "line one\nline two"}

    def test_trailing_commas(self):
        raw = '{"a": [1, 2,], "b": {"c": 3,},}'
        assert try_parse(raw) is None
        assert try_parse(fix_escapes(raw)) == {"a": [1, 2], "b": {"c": 3}}

    def test_comma_inside_string_untouched(self):
        raw = '{"a": "keep ,} this"}'
        assert try_parse(fix_escapes(raw)) == {"a": "keep ,} this"}


class TestTryParse:
    def test_dict_only(self):
        assert try_parse("[1, 2]") is None
        assert try_parse('"string"') is None
        assert try_parse(None) is None
        assert try_parse("{bad") is None


class TestJsonRegen:
    def test_direct_stage(self):
        out = json_regen(None, '{"a": 1}')
        assert out.ok and out.stage == STAGE_DIRECT and out.attempts == 0

    def test_escape_fixed_stage(self):
        out = json_regen(None, '{"a": 1,}')
        assert out.ok and out.stage == STAGE_ESCAPE_FIXED

    def test_disabled_skips_all_repair(self):
        out = json_regen(None, '{"a": 1,}', enabled=False)
        assert not out.ok and out.stage == STAGE_FAILED and out.value == {}

    def test_disabled_direct_still_works(self):
        out = json_regen(None, '{"a": 1}', enabled=False)
        assert out.ok and out.stage == STAGE_DIRECT

    def test_regeneration_roundtrip(self):
        be = MockBackend(["a: 1", '{"a": 1}'])
        out = json_regen(be, "completely broken")
        assert out.ok and out.stage == STAGE_REGENERATED
        assert out.value == {"a": 1} and out.attempts == 1
        assert len(be.calls) == 2  # one YAML call + one JSON call

    def test_backend_call_budget(self):
        # every regeneration fails: exactly 2 * DEFAULT_RETRY_LIMIT backend calls
        be = MockBackend(["junk"] * 6)
        out = json_regen(be, "broken")
        assert not out.ok and out.stage == STAGE_FAILED
        assert out.attempts == 3 and out.value == {}
        assert len(be.calls) == 6

    def test_no_backend_stops_before_regeneration(self):
        out = json_regen(None, "broken beyond local repair")
        assert not out.ok and out.stage == STAGE_FAILED

    def test_too_deep_to_parse_is_a_failed_repair(self):
        # json.loads raises RecursionError here, not a ValueError
        deep = '{"a":' * 1000 + "1" + "}" * 1000
        assert try_parse(deep) is None
        out = json_regen(None, deep)
        assert not out.ok and out.stage == STAGE_FAILED


def two_read_oracle(text, enabled, backend=None):
    """The controller's read before ``json_regen`` took a key: the first
    balanced span whose parse, as it is or else escape-fixed, has a string
    ``function`` marks the action (else the first brace does), and
    ``json_regen`` then reads the text from there again by its own stages.
    A reply with no brace was never read; it counts as a failed read here.

    Returns ``(thought, stage, value, disagree)``.  The reads disagree where
    the first accepts a span by its fixed parse while its as-is parse is an
    object without the key: the second read returns that object."""

    def is_action(value):
        return value is not None and isinstance(value.get("function"), str)

    start, disagree = text.find("{"), False
    for span_start, span in balanced_spans(text):
        as_is = try_parse(span)
        if is_action(as_is) or is_action(try_parse(fix_escapes(span))):
            start, disagree = span_start, as_is is not None and not is_action(as_is)
            break
    if start == -1:
        return text.strip(), STAGE_FAILED, {}, False
    outcome = json_regen(backend, text[start:], enabled)
    return _split_thought(text, start), outcome.stage, outcome.value, disagree


def keyed_read(text, enabled, backend=None):
    outcome = json_regen(backend, text, enabled, key="function")
    return _split_thought(text, outcome.start), outcome.stage, outcome.value


# Reply pieces heavy in what either read acts on: braces, quotes, smart
# quotes, backslashes, carriage returns, \u escapes and the key itself
ACTION_PIECES = list(REPLY_ALPHABET) + [
    "function",
    '"function"',
    "\u201cfunction\u201d",
    "\\u0066unction",
    '"f"',
    "\u201cf\u201d",
    ": ",
    '{"function": "f"}',
    '{"function": "f",}',
    '{\u201cfunction\u201d: "f"}',
    '{"function": "f\\x"}',
    '{"\\u0066unction": "f"}',
    '{"func\rtion": "f"}',
    '{"function": "f\n"}',
    '{"a": "\u201c, \u201cfunction\u201d: \u201cf\u201d, \u201cb\u201d: \u201d"}',
    '\\"',
    ",}",
    "Function: ",
    "Thought: ",
]


class TestOneRead:
    def test_the_fixed_parse_wins_where_the_two_reads_disagree(self):
        text = '{"a": "\u201c, \u201cfunction\u201d: \u201cf\u201d, \u201cb\u201d: \u201d"}'
        assert two_read_oracle(text, True) == ("", STAGE_DIRECT, {"a": text[7:-2]}, True)
        outcome = json_regen(None, text, key="function")
        assert outcome.stage == STAGE_ESCAPE_FIXED and outcome.start == 0
        assert outcome.value == {"a": "", "function": "f", "b": ""}
        outcome = json_regen(None, text, enabled=False, key="function")
        assert outcome.stage == STAGE_FAILED and outcome.start == 0

    @pytest.mark.parametrize(
        "text, stage",
        [
            ('{"\\u0066unction": "f"}', STAGE_DIRECT),
            ('{"func\rtion": "f"}', STAGE_ESCAPE_FIXED),
        ],
        ids=["unicode-escape", "carriage-return"],
    )
    def test_a_span_without_the_key_as_written_is_still_read(self, text, stage):
        outcome = json_regen(None, f"{{x}} {text}", key="function")
        assert (outcome.stage, outcome.value, outcome.start) == (stage, {"function": "f"}, 4)

    @settings(max_examples=1000)
    @given(
        st.lists(st.sampled_from(ACTION_PIECES), max_size=24).map("".join),
        st.booleans(),
    )
    def test_equals_the_two_read_oracle(self, text, enabled):
        thought, stage, value, disagree = two_read_oracle(text, enabled)
        got = keyed_read(text, enabled)
        if disagree and enabled:
            assert got[:2] == (thought, STAGE_ESCAPE_FIXED)
            assert isinstance(got[2]["function"], str)
        elif disagree:
            assert got == (thought, STAGE_FAILED, {})
        else:
            assert got == (thought, stage, value)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_bundled_corpus_reads_as_the_two_reads(self, enabled):
        data = (
            importlib.resources.files("cloudrca") / "data" / "repair_corpus.jsonl"
        ).read_text(encoding="utf-8")
        for line in filter(str.strip, data.splitlines()):
            raw = json.loads(line)["raw"]
            for text in (raw, f"Thought: {{x}} then {raw}"):
                assert keyed_read(text, enabled) == two_read_oracle(text, enabled)[:3]

    def test_regeneration_sends_the_text_from_the_first_brace(self):
        text = 'Thought: {x} and more.\nFunction: {"function": fetch}'
        script = ["junk", '{"function": "fetch"}']
        oracle_backend, backend = MockBackend(script), MockBackend(script)
        expected = two_read_oracle(text, True, oracle_backend)[:3]
        assert keyed_read(text, True, backend) == expected
        assert expected[1] == STAGE_REGENERATED
        sent = [call.exchange.messages for call in backend.calls]
        assert sent == [call.exchange.messages for call in oracle_backend.calls]
        assert sent[0][0][1].endswith("\n\n" + text[text.index("{"):])

    def test_a_reply_without_a_brace_is_a_failed_read(self):
        outcome = json_regen(MockBackend(), "no action here", key="function")
        assert outcome.stage == STAGE_FAILED and outcome.start == -1

    @pytest.mark.parametrize(
        "text",
        ["{" * 8192 + "}" * 8192, '{"a":' * 3000 + "1" + "}" * 3000],
        ids=["nested", "nested-keys"],
    )
    @pytest.mark.parametrize("enabled", [True, False])
    def test_spans_without_the_key_are_not_parsed(self, monkeypatch, text, enabled):
        parsed = []
        original = structured.try_parse

        def counting(candidate):
            parsed.append(candidate)
            return original(candidate)

        monkeypatch.setattr(structured, "try_parse", counting)
        outcome = json_regen(None, text, enabled, key="function")
        assert outcome.stage == STAGE_FAILED and outcome.start == 0
        # no span is parsed on the way; only the unchanged stages read the
        # first span, as it is and then escape-fixed
        assert len(parsed) == (2 if enabled else 1)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_key_in_every_nested_span_bounds_the_parses(self, monkeypatch, enabled):
        # every span holds the key, and none has a string under it
        text = '{"function":' * 2000 + "1" + "}" * 2000
        parsed = []
        original = structured.try_parse

        def counting(candidate):
            parsed.append(candidate)
            return original(candidate)

        monkeypatch.setattr(structured, "try_parse", counting)
        outcome = json_regen(None, text, enabled, key="function")
        assert outcome.stage == STAGE_FAILED and outcome.start == 0
        # both parses of the first MAX_KEY_SPANS spans, then the unchanged
        # stages on the text from the first brace
        assert len(parsed) == 2 * structured.MAX_KEY_SPANS + (2 if enabled else 1)


def assert_reads_as_the_span_scan(text, enabled, key, script=None):
    backends = (None, None) if script is None else (MockBackend(script), MockBackend(script))
    got = json_regen(backends[0], text, enabled, key)
    assert got == span_scan_read(backends[1], text, enabled, key)
    if script is not None:
        sent = [call.exchange.messages for call in backends[0].calls]
        assert sent == [call.exchange.messages for call in backends[1].calls]
    return got


DEEP = '{"a":' * 1000 + "1" + "}" * 1000


class TestFirstBraceParse:
    @settings(max_examples=1000)
    @given(
        st.lists(st.sampled_from(ACTION_PIECES), max_size=24).map("".join)
        | st.text(alphabet=REPLY_ALPHABET, max_size=40),
        st.booleans(),
        st.sampled_from([None, "function"]),
    )
    def test_equals_the_span_scan_read(self, text, enabled, key):
        assert_reads_as_the_span_scan(text, enabled, key)

    @pytest.mark.parametrize("key", [None, "function"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_bundled_corpus_reads_as_the_span_scan(self, enabled, key):
        data = (
            importlib.resources.files("cloudrca") / "data" / "repair_corpus.jsonl"
        ).read_text(encoding="utf-8")
        for line in filter(str.strip, data.splitlines()):
            raw = json.loads(line)["raw"]
            for text in (raw, f"Thought: {{x}} then {raw}", f"Thought: ok.\nFunction: {raw}"):
                assert_reads_as_the_span_scan(text, enabled, key)

    @pytest.mark.parametrize(
        "text, unkeyed, keyed",
        [
            (
                '{ broken\n{"function": "f"}',
                ({"function": "f"}, STAGE_DIRECT, 0),
                ({"function": "f"}, STAGE_DIRECT, 9),
            ),
            (
                '{"a": 1} {"function": "f"}',
                ({"a": 1}, STAGE_DIRECT, 0),
                ({"function": "f"}, STAGE_DIRECT, 9),
            ),
            (
                '{"function": 1} {"function": "f"}',
                ({"function": 1}, STAGE_DIRECT, 0),
                ({"function": "f"}, STAGE_DIRECT, 16),
            ),
            (
                'Function: {"function": "a } and \\" here"} {"b": 2}',
                ({"function": 'a } and " here'}, STAGE_DIRECT, 0),
                ({"function": 'a } and " here'}, STAGE_DIRECT, 10),
            ),
            (DEEP, ({}, STAGE_FAILED, 0), ({}, STAGE_FAILED, 0)),
            (
                DEEP + ' {"function": "f"}',
                ({}, STAGE_FAILED, 0),
                ({"function": "f"}, STAGE_DIRECT, len(DEEP) + 1),
            ),
            ("no action here", ({}, STAGE_FAILED, 0), ({}, STAGE_FAILED, -1)),
        ],
        ids=[
            "unbalanced-first-brace",
            "first-object-without-the-key",
            "key-under-a-non-string",
            "brace-and-escaped-quote-in-a-literal",
            "nested-past-the-recursion-limit",
            "action-after-deep-nesting",
            "no-brace",
        ],
    )
    @pytest.mark.parametrize("enabled", [True, False])
    def test_explicit_cases(self, text, unkeyed, keyed, enabled):
        for key, expected in ((None, unkeyed), ("function", keyed)):
            got = assert_reads_as_the_span_scan(text, enabled, key)
            assert (got.value, got.stage, got.start) == expected

    @pytest.mark.parametrize("key", [None, "function"])
    def test_regeneration_reads_as_the_span_scan(self, key):
        text = 'Thought: {x} and more.\nFunction: {"function": fetch}'
        got = assert_reads_as_the_span_scan(text, True, key, ["junk", '{"function": "fetch"}'])
        assert got.stage == STAGE_REGENERATED and got.attempts == 1


class TestSpanScanCalls:
    """The first-brace parse keeps valid replies off the span scan; counted
    in calls, not timed."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        original = structured.balanced_spans

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(structured, "balanced_spans", counting)
        return calls

    ACTION = json.dumps({"function": "finalize", "kwargs": {"root_cause": "x"}}, sort_keys=True)

    @pytest.mark.parametrize("key", [None, "function"])
    def test_a_valid_reply_is_never_scanned(self, scans, key):
        outcome = json_regen(None, f"Thought: done.\nFunction: {self.ACTION}", key=key)
        assert outcome.stage == STAGE_DIRECT and scans == []

    def test_the_mocks_trailing_comma_action_is_scanned_once(self, scans):
        text = f"Thought: done.\nFunction: {_corrupt(self.ACTION)}"
        assert text.count(",}") == 2
        outcome = json_regen(None, text, key="function")
        assert (outcome.stage, outcome.start) == (STAGE_ESCAPE_FIXED, text.index("{"))
        assert outcome.value == json.loads(self.ACTION) and len(scans) == 1


class TestCorpusRegression:
    def test_bundled_corpus_rates(self):
        import importlib.resources as resources

        data = (
            resources.files("cloudrca") / "data" / "repair_corpus.jsonl"
        ).read_text(encoding="utf-8")
        records = [json.loads(line) for line in data.splitlines() if line.strip()]
        assert len(records) >= 100
        parsed = 0
        for record in records:
            out = json_regen(None, record["raw"])
            got = out.ok and bool(out.value)
            assert got == record["expected_parse_ok"], record["raw"][:80]
            parsed += got
        assert parsed / len(records) >= 0.90


class TestReadJson:
    """read_json and read_jsonl share one decode step: a syntax error stays
    a JSONDecodeError, every other fault is a ValueError, and each message
    begins with the file (and line)."""

    def test_an_object_with_a_string_under_each_key_is_returned(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text('{"job_id": "fj1", "n": 1}')
        assert read_json(str(path), ("job_id",)) == {"job_id": "fj1", "n": 1}
        with pytest.raises(ValueError) as err:
            read_json(str(path), ("n",))
        assert str(err.value) == f"{path}: entry has no string 'n'"

    def test_a_jsonl_syntax_error_keeps_its_type_and_message(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"text": "x"}\n{not json\n')
        with pytest.raises(json.JSONDecodeError) as err:
            list(read_jsonl(str(path), ("text",)))
        assert str(err.value) == (
            f"{path}:2: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)"
        )

    def test_nesting_too_deep_is_a_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ValueError) as err:
            read_json(str(path))
        assert str(err.value).startswith(f"{path}: maximum recursion depth exceeded")
        path.write_text('{"text": "x"}\n' + "[" * 200_000 + "\n")
        with pytest.raises(ValueError) as err:
            list(read_jsonl(str(path), ("text",)))
        assert str(err.value).startswith(f"{path}:2: maximum recursion depth exceeded")


@settings(max_examples=200)
@given(st.dictionaries(st.text(min_size=1, max_size=10), st.integers(), max_size=5))
def test_roundtrip_property(payload):
    wire = json.dumps(payload)
    assert try_parse(extract_json(f"noise {wire} noise")) == payload
    # the wire beside sanitized text stays parseable, and sanitizing
    # commutes with concatenation, so pieces can be sanitized one at a time
    prefix = "prefix "
    out = sanitize_prompt(prefix) + wire
    assert try_parse(extract_json(out)) == payload
    assert sanitize_prompt(wire + prefix) == sanitize_prompt(wire) + sanitize_prompt(prefix)
