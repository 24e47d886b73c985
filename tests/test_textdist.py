import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloudrca.textdist as textdist
from cloudrca.textdist import deduplicate_entries, levenshtein, normalized_similarity


def levenshtein_oracle(a: str, b: str) -> int:
    """Reference Wagner-Fischer implementation, unit costs."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[len(b)]


class TestLevenshtein:
    def test_known_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0
        assert levenshtein("flaw", "lawn") == 2

    def test_matches_oracle_on_fixed_pairs(self):
        pairs = [
            ("ERROR OutOfMemoryError", "WARN memory usage above 95%"),
            ("abcdefgh", "badcfehg"),
            ("log line\nwith newline", "log line with newline"),
            ("short", "a much longer string entirely"),
        ]
        for a, b in pairs:
            assert levenshtein(a, b) == levenshtein_oracle(a, b)


@settings(max_examples=300)
@given(st.text(max_size=40), st.text(max_size=40))
def test_matches_oracle_property(a, b):
    assert levenshtein(a, b) == levenshtein_oracle(a, b)


@settings(max_examples=200)
@given(st.text(max_size=40), st.text(max_size=40))
def test_symmetry_and_bounds(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


@settings(max_examples=100)
@given(st.text(max_size=25), st.text(max_size=25), st.text(max_size=25))
def test_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestNormalizedSimilarity:
    def test_identical(self):
        assert normalized_similarity("abc", "abc") == pytest.approx(1.0)

    def test_disjoint(self):
        assert normalized_similarity("aaa", "bbb") == pytest.approx(0.0)

    def test_both_empty(self):
        assert normalized_similarity("", "") == pytest.approx(1.0)

    def test_range(self):
        value = normalized_similarity("kitten", "sitting")
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(1 - 3 / 7)


class TestDeduplicate:
    def test_keeps_first_of_near_duplicates(self):
        entries = [
            "INFO checkpoint 41 completed in 93 ms",
            "INFO checkpoint 42 completed in 95 ms",
            "ERROR something else entirely happened",
        ]
        kept = deduplicate_entries(entries, threshold=0.9)
        assert kept == [entries[0], entries[2]]

    def test_exact_duplicates_removed(self):
        assert deduplicate_entries(["a b c", "a b c", "a b c"]) == ["a b c"]

    def test_order_preserved(self):
        entries = ["zebra line", "apple line", "zebra line"]
        assert deduplicate_entries(entries) == ["zebra line", "apple line"]

    def test_threshold_one_keeps_distinct(self):
        entries = ["aaaa", "aaab"]
        assert deduplicate_entries(entries, threshold=1.0) == entries


# Hypothesis text with astral-plane characters (emoji) mixed in, so the bit
# vector sees characters outside the BMP as well as ASCII and Latin-1.
_wide_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("ab \n\té"),
        st.sampled_from("😀😁🚀𝔘"),
        st.characters(),
    ),
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(_wide_text, _wide_text)
def test_matches_oracle_up_to_300_chars(a, b):
    assert levenshtein(a, b) == levenshtein_oracle(a, b)


@pytest.mark.parametrize("chunk_len", [2000, 2500, 3000])
def test_quote_against_long_chunk_matches_oracle(chunk_len):
    rng = random.Random(chunk_len)
    words = ["ERROR", "WARN", "INFO", "executor", "lost", "heartbeat", "OOM",
             "container", "killed", "retry", "😀", "shard", "42"]
    lines, size = [], 0
    while size < chunk_len:
        line = " ".join(rng.choice(words) for _ in range(rng.randint(3, 9)))
        lines.append(line)
        size += len(line) + 1
    chunk = "\n".join(lines)[:chunk_len]
    copied = chunk[chunk_len // 3 : chunk_len // 3 + 80]
    invented = "".join(rng.choice("qxz🚀 ") for _ in range(80))
    for quote in (copied, invented):
        assert len(quote) == 80
        assert levenshtein(quote, chunk) == levenshtein_oracle(quote, chunk)
        assert levenshtein(chunk, quote) == levenshtein_oracle(quote, chunk)


def dedup_reference(entries, threshold=0.9):
    """The all-pairs deduplication every faster version must reproduce."""
    kept = []
    for entry in entries:
        if any(normalized_similarity(entry, prior) >= threshold for prior in kept):
            continue
        kept.append(entry)
    return kept


DEDUP_THRESHOLDS = [0.0, 0.5, 0.9, 1.0, 1.1]


@pytest.mark.parametrize("threshold", DEDUP_THRESHOLDS)
def test_dedup_matches_reference_on_fixed_lists(threshold):
    cases = [
        [],
        [""],
        ["", "", "x", ""],
        ["a b c", "a b c", "a b c"],
        ["INFO checkpoint 41 completed in 93 ms",
         "INFO checkpoint 42 completed in 95 ms",
         "INFO checkpoint 41 completed in 93 ms",
         "ERROR something else entirely happened",
         "",
         "INFO checkpoint 43 completed in 97 ms and more"],
        ["aaaa", "aaab", "aaab", "aaaa", "bbbb", "ab"],
    ]
    for entries in cases:
        assert deduplicate_entries(entries, threshold) == dedup_reference(entries, threshold)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.text(alphabet="ab c", max_size=12), max_size=25),
    st.sampled_from(DEDUP_THRESHOLDS),
)
def test_dedup_matches_reference_property(entries, threshold):
    # the tiny alphabet makes exact repeats, near-duplicates and empty
    # strings all common
    assert deduplicate_entries(entries, threshold) == dedup_reference(entries, threshold)


@pytest.fixture
def distance_calls(monkeypatch):
    calls = []
    original = textdist.levenshtein

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(textdist, "levenshtein", counting)
    return calls


def test_exact_repeats_need_no_distance(distance_calls):
    line = "2024-05-01 12:00:00 INFO heartbeat from executor 7 ok"
    assert deduplicate_entries([line] * 1000) == [line]
    assert distance_calls == []


def test_length_bound_skips_distance(distance_calls):
    # each entry is more than 10% longer than every shorter one, so no pair
    # can reach similarity 0.9
    entries = ["x" * n for n in (10, 12, 14, 17, 20, 23, 27, 31, 36, 42)]
    assert deduplicate_entries(entries, 0.9) == entries
    assert distance_calls == []
