import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cloudrca.textdist as textdist
from cloudrca import Sandbox, generate_scenarios
from cloudrca.textdist import (
    DEDUP_THRESHOLD,
    deduplicate_entries,
    levenshtein,
    normalized_similarity,
    split_log,
)

from oracles import dedup_reference, levenshtein_oracle


# _MATRIX_MAX values that send every input to one bound form: 0 to packed
# words, and one above the size of every input the forms run on to one matrix
FORMS = {"packed": 0, "matrix": 1000}


def both_forms(test):
    """Run ``test`` once in each of FORMS, so that small inputs reach the
    packed form too; a ``distance_calls`` argument starts empty each time."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for limit in FORMS.values():
            kwargs.get("distance_calls", []).clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(textdist, "_MATRIX_MAX", limit)
                test(*args, **kwargs)

    return run


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
    @both_forms
    def test_keeps_first_of_near_duplicates(self):
        entries = [
            "INFO checkpoint 41 completed in 93 ms",
            "INFO checkpoint 42 completed in 95 ms",
            "ERROR something else entirely happened",
        ]
        kept = deduplicate_entries(entries)
        assert kept == [entries[0], entries[2]]

    @both_forms
    def test_exact_duplicates_removed(self):
        assert deduplicate_entries(["a b c", "a b c", "a b c"]) == ["a b c"]

    @both_forms
    def test_order_preserved(self):
        entries = ["zebra line", "apple line", "zebra line"]
        assert deduplicate_entries(entries) == ["zebra line", "apple line"]

    @both_forms
    def test_similarity_at_the_threshold_drops_the_later_line(self):
        # 10 characters: one edit is similarity 0.9 exactly, two are 0.8
        first = "abcdefghij"
        one_edit, two_edits = "abcdefghiX", "abcdefghXY"
        assert normalized_similarity(first, one_edit) == DEDUP_THRESHOLD
        assert deduplicate_entries([first, one_edit]) == [first]
        assert normalized_similarity(first, two_edits) < DEDUP_THRESHOLD
        assert deduplicate_entries([first, two_edits]) == [first, two_edits]


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


# A shared prefix and suffix around two differing middles; the small
# alphabet makes the middles start and end alike too, so the strip must stop
# where the strings first differ.
_affix_part = st.text(
    alphabet=st.one_of(st.sampled_from("ab"), st.sampled_from("😀🚀𝔘"), st.characters()),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(_affix_part, _affix_part, _affix_part, _affix_part)
def test_shared_prefix_and_suffix_match_oracle(prefix, x, y, suffix):
    a, b = prefix + x + suffix, prefix + y + suffix
    assert levenshtein(a, b) == levenshtein_oracle(a, b)
    assert levenshtein(b, a) == levenshtein_oracle(a, b)


# Two strings where one holds the other, before or after a few edits, so the
# substring return and the bit-parallel loop are both reached.
_small_text = st.text(alphabet=st.sampled_from("ab c😀"), max_size=15)


@settings(max_examples=300, deadline=None)
@given(_small_text, _small_text, _small_text, _small_text)
def test_contained_strings_match_oracle(inner, left, right, edit):
    outer = left + inner + right
    for b in (inner, inner + edit, edit + inner, inner[: len(inner) // 2] + edit):
        assert levenshtein(outer, b) == levenshtein_oracle(outer, b)
        assert levenshtein(b, outer) == levenshtein_oracle(outer, b)


@pytest.mark.parametrize(
    "a, b", [("abab", "ab"), ("aaa", "aa"), ("abcab", "ab"), ("xay", "xy")]
)
def test_prefix_and_suffix_that_would_overlap(a, b):
    # the whole of b is both a prefix and a suffix of a
    assert levenshtein(a, b) == levenshtein_oracle(a, b)
    assert levenshtein(b, a) == levenshtein_oracle(a, b)


@both_forms
@pytest.mark.parametrize("threshold", [0.0, 0.5, 0.9, 1.0, 1.1])
def test_dedup_matches_reference_on_fixed_lists(monkeypatch, threshold):
    # the skip test and the measured pass read DEDUP_THRESHOLD at call time,
    # so the pruning must agree with the all-pairs reference at any value of
    # it; exact repeats go first and unmeasured, which changes the reference
    # only above 1.0, where no measured pair could drop them
    monkeypatch.setattr(textdist, "DEDUP_THRESHOLD", threshold)
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
        expected = dedup_reference(list(dict.fromkeys(entries)), threshold)
        assert deduplicate_entries(entries) == expected
        if threshold <= 1.0:
            assert expected == dedup_reference(entries, threshold)


@both_forms
@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="ab c", max_size=12), max_size=25))
def test_dedup_matches_reference_property(entries):
    # the tiny alphabet makes exact repeats, near-duplicates and empty
    # strings all common
    assert deduplicate_entries(entries) == dedup_reference(entries, DEDUP_THRESHOLD)


@both_forms
@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.text(alphabet="ab c", max_size=12), max_size=25),
    st.sampled_from([1, 2, 3, 5]),
)
def test_dedup_matches_reference_across_blocks(entries, block):
    # small blocks put kept entries, dropped ones and their matches in
    # different blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textdist, "_BLOCK", block)
        assert deduplicate_entries(entries) == dedup_reference(entries, DEDUP_THRESHOLD)


def test_blocks_are_scored_against_kept_entries_only(monkeypatch):
    # 1,000 lines of 10 templates, nearly all near-duplicates: the products
    # must grow with entries times kept entries, not entries squared
    rng = random.Random(10)
    templates = [f"worker {w} finished stage {{}} of job {{}} in {w}{w} ms" for w in "abcdefghij"]
    lines = [rng.choice(templates).format(rng.randrange(10, 99), rng.randrange(100, 999))
             for _ in range(1000)]
    cells = []
    original = textdist._bounds

    def counting(rows, row_lengths, basis, basis_lengths, weights):
        cells.append(len(rows) * len(basis))
        return original(rows, row_lengths, basis, basis_lengths, weights)

    monkeypatch.setattr(textdist, "_bounds", counting)
    unique = list(dict.fromkeys(lines))
    kept = deduplicate_entries(lines)
    assert kept == dedup_reference(unique, DEDUP_THRESHOLD)
    assert len(kept) < 100
    assert sum(cells) <= len(unique) * (len(kept) + textdist._BLOCK)


@pytest.fixture
def distance_calls(monkeypatch):
    calls = []
    original = textdist.levenshtein

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(textdist, "levenshtein", counting)
    return calls


@both_forms
def test_exact_repeats_need_no_distance(distance_calls):
    line = "2024-05-01 12:00:00 INFO heartbeat from executor 7 ok"
    assert deduplicate_entries([line] * 1000) == [line]
    assert distance_calls == []


@both_forms
def test_length_bound_skips_distance(distance_calls):
    # each entry is more than 10% longer than every shorter one, so no pair
    # can reach similarity 0.9
    entries = ["x" * n for n in (10, 12, 14, 17, 20, 23, 27, 31, 36, 42)]
    assert deduplicate_entries(entries) == entries
    assert distance_calls == []


# the bigrams "01" and "89" share a bucket, as do "0p" and "8x"
@both_forms
@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="0p1q89x a🚀", max_size=12), max_size=25))
def test_dedup_matches_reference_when_buckets_collide(entries):
    assert deduplicate_entries(entries) == dedup_reference(entries, DEDUP_THRESHOLD)


@both_forms
def test_dedup_takes_lone_surrogates():
    # json.loads turns "\ud800" in a log line into a lone surrogate
    entries = ["x\ud800y", "x\ud800z", "abc"]
    assert deduplicate_entries(entries) == dedup_reference(entries, DEDUP_THRESHOLD)


@both_forms
def test_dedup_counts_do_not_wrap_on_long_lines():
    # the "aa" bucket holds 32,767 of the kept line's bigrams and 32,766 of
    # the next one's: a 16-bit count would wrap, and the bucket takes coarse
    # levels, which must still let the pair at distance 1 through
    first = "a" * 32768 + "b" * 7232
    second = "a" * 32767 + "b" * 7233
    assert len(first) == len(second) == 40000
    pair = [first, second]
    assert deduplicate_entries(pair) == dedup_reference(pair, DEDUP_THRESHOLD) == [first]


def _two_template_lines(rng: random.Random, count: int) -> list[str]:
    """Distinct lines alternating two log templates, each line with its own
    random duration and 16-character tag."""
    lines = []
    for i in range(count):
        duration = rng.randrange(100, 999)
        if i % 2 == 0:
            tag = f"{rng.getrandbits(64):016x}"
            lines.append(f"INFO  backend uploaded incremental chunk in {duration} ms id {tag}")
        else:
            tag = "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") for _ in range(16))
            lines.append(
                f"jvm safepoint, mutator threads stopped for "
                f"{duration // 100}.{duration % 100:02d}s tag {tag}"
            )
    return lines


def _multi_field_lines(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct lines of about 135 characters alternating two
    templates, each line with eight random 3-hex-digit fields.  Two lines of
    one template differ in their fields alone, by a similarity near 0.83, so
    dedup keeps them all, though not by much (DEDUP_THRESHOLD is 0.9).  The
    two templates' embeddings are near orthogonal, so Louvain's clusters can
    follow the templates across the alternation, as on
    ``_two_template_lines``, into more runs than the exact repair takes."""
    lines = []
    for i in range(count):
        f = [f"{rng.getrandbits(12):03x}" for _ in range(8)]
        if i % 2 == 0:
            lines.append(
                f"WARN  rpc client retry {f[0]} of call {f[1]} to shard {f[2]} on host "
                f"node-{f[3]} after {f[4]} ms; send queue {f[5]} held, lease {f[6]} "
                f"renewed by worker {f[7]}"
            )
        else:
            lines.append(
                f"jvm safepoint {f[0]}: mutator threads stopped by vm op {f[1]} on thread "
                f"{f[2]}, heap {f[3]} MB, pause {f[4]} us, sync {f[5]} us, cleanup {f[6]} "
                f"us, tag {f[7]}"
            )
    return lines


def _substituted(rng: random.Random, line: str, edits: int) -> str:
    """``line``, which holds no "#", with ``edits`` of its characters
    substituted by "#", at edit distance ``edits`` from it."""
    while True:
        chars = list(line)
        for at in rng.sample(range(len(chars)), edits):
            chars[at] = "#"
        copy = "".join(chars)
        if levenshtein(line, copy) == edits:
            return copy


@pytest.mark.parametrize("bases", [12, 48])
def test_multi_field_copies_at_the_threshold_match_reference(bases):
    # multi-field template lines cut to a multiple of 10 characters L, each
    # followed later by a copy at L/10 substitutions, similarity 0.9 exactly
    # and dropped, or at L/10 + 1, just below and kept.  12 lines and their
    # copies take the matrix form; 48 take packed words over two blocks,
    # with copies in the second block of lines kept in the first
    rng = random.Random(bases)
    lines = [line[: len(line) // 10 * 10] for line in _multi_field_lines(rng, bases)]
    dropped, kept_copies = [], []
    for i, line in enumerate(lines):
        edits = len(line) // 10 + i % 2
        copy = _substituted(rng, line, edits)
        assert levenshtein(line, copy) == edits
        if i % 2:
            assert normalized_similarity(line, copy) < DEDUP_THRESHOLD
            kept_copies.append(copy)
        else:
            assert normalized_similarity(line, copy) == DEDUP_THRESHOLD
            dropped.append(copy)
    copies = dropped + kept_copies
    rng.shuffle(copies)
    entries = lines + copies
    if bases == 12:
        assert len(entries) <= textdist._MATRIX_MAX
    else:
        assert textdist._BLOCK < len(entries) < 2 * textdist._BLOCK
    kept = deduplicate_entries(entries)
    assert kept == dedup_reference(entries, DEDUP_THRESHOLD)
    assert kept == lines + [copy for copy in copies if copy in kept_copies]
    assert dropped and kept_copies


def test_bigram_bound_skips_most_pairs(distance_calls):
    lines = _two_template_lines(random.Random(500), 500)
    assert len(set(lines)) == 500
    assert deduplicate_entries(lines) == lines
    # a tenth of the 124,750 pairs
    assert len(distance_calls) <= 12475


def test_bigram_bound_skips_same_template_pairs_at_scale(distance_calls):
    # lines of one template differ only in their duration and 16-character
    # tag, so any two of them share most of their bigrams
    lines = _two_template_lines(random.Random(2000), 2000)
    assert len(set(lines)) == 2000
    assert deduplicate_entries(lines) == lines
    # a hundredth of the 1,999,000 pairs
    assert len(distance_calls) <= 19990


# "01" and "89" share a bucket; a run of more than _LEVELS + 1 equal
# characters puts its bucket on coarse levels; "\ud800" is a lone surrogate
_bound_text = st.one_of(
    st.text(alphabet="0189ab \ud800", max_size=12),
    st.builds(
        lambda ch, run, tail: ch * run + tail,
        st.sampled_from("a0\ud800"),
        st.integers(textdist._LEVELS + 2, 4 * textdist._LEVELS),
        st.text(alphabet="ab0", max_size=4),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_bound_text, min_size=1, max_size=10))
@example(["", "x", "y", "x", "ab", "ac", "a" * 40, "a" * 41])
def test_block_bound_never_exceeds_levenshtein(texts):
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    ones, weights = textdist._bigram_levels(texts, lengths)
    lengths = lengths.astype(np.float64)
    lower, _ = textdist._bounds(ones, lengths, ones, lengths, weights)
    for i, a in enumerate(texts):
        for k, b in enumerate(texts):
            assert lower[i, k] <= levenshtein(a, b)


def unary_bounds_oracle(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(lower, longest) from unpacked unary columns: one float column per
    bucket level, weighted by the bucket's step, and one einsum product."""
    n = len(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=n)
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    codes = codes.astype(np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
    inside = owner[:-1] == owner[1:]
    buckets = textdist._BUCKETS
    cells = owner[:-1] * buckets + ((codes[:-1] * textdist._BIGRAM_MIX + codes[1:]) & (buckets - 1))
    counts = np.bincount(cells[inside], minlength=n * buckets).reshape(n, buckets)
    step = np.maximum(-(-counts.max(axis=0) // textdist._LEVELS), 1)
    counts = -(-counts // step)
    levels = counts.max(axis=0)
    bucket = np.repeat(np.arange(buckets), levels)
    level = np.arange(len(bucket)) - np.repeat(np.cumsum(levels) - levels, levels)
    ones = (counts[:, bucket] > level).astype(np.float64)
    common = np.einsum("ij,kj->ik", ones * step[bucket], ones)
    la, lb = lengths[:, None].astype(np.float64), lengths[None, :].astype(np.float64)
    longest = np.maximum(la, lb)
    return np.maximum(np.abs(la - lb), (longest - common) // 2), longest


@settings(max_examples=200, deadline=None)
@given(st.lists(_bound_text, min_size=1, max_size=10))
# three coarse steps (2, 3 and 4) in one call, and groups of several words
@example(["a" * 40, "0" * 64, "a0" * 30, ""])
@example(_two_template_lines(random.Random(7), 8) + ["a" * 50 + "b" * 50])
def test_packed_bound_equals_the_unary_product(texts):
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    rows, weights = textdist._bigram_levels(texts, lengths)
    lower, longest = textdist._bounds(rows, lengths, rows, lengths, weights)
    want_lower, want_longest = unary_bounds_oracle(texts)
    assert np.array_equal(lower, want_lower)
    assert np.array_equal(longest, want_longest)
    # the one-matrix form gives the same integers
    lower, longest = textdist._matrix_bounds(*textdist._bucket_levels(texts, lengths), lengths)
    assert np.array_equal(lower, want_lower)
    assert np.array_equal(longest, want_longest)


def _edited(rng: random.Random, line: str, edits: int) -> str:
    chars = list(line)
    for _ in range(edits):
        at = rng.randrange(len(chars))
        op = rng.choice("sid")
        if op == "s":
            chars[at] = rng.choice("xyz#7")
        elif op == "i":
            chars.insert(at, rng.choice("xyz#7"))
        else:
            del chars[at]
    return "".join(chars)


@both_forms
def test_longlog_style_list_matches_reference():
    # both templates interleaved, with exact repeats and near-duplicates of
    # at most 3 changed characters mixed among the fresh lines
    rng = random.Random(300)
    fresh = iter(_two_template_lines(rng, 300))
    lines = []
    while len(lines) < 300:
        roll = rng.random()
        if lines and roll < 0.2:
            lines.append(rng.choice(lines))
        elif lines and roll < 0.45:
            lines.append(_edited(rng, rng.choice(lines), rng.randint(1, 3)))
        else:
            lines.append(next(fresh))
    kept = deduplicate_entries(lines)
    assert kept == dedup_reference(lines, DEDUP_THRESHOLD)
    assert 0 < len(kept) < len(set(lines)) < len(lines)


def _switch_lines(count: int) -> list[str]:
    """``count`` distinct lines with exact repeats among them: near-duplicates
    of two templates, an empty line, lone surrogates, and a line whose run of
    one character puts its bucket on a coarse step."""
    rng = random.Random(count)
    distinct = ["", "a" * (4 * textdist._LEVELS) + " heartbeat", "lost \ud800 executor 7"]
    templates = _two_template_lines(rng, 4)
    while len(distinct) < count:
        line = _edited(rng, rng.choice(templates), rng.randint(1, 8))
        if rng.random() < 0.2:
            line = line.replace("s", "\udc00", 1)
        if line not in distinct:
            distinct.append(line)
    return distinct + [rng.choice(distinct) for _ in range(count // 2)]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_both_forms_measure_the_same_pairs(monkeypatch, distance_calls, offset):
    # at _MATRIX_MAX - 1 and _MATRIX_MAX distinct lines the matrix form
    # runs, one more takes packed words; each form, forced, measures the
    # same pairs in the same order
    count = textdist._MATRIX_MAX + offset
    lines = _switch_lines(count)
    distinct = list(dict.fromkeys(lines))
    assert len(distinct) == count
    lengths = np.fromiter(map(len, distinct), dtype=np.int64, count=count)
    assert (textdist._bucket_levels(distinct, lengths)[1] > 1).any()
    packed_calls = []
    original = textdist._bigram_levels

    def counting(texts, lengths):
        packed_calls.append(len(texts))
        return original(texts, lengths)

    monkeypatch.setattr(textdist, "_bigram_levels", counting)
    runs = {}
    for name, limit in {"default": textdist._MATRIX_MAX, **FORMS}.items():
        distance_calls.clear()
        monkeypatch.setattr(textdist, "_MATRIX_MAX", limit)
        runs[name] = (deduplicate_entries(lines), list(distance_calls))
    assert packed_calls == [count] * (1 + (offset > 0))
    assert runs["default"] == runs["packed"] == runs["matrix"]
    kept, calls = runs["default"]
    assert kept == dedup_reference(lines, DEDUP_THRESHOLD)
    assert calls and len(kept) < count


# levenshtein calls that deduplicate_entries makes over the runtime logs of
# generate_scenarios(4242, 50), the acceptance bundle: its bound decides
# which pairs are measured, so a weaker bound raises the count
ACCEPTANCE_DEDUP_CALLS = 418


def test_acceptance_bundle_dedup_call_count(tmp_path, distance_calls):
    generate_scenarios(seed=4242, count=50, out_dir=str(tmp_path))
    sandbox = Sandbox(str(tmp_path))
    for job_id in sandbox.job_ids:
        deduplicate_entries(split_log(sandbox.job(job_id).texts["runtime_log"]))
    assert len(distance_calls) == ACCEPTANCE_DEDUP_CALLS
