"""Character-level Levenshtein distance and fuzzy-equivalence helpers.

Used both for deduplicating tool output entries and for the evidence
hallucination filter, so it lives in its own module.
"""

from __future__ import annotations

import numpy as np

# deduplicate_entries drops an entry this similar to a kept one
DEDUP_THRESHOLD = 0.9
# deduplicate_entries buckets each character by ord(ch) % _BUCKETS
_BUCKETS = 64


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, bit-parallel (Myers 1999, in Hyyrö's 2003
    Levenshtein form).

    The longer string is the bit vector, held in Python ints of any width;
    the loop runs once per character of the shorter string, each step a
    fixed number of word operations on len(longer) bits.  A prefix and a
    suffix the two strings share never change the distance, so they are
    dropped first; the suffix is taken from what the prefix leaves, so the
    two never overlap.  The distance is at least the length difference, and
    it is exactly that when the shorter string occurs in the longer one
    (delete the rest): an empty string, or a quote copied from a log chunk.
    """
    if a == b:
        return 0
    start = _common_prefix(a, b)
    a, b = a[start:], b[start:]
    end = _common_prefix(a[::-1], b[::-1])
    a, b = a[: len(a) - end], b[: len(b) - end]
    if len(a) < len(b):
        a, b = b, a
    if b in a:
        return len(a) - len(b)
    match: dict[str, int] = {}
    get = match.get
    bit = 1
    for ch in a:
        match[ch] = get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv = mask, 0
    distance = len(a)
    for ch in b:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        # the first DP row is 0, 1, 2, ...: every horizontal delta there is +1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, by bisection on slices, so a long
    shared run costs a few string compares rather than one step per char."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def normalized_similarity(a: str, b: str) -> float:
    """1 - levenshtein / max_len, in [0, 1]; two empty strings are identical."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def _histograms(texts: list[str]) -> np.ndarray:
    """One (len(texts), _BUCKETS + 1) int64 row per text: the count of its
    code points in each ord(ch) % _BUCKETS bucket, then its length.

    One bincount over the joined text fills every row.  surrogatepass lets a
    lone surrogate, which json.loads can produce, through as its own code
    point.
    """
    width = _BUCKETS + 1
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    cells = np.repeat(np.arange(len(texts), dtype=np.int64) * width, lengths)
    cells += codes % _BUCKETS
    rows = np.bincount(cells, minlength=len(texts) * width).reshape(len(texts), width)
    rows[:, _BUCKETS] = lengths
    return rows


def deduplicate_entries(entries: list[str]) -> list[str]:
    """Keep the first entry of each fuzzy-equivalence group, preserving order.

    An entry is dropped when its similarity to any already-kept entry reaches
    DEDUP_THRESHOLD.  Idempotent: a second pass keeps everything.

    Pairs that cannot reach the threshold are never measured.  An entry
    equal to an earlier one is dropped unmeasured.  Every other entry is
    tested against all kept entries at once with the frequency distance of
    Kahveci & Singh (VLDB 2001): with H and h the bucket histograms and L
    and la the lengths, lower = (sum|H - h| + |L - la|) // 2 is the larger
    of the two one-sided histogram excesses, and one edit lowers either
    excess by at most one, so the distance is at least lower.  With the
    length as each histogram row's last column, the numerator is one sum of
    |row - row|.  A kept entry is skipped when 1 - lower / longest is below
    the threshold: the integers convert to float64 exactly and float
    subtraction and division are monotone, so normalized_similarity can
    return no more.  Where longest is 0 both entries are empty, lower is 0,
    and dividing by 1 gives their exact similarity 1.0.  The rest are
    measured in kept order.
    """
    entries = list(dict.fromkeys(entries))
    rows = _histograms(entries)
    kept: list[str] = []
    for k, entry in enumerate(entries):
        # rows[:n] are the kept lines' rows: each is moved to the front when
        # its line is kept, over a row already tested
        n = len(kept)
        lower = np.abs(rows[:n] - rows[k]).sum(axis=1) // 2
        longest = np.maximum(rows[:n, _BUCKETS], max(len(entry), 1))
        bound = 1.0 - lower / longest
        if any(
            normalized_similarity(entry, kept[i]) >= DEDUP_THRESHOLD
            for i in np.flatnonzero(~(bound < DEDUP_THRESHOLD))
        ):
            continue
        rows[n] = rows[k]
        kept.append(entry)
    return kept
