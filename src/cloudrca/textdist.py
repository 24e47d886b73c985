"""Character-level Levenshtein distance and fuzzy-equivalence helpers.

Used both for deduplicating tool output entries and for the evidence
hallucination filter, so it lives in its own module.
"""

from __future__ import annotations

import numpy as np

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
    two never overlap.
    """
    if a == b:
        return 0
    start = _common_prefix(a, b)
    a, b = a[start:], b[start:]
    end = _common_prefix(a[::-1], b[::-1])
    a, b = a[: len(a) - end], b[: len(b) - end]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
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


def _histogram(text: str) -> np.ndarray:
    """Count of the code points of text in each ord(ch) % _BUCKETS bucket.

    surrogatepass lets a lone surrogate, which json.loads can produce,
    through as its own code point.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    return np.bincount(codes % _BUCKETS, minlength=_BUCKETS)


def deduplicate_entries(entries: list[str], threshold: float = 0.9) -> list[str]:
    """Keep the first entry of each fuzzy-equivalence group, preserving order.

    An entry is dropped when its similarity to any already-kept entry reaches
    the threshold.  Idempotent: a second pass keeps everything.

    Pairs that cannot reach the threshold are never measured.  An entry
    equal to an earlier one shares its verdict, which is "drop" whenever
    threshold <= 1.  Every other entry is tested against all kept entries at
    once with the frequency distance of Kahveci & Singh (VLDB 2001): with H
    and h the bucket histograms and L and la the lengths,
    lower = (sum|H - h| + |L - la|) // 2 is the larger of the two one-sided
    histogram excesses, and one edit lowers either excess by at most one,
    so the distance is at least lower.  A kept entry is skipped when
    1 - lower / longest is below the threshold: the integers convert to
    float64 exactly and float subtraction and division are monotone, so
    normalized_similarity can return no more.  Where longest is 0 both
    entries are empty, lower is 0, and dividing by 1 gives their exact
    similarity 1.0.  The rest are measured in kept order.
    """
    drop_repeats = threshold <= 1.0
    seen: set[str] = set()
    kept: list[str] = []
    hists = np.empty((16, _BUCKETS), dtype=np.int64)
    lengths = np.empty(16, dtype=np.int64)
    for entry in entries:
        if drop_repeats:
            if entry in seen:
                continue
            seen.add(entry)
        n = len(kept)
        hist = _histogram(entry)
        la = len(entry)
        lower = (np.abs(hists[:n] - hist).sum(axis=1) + np.abs(lengths[:n] - la)) // 2
        longest = np.maximum(lengths[:n], max(la, 1))
        bound = 1.0 - lower / longest
        if any(
            normalized_similarity(entry, kept[i]) >= threshold
            for i in np.flatnonzero(~(bound < threshold))
        ):
            continue
        if n == len(lengths):
            hists = np.concatenate([hists, np.empty_like(hists)])
            lengths = np.concatenate([lengths, np.empty_like(lengths)])
        hists[n] = hist
        lengths[n] = la
        kept.append(entry)
    return kept
