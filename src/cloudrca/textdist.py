"""Character-level Levenshtein distance and fuzzy-equivalence helpers.

Used both for deduplicating tool output entries and for the evidence
hallucination filter, so it lives in its own module.
"""

from __future__ import annotations


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, bit-parallel (Myers 1999, in Hyyrö's 2003
    Levenshtein form).

    The longer string is the bit vector, held in Python ints of any width;
    the loop runs once per character of the shorter string, each step a
    fixed number of word operations on len(longer) bits.
    """
    if a == b:
        return 0
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


def normalized_similarity(a: str, b: str) -> float:
    """1 - levenshtein / max_len, in [0, 1]; two empty strings are identical."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def deduplicate_entries(entries: list[str], threshold: float = 0.9) -> list[str]:
    """Keep the first entry of each fuzzy-equivalence group, preserving order.

    An entry is dropped when its similarity to any already-kept entry reaches
    the threshold.  Idempotent: a second pass keeps everything.

    Pairs that cannot reach the threshold are never measured.  An entry
    equal to an earlier one shares its verdict, which is "drop" whenever
    threshold <= 1.  A kept entry is skipped when the bound
    1 - |la - lb| / max(la, lb), written as normalized_similarity writes it,
    is below the threshold: the distance is at least |la - lb| and float
    subtraction and division are monotone, so the similarity is no higher.
    """
    drop_repeats = threshold <= 1.0
    seen: set[str] = set()
    kept: list[str] = []
    for entry in entries:
        if drop_repeats:
            if entry in seen:
                continue
            seen.add(entry)
        la = len(entry)
        for prior in kept:
            lb = len(prior)
            longest = max(la, lb)
            if longest and 1.0 - abs(la - lb) / longest < threshold:
                continue
            if normalized_similarity(entry, prior) >= threshold:
                break
        else:
            kept.append(entry)
    return kept
