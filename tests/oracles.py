"""Reference implementations that the fast paths are checked against.

Each is the plain version of what a fast path computes, kept slow and
obvious: the layer tests compare the fast path with it on their own inputs,
and the end-to-end tests swap it in for the fast path and compare outputs.
"""

from cloudrca.textdist import normalized_similarity


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


def dedup_reference(entries, threshold):
    """The all-pairs deduplication every faster version must reproduce."""
    kept = []
    for entry in entries:
        if any(normalized_similarity(entry, prior) >= threshold for prior in kept):
            continue
        kept.append(entry)
    return kept
