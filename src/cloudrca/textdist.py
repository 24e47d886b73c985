"""Character-level Levenshtein distance and fuzzy-equivalence helpers.

Used both for deduplicating tool output entries and for the evidence
hallucination filter, so it lives in its own module.
"""

from __future__ import annotations

import numpy as np

# deduplicate_entries drops an entry this similar to a kept one
DEDUP_THRESHOLD = 0.9
# deduplicate_entries hashes each bigram (a, b) of code points into bucket
# (a * _BIGRAM_MIX + b) % _BUCKETS, a power of two
_BUCKETS = 256
_BIGRAM_MIX = 31
# most one-columns a bucket's count is encoded in
_LEVELS = 16
# entries scored by one product, against the kept entries and each other
_BLOCK = 64
# most distinct entries whose pair bounds come from one matrix, not from
# packed words in blocks; below the crossover measured in
# deduplicate_entries, with a margin
_MATRIX_MAX = 32


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


def split_log(log: str) -> list[str]:
    """The non-blank lines of a log or a tool observation, in order."""
    return [line for line in log.splitlines() if line.strip()]


def _bucket_levels(texts: list[str], lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every text's bigram count in each hash bucket, in levels of the
    bucket's step, as a uint8 matrix with one row per text, and the int64
    step of each bucket.

    One bincount over the joined text counts each text's bigrams (adjacent
    code points within the text) in _BUCKETS hash buckets.  A bucket's step
    is the smallest that keeps its largest count to _LEVELS levels, and a
    count c becomes ceil(c / step) levels.  So the sum over buckets of
    step * min(level_a, level_b) is at least the sum of min(ca, cb).
    surrogatepass lets a lone surrogate, which json.loads can produce,
    through as its own code point.
    """
    n = len(texts)
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    codes = codes.astype(np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
    inside = owner[:-1] == owner[1:]
    cells = owner[:-1] * _BUCKETS + ((codes[:-1] * _BIGRAM_MIX + codes[1:]) & (_BUCKETS - 1))
    counts = np.bincount(cells[inside], minlength=n * _BUCKETS).reshape(n, _BUCKETS)
    step = np.maximum(-(-counts.max(axis=0) // _LEVELS), 1)
    coarse = np.flatnonzero(step > 1)
    counts[:, coarse] = -(-counts[:, coarse] // step[coarse])
    # at most _LEVELS per cell now, so a byte holds it and gathers fast
    return counts.astype(np.uint8), step


def _bigram_levels(texts: list[str], lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unary encoding of every text's _bucket_levels, packed into uint64
    words, one row per text, and the int64 weight of each word.

    A bucket's level c becomes c one-columns, each weighing the bucket's
    step.  The columns of one step share words, padded with columns that are
    zero in every row, so a word's columns all weigh its weight.  So the sum
    over words of weight * popcount(word_a & word_b) is the sum over buckets
    of step * min(level_a, level_b).
    """
    counts, step = _bucket_levels(texts, lengths)
    levels = counts.max(axis=0).astype(np.int64)
    buckets, widths, weights = [], [], []
    for weight in sorted(set(step.tolist())):
        group = np.flatnonzero(step == weight)
        width = levels[group]
        columns = int(width.sum())
        # columns past a bucket's largest count are zero in every row: they
        # pad the group to whole words
        width[-1] += -columns % 64
        buckets.append(group)
        widths.append(width)
        weights += [weight] * -(-columns // 64)
    width = np.concatenate(widths)
    bucket = np.repeat(np.concatenate(buckets), width)
    level = np.arange(len(bucket)) - np.repeat(np.cumsum(width) - width, width)
    # a byte compares with a byte without widening; each row is whole words,
    # so packing the flat array keeps rows apart
    bits = np.packbits((counts[:, bucket] > level.astype(np.uint8)).ravel(), bitorder="little")
    return bits.view(np.uint64).reshape(len(texts), -1), np.array(weights, dtype=np.int64)


def _lower_bounds(
    common: np.ndarray, row_lengths: np.ndarray, basis_lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, longest) for every pair of a row text and a basis text, from
    the bigrams they share: a lower bound on their edit distance, and the
    length of the longer one.

    By the q-gram count lemma (Ukkonen, TCS 1992) for q = 2, a string of
    length la has la - 1 bigrams and one edit destroys at most two of them,
    so strings at distance d share at least max(la, lb) - 1 - 2d bigrams:
    with common the shared count, d >= (max(la, lb) - common) // 2.  Also
    d >= |la - lb|.  Hashing bigrams into buckets and rounding large counts
    up to coarse levels can only raise common, so lower stays a lower bound.
    """
    la, lb = row_lengths[:, None], basis_lengths[None, :]
    longest = np.maximum(la, lb)
    return np.maximum(np.abs(la - lb), (longest - common) // 2), longest


def _bounds(
    rows: np.ndarray, row_lengths: np.ndarray, basis: np.ndarray, basis_lengths: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """_lower_bounds for every pair of a text of rows and a text of basis,
    both matrices _bigram_levels rows.

    common is counted word by word, a popcount of each pair's AND times the
    word's weight, in int64, so it is exact at any length.  No product goes
    to BLAS: OpenBLAS spreads `@` over its threads at these sizes, and on two
    shared vCPUs that stalled about one product in a hundred for ~15 ms.  No
    matrix-matrix product is left on a job's path: logexpert._exact_partition
    gathers byte-coded pair sums.
    """
    common = np.zeros((len(rows), len(basis)), dtype=np.int64)
    for word, weight in enumerate(weights):
        count = np.bitwise_count(np.bitwise_and.outer(rows[:, word], basis[:, word]))
        common += count * weight
    return _lower_bounds(common, row_lengths, basis_lengths)


def _matrix_bounds(
    levels: np.ndarray, step: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_lower_bounds for every pair of texts, from one (texts, texts,
    _BUCKETS) minimum of their _bucket_levels.

    common is the sum over buckets of step * min(level_a, level_b), the
    integer _bounds counts from packed words.  The minimum stays uint8, its
    largest temporary: a pair's level sum, at most _BUCKETS * _LEVELS, fits a
    uint16 accumulator, and each coarse step's buckets add (step - 1) times
    their own sum, accumulated in int64.
    """
    cube = np.minimum(levels[:, None, :], levels[None, :, :])
    common = cube.sum(axis=2, dtype=np.uint16).astype(np.int64)
    for weight in set(step.tolist()) - {1}:
        common += (weight - 1) * cube[:, :, step == weight].sum(axis=2, dtype=np.int64)
    return _lower_bounds(common, lengths, lengths)


def _keep(
    block: list[str], kept: list[str], lower: np.ndarray, longest: np.ndarray
) -> list[int]:
    """Append to kept, in order, each entry of block that is not
    DEDUP_THRESHOLD-similar to a kept entry, and return the positions in kept
    it took.  Row r of (lower, longest) bounds block[r] against the kept
    entries, column i for kept[i], and then against block, column
    len(kept) + c for block[c].

    A pair is skipped when 1 - lower / longest is below the threshold: the
    integers convert to float64 exactly and float subtraction and division
    are monotone, so normalized_similarity can return no more.  Where
    longest is 0 both entries are empty, lower is 0, and dividing by 1 gives
    their exact similarity 1.0.  An entry's candidates, its row of that test
    as a bitmask ANDed with the mask of kept entries, are measured in kept
    order, which is entry order, so the output is that of measuring every
    pair.
    """
    threshold = DEDUP_THRESHOLD
    maybe = ~(1.0 - lower / np.maximum(longest, 1.0) < threshold)
    bits = np.packbits(maybe, axis=1, bitorder="little")
    width, packed = bits.shape[1], bits.tobytes()
    front = len(kept)
    mask = (1 << front) - 1
    taken = []
    for row, entry in enumerate(block):
        candidates = int.from_bytes(packed[row * width : (row + 1) * width], "little") & mask
        while candidates:
            low = candidates & -candidates
            at = low.bit_length() - 1
            other = kept[at] if at < front else block[at - front]
            if normalized_similarity(entry, other) >= threshold:
                break
            candidates ^= low
        else:
            mask |= 1 << (front + row)
            taken.append(front + row)
            kept.append(entry)
    return taken


def deduplicate_entries(entries: list[str]) -> list[str]:
    """Keep the first entry of each fuzzy-equivalence group, preserving order.

    An entry is dropped when its similarity to any already-kept entry reaches
    DEDUP_THRESHOLD.  Idempotent: a second pass keeps everything.

    Pairs whose bigram bound (_lower_bounds) keeps them below the threshold
    are never measured, and an entry equal to an earlier one is dropped
    unmeasured; _keep measures the rest in entry order.  The bound takes one
    of two forms, which give the same integer and so the same output:

    - At most _MATRIX_MAX distinct entries, as every observation of a
      generated bundle has (at most 17): one _matrix_bounds call over all.
    - More: packed words (_bigram_levels), in blocks of _BLOCK entries, each
      scored by one _bounds call against the kept entries and itself, so the
      work grows with entries times kept entries.

    The matrix form makes a few NumPy calls but grows with entries squared
    times _BUCKETS; the packed form makes about forty NumPy calls a block.
    Median microseconds a call on n distinct longlog-shaped lines, matrix
    against packed, the forms alternating (CPython 3.11, NumPy 2.4, a 2-vCPU
    VM): n = 4: 81 against 160; 8: 64 against 127; 16: 83 against 134;
    24: 175 against 229; 32: 188 against 237; 40: 245 against 273;
    48: 456 against 465; 56: 685 against 614; 64: 913 against 806.  The
    forms cross near 48 entries; _MATRIX_MAX stops where the matrix still
    saved a fifth.
    """
    entries = list(dict.fromkeys(entries))
    if not entries:
        return []
    lengths = np.fromiter(map(len, entries), dtype=np.int64, count=len(entries))
    kept: list[str] = []
    if len(entries) <= _MATRIX_MAX:
        levels, step = _bucket_levels(entries, lengths)
        _keep(entries, kept, *_matrix_bounds(levels, step, lengths))
        return kept
    rows, weights = _bigram_levels(entries, lengths)
    for start in range(0, len(entries), _BLOCK):
        end = min(start + _BLOCK, len(entries))
        # rows [0, front) are the kept entries', in kept order; the block's
        # rows go right after them
        front, stop = len(kept), len(kept) + end - start
        rows[front:stop] = rows[start:end]
        lengths[front:stop] = lengths[start:end]
        taken = _keep(
            entries[start:end], kept,
            *_bounds(rows[front:stop], lengths[front:stop], rows[:stop], lengths[:stop], weights),
        )
        rows[front : len(kept)] = rows[taken]
        lengths[front : len(kept)] = lengths[taken]
    return kept
