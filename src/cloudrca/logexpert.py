"""Log analysis expert agent.

Pipeline: split the log into lines, build a windowed similarity graph over
line embeddings with exponential positional decay, cluster it with Louvain
community detection, force clusters into contiguous chunks, analyze each
chunk with one LLM prompt (the analysis instruction and the chunk), drop
hallucinated evidence via an edit-distance acceptance test, and summarize the
survivors.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import prompts
from .backends import Backend, ask, first_best, left_sum, overlapped, row_norms
from .structured import json_regen
from .textdist import levenshtein, split_log
from .tools import KIND_EXPERT, ToolParam, ToolSpec

DEFAULT_WINDOW = 200
DEFAULT_TAU = 1.0
DEFAULT_MAX_PROMPT_LEN = 8000

_CHUNK_HEADER = "\n\n" + prompts.LOG_CHUNK_DELIMITER
# the characters of log text one chunk prompt holds: the prompt budget less
# the instruction and the chunk's delimiter
CHUNK_BUDGET = (
    DEFAULT_MAX_PROMPT_LEN - len(prompts.LOG_ANALYSIS_INSTRUCTION) - len(_CHUNK_HEADER)
)

NO_EVIDENCE_SENTINEL = "No analyzable evidence found."


# ---------------------------------------------------------------------------
# Semantic partitioning


@dataclass
class SimilarityGraph:
    n: int
    edges: list[tuple[int, int, float]]

    def adjacency(self) -> list[dict[int, float]]:
        adj: list[dict[int, float]] = [dict() for _ in range(self.n)]
        for i, j, w in self.edges:
            adj[i][j] = adj[i].get(j, 0.0) + w
            adj[j][i] = adj[j].get(i, 0.0) + w
        return adj


# build_graph scores window pairs in blocks of about this many pairs
_PAIR_BLOCK = 8192


def _successors(x: np.ndarray, top: int, bottom: int, reach: int) -> np.ndarray:
    """The reach successors of rows top ... bottom - 1 of an (n, d) array, as
    a (bottom - top, reach, d) strided view whose [k, m] is row top + k + 1 + m
    of x, or 0 past the last row.  It reads a zero-padded copy of only the
    block's rows x[top + 1 : bottom + reach], never of all n."""
    width = x.shape[1]
    source = np.zeros((bottom - top + reach - 1, width), x.dtype)
    rows = x[top + 1 : bottom + reach]
    source[: len(rows)] = rows
    row, col = source.strides
    return np.ndarray((bottom - top, reach, width), x.dtype, source, 0, (row, row, col))


def build_graph(lines: Sequence[str], embeddings: np.ndarray) -> SimilarityGraph:
    """Edges between line pairs within DEFAULT_WINDOW lines; weight is cosine
    similarity decayed by exp(-distance / DEFAULT_TAU).  Non-positive weights
    are dropped.

    Pairs are scored in i-major blocks: np.vecdot takes each row against a
    strided view of a zero-padded copy of the block's successor rows, which
    gives np.dot's bits for every pair and copies no row per pair.  The
    norms are ``row_norms``, and a pair with a zero row has similarity 0.
    Division, the decay (math.exp, once per distance) and the tests are the
    same IEEE operations the per-pair cosine makes, so the edges come out in
    the same order with the same weights."""
    if len(lines) != len(embeddings):
        raise ValueError("embeddings must align with lines")
    n = len(lines)
    reach = min(DEFAULT_WINDOW, n - 1)
    if reach < 1:
        return SimilarityGraph(n, [])
    # the norms and row products read a C-ordered array, whatever the input's
    # layout, so their last bits do not depend on it
    x = np.ascontiguousarray(embeddings)
    norms = row_norms(x)
    decay = np.array([0.0] + [math.exp(-d / DEFAULT_TAU) for d in range(1, reach + 1)])
    # every tuple holds the one int object of each of its vertices
    vertex = list(range(n)).__getitem__
    edges: list[tuple[int, int, float]] = []
    rows_per_block = max(1, _PAIR_BLOCK // reach)
    for top in range(0, n - 1, rows_per_block):
        # pairs (i, i + 1) ... (i, i + reach) of each row i, cut at the end
        bottom = min(top + rows_per_block, n - 1)
        rows = np.arange(top, bottom)
        first = np.repeat(rows, reach)
        second = (rows[:, None] + np.arange(1, reach + 1)).ravel()
        inside = second < n
        first, second = first[inside], second[inside]
        # the view is a temporary: each block's padded copy is freed before
        # the next block makes its own
        dots = np.vecdot(
            x[top:bottom, None, :], _successors(x, top, bottom, reach)
        ).ravel()[inside]
        lo, hi = norms[first], norms[second]
        sim = np.divide(
            dots, lo * hi, out=np.zeros_like(dots), where=(lo != 0) & (hi != 0)
        )
        weight = sim * decay[second - first]
        keep = (sim > 0) & (weight > 0)
        edges.extend(
            zip(
                map(vertex, first[keep].tolist()),
                map(vertex, second[keep].tolist()),
                weight[keep].tolist(),
            )
        )
    return SimilarityGraph(n, edges)


# Louvain sums a node's links to the ids within _NEAR of its own first: at
# line distance d an edge weighs at most exp(-d / DEFAULT_TAU) of a
# similarity, so each farther edge weighs under e^-4 of one
_NEAR = math.ceil(4 * DEFAULT_TAU)
# only a node with more neighbours than two near windows is decided from its
# near links; a smaller one would save too few link sums
_NEAR_MIN_NEIGHBOURS = 2 * (2 * _NEAR + 1)
# the rounding the bound charges per operation: 2^-49 is sixteen times the
# unit roundoff of a float
_ROUNDING = 2.0**-49


def _louvain_level(
    n: int, adj: list[dict[int, float]]
) -> tuple[list[int], bool]:
    """One level of local moving.  Nodes are visited in natural order, and
    every neighbouring community is evaluated in ascending id, so ties in
    modularity gain resolve to the lowest id.  A node's link weight to each
    community is summed from 0.0 in adjacency order into one list indexed by
    community, which is cleared again after the node.

    When every degree is nonnegative, a node with more than
    _NEAR_MIN_NEIGHBOURS neighbours and only positive weights, a self-loop
    included, is first decided from its near links alone: those to ids
    within _NEAR of its own, a slice found by bisection (ids ascend at level
    0, in build_graph's edge order).  Which links form the slice changes how often this decides,
    never the labels.  With far the correctly rounded sum of the node's other
    links and k its neighbour count, ε = far + (k + 2)·_ROUNDING·(dv + 1e-12):
    far plus more than every rounding of the sums and gains below, each of
    magnitude about dv at most.
    - A community the near links reach has an exact gain within ε of its
      near-only gain: the two differ by its far links less those into the
      node's own community.
    - A community they miss has an exact link sum of at most far.  Its
      degree is a sum of nonnegative degrees that the two updates of each
      evaluation round by under _ROUNDING·2m/4, so it reads at least −δ,
      with δ the evaluations so far times _ROUNDING·2m.  Its gain is at most
      ε − own + dv·(base + δ)/2m.
    - Staying gains 0.
    The node moves to its best near community t* when t*'s gain less ε beats
    each other choice's upper bound by more than 1e-12: the exact scan then
    picks t*, whatever it evaluates before or after.  It stays when no upper
    bound exceeds 1e-12, since the exact scan moves only on a gain above
    that.  Otherwise, as on an exact tie, it sums every link and scans
    exactly."""
    degree = [left_sum(nb.values()) for nb in adj]
    two_m = left_sum(degree)
    if two_m == 0:
        return list(range(n)), False
    # each node's neighbours without a self-loop, in adjacency order
    neighbours = [
        {u: w for u, w in nb.items() if u != v} if v in nb else nb
        for v, nb in enumerate(adj)
    ]
    # near[v] is (v's near links, ε) for a node decided from its near links
    near: list[Optional[tuple[list[tuple[int, float]], float]]] = [None] * n
    # a finite 2m rules out NaN and infinite weights
    if math.isfinite(two_m) and min(degree) >= 0:
        for v, nb in enumerate(neighbours):
            if len(nb) > _NEAR_MIN_NEIGHBOURS and min(adj[v].values()) > 0:
                ids, weights = list(nb), list(nb.values())
                lo = bisect.bisect_left(ids, v - _NEAR)
                hi = bisect.bisect_right(ids, v + _NEAR, lo)
                far = math.fsum(weights[:lo]) + math.fsum(weights[hi:])
                slack = (len(ids) + 2) * _ROUNDING * (degree[v] + 1e-12)
                near[v] = list(zip(ids[lo:hi], weights[lo:hi])), far + slack
    community = list(range(n))
    community_degree = degree[:]
    links = [0.0] * n
    evaluations = 0
    lowest = -math.inf
    moved_any = False
    improved = True
    while improved:
        improved = False
        # the evaluations by the end of this sweep bound the rounding of the
        # community degrees
        evaluations += n
        drift = evaluations * _ROUNDING * two_m
        for v in range(n):
            current = community[v]
            dv = degree[v]
            community_degree[current] -= dv
            best = None
            if near[v] is not None:
                near_links, eps = near[v]
                touched = []
                for u, w in near_links:
                    target = community[u]
                    if not links[target]:
                        touched.append(target)
                    links[target] += w
                own, base = links[current], community_degree[current]
                # the best and second-best near gains; a tie leaves no margin
                top, first, second = current, lowest, lowest
                for target in touched:
                    if target != current:
                        gain = links[target] - own - dv * (community_degree[target] - base) / two_m
                        if gain > first:
                            top, first, second = target, gain, first
                        elif gain > second:
                            second = gain
                    links[target] = 0.0
                missed = eps - own + dv * (base + drift) / two_m
                if first + eps <= 1e-12 and missed <= 1e-12:
                    best = current
                elif first - eps - max(second + eps, missed, 0.0) > 1e-12:
                    best = top
            if best is None:
                # a community whose sum still reads 0.0 is listed again; a
                # repeat evaluates to the same gain and cannot win twice
                touched = []
                for u, w in neighbours[v].items():
                    target = community[u]
                    if not links[target]:
                        touched.append(target)
                    links[target] += w
                own, base = links[current], community_degree[current]
                # strict improvement over the best gain so far by more than
                # 1e-12; ascending order makes ties resolve to the lowest id
                best, bar = current, 1e-12
                touched.sort()
                for target in touched:
                    if target != current:
                        gain = links[target] - own - dv * (community_degree[target] - base) / two_m
                        if gain > bar:
                            best, bar = target, gain + 1e-12
                for target in touched:
                    links[target] = 0.0
            community_degree[best] += dv
            if best != current:
                community[v] = best
                improved = True
                moved_any = True
    return community, moved_any


def _aggregate(
    n: int, adj: list[dict[int, float]], community: list[int]
) -> tuple[int, list[dict[int, float]], list[int]]:
    ids = sorted(set(community))
    remap = {cid: idx for idx, cid in enumerate(ids)}
    new_n = len(ids)
    new_adj: list[dict[int, float]] = [dict() for _ in range(new_n)]
    for v in range(n):
        cv = remap[community[v]]
        for u, w in adj[v].items():
            cu = remap[community[u]]
            new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
    return new_n, new_adj, [remap[c] for c in community]


def _canonical(labels: Sequence[int]) -> list[int]:
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return out


_EXACT_VERTEX_LIMIT = 8


@functools.lru_cache(maxsize=_EXACT_VERTEX_LIMIT + 1)
def _labellings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every labelling of n vertices in restricted-growth order, as a
    (Bell(n), n) int8 array; the pairs' first and second vertices, in
    ``np.triu_indices`` order; and each labelling's same-community pairs as
    a (⌈pairs/8⌉, Bell(n)) uint8 array of codes, whose bit k of row b is
    set when the labelling puts pair 8b + k together."""
    labels = np.zeros((1, min(n, 1)), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)
    for _ in range(1, n):
        # each labelling, in order, extended by every label from 0 to one
        # past its largest
        counts = top.astype(np.intp) + 2
        parent = np.repeat(np.arange(len(labels)), counts)
        start = np.repeat(np.cumsum(counts) - counts, counts)
        lab = (np.arange(len(parent)) - start).astype(np.int8)
        labels = np.column_stack((labels[parent], lab))
        top = np.maximum(top[parent], lab)
    first, second = np.triu_indices(n, k=1)
    codes = np.zeros(((len(first) + 7) // 8, len(labels)), dtype=np.uint8)
    for k, (i, j) in enumerate(zip(first, second)):
        codes[k // 8] |= (labels[:, i] == labels[:, j]).astype(np.uint8) << (k % 8)
    # every caller shares the cached arrays
    for array in (labels, first, second, codes):
        array.setflags(write=False)
    return labels, first, second, codes


def _exact_partition(graph: SimilarityGraph) -> list[int]:
    """Exhaustive modularity maximization over all set partitions.  Only
    viable for tiny graphs.  The all-singletons labelling, the last in
    restricted-growth order, is the best before the scan and wins its ties;
    among labellings that beat it, the first in that order wins a tie.

    With d the degrees, w the summed weight of each vertex pair and
    s = Σ (2m·wᵢⱼ − dᵢdⱼ) over the pairs a labelling puts together,
    Q = (2·2m·self-loops − dᵀd + 2s)/(2m)².  Every byte of codes covers
    eight pairs: the 256 subset sums of their terms are tabulated once per
    call, and each labelling's s gathers one table entry per byte."""
    n = graph.n
    two_m = 2.0 * left_sum(w for _, _, w in graph.edges)
    if two_m == 0:
        return list(range(n))
    weight = np.zeros((n, n))
    for i, j, w in graph.edges:
        weight[i, j] += w
    pair = weight + weight.T
    d = pair.sum(axis=1)
    labels, first, second, codes = _labellings(n)
    # [byte, bit] holds the term of pair 8·byte + bit, zero past the last
    terms = np.zeros(8 * len(codes))
    terms[: len(first)] = two_m * pair[first, second] - d[first] * d[second]
    terms = terms.reshape(len(codes), 8)
    # [byte, code] sums the terms of the bits set in code, lowest bit first
    tables = np.zeros((len(codes), 1))
    for bit in range(8):
        tables = np.concatenate((tables, tables + terms[:, bit : bit + 1]), axis=1)
    s = np.zeros(len(labels))
    for table, code in zip(tables, codes):
        s += np.take(table, code)
    q = (2.0 * two_m * np.trace(weight) - (d * d).sum() + 2.0 * s) / (two_m * two_m)
    return labels[first_best(q, len(q) - 1)].tolist()


def louvain(graph: SimilarityGraph) -> list[int]:
    """Deterministic modularity clustering.

    Tiny graphs are solved exactly by partition enumeration, so the result
    is the true modularity maximum.  Larger graphs use Louvain local moving
    with a fixed visit order, lowest-id tie-break, and repeated aggregation
    until no node moves.
    """
    if graph.n < 1:
        raise ValueError("graph needs at least one vertex")
    if graph.n <= _EXACT_VERTEX_LIMIT:
        # restricted-growth labellings are canonical already
        return _exact_partition(graph)
    adj = graph.adjacency()
    n = graph.n
    labels = list(range(n))
    while True:
        community, moved = _louvain_level(n, adj)
        if not moved:
            break
        n, adj, compact = _aggregate(n, adj, community)
        labels = [compact[labels[v]] for v in range(graph.n)]
    return _canonical(labels)


def _runs(labels: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal same-label runs as (label, start, end-exclusive)."""
    runs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append((labels[start], start, i))
            start = i
    return runs


_EXACT_RUN_LIMIT = 16
_EXACT_ALPHABET_LIMIT = 12


def _min_flip_contiguous(labels: list[int]) -> list[int]:
    """Exact minimum-flip relabelling such that every label forms one
    contiguous interval.

    An optimal solution has its boundaries on run boundaries, so a memoized
    search walks runs, not lines: ``best(i, used, cur)`` is the least
    (flips, label sequence) for runs ``i..``, given the labels already used
    and the label of the run before.  Among minimum-flip solutions the
    lexicographically smallest label sequence in order of first appearance
    wins, which merges a split label into its earlier occurrence.
    Exponential in the label alphabet: callers gate it to short inputs.
    """
    order = list(dict.fromkeys(labels))
    runs = [(order.index(lab), end - start) for lab, start, end in _runs(labels)]

    @functools.cache
    def best(i: int, used: int, cur: int) -> tuple[int, tuple[int, ...]]:
        if i == len(runs):
            return 0, ()
        original, length = runs[i]
        found = None
        for nxt in range(len(order)):
            if nxt != cur and used >> nxt & 1:
                continue  # that label's interval already closed
            flips, rest = best(i + 1, used | 1 << nxt, nxt)
            option = (flips + (0 if nxt == original else length), (nxt,) + rest)
            if found is None or option < found:
                found = option
        return found

    _, chosen = best(0, 0, -1)
    best.cache_clear()  # the closure is a reference cycle: free the memo now
    return [order[lab] for (_, length), lab in zip(runs, chosen) for _ in range(length)]


def _greedy_contiguous(labels: list[int]) -> list[int]:
    """Greedy fallback for long inputs: when a label reopens after having
    closed, either flip the intervening runs to that label (merging the two
    occurrences) or flip the reopening run to its left neighbor's label,
    whichever touches fewer lines; ties merge."""
    while True:
        runs = _runs(labels)
        last_seen: dict[int, int] = {}
        conflict = None
        for idx, (lab, _, _) in enumerate(runs):
            if lab in last_seen and last_seen[lab] != idx - 1:
                conflict = (last_seen[lab], idx)
                break
            last_seen[lab] = idx
        if conflict is None:
            return labels
        j, i = conflict
        lab, i_start, i_end = runs[i]
        between_start, between_end = runs[j][2], runs[i][1]
        cost_merge = between_end - between_start
        cost_flip = i_end - i_start
        if cost_merge <= cost_flip:
            for k in range(between_start, between_end):
                labels[k] = lab
        else:
            neighbor = labels[i_start - 1]
            for k in range(i_start, i_end):
                labels[k] = neighbor


def remove_overlaps(labels: Sequence[int]) -> list[int]:
    """Force every cluster label into one contiguous interval with few line
    flips.  Short inputs are solved exactly (minimum flips); long inputs use
    a deterministic greedy repair.  Ties merge a split label into its
    earlier occurrence.  A labelling whose every label is already one run
    is returned as it is: it is the only answer with zero flips."""
    labels = list(labels)
    runs = len(_runs(labels))
    alphabet = len(set(labels))
    if runs == alphabet:
        return labels
    if runs <= _EXACT_RUN_LIMIT and alphabet <= _EXACT_ALPHABET_LIMIT:
        return _min_flip_contiguous(labels)
    return _greedy_contiguous(labels)


def _pieces(lines: Sequence[str], start: int, end: int) -> Iterable[tuple[int, int]]:
    """lines[start:end] as consecutive (start, end) pieces, each filled line
    by line while its joined text fits CHUNK_BUDGET; a line longer than the
    budget is a piece of its own."""
    size = -1
    for i in range(start, end):
        size += 1 + len(lines[i])
        if size > CHUNK_BUDGET and i > start:
            yield start, i
            start, size = i, len(lines[i])
    yield start, end


def partition(log: str, backend: Backend) -> list[str]:
    """The log's lines cut into contiguous chunks; each chunk is returned as
    its lines joined by newlines, in log order.  A cluster whose text would
    not fit one chunk prompt is split into pieces that do, so every line
    reaches the model whole unless the line alone is over the budget."""
    lines = split_log(log)
    if not lines:
        return []
    graph = build_graph(lines, backend.embed(lines))
    labels = remove_overlaps(louvain(graph))
    return [
        "\n".join(lines[start:end])
        for _, first, last in _runs(labels)
        for start, end in _pieces(lines, first, last)
    ]


# ---------------------------------------------------------------------------
# Chunk analysis, hallucination filter, summary


def chunk_prompt(chunk: str) -> str:
    """The analysis instruction, then the chunk behind an explicit delimiter,
    cut to CHUNK_BUDGET characters when it is longer."""
    return prompts.LOG_ANALYSIS_INSTRUCTION + _CHUNK_HEADER + chunk[:CHUNK_BUDGET]


def analyze_chunk(backend: Backend, prompt: str) -> list[tuple[str, str]]:
    """The (interpretation, evidence) pairs of the model's chunk analysis,
    each item as a string; the longer array is cut to the shorter one, and a
    reply that does not parse or lacks either array gives no pair."""
    outcome = json_regen(backend, ask(backend, prompts.LOG_CHUNK_SYSTEM, prompt))
    interpretations = outcome.value.get("interpretations")
    evidences = outcome.value.get("evidences")
    if not isinstance(interpretations, list) or not isinstance(evidences, list):
        return []
    return [(str(r), str(e)) for r, e in zip(interpretations, evidences)]


def evidence_accepted(evidence: str, chunk_text: str) -> bool:
    """Acceptance test against hallucinated evidence: the edit distance to
    the chunk must be below len(chunk) - 0.9 * len(evidence).  Evidence that
    is copied from the chunk always passes; unrelated text does not."""
    if not evidence:
        return False
    return levenshtein(evidence, chunk_text) < len(chunk_text) - 0.9 * len(evidence)


def filter_evidence(pairs: list[tuple[str, str]], chunk: str) -> list[tuple[str, str]]:
    return [(r, e) for r, e in pairs if evidence_accepted(e, chunk)]


def _first_fit(blocks: Iterable[str], room: int) -> str:
    """The blocks joined by blank lines in their order, within ``room``
    characters: a block that would overrun the room is left out and the
    scan goes on."""
    kept, used = [], -2  # the first block takes no blank line
    for block in blocks:
        if used + 2 + len(block) <= room:
            kept.append(block)
            used += 2 + len(block)
    return "\n\n".join(kept)


def summarize(backend: Backend, kept_pairs: list[tuple[str, str]]) -> tuple[str, str]:
    """One summary of the kept pairs.  Its user prompt holds at most
    DEFAULT_MAX_PROMPT_LEN characters: the pairs go in chunk order, a pair
    that would overrun the budget is left out, and when none fits the first
    one goes alone, cut to the budget."""
    if not kept_pairs:
        return NO_EVIDENCE_SENTINEL, ""
    budget = DEFAULT_MAX_PROMPT_LEN - len(prompts.LOG_SUMMARY_INSTRUCTION) - 2
    blocks = [f"Interpretation: {r}\nEvidence: {e}" for r, e in kept_pairs]
    listing = _first_fit(blocks, budget) or blocks[0][:budget]
    raw = ask(
        backend,
        prompts.LOG_SUMMARY_SYSTEM,
        f"{prompts.LOG_SUMMARY_INSTRUCTION}\n\n{listing}",
    )
    outcome = json_regen(backend, raw)
    if outcome.ok:
        interpretation = str(outcome.value.get("interpretation", "")).strip()
        evidence = str(outcome.value.get("evidence", "")).strip()
        if interpretation:
            return interpretation, evidence
    return raw.strip(), ""


def run_log_expert(backend: Backend, log_text: str) -> str:
    """Full pipeline for one log: partition, per-chunk analyze + filter,
    summarize.  Returns the observation text for the controller.  The chunk
    analyses are independent, so they go through ``overlapped``; the kept
    pairs stay in chunk order."""

    def analyze(chunk: str) -> list[tuple[str, str]]:
        pairs = analyze_chunk(backend, chunk_prompt(chunk))
        return filter_evidence(pairs, chunk)

    chunks = partition(log_text, backend)
    kept = [pair for pairs in overlapped(analyze, chunks) for pair in pairs]
    interpretation, evidence = summarize(backend, kept)
    if evidence:
        return f"Interpretation: {interpretation}\nEvidence: {evidence}"
    return f"Interpretation: {interpretation}"


LOG_AGENT_SPEC = ToolSpec(
    name="log_agent",
    description="Analyze a long log with an expert agent; reports an "
    "interpretation with supporting evidence copied from the log.",
    params=(ToolParam("snapshot", "snapshot key of (or raw text of) the log to analyze"),),
    kind=KIND_EXPERT,
)


def make_log_agent_handler(backend: Backend):
    def handler(kwargs: dict) -> str:
        text = kwargs.get("snapshot", "")
        if not isinstance(text, str) or not text.strip():
            raise ValueError("log_agent requires non-empty log content")
        return run_log_expert(backend, text)

    return handler
