"""Reference implementations that the fast paths are checked against.

Each is the plain version of what a fast path computes, kept slow and
obvious: the layer tests compare the fast path with it on their own inputs,
and the end-to-end tests swap it in for the fast path and compare outputs.
"""

import itertools
import math
from typing import Sequence

from cloudrca import prompts, structured
from cloudrca.backends import ask, cosine, left_sum
from cloudrca.logexpert import SimilarityGraph, _runs
from cloudrca.structured import (
    STAGE_DIRECT,
    STAGE_ESCAPE_FIXED,
    STAGE_FAILED,
    STAGE_REGENERATED,
    RepairOutcome,
    balanced_spans,
    extract_json,
    fix_escapes,
    try_parse,
)
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


def emb_score(prediction: str, reference: str, backend) -> float:
    """A report field's score of one pair, from its own embed call: (1 +
    cosine similarity of the two rows) / 2, in [0, 1]."""
    rows = backend.embed([prediction, reference])
    return (1.0 + cosine(rows[0], rows[1])) / 2.0


def dedup_reference(entries, threshold):
    """The all-pairs deduplication every faster version must reproduce."""
    kept = []
    for entry in entries:
        if any(normalized_similarity(entry, prior) >= threshold for prior in kept):
            continue
        kept.append(entry)
    return kept


def per_edge_build_graph(lines, embeddings, window, tau) -> SimilarityGraph:
    """Reference graph build: one ``cosine`` call per pair in the window."""
    n = len(lines)
    edges = []
    for i in range(n):
        for j in range(i + 1, min(i + window + 1, n)):
            sim = cosine(embeddings[i], embeddings[j])
            if sim <= 0:
                continue
            weight = sim * math.exp(-(j - i) / tau)
            if weight > 0:
                edges.append((i, j, weight))
    return SimilarityGraph(n, edges)


def modularity(graph: SimilarityGraph, labels: Sequence[int]) -> float:
    """Weighted undirected Newman modularity of a labelling."""
    two_m = 2.0 * left_sum(w for _, _, w in graph.edges)
    if two_m == 0:
        return 0.0
    degree = [0.0] * graph.n
    internal = 0.0
    for i, j, w in graph.edges:
        degree[i] += w
        degree[j] += w
        if labels[i] == labels[j]:
            internal += w
    community_degree: dict[int, float] = {}
    for v in range(graph.n):
        community_degree[labels[v]] = community_degree.get(labels[v], 0.0) + degree[v]
    return internal * 2.0 / two_m - left_sum(
        d * d for d in community_degree.values()
    ) / (two_m * two_m)


def recursive_exact_partition(graph: SimilarityGraph) -> list[int]:
    """Reference exhaustive search: recursive restricted-growth enumeration
    that scores each labelling with ``modularity`` and keeps the first one
    to beat the best so far by more than 1e-12."""
    n = graph.n
    best_labels = list(range(n))
    best_q = modularity(graph, best_labels)
    labels = [0] * n

    def recurse(v, next_label):
        nonlocal best_labels, best_q
        if v == n:
            q = modularity(graph, labels)
            if q > best_q + 1e-12:
                best_q, best_labels = q, labels[:]
            return
        for lab in range(next_label + 1):
            labels[v] = lab
            recurse(v + 1, max(next_label, lab + 1))

    recurse(0, 0)
    return best_labels


def dict_louvain_oracle(graph: SimilarityGraph) -> list[int]:
    """Louvain labels from local moving that evaluates every neighbouring
    community, and the same aggregation, for any n."""

    def level(n, adj):
        degree = [left_sum(nb.values()) for nb in adj]
        two_m = left_sum(degree)
        if two_m == 0:
            return list(range(n)), False
        community = list(range(n))
        community_degree = degree[:]
        moved_any = False
        improved = True
        while improved:
            improved = False
            for v in range(n):
                current = community[v]
                links = {}
                for u, w in adj[v].items():
                    if u != v:
                        links[community[u]] = links.get(community[u], 0.0) + w
                community_degree[current] -= degree[v]
                best, best_gain = current, 0.0
                for target in sorted(links):
                    if target == current:
                        continue
                    gain = links[target] - links.get(current, 0.0)
                    gain -= (
                        degree[v]
                        * (community_degree[target] - community_degree[current])
                        / two_m
                    )
                    if gain > best_gain + 1e-12:
                        best, best_gain = target, gain
                community_degree[best] += degree[v]
                if best != current:
                    community[v] = best
                    improved = True
                    moved_any = True
        return community, moved_any

    def aggregate(n, adj, community):
        ids = sorted(set(community))
        remap = {cid: idx for idx, cid in enumerate(ids)}
        new_adj = [dict() for _ in ids]
        for v in range(n):
            cv = remap[community[v]]
            for u, w in adj[v].items():
                cu = remap[community[u]]
                new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
        return len(ids), new_adj, [remap[c] for c in community]

    adj = graph.adjacency()
    n = graph.n
    labels = list(range(n))
    while True:
        community, moved = level(n, adj)
        if not moved:
            break
        n, adj, compact = aggregate(n, adj, community)
        labels = [compact[labels[v]] for v in range(graph.n)]
    seen = {}
    return [seen.setdefault(label, len(seen)) for label in labels]


def forward_dp_oracle(labels: list[int]) -> list[int]:
    """Reference exact repair: a forward dynamic program over runs whose
    state is (labels used, current label), keeping per state the least
    (flips, label-index sequence) and backtracking through parent
    pointers."""
    order = list(dict.fromkeys(labels))
    index = {lab: i for i, lab in enumerate(order)}
    m = len(order)
    runs = _runs(labels)

    # state -> (cost, label-sequence tiebreak key, parent state, chosen label)
    states = {}
    lab0, start0, end0 = runs[0]
    for nxt in range(m):
        cost = 0 if nxt == index[lab0] else end0 - start0
        states[(1 << nxt, nxt)] = (cost, (nxt,), None, nxt)
    trail = [states]
    for lab, start, end in runs[1:]:
        length = end - start
        original = index[lab]
        nxt_states = {}
        for (mask, cur), (cost, key, _, _) in states.items():
            for nxt in range(m):
                if nxt == cur:
                    state = (mask, cur)
                elif mask & (1 << nxt):
                    continue  # that label's interval already closed
                else:
                    state = (mask | (1 << nxt), nxt)
                entry = (
                    cost + (0 if nxt == original else length),
                    key + (nxt,),
                    (mask, cur),
                    nxt,
                )
                existing = nxt_states.get(state)
                if existing is None or entry[:2] < existing[:2]:
                    nxt_states[state] = entry
        states = nxt_states
        trail.append(states)

    state = min(states, key=lambda s: states[s][:2])
    chosen = []
    for layer in reversed(trail):
        _, _, state, lab = layer[state]
        chosen.append(lab)
    chosen.reverse()

    out = []
    for (_, start, end), lab in zip(runs, chosen):
        out.extend([order[lab]] * (end - start))
    return out


def span_scan_read(backend, raw_output, enabled=True, key=None):
    """``json_regen`` as it read before the first-brace parse: the span scan
    first, then the direct, escape-fixed and regenerated stages."""
    start = 0
    if key is not None:
        for start, span in itertools.islice(
            (
                (start, span) for start, span in balanced_spans(raw_output)
                if key in span or "\\" in span or "\r" in span
            ),
            structured.MAX_KEY_SPANS,
        ):
            value = try_parse(span)
            if isinstance((value or {}).get(key), str):
                return RepairOutcome(value, 0, STAGE_DIRECT, start)
            value = try_parse(fix_escapes(span))
            if isinstance((value or {}).get(key), str):
                stage = STAGE_ESCAPE_FIXED if enabled else STAGE_FAILED
                return RepairOutcome(value if enabled else {}, 0, stage, start)
        start = raw_output.find("{")
        if start == -1:
            return RepairOutcome({}, 0, STAGE_FAILED, start)
        raw_output = raw_output[start:]
    direct = try_parse(extract_json(raw_output))
    if direct is not None:
        return RepairOutcome(direct, 0, STAGE_DIRECT, start)
    if not enabled:
        return RepairOutcome({}, 0, STAGE_FAILED, start)
    fixed = try_parse(extract_json(fix_escapes(raw_output)))
    if fixed is not None:
        return RepairOutcome(fixed, 0, STAGE_ESCAPE_FIXED, start)
    if backend is None:
        return RepairOutcome({}, 0, STAGE_FAILED, start)
    current = raw_output
    for attempts in range(1, structured.DEFAULT_RETRY_LIMIT + 1):
        for instruction in (prompts.YAML_EXTRACT_INSTRUCTION, prompts.JSON_RESTORE_INSTRUCTION):
            current = ask(backend, prompts.REGEN_SYSTEM, f"{instruction}\n\n{current}")
        value = try_parse(extract_json(fix_escapes(current)))
        if value is not None:
            return RepairOutcome(value, attempts, STAGE_REGENERATED, start)
    return RepairOutcome({}, structured.DEFAULT_RETRY_LIMIT, STAGE_FAILED, start)
