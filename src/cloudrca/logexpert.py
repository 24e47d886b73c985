"""Log analysis expert agent.

Pipeline: split the log into lines, build a windowed similarity graph over
line embeddings with exponential positional decay, cluster it with Louvain
community detection, force clusters into contiguous chunks, analyze each
chunk with retrieval-augmented LLM prompts, drop hallucinated evidence via an
edit-distance acceptance test, and summarize the survivors.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import prompts
from .backends import GREEDY_PARAMS, Backend, ChatExchange, _cosine_rows, cosine
from .structured import json_regen
from .textdist import levenshtein
from .tools import KIND_EXPERT, ToolParam, ToolSpec

DEFAULT_WINDOW = 200
DEFAULT_TAU = 1.0
DEFAULT_MAX_PROMPT_LEN = 8000

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


def split_log(log: str) -> list[str]:
    return [line for line in log.splitlines() if line.strip()]


def build_graph(
    lines: Sequence[str],
    embeddings: np.ndarray,
    window: int = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> SimilarityGraph:
    """Edges between line pairs within the window; weight is cosine similarity
    decayed by exp(-distance/tau).  Non-positive weights are dropped."""
    if len(lines) != len(embeddings):
        raise ValueError("embeddings must align with lines")
    n = len(lines)
    rows = list(embeddings)
    # one norm per row: a norm along axis 1 can differ in the last bit
    norms = [np.linalg.norm(row) for row in rows]
    edges = []
    for i in range(n):
        row, norm = rows[i], norms[i]
        for j in range(i + 1, min(i + window + 1, n)):
            sim = _cosine_rows(row, norm, rows[j], norms[j])
            if sim <= 0:
                continue
            weight = sim * math.exp(-(j - i) / tau)
            if weight > 0:
                edges.append((i, j, weight))
    return SimilarityGraph(n, edges)


def modularity(graph: SimilarityGraph, labels: Sequence[int]) -> float:
    """Weighted undirected Newman modularity of a labelling."""
    two_m = 2.0 * sum(w for _, _, w in graph.edges)
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
    return internal * 2.0 / two_m - sum(
        d * d for d in community_degree.values()
    ) / (two_m * two_m)


def _louvain_level(
    n: int, adj: list[dict[int, float]]
) -> tuple[list[int], bool]:
    """One level of local moving.  Nodes are visited in natural order; ties in
    modularity gain resolve to the lowest community id."""
    two_m = sum(sum(nb.values()) for nb in adj)
    if two_m == 0:
        return list(range(n)), False
    degree = [sum(nb.values()) for nb in adj]
    community = list(range(n))
    community_degree = degree[:]
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in range(n):
            current = community[v]
            # weights from v to each neighboring community
            links: dict[int, float] = {}
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
                # strict improvement required; sorted order makes ties
                # resolve to the lowest community id
                if gain > best_gain + 1e-12:
                    best, best_gain = target, gain
            community_degree[best] += degree[v]
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


@dataclass
class ChunkAssignment:
    labels: list[int]


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
def _labellings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every labelling of n vertices in restricted-growth order, as a
    (Bell(n), n) int8 array, and its same-community matrix: 1.0 where a
    labelling puts vertex pair i < j (``np.triu_indices`` order) together."""
    rows = [[0]] if n else [[]]
    for _ in range(1, n):
        rows = [row + [lab] for row in rows for lab in range(max(row) + 2)]
    labels = np.array(rows, dtype=np.int8).reshape(len(rows), n)
    first, second = np.triu_indices(n, k=1)
    same = (labels[:, first] == labels[:, second]).astype(np.float64)
    # every caller shares the cached arrays
    labels.setflags(write=False)
    same.setflags(write=False)
    return labels, same


def _exact_partition(graph: SimilarityGraph) -> list[int]:
    """Exhaustive modularity maximization over all set partitions.  Only
    viable for tiny graphs; enumeration order makes ties deterministic
    (first partition found in restricted-growth order wins).

    One matrix product scores every labelling: with d the degrees, w the
    summed weight of each vertex pair and same the same-community matrix,
    Q = 2·(self-loops + same·w)/2m − (dᵀd + 2·same·(dᵢdⱼ))/(2m)²."""
    n = graph.n
    best_labels = list(range(n))
    best_q = modularity(graph, best_labels)
    two_m = 2.0 * sum(w for _, _, w in graph.edges)
    if two_m == 0:
        return best_labels
    weight = np.zeros((n, n))
    for i, j, w in graph.edges:
        weight[i, j] += w
    pair = weight + weight.T
    d = pair.sum(axis=1)
    first, second = np.triu_indices(n, k=1)
    labels, same = _labellings(n)
    internal, cross = (
        same @ np.column_stack((pair[first, second], d[first] * d[second]))
    ).T
    q = (np.trace(weight) + internal) * 2.0 / two_m - (d @ d + 2.0 * cross) / (
        two_m * two_m
    )
    # scan in enumeration order: each labelling that beats the best so far
    # by more than 1e-12 becomes the new best
    best, start = -1, 0
    while True:
        ahead = np.flatnonzero(q[start:] > best_q + 1e-12)
        if not ahead.size:
            break
        best = start + int(ahead[0])
        best_q, start = q[best], best + 1
    return best_labels if best < 0 else labels[best].tolist()


def louvain(graph: SimilarityGraph) -> ChunkAssignment:
    """Deterministic modularity clustering.

    Tiny graphs are solved exactly by partition enumeration, so the result
    is the true modularity maximum.  Larger graphs use Louvain local moving
    with a fixed visit order, lowest-id tie-break, and repeated aggregation
    until no node moves.
    """
    if graph.n < 1:
        raise ValueError("graph needs at least one vertex")
    if graph.n <= _EXACT_VERTEX_LIMIT:
        return ChunkAssignment(_canonical(_exact_partition(graph)))
    adj = graph.adjacency()
    n = graph.n
    labels = list(range(n))
    while True:
        community, moved = _louvain_level(n, adj)
        if not moved:
            break
        n, adj, compact = _aggregate(n, adj, community)
        labels = [compact[labels[v]] for v in range(graph.n)]
    return ChunkAssignment(_canonical(labels))


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

    An optimal solution always has its boundaries on original run
    boundaries, so the dynamic program walks runs, not lines.  State is
    (set of labels whose interval has closed, current label); among
    minimum-flip solutions the lexicographically smallest label sequence in
    order of first appearance wins, which merges a split label into its
    earlier occurrence.  Exponential in the label alphabet: callers gate it
    to short inputs.
    """
    order: list[int] = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    index = {lab: i for i, lab in enumerate(order)}
    m = len(order)
    runs = _runs(labels)

    # state -> (cost, label-sequence tiebreak key, parent state, chosen label)
    states: dict[tuple[int, int], tuple[int, tuple, Optional[tuple], int]] = {}
    lab0, start0, end0 = runs[0]
    for nxt in range(m):
        cost = 0 if nxt == index[lab0] else end0 - start0
        states[(1 << nxt, nxt)] = (cost, (nxt,), None, nxt)
    trail = [states]
    for lab, start, end in runs[1:]:
        length = end - start
        original = index[lab]
        nxt_states: dict[tuple[int, int], tuple[int, tuple, tuple, int]] = {}
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

    final_state = min(states, key=lambda s: states[s][:2])
    chosen: list[int] = []
    state: Optional[tuple[int, int]] = final_state
    for layer in reversed(trail):
        _, _, parent, lab = layer[state]
        chosen.append(lab)
        state = parent
    chosen.reverse()

    out: list[int] = []
    for (_, start, end), lab in zip(runs, chosen):
        out.extend([order[lab]] * (end - start))
    return out


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


def remove_overlaps(assignment: ChunkAssignment) -> ChunkAssignment:
    """Force every cluster label into one contiguous interval with few line
    flips.  Short inputs are solved exactly (minimum flips); long inputs use
    a deterministic greedy repair.  Ties merge a split label into its
    earlier occurrence."""
    labels = list(assignment.labels)
    if not labels:
        return ChunkAssignment([])
    runs = _runs(labels)
    if (
        len(runs) <= _EXACT_RUN_LIMIT
        and len(set(labels)) <= _EXACT_ALPHABET_LIMIT
    ):
        return ChunkAssignment(_min_flip_contiguous(labels))
    return ChunkAssignment(_greedy_contiguous(labels))


@dataclass
class LogChunk:
    text: str
    lines: list[str]
    start: int
    end: int  # exclusive line index


def partition(
    log: str,
    backend: Backend,
    window: int = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> list[LogChunk]:
    lines = split_log(log)
    if not lines:
        return []
    embeddings = backend.embed(lines)
    graph = build_graph(lines, embeddings, window=window, tau=tau)
    assignment = remove_overlaps(louvain(graph))
    chunks = []
    for _, start, end in _runs(assignment.labels):
        segment = lines[start:end]
        chunks.append(LogChunk("\n".join(segment), segment, start, end))
    return chunks


# ---------------------------------------------------------------------------
# Retrieval store and in-context packing


@dataclass
class RetrievalExample:
    example_text: str
    answer_text: str
    embedding: np.ndarray


class RetrievalStore:
    """In-context examples for the log expert, embedded at ingest time."""

    def __init__(self, backend: Backend):
        self.backend = backend
        self.examples: list[RetrievalExample] = []

    def add(self, example_text: str, answer_text: str):
        vec = self.backend.embed([example_text])[0]
        self.examples.append(RetrievalExample(example_text, answer_text, vec))

    def ingest_jsonl(
        self,
        path: str,
        deny_filter: Optional[Callable[[dict], bool]] = None,
    ) -> int:
        """Load {example, answer} records; records for which deny_filter
        returns True are skipped (e.g. labeling rules must stay out)."""
        added = 0
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                if deny_filter is not None and deny_filter(record):
                    continue
                self.add(record["example"], record["answer"])
                added += 1
        return added

    def ranked(self, query: np.ndarray) -> list[RetrievalExample]:
        scored = [
            (-cosine(query, ex.embedding), idx, ex)
            for idx, ex in enumerate(self.examples)
        ]
        scored.sort(key=lambda t: (t[0], t[1]))
        return [ex for _, _, ex in scored]


@dataclass
class PackedPrompt:
    text: str
    truncated: bool
    example_count: int


def pack_icl_prompt(
    chunk: LogChunk,
    store: Optional[RetrievalStore],
    backend: Backend,
    max_len: int = DEFAULT_MAX_PROMPT_LEN,
) -> PackedPrompt:
    """Greedy similarity-ordered example packing under a character budget;
    the chunk always comes last behind an explicit delimiter."""
    if max_len <= 0:
        raise ValueError("max_len must be positive")
    chunk_header = "\n\n=== Log chunk to analyze ===\n"
    instruction = prompts.LOG_ANALYSIS_INSTRUCTION
    base_len = len(instruction) + len(chunk_header)
    truncated = False
    chunk_text = chunk.text
    if base_len + len(chunk_text) > max_len:
        truncated = True
        chunk_text = chunk_text[: max(0, max_len - base_len)]
    body = []
    used = base_len + len(chunk_text)
    if store is not None and store.examples:
        query = backend.embed([chunk.text])[0]
        for example in store.ranked(query):
            block = (
                f"\n\n=== Example ===\n{example.example_text}\n"
                f"--- Answer ---\n{example.answer_text}"
            )
            if used + len(block) > max_len:
                continue
            body.append(block)
            used += len(block)
    text = instruction + "".join(body) + chunk_header + chunk_text
    return PackedPrompt(text, truncated, len(body))


# ---------------------------------------------------------------------------
# Chunk analysis, hallucination filter, summary


@dataclass
class ChunkAnalysis:
    interpretations: list[str] = field(default_factory=list)
    evidences: list[str] = field(default_factory=list)
    warning: str = ""

    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.interpretations, self.evidences))


def analyze_chunk(backend: Backend, prompt: str) -> ChunkAnalysis:
    exchange = ChatExchange(
        system_prompt="You analyze logs of stream-processing jobs.",
        messages=[("user", prompt)],
    )
    raw = backend.complete(exchange, GREEDY_PARAMS)
    outcome = json_regen(backend, raw)
    if not outcome.ok:
        return ChunkAnalysis(warning="unparsable analysis response")
    interpretations = outcome.value.get("interpretations")
    evidences = outcome.value.get("evidences")
    if not isinstance(interpretations, list) or not isinstance(evidences, list):
        return ChunkAnalysis(warning="analysis response missing arrays")
    interpretations = [str(x) for x in interpretations]
    evidences = [str(x) for x in evidences]
    warning = ""
    if len(interpretations) != len(evidences):
        warning = "unequal interpretation/evidence counts; truncated to pairs"
        shorter = min(len(interpretations), len(evidences))
        interpretations = interpretations[:shorter]
        evidences = evidences[:shorter]
    return ChunkAnalysis(interpretations, evidences, warning)


def evidence_accepted(evidence: str, chunk_text: str) -> bool:
    """Acceptance test against hallucinated evidence: the edit distance to
    the chunk must be below len(chunk) - 0.9 * len(evidence).  Evidence that
    is copied from the chunk always passes; unrelated text does not."""
    if not evidence:
        return False
    return levenshtein(evidence, chunk_text) < len(chunk_text) - 0.9 * len(evidence)


def filter_evidence(analysis: ChunkAnalysis, chunk: LogChunk) -> ChunkAnalysis:
    kept_r, kept_e = [], []
    for interpretation, evidence in analysis.pairs():
        if evidence_accepted(evidence, chunk.text):
            kept_r.append(interpretation)
            kept_e.append(evidence)
    return ChunkAnalysis(kept_r, kept_e, analysis.warning)


def summarize(backend: Backend, kept_pairs: list[tuple[str, str]]) -> tuple[str, str]:
    if not kept_pairs:
        return NO_EVIDENCE_SENTINEL, ""
    listing = "\n\n".join(
        f"Interpretation: {r}\nEvidence: {e}" for r, e in kept_pairs
    )
    raw = backend.complete(
        ChatExchange(
            system_prompt="You summarize log analyses.",
            messages=[("user", f"{prompts.LOG_SUMMARY_INSTRUCTION}\n\n{listing}")],
        ),
        GREEDY_PARAMS,
    )
    outcome = json_regen(backend, raw)
    if outcome.ok:
        interpretation = str(outcome.value.get("interpretation", "")).strip()
        evidence = str(outcome.value.get("evidence", "")).strip()
        if interpretation:
            return interpretation, evidence
    return raw.strip(), ""


def run_log_expert(
    backend: Backend, log_text: str, store: Optional[RetrievalStore] = None
) -> str:
    """Full pipeline for one log: partition, per-chunk analyze + filter,
    summarize.  Returns the observation text for the controller."""
    kept: list[tuple[str, str]] = []
    for chunk in partition(log_text, backend):
        packed = pack_icl_prompt(chunk, store, backend)
        analysis = analyze_chunk(backend, packed.text)
        analysis = filter_evidence(analysis, chunk)
        kept.extend(analysis.pairs())
    interpretation, evidence = summarize(backend, kept)
    if evidence:
        return f"Interpretation: {interpretation}\nEvidence: {evidence}"
    return f"Interpretation: {interpretation}"


def log_agent_toolspec() -> ToolSpec:
    return ToolSpec(
        name="log_agent",
        description="Analyze a long log with an expert agent; reports an "
        "interpretation with supporting evidence copied from the log.",
        params=[
            ToolParam(
                "snapshot",
                "string",
                True,
                "snapshot key of (or raw text of) the log to analyze",
            )
        ],
        kind=KIND_EXPERT,
        stateless=True,
    )


def make_log_agent_handler(backend: Backend, store: Optional[RetrievalStore] = None):
    def handler(kwargs: dict) -> str:
        text = kwargs.get("snapshot", "")
        if not isinstance(text, str) or not text.strip():
            raise ValueError("log_agent requires non-empty log content")
        return run_log_expert(backend, text, store=store)

    return handler
