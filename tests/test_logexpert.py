import itertools
import json
import math
import random
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrca import Sandbox, generate_scenarios, logexpert, prompts
from cloudrca.backends import LAST_COMPLETION_WAITED, MockBackend, hash_embed, left_sum
from cloudrca.errors import ProtocolError, TransportError
from cloudrca.logexpert import (
    CHUNK_BUDGET,
    DEFAULT_MAX_PROMPT_LEN,
    DEFAULT_TAU,
    DEFAULT_WINDOW,
    NO_EVIDENCE_SENTINEL,
    SimilarityGraph,
    analyze_chunk,
    build_graph,
    chunk_prompt,
    evidence_accepted,
    filter_evidence,
    louvain,
    partition,
    remove_overlaps,
    run_log_expert,
    summarize,
)
from cloudrca.mockpolicy import PolicyBackend
from cloudrca.snapshots import SnapshotStore
from cloudrca.structured import DEFAULT_RETRY_LIMIT
from cloudrca.textdist import DEDUP_THRESHOLD, deduplicate_entries, levenshtein, split_log
from cloudrca.tools import dispatch
from cloudrca.trajectory import ToolCall

from oracles import (
    dedup_reference,
    dict_louvain_oracle,
    forward_dp_oracle,
    modularity,
    per_edge_build_graph,
    recursive_exact_partition,
)
from test_backends import embeddings_backend
from test_golden import _oracle_louvain
from test_textdist import _edited, _multi_field_lines, _two_template_lines


# ---------------------------------------------------------------------------
# Oracles


def modularity_oracle(graph: SimilarityGraph, labels) -> float:
    """Reference Newman modularity computed from the full weight matrix."""
    n = graph.n
    w = [[0.0] * n for _ in range(n)]
    for i, j, weight in graph.edges:
        w[i][j] += weight
        w[j][i] += weight
    two_m = sum(sum(row) for row in w)
    if two_m == 0:
        return 0.0
    degree = [sum(row) for row in w]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += w[i][j] - degree[i] * degree[j] / two_m
    return q / two_m


def best_partition_oracle(graph: SimilarityGraph) -> float:
    """Exhaustive max modularity over all set partitions (n <= 8)."""
    n = graph.n
    best = -math.inf
    labels = [0] * n

    def recurse(v, next_label):
        nonlocal best
        if v == n:
            best = max(best, modularity_oracle(graph, labels))
            return
        for lab in range(next_label + 1):
            labels[v] = lab
            recurse(v + 1, max(next_label, lab + 1))

    recurse(0, 0)
    return best


def flips_between(before, after) -> int:
    return sum(1 for a, b in zip(before, after) if a != b)


def min_flips_oracle(labels: list[int]) -> int:
    """Brute force: fewest relabelled positions so each label is one
    contiguous run (labels drawn from those present; <= 6 positions)."""
    present = sorted(set(labels))
    best = len(labels)
    for candidate in itertools.product(present, repeat=len(labels)):
        seen_closed = set()
        prev = None
        ok = True
        for lab in candidate:
            if lab != prev:
                if lab in seen_closed:
                    ok = False
                    break
                if prev is not None:
                    seen_closed.add(prev)
                prev = lab
        if ok:
            best = min(best, flips_between(labels, list(candidate)))
    return best


def is_contiguous(labels) -> bool:
    seen_closed = set()
    prev = None
    for lab in labels:
        if lab != prev:
            if lab in seen_closed:
                return False
            if prev is not None:
                seen_closed.add(prev)
            prev = lab
    return True


def random_graph(rng: random.Random, n: int) -> SimilarityGraph:
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                edges.append((i, j, rng.uniform(0.05, 1.0)))
    return SimilarityGraph(n, edges)


def tie_prone_graph(rng: random.Random, n: int) -> SimilarityGraph:
    """Small integer weights (many labellings tie exactly), repeated pairs
    in both orientations, and self-loops."""
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        edges.append((i, j, float(rng.randint(1, 3))))
    return SimilarityGraph(n, edges)


def decayed_graph(
    rng: random.Random, n: int, density: float, scale: float = 1.0
) -> SimilarityGraph:
    """Pairs within DEFAULT_WINDOW, each kept with probability density and
    weighted by a random similarity decayed by exp(-distance), as build_graph
    weighs them, times scale.  In a sparse graph many vertices reach others
    only by tiny weights, so their best moves gain little."""
    edges = []
    for i in range(n):
        for j in range(i + 1, min(i + DEFAULT_WINDOW + 1, n)):
            if rng.random() < density:
                edges.append((i, j, scale * rng.random() * math.exp(-(j - i))))
    return SimilarityGraph(n, edges)


# ---------------------------------------------------------------------------
# Graph construction


class TestBuildGraph:
    def test_window_limits_edges(self):
        # identical lines: every pair has cosine 1 and a positive weight, so
        # only the window can leave a pair out
        lines = ["same text here"] * (DEFAULT_WINDOW + 50)
        graph = build_graph(lines, MockBackend().embed(lines))
        assert max(j - i for i, j, _ in graph.edges) == DEFAULT_WINDOW

    def test_decay_applied(self):
        be = MockBackend()
        lines = ["same text here", "same text here", "same text here"]
        graph = build_graph(lines, be.embed(lines))
        weights = {(i, j): w for i, j, w in graph.edges}
        # identical lines: cosine 1, so weight is exactly exp(-d / tau)
        assert weights[(0, 1)] == pytest.approx(math.exp(-1 / DEFAULT_TAU))
        assert weights[(0, 2)] == pytest.approx(math.exp(-2 / DEFAULT_TAU))

    def test_mismatched_lengths_rejected(self):
        be = MockBackend()
        with pytest.raises(ValueError):
            build_graph(["a", "b"], be.embed(["a"]))

    @pytest.mark.parametrize("seed", [1, 3, 200])
    def test_edges_equal_the_per_edge_cosine_loop(self, seed):
        rng = random.Random(seed)
        lines = [
            f"{rng.choice(['INFO', 'WARN', 'ERROR'])} task {rng.randrange(5)} "
            f"{rng.choice(['started', 'lost heartbeat', 'checkpoint ok'])}"
            for _ in range(40)
        ]
        embeddings = MockBackend().embed(lines)
        # zero vectors and signed random rows mixed in
        zero = np.zeros(64)
        for k in (0, 7, 8, 39):
            embeddings[k] = zero
        for k in range(10, 20):
            embeddings[k] = np.array(
                tuple(rng.uniform(-1, 1) for _ in range(64))
            )
        got = build_graph(lines, embeddings)
        expected = per_edge_build_graph(lines, embeddings, DEFAULT_WINDOW, DEFAULT_TAU)
        assert got.n == expected.n
        # tuple equality compares each float weight bit for bit
        assert got.edges == expected.edges

    def test_batched_product_is_dot_and_its_root_is_norm_bit_for_bit(self):
        # build_graph rests on this: np.vecdot of a row against a strided view
        # of its successors runs the inner loop np.dot runs, and the stacked
        # product of a row with itself gives the bits of np.linalg.norm once
        # rooted; no documentation promises either
        lines = _two_template_lines(random.Random(12), 150) + [
            "ERROR executor 7 lost heartbeat", "INFO task 3 checkpoint ok", "😀 x"
        ]
        hashed = hash_embed(lines)
        for k in (0, 75, 152):
            hashed[k] = 0.0
        signed = np.random.default_rng(12).uniform(-1, 1, (DEFAULT_WINDOW + 30, 1536))
        for x in (hashed, signed):
            n = len(x)
            reach = min(DEFAULT_WINDOW, n - 1)
            padded = np.concatenate([x, np.zeros((reach, x.shape[1]))])
            # windows[i, m] is row i + 1 + m, a view with strides (row, row, col)
            windows = np.lib.stride_tricks.sliding_window_view(
                padded[1:], reach, axis=0
            ).transpose(0, 2, 1)[: n - 1]
            assert windows.strides == (padded.strides[0],) * 2 + (padded.strides[1],)
            dots = np.vecdot(x[: n - 1, None, :], windows)
            first, second = np.triu_indices(n, k=1)
            near = second - first <= reach
            first, second = first[near], second[near]
            vectored = dots[first, second - first - 1]
            looped = np.array([np.dot(x[i], x[j]) for i, j in zip(first, second)])
            assert np.array_equal(vectored.view(np.int64), looped.view(np.int64))
            roots = np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
            norms = np.array([np.linalg.norm(row) for row in x])
            assert np.array_equal(roots.view(np.int64), norms.view(np.int64))

    def test_edges_equal_the_per_edge_loop_across_pair_blocks(self, monkeypatch):
        lines = _two_template_lines(random.Random(31), 300)
        embeddings = hash_embed(lines)
        for k in (0, 41, 42, 150, 299):
            embeddings[k] = 0.0
        expected = per_edge_build_graph(lines, embeddings, DEFAULT_WINDOW, DEFAULT_TAU)
        # 300 lines at the window of 200 make about 40,000 pairs: at the
        # default block several rows per block, with zero rows at a block's
        # edge and inside one; then one row per block (a block smaller than
        # a row), and two rows per block that are not a whole block
        for block in (logexpert._PAIR_BLOCK, 7, 2 * DEFAULT_WINDOW + 5):
            monkeypatch.setattr(logexpert, "_PAIR_BLOCK", block)
            assert build_graph(lines, embeddings).edges == expected.edges

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_edges_equal_the_per_edge_loop_at_the_window_end(self, extra):
        # n = DEFAULT_WINDOW leaves the reach one short of the window; at
        # DEFAULT_WINDOW + 1 the first row's window ends on the last line, and
        # at DEFAULT_WINDOW + 2 it ends one line before it
        lines = _two_template_lines(random.Random(extra), DEFAULT_WINDOW + extra)
        embeddings = hash_embed(lines)
        embeddings[-1] = 0.0
        expected = per_edge_build_graph(lines, embeddings, DEFAULT_WINDOW, DEFAULT_TAU)
        assert build_graph(lines, embeddings).edges == expected.edges

    def test_edges_do_not_depend_on_the_memory_layout(self):
        lines = _two_template_lines(random.Random(17), 260)
        embeddings = hash_embed(lines)
        expected = build_graph(lines, embeddings).edges
        assert expected
        interleaved = np.zeros((len(lines), 2 * embeddings.shape[1]))
        interleaved[:, ::2] = embeddings
        for layout in (np.asfortranarray(embeddings), interleaved[:, ::2]):
            assert not layout.flags.c_contiguous
            assert build_graph(lines, layout).edges == expected

    def test_transient_memory_does_not_grow_with_the_embedding_width(self):
        # the window views copy no row per pair: every block pads, and only
        # its padded copy, at most one block's rows, scales with the width
        lines = ["line"] * 1000
        rows = np.random.default_rng(4).uniform(-1, 1, (len(lines), 64))
        peaks = {}
        for width in (64, 512):
            embeddings = np.tile(rows, width // 64)
            tracemalloc.start()
            try:
                build_graph(lines, embeddings)
                peaks[width] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[512] - peaks[64] < 2 * 2**20, peaks

    def test_edges_share_one_int_per_vertex(self):
        # a million edges on a 10,000-line log hold two ints each; sharing
        # one object per vertex keeps that memory at n ints
        lines = _two_template_lines(random.Random(5), 600)
        graph = build_graph(lines, hash_embed(lines))
        assert graph.edges
        first_seen: dict[int, int] = {}
        for i, j, _ in graph.edges:
            assert first_seen.setdefault(i, id(i)) == id(i)
            assert first_seen.setdefault(j, id(j)) == id(j)

    @pytest.mark.parametrize("odd", [0, 3, 5])
    def test_mismatched_dimensions_raise_protocol_error(self, odd):
        # an (n, d) array cannot be ragged: the endpoint's vectors are
        # checked where they arrive, before the graph is built
        rows = [[1.0, 0.5] for _ in range(6)]
        rows[odd] = [1.0, 0.5, 0.0]
        log = "\n".join(f"line {i}" for i in range(6))
        with pytest.raises(ProtocolError):
            partition(log, embeddings_backend(rows))


def test_partition_sums_run_left_to_right():
    # a compensated sum, which the builtin sum of floats is from CPython 3.12
    # on, gives 1.0 here
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert left_sum([]) == 0.0


# ---------------------------------------------------------------------------
# Exact partition against the recursive enumeration


def acceptance_graphs(out_dir) -> list[SimilarityGraph]:
    """The graphs of 8 or fewer lines that ``partition`` builds on the
    acceptance bundle: each job's runtime log after ``deduplicate_entries``,
    embedded by the policy backend."""
    generate_scenarios(seed=4242, count=50, out_dir=str(out_dir))
    sandbox, backend = Sandbox(str(out_dir)), PolicyBackend()
    graphs = []
    for job_id in sandbox.job_ids:
        lines = deduplicate_entries(split_log(sandbox.job(job_id).texts["runtime_log"]))
        if len(lines) <= logexpert._EXACT_VERTEX_LIMIT:
            graphs.append(build_graph(lines, backend.embed(lines)))
    return graphs


class TestExactPartition:
    def test_labels_equal_the_recursive_enumeration(self, tmp_path):
        rng = random.Random(606)
        graphs = []
        for trial in range(300):
            n = 1 + trial % 8
            if trial % 2:
                graphs.append(tie_prone_graph(rng, n))
            else:
                graphs.append(random_graph(rng, n))
        real = acceptance_graphs(tmp_path / "bundle")
        assert len(real) >= 20 and all(graph.edges for graph in real)
        for graph in graphs + real:
            assert logexpert._exact_partition(graph) == recursive_exact_partition(
                graph
            ), graph

    def test_labellings_cache_small_integer_codes_only(self):
        # Bell(8) = 4140 labellings of 28 pairs: a float same-community
        # matrix alone would hold 927 KB
        logexpert._labellings.cache_clear()
        tracemalloc.start()
        try:
            for n in range(1, logexpert._EXACT_VERTEX_LIMIT + 1):
                logexpert._labellings(n)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024, retained
        assert peak < 512 * 1024, peak
        for n in range(1, logexpert._EXACT_VERTEX_LIMIT + 1):
            for array in logexpert._labellings(n):
                assert not np.issubdtype(array.dtype, np.inexact), (n, array.dtype)

    def test_labellings_follow_restricted_growth_order(self):
        for n in range(logexpert._EXACT_VERTEX_LIMIT + 1):
            rows = [[0]] if n else [[]]
            for _ in range(1, n):
                rows = [row + [lab] for row in rows for lab in range(max(row) + 2)]
            labels, first, second, codes = logexpert._labellings(n)
            assert labels.dtype == np.int8 and labels.tolist() == rows
            same = np.unpackbits(codes, axis=0, count=len(first), bitorder="little")
            assert same.T.tolist() == (labels[:, first] == labels[:, second]).tolist()

    def test_unit_weight_graphs_tie_like_the_enumeration(self):
        # every pair at weight 1: a clique, where many labellings tie exactly
        for n in range(1, 9):
            edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
            graph = SimilarityGraph(n, edges)
            assert logexpert._exact_partition(graph) == recursive_exact_partition(
                graph
            )

    def test_repeated_pairs_and_self_loops(self):
        graph = SimilarityGraph(
            4,
            [(0, 1, 0.5), (1, 0, 0.5), (2, 2, 3.0), (3, 3, 3.0),
             (2, 3, 0.2), (0, 0, 0.1), (1, 2, 0.05)],
        )
        assert logexpert._exact_partition(graph) == recursive_exact_partition(graph)
        # self-loop weight only: every vertex stays alone
        loops = SimilarityGraph(3, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 1.0)])
        assert logexpert._exact_partition(loops) == recursive_exact_partition(loops)
        # pairing 0 with 1 and 2 with 3 scores exactly what the singletons
        # do, and nothing scores more: the singletons, the best before the
        # scan, win
        tie = SimilarityGraph(
            4,
            [(0, 0, 3.0), (1, 1, 3.0), (0, 1, 2.0),
             (2, 2, 3.0), (3, 3, 3.0), (2, 3, 2.0)],
        )
        assert logexpert._exact_partition(tie) == [0, 1, 2, 3]
        assert recursive_exact_partition(tie) == [0, 1, 2, 3]

    def test_all_zero_graph_stays_singletons(self):
        for graph in (
            SimilarityGraph(5, []),
            SimilarityGraph(5, [(0, 1, 0.0), (2, 3, 0.0), (4, 4, 0.0)]),
        ):
            assert logexpert._exact_partition(graph) == [0, 1, 2, 3, 4]
            assert recursive_exact_partition(graph) == [0, 1, 2, 3, 4]

    def test_louvain_calls_exact_partition_by_its_module_name(self, monkeypatch):
        seen = []
        real = logexpert._exact_partition

        def recording(graph):
            seen.append(graph.n)
            return real(graph)

        monkeypatch.setattr(logexpert, "_exact_partition", recording)
        louvain(random_graph(random.Random(1), 6))
        assert seen == [6]


# ---------------------------------------------------------------------------
# Louvain vs exhaustive oracle


class TestLouvain:
    def test_a_graph_without_vertices_is_an_error(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            louvain(SimilarityGraph(0, []))

    def test_modularity_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            graph = random_graph(rng, rng.randint(2, 8))
            labels = [rng.randint(0, 2) for _ in range(graph.n)]
            assert modularity(graph, labels) == pytest.approx(
                modularity_oracle(graph, labels)
            )

    def test_two_cliques_separated(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
                 (2, 3, 0.01)]
        labels = louvain(SimilarityGraph(6, edges))
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_reaches_oracle_modularity_on_small_graphs(self):
        rng = random.Random(99)
        for _ in range(30):
            graph = random_graph(rng, rng.randint(2, 8))
            got = modularity(graph, louvain(graph))
            best = best_partition_oracle(graph)
            assert got == pytest.approx(best, abs=1e-9)

    def test_deterministic(self):
        rng = random.Random(5)
        graph = random_graph(rng, 8)
        assert louvain(graph) == louvain(graph)

    def test_singleton_graph(self):
        assert louvain(SimilarityGraph(1, [])) == [0]

    def test_no_edges_all_singletons(self):
        assert louvain(SimilarityGraph(4, [])) == [0, 1, 2, 3]

    def test_canonical_first_appearance_labels(self):
        rng = random.Random(11)
        for _ in range(10):
            labels = louvain(random_graph(rng, 8))
            seen = []
            for lab in labels:
                if lab not in seen:
                    seen.append(lab)
            assert seen == list(range(len(seen)))


class TestLouvainSkipsTargetsThatCannotGain:
    # louvain sums each node's links in one list accumulator; each labelling
    # must equal the dict loop that evaluates every neighbouring community

    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
    def test_decayed_graphs(self, density):
        rng = random.Random(31)
        for n in list(range(9, 30)) + [40, 53, 64, 80]:
            graph = decayed_graph(rng, n, density)
            assert louvain(graph) == dict_louvain_oracle(graph)

    def test_tie_prone_graphs(self):
        rng = random.Random(32)
        for _ in range(60):
            graph = tie_prone_graph(rng, rng.randint(9, 30))
            assert louvain(graph) == dict_louvain_oracle(graph)

    @pytest.mark.parametrize("scale", [1e-9, 1e6, 1e12])
    def test_weights_scaled_by_a_million(self, scale):
        rng = random.Random(33)
        for n in (9, 17, 33, 53, 80):
            graph = decayed_graph(rng, n, 0.5, scale=scale)
            assert louvain(graph) == dict_louvain_oracle(graph)

    def test_dense_integer_graphs(self):
        # weights of 1, 2 or 3 on most pairs: exact gain ties leave the near
        # links no margin, so the exact loop decides those moves
        rng = random.Random(34)
        for n in range(30, 61, 3):
            edges = [
                (i, j, float(rng.randint(1, 3)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.8
            ]
            graph = SimilarityGraph(n, edges)
            assert louvain(graph) == dict_louvain_oracle(graph)

    @pytest.mark.parametrize("scale", [1e-9, 1e12])
    def test_full_windows_scaled(self, scale):
        # every pair within the window: each node has more neighbours than
        # the near-link threshold, at scales where 1e-12 is large or far
        # below an ulp of a gain
        rng = random.Random(35)
        for n in range(40, 121, 10):
            graph = decayed_graph(rng, n, 1.0, scale=scale)
            assert louvain(graph) == dict_louvain_oracle(graph)

    def test_most_evaluations_read_only_the_near_links(self, monkeypatch):
        # adjacency dicts that count the reads of all of a node's links
        class Counted(dict):
            reads = 0

            def items(self):
                Counted.reads += 1
                return super().items()

        lines = _two_template_lines(random.Random(113), 113)
        graph = build_graph(lines, MockBackend().embed(lines))
        adj = [Counted(nb) for nb in graph.adjacency()]
        labels = logexpert._louvain_level(graph.n, adj)
        bounded, Counted.reads = Counted.reads, 0
        # no node has this many neighbours: every evaluation sums all links
        monkeypatch.setattr(logexpert, "_NEAR_MIN_NEIGHBOURS", graph.n)
        assert logexpert._louvain_level(graph.n, adj) == labels
        assert bounded * 5 < Counted.reads

    @pytest.mark.parametrize("count", [12, 50, 113, 300, 1000])
    def test_partition_of_two_template_logs(self, count):
        lines = _two_template_lines(random.Random(count), count)
        backend = MockBackend()
        graph = build_graph(lines, backend.embed(lines))
        labels = dict_louvain_oracle(graph)
        assert louvain(graph) == labels
        runs = logexpert._runs(remove_overlaps(labels))
        want = ["\n".join(lines[start:end]) for _, start, end in runs]
        assert partition("\n".join(lines), backend) == want


# ---------------------------------------------------------------------------
# Overlap removal


class TestRemoveOverlaps:
    def test_merge_example(self):
        # A A B A A -> merging the middle costs 1 flip
        out = remove_overlaps([0, 0, 1, 0, 0])
        assert out == [0, 0, 0, 0, 0]

    def test_flip_example(self):
        # A B A B -> one flip suffices
        out = remove_overlaps([0, 1, 0, 1])
        assert is_contiguous(out)
        assert flips_between([0, 1, 0, 1], out) == 1

    def test_already_contiguous_untouched(self):
        labels = [0, 0, 1, 1, 2]
        assert remove_overlaps(labels) == labels

    def test_contiguous_input_skips_the_search(self, monkeypatch):
        def fail(labels):
            raise AssertionError("searched a contiguous labelling")

        monkeypatch.setattr(logexpert, "_min_flip_contiguous", fail)
        monkeypatch.setattr(logexpert, "_greedy_contiguous", fail)
        labels = [lab for lab in (3, 0, 7, 1, 11, 2, 4, 10, 5, 9, 6, 8) for _ in range(2)]
        out = remove_overlaps(labels)
        assert out == labels and out is not labels
        assert remove_overlaps([]) == []

    def test_matches_bruteforce_on_short_sequences(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 6)
            labels = [rng.randint(0, 2) for _ in range(n)]
            out = remove_overlaps(labels)
            assert is_contiguous(out)
            assert flips_between(labels, out) == min_flips_oracle(labels)

    def test_equals_the_forward_dp_oracle(self):
        def random_runs(rng, runs, alphabet):
            labels = []
            for _ in range(runs):
                labels += [rng.randrange(alphabet)] * rng.randint(1, 4)
            return labels

        rng = random.Random(27)
        cases = [random_runs(rng, rng.randint(1, 16), rng.randint(1, 6))
                 for _ in range(400)]
        # equal-length alternating runs: many minimum-flip labellings tie
        cases += [[0, 1] * 8, [0, 0, 1, 1] * 4, [0, 1, 2] * 5, [1, 0, 2, 0] * 4,
                  [2, 1, 0] * 5 + [2], [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0]]
        cases += [random_runs(rng, 12, alphabet) for alphabet in (8, 9, 10)]
        cases += [list(range(alphabet)) + [0, 1] for alphabet in (8, 9)]
        for labels in cases:
            runs = logexpert._runs(labels)
            assert len(runs) <= logexpert._EXACT_RUN_LIMIT
            assert len(set(labels)) <= logexpert._EXACT_ALPHABET_LIMIT
            assert remove_overlaps(labels) == forward_dp_oracle(labels), labels


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40))
def test_remove_overlaps_contiguity_property(labels):
    out = remove_overlaps(labels)
    assert is_contiguous(out)
    assert len(out) == len(labels)


def test_remove_overlaps_contiguity_on_random_logs():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 60)
        labels = [rng.randint(0, 5) for _ in range(n)]
        assert is_contiguous(remove_overlaps(labels))


# ---------------------------------------------------------------------------
# Partitioning and packing


class TestPartition:
    def test_empty_log(self):
        assert partition("", MockBackend()) == []

    def test_a_one_line_log_is_one_chunk(self):
        # build_graph gives the lone line a graph without edges
        assert partition("\nERROR lone line\n", MockBackend()) == ["ERROR lone line"]

    def test_chunks_cover_lines_in_order(self):
        log = "\n".join(
            ["alpha one", "alpha two", "alpha three",
             "totally different beta", "totally different beta again"]
        )
        chunks = partition(log, MockBackend())
        assert all(chunks)
        covered = [line for chunk in chunks for line in chunk.split("\n")]
        assert covered == split_log(log)


@st.composite
def _template_logs(draw) -> list[str]:
    """About 40 lines of one of two interleaved-template shapes: fresh lines,
    exact repeats, near-duplicates within a few edits, copies holding a lone
    surrogate, and one line longer than CHUNK_BUDGET at a drawn position."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([_two_template_lines, _multi_field_lines]))
    fresh = iter(shape(rng, 42))
    lines = [next(fresh)]
    slots = st.sampled_from(["fresh", "fresh", "repeat", "near", "surrogate"])
    for slot in draw(st.lists(slots, min_size=30, max_size=40)):
        if slot == "fresh":
            lines.append(next(fresh))
        elif slot == "repeat":
            lines.append(rng.choice(lines))
        elif slot == "near":
            lines.append(_edited(rng, rng.choice(lines), rng.randint(1, 8)))
        else:
            surrogate = rng.choice(["\ud800", "\udfff"])
            lines.append(rng.choice(lines).replace(" ", f" {surrogate}", 1))
    long_line = " ".join(shape(rng, 120))[: CHUNK_BUDGET + draw(st.integers(1, 100))]
    assert len(long_line) > CHUNK_BUDGET
    lines.insert(draw(st.integers(0, len(lines))), long_line)
    return lines


@settings(max_examples=25, deadline=None)
@given(_template_logs())
def test_template_logs_match_the_oracle_pipeline(lines):
    # the fast dedup and partition paths against the references that
    # test_golden's oracle pipeline swaps in, on logs no bundle holds
    assert deduplicate_entries(lines) == dedup_reference(lines, DEDUP_THRESHOLD)
    log = "\n".join(lines)
    fast = partition(log, PolicyBackend())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logexpert, "build_graph", lambda lines, embeddings: per_edge_build_graph(
            lines, embeddings, DEFAULT_WINDOW, DEFAULT_TAU))
        patch.setattr(logexpert, "louvain", _oracle_louvain)
        patch.setattr(logexpert, "_min_flip_contiguous", forward_dp_oracle)
        assert partition(log, PolicyBackend()) == fast


def _long_line_log() -> list[str]:
    """40 lines of 300 characters, whose only anomaly marker is one ERROR
    line at index 35."""
    lines = [f"INFO step {i:02d} ".ljust(300, "x") for i in range(40)]
    lines[35] = "ERROR step 35 disk quota exceeded on node n7 ".ljust(300, "x")
    return lines


class TestChunkBudget:
    def test_the_budget_is_the_prompt_less_its_fixed_text(self):
        assert CHUNK_BUDGET == 7676
        chunk = "y" * CHUNK_BUDGET
        packed = chunk_prompt(chunk)
        assert packed.endswith(chunk)
        assert len(packed) == DEFAULT_MAX_PROMPT_LEN

    def test_one_cluster_is_split_into_pieces_that_fit(self, monkeypatch):
        monkeypatch.setattr(logexpert, "louvain", lambda graph: [0] * graph.n)
        lines = _long_line_log()
        chunks = partition("\n".join(lines), MockBackend())
        assert len(chunks) > 1
        assert all(len(chunk) <= CHUNK_BUDGET for chunk in chunks)
        # every line exactly once, whole and in order
        assert [line for chunk in chunks for line in chunk.split("\n")] == lines

    def test_a_line_over_the_budget_is_a_piece_of_its_own(self, monkeypatch):
        monkeypatch.setattr(logexpert, "louvain", lambda graph: [0] * graph.n)
        giant = "WARN " + "z" * 9000
        lines = ["INFO a", "INFO b", giant, "INFO c"]
        chunks = partition("\n".join(lines), MockBackend())
        assert chunks == ["INFO a\nINFO b", giant, "INFO c"]
        packed = chunk_prompt(giant)
        assert packed.endswith(giant[: CHUNK_BUDGET])
        assert len(packed) == DEFAULT_MAX_PROMPT_LEN

    def test_an_error_line_past_the_old_cut_is_quoted(self, monkeypatch):
        # one 12,039-character chunk used to be cut after 7,676 characters,
        # about line 25, and the ERROR line at 35 never reached the model
        monkeypatch.setattr(logexpert, "louvain", lambda graph: [0] * graph.n)
        lines = _long_line_log()
        out = run_log_expert(PolicyBackend(), "\n".join(lines))
        assert f"Evidence: {lines[35]}" in out


class TestPackIcl:
    chunk = "ERROR failure in module x"

    def test_chunk_always_present(self):
        packed = chunk_prompt(self.chunk)
        assert "=== Log chunk to analyze ===" in packed
        assert packed.endswith("ERROR failure in module x")
        assert "=== Example ===" not in packed

    def test_oversized_chunk_truncated(self):
        packed = chunk_prompt("z" * 20000)
        assert len(packed) == DEFAULT_MAX_PROMPT_LEN


# ---------------------------------------------------------------------------
# Evidence filter


class TestEvidenceFilter:
    def test_verbatim_substring_accepted(self):
        chunk = "INFO ok\nERROR connection refused by db-7\nINFO done"
        assert evidence_accepted("ERROR connection refused by db-7", chunk)

    def test_unrelated_text_rejected(self):
        chunk = "INFO ok\nERROR connection refused by db-7\nINFO done"
        assert not evidence_accepted(
            "the moon is made of green cheese and jam", chunk
        )

    def test_empty_evidence_rejected(self):
        assert not evidence_accepted("", "anything at all")

    def test_literal_threshold(self):
        # acceptance is exactly levenshtein(e, c) < len(c) - 0.9 * len(e)
        chunk = "abcdefghij" * 4
        evidence = "abcdefghij"
        lhs = levenshtein(evidence, chunk)
        rhs = len(chunk) - 0.9 * len(evidence)
        assert evidence_accepted(evidence, chunk) == (lhs < rhs)

    def test_monotone_in_corruption(self):
        # progressively corrupted evidence can only flip accept -> reject
        rng = random.Random(17)
        chunk = "\n".join(f"ERROR disk {i} failed on host h{i}" for i in range(6))
        evidence = "ERROR disk 3 failed on host h3"
        prev_accepted = True
        corrupted = evidence
        for _ in range(20):
            pos = rng.randrange(len(corrupted))
            corrupted = corrupted[:pos] + "#" + corrupted[pos + 1:]
            accepted = evidence_accepted(corrupted, chunk)
            assert not (accepted and not prev_accepted) or prev_accepted
            prev_accepted = prev_accepted and accepted

    def test_filter_drops_pairs(self):
        chunk = "ERROR a happened\nINFO b"
        pairs = [
            ("real", "ERROR a happened"),
            ("hallucinated", "completely unrelated fabricated text"),
        ]
        kept = filter_evidence(pairs, chunk)
        assert kept == [("real", "ERROR a happened")]


class TestAnalyzeChunk:
    def test_unequal_arrays_are_cut_to_the_shorter(self):
        reply = json.dumps(
            {"interpretations": ["a", "b", "c"], "evidences": ["ERROR x", "WARN y"]}
        )
        assert analyze_chunk(MockBackend([reply]), "chunk") == [
            ("a", "ERROR x"),
            ("b", "WARN y"),
        ]

    @pytest.mark.parametrize(
        "reply",
        [
            "no json here",
            '{"interpretations": ["a"]}',
            '{"evidences": ["ERROR x"]}',
            '{"interpretations": "a", "evidences": ["ERROR x"]}',
        ],
        ids=["unparsable", "no-evidences", "no-interpretations", "not-an-array"],
    )
    def test_reply_without_both_arrays_gives_no_pair(self, reply):
        # an unparsable reply also spends every regeneration round trip
        backend = MockBackend([reply] + ["still no json"] * 6)
        assert analyze_chunk(backend, "chunk") == []

    def test_items_come_back_as_strings(self):
        reply = json.dumps(
            {"interpretations": [1, None, {"k": 2}], "evidences": [2.5, True, ["e"]]}
        )
        assert analyze_chunk(MockBackend([reply]), "chunk") == [
            ("1", "2.5"),
            ("None", "True"),
            ("{'k': 2}", "['e']"),
        ]


# ---------------------------------------------------------------------------
# Summaries and end-to-end


class TestSummarize:
    def test_empty_pairs_sentinel(self):
        interpretation, evidence = summarize(MockBackend(), [])
        assert interpretation == NO_EVIDENCE_SENTINEL
        assert evidence == ""

    def test_structured_summary(self):
        be = MockBackend(
            ['{"interpretation": "disk failed", "evidence": "ERROR disk"}']
        )
        interpretation, evidence = summarize(be, [("disk failed", "ERROR disk")])
        assert interpretation == "disk failed"
        assert evidence == "ERROR disk"

    def test_a_reply_that_does_not_parse_is_the_interpretation(self):
        # every regeneration round trip fails as well
        retries = ["no JSON either"] * 2 * DEFAULT_RETRY_LIMIT
        be = MockBackend(["  the disk failed, no JSON here  ", *retries])
        interpretation, evidence = summarize(be, [("disk failed", "ERROR disk")])
        assert interpretation == "the disk failed, no JSON here"
        assert evidence == ""
        assert len(be.calls) == 1 + len(retries)

    @staticmethod
    def _prompt(pairs) -> str:
        backend = MockBackend(['{"interpretation": "x"}'])
        summarize(backend, pairs)
        [call] = backend.calls
        return call.exchange.messages[0][1]

    def test_a_listing_that_fits_is_sent_whole(self):
        pairs = [("disk failed", "ERROR disk"), ("net slow", "WARN net")]
        assert self._prompt(pairs) == (
            f"{prompts.LOG_SUMMARY_INSTRUCTION}\n\n"
            "Interpretation: disk failed\nEvidence: ERROR disk\n\n"
            "Interpretation: net slow\nEvidence: WARN net"
        )

    def test_the_prompt_stays_within_budget_as_pairs_grow(self):
        pairs = [(f"finding {i}", f"ERROR line {i}") for i in range(2_000)]
        prompt = self._prompt(pairs)
        assert len(prompt) <= DEFAULT_MAX_PROMPT_LEN
        listed = re.findall(r"^Interpretation: (.*)$", prompt, re.MULTILINE)
        assert len(listed) > 100
        assert listed == [r for r, _ in pairs[: len(listed)]]
        assert prompt.endswith(f"Evidence: {pairs[len(listed) - 1][1]}")

    def test_a_pair_over_the_budget_gives_way_to_later_ones(self):
        line = "WARN payload " + "x" * 7_667
        pairs = [("disk failed", "ERROR disk"), (line, line), ("net slow", "WARN net")]
        prompt = self._prompt(pairs)
        assert len(prompt) <= DEFAULT_MAX_PROMPT_LEN
        assert line not in prompt
        assert prompt.endswith(
            "Interpretation: disk failed\nEvidence: ERROR disk\n\n"
            "Interpretation: net slow\nEvidence: WARN net"
        )

    def test_one_pair_always_reaches_the_model_cut_to_the_budget(self):
        line = "WARN payload " + "x" * 20_000
        whole = f"{prompts.LOG_SUMMARY_INSTRUCTION}\n\nInterpretation: {line}\nEvidence: {line}"
        assert self._prompt([(line, line), (line, line)]) == whole[:DEFAULT_MAX_PROMPT_LEN]

    def test_a_long_log_line_leaves_the_summary_within_budget(self):
        # the chunk analysis quotes a 200,000-char line cut to the chunk
        # budget as interpretation and evidence; the error still leads
        error = "ERROR org.apache.flink - SocketTimeoutException: es-node-12"
        log = "\n".join(["INFO start", "WARN  payload " + "x" * 200_000, error])
        backend = PolicyBackend()
        calls = []
        real_complete = backend.complete

        def complete(exchange, params):
            calls.append(exchange)
            return real_complete(exchange, params)

        backend.complete = complete
        out = run_log_expert(backend, log)
        [summary] = [
            exchange.messages[0][1]
            for exchange in calls
            if exchange.system_prompt == prompts.LOG_SUMMARY_SYSTEM
        ]
        assert len(summary) <= DEFAULT_MAX_PROMPT_LEN
        assert out.endswith(f"Evidence: {error}")


@pytest.mark.parametrize("snapshot", ["", "  \n ", 42])
def test_log_agent_call_without_log_content_fails(sandbox, snapshot):
    registry = sandbox.build_registry(PolicyBackend())
    result = dispatch(registry, ToolCall("log_agent", {"snapshot": snapshot}), SnapshotStore())
    assert result.error and not result.invalid
    assert result.observation == (
        "Error: tool 'log_agent' failed: log_agent requires non-empty log content"
    )


class TestRunLogExpert:
    def test_end_to_end_with_scripted_analysis(self):
        log = "\n".join(
            ["INFO all good", "INFO still good",
             "ERROR pipeline exploded at stage four", "INFO shutdown"]
        )

        class Scripted(MockBackend):
            def complete(self, exchange, params):
                user = exchange.messages[0][1]
                if "Log chunk to analyze" in user:
                    return json.dumps(
                        {
                            "interpretations": ["stage four exploded"],
                            "evidences": ["ERROR pipeline exploded at stage four"],
                        }
                    )
                return json.dumps(
                    {
                        "interpretation": "stage four exploded",
                        "evidence": "ERROR pipeline exploded at stage four",
                    }
                )

        out = run_log_expert(Scripted(), log)
        assert out.startswith("Interpretation: stage four exploded")
        assert "Evidence: ERROR pipeline exploded at stage four" in out

    def test_hallucination_scrubbed_to_sentinel(self):
        log = "INFO nothing to see here\nINFO move along"

        class Hallucinating(MockBackend):
            def complete(self, exchange, params):
                return json.dumps(
                    {
                        "interpretations": ["made up"],
                        "evidences": ["FATAL imaginary catastrophe occurred"],
                    }
                )

        out = run_log_expert(Hallucinating(), log)
        assert NO_EVIDENCE_SENTINEL in out

    @pytest.mark.parametrize("waited", [False, True])
    def test_the_first_failing_chunk_in_order_surfaces(self, monkeypatch, waited):
        """Chunk 1 fails after chunk 2 has failed; its error is the one
        raised, with the chunk analyses overlapped or not, and no worker
        thread is left running."""
        chunks = ["INFO chunk zero", "WARN chunk one", "ERROR chunk two"]
        monkeypatch.setattr(logexpert, "partition", lambda log, backend: chunks)

        class FailingChunks(MockBackend):
            def complete(self, exchange, params):
                user = exchange.messages[0][1]
                if user.endswith(chunks[1]):
                    time.sleep(0.05)
                    raise TransportError("chunk one failed")
                if user.endswith(chunks[2]):
                    raise TransportError("chunk two failed")
                return json.dumps({"interpretations": ["x"], "evidences": [chunks[0]]})

        LAST_COMPLETION_WAITED.set(waited)
        before = threading.active_count()
        with pytest.raises(TransportError, match="chunk one failed"):
            run_log_expert(FailingChunks(), "unused")
        assert threading.active_count() == before
