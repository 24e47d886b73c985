import email.utils
import hashlib
import http.server
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrca import backends as backends_module
from cloudrca.agent import run_trajectory
from cloudrca.backends import (
    LAST_COMPLETION_WAITED,
    MAX_IN_FLIGHT,
    AdaptiveGeneration,
    ChatExchange,
    GenerationParams,
    HttpBackend,
    MockBackend,
    TruncatedReply,
    approx_token_count,
    cosine,
    first_best,
    generate_adaptive,
    hash_embed,
    overlapped,
    row_norms,
)
from cloudrca.errors import ConfigurationError, ProtocolError, TransportError
from cloudrca.mockpolicy import PolicyBackend
from cloudrca.tools import FINALIZE_SPEC, ToolRegistry

from conftest import make_config


def exchange(user="hello"):
    return ChatExchange(system_prompt="sys", messages=[("user", user)])


class TestGenerationParams:
    def test_defaults(self):
        p = GenerationParams()
        assert p.mode == "greedy"

    def test_escalated_adds_half_to_both_penalties(self):
        p = GenerationParams(penalty=1.0)
        q = p.escalated()
        assert q.penalty == pytest.approx(1.5)
        # original untouched (frozen)
        assert p.penalty == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationParams(mode="bogus")
        with pytest.raises(ValueError, match="penalty must be non-negative"):
            GenerationParams(penalty=-0.5)


class TestChatExchange:
    def test_alternation_enforced(self):
        bad = ChatExchange(system_prompt="s", messages=[("assistant", "x")])
        with pytest.raises(ValueError):
            bad.validate()
        bad2 = ChatExchange(system_prompt="s", messages=[("user", "a"), ("user", "b")])
        with pytest.raises(ValueError):
            bad2.validate()
        exchange().validate()  # no raise

    @pytest.mark.parametrize(
        "messages, message",
        [([], "exchange has no messages"), ([("user", "")], "message content must be non-empty")],
    )
    def test_an_exchange_with_nothing_to_say_is_rejected(self, messages, message):
        with pytest.raises(ValueError, match=message):
            ChatExchange(system_prompt="s", messages=messages).validate()


class TestCosine:
    def test_known_values(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, b) == pytest.approx(0.0)
        c = np.array([1.0, 1.0])
        assert cosine(a, c) == pytest.approx(1.0 / math.sqrt(2))

    def test_dimension_mismatch(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ProtocolError):
            cosine(a, b)


class TestScores:
    def test_first_best_needs_a_margin_over_1e_12(self):
        # 0.0 + 1e-12 is exactly 1e-12: a score on the bar does not win
        assert first_best(np.array([0.0, 1e-12]), 0) == 0
        assert first_best(np.array([0.0, 2e-12]), 0) == 1

    def test_first_best_scans_on_from_each_winner(self):
        assert first_best(np.array([1.0, 2.0, 1.5, 3.0, 3.0]), 0) == 3
        # the best before the scan keeps its ties, wherever it stands
        assert first_best(np.array([3.0, 1.0, 3.0]), 2) == 2
        assert first_best(np.array([1.0, 3.0, 2.0, 3.0]), 2) == 1

    def test_row_norms_have_the_bits_of_linalg_norm(self):
        x = np.random.default_rng(5).standard_normal((200, 64))
        x[7] = 0.0
        assert row_norms(x).tolist() == [np.linalg.norm(row) for row in x]


def sha256_gram(gram, seed=0):
    """Reference bucket and sign of one trigram: the sha256 of "seed:gram" in
    UTF-8, lone surrogates passed as json.loads can produce them."""
    digest = hashlib.sha256(f"{seed}:{gram}".encode("utf-8", "surrogatepass")).digest()
    idx = int.from_bytes(digest[:4], "big") % backends_module.HASH_EMBED_DIM
    return idx, 1.0 if digest[4] & 1 else -1.0


def trigrams(text):
    padded = f"^{text}$"
    return [padded[i : i + 3] for i in range(max(1, len(padded) - 2))]


def sha256_hash_embed(texts, seed=0):
    """Reference hash embedding: one sha256 per trigram, added straight into
    the vector."""
    vectors = []
    for text in texts:
        vec = np.zeros(backends_module.HASH_EMBED_DIM, dtype=np.float64)
        for gram in trigrams(text):
            idx, sign = sha256_gram(gram, seed)
            vec[idx] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        else:
            vec[0] = 1.0
        vectors.append(vec)
    return np.array(vectors)


class TestHashEmbed:
    # a character of each UTF-8 width (1 to 4 bytes; a lone surrogate takes 3)
    # beside the padding characters and NUL
    ALPHABET = "ab^$ \x00\U0001f680é日\ud800\U0010ffff"
    TEXTS = [
        "",
        "a",
        "ab",
        "2024-03-01 12:00:01 ERROR TaskManager lost heartbeat from tm-3",
        "retry retry retry retry retry retry retry retry",
        "日本語のログ行",
        "non-BMP 🚀 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 \U0001f600 done",
        # a character of each UTF-8 width, then the first and last of each
        "widths: é 日 \U0010ffff, edges: \x7f\x80 \u07ff\u0800 \uffff\U00010000",
    ]

    def test_no_texts_is_an_error(self):
        with pytest.raises(ValueError, match="non-empty list"):
            hash_embed([])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_the_sha256_loop(self, seed):
        expected = sha256_hash_embed(self.TEXTS, seed)
        # twice: the second pass reads every trigram from the memo
        for _ in range(2):
            assert np.array_equal(hash_embed(self.TEXTS, seed), expected)

    def test_returns_one_float64_array(self):
        vectors = hash_embed(self.TEXTS)
        assert isinstance(vectors, np.ndarray) and vectors.flags.c_contiguous
        assert vectors.dtype == np.float64
        assert vectors.shape == (len(self.TEXTS), backends_module.HASH_EMBED_DIM)

    def test_seeds_differ(self):
        assert not np.array_equal(hash_embed(self.TEXTS, 0), hash_embed(self.TEXTS, 3))

    def test_memo_is_bounded(self, monkeypatch):
        assert 0 < backends_module.HASH_EMBED_MEMO_SIZE < 1 << 20
        monkeypatch.setattr(backends_module, "_memo", {})
        monkeypatch.setattr(backends_module, "HASH_EMBED_MEMO_SIZE", 16)
        for seed in (0, 3):
            for text in self.TEXTS:
                assert np.array_equal(hash_embed([text], seed), sha256_hash_embed([text], seed))
                memo = backends_module._memo
                assert sum(len(keys) for keys, _, _ in memo.values()) <= 16

    def test_one_digest_per_distinct_trigram(self, monkeypatch):
        digests = []
        real_sha256 = hashlib.sha256

        def counting_sha256(data):
            digests.append(data)
            return real_sha256(data)

        monkeypatch.setattr(backends_module, "_memo", {})
        monkeypatch.setattr(backends_module.hashlib, "sha256", counting_sha256)
        grams = set()
        for text in self.TEXTS:
            padded = f"^{text}$"
            grams.update(padded[i : i + 3] for i in range(max(1, len(padded) - 2)))
        hash_embed(self.TEXTS, 3)
        assert sorted(digests) == sorted(f"3:{gram}".encode() for gram in grams)
        digests.clear()
        hash_embed(self.TEXTS, 3)
        assert digests == []

    def test_lone_surrogate_gives_a_unit_row(self):
        # json.loads turns "\ud800" in a log line into a lone surrogate
        [row] = hash_embed(["a\ud800b"])
        assert row.shape == (backends_module.HASH_EMBED_DIM,)
        assert np.linalg.norm(row) == pytest.approx(1.0)
        assert np.array_equal(row, sha256_hash_embed(["a\ud800b"])[0])

    def test_a_cold_call_leaves_every_new_trigram_in_the_memo(self, monkeypatch):
        rng = random.Random(7)
        texts = ["".join(rng.choices(self.ALPHABET, k=n)) for n in range(12)]
        grams = {gram for text in texts for gram in trigrams(text)}

        def key(gram):
            points = [ord(c) for c in gram] + [0x110000] * (3 - len(gram))
            return points[0] << 42 | points[1] << 21 | points[2]

        monkeypatch.setattr(backends_module, "_memo", {})
        for seed in (0, 3):
            hash_embed(texts, seed)
        ordered = sorted(grams, key=key)
        for seed in (0, 3):
            keys, buckets, signs = backends_module._memo[seed]
            assert keys.tolist() == [key(gram) for gram in ordered]
            assert list(zip(buckets.tolist(), signs.tolist())) == [
                sha256_gram(gram, seed) for gram in ordered
            ]
        # a call whose new trigrams overflow the memo still hashes them all,
        # then clears the memo
        monkeypatch.setattr(backends_module, "_memo", {})
        monkeypatch.setattr(backends_module, "HASH_EMBED_MEMO_SIZE", len(grams) - 1)
        assert np.array_equal(hash_embed(texts, 3), sha256_hash_embed(texts, 3))
        assert backends_module._memo == {}

    def test_concurrent_calls_share_the_memo_safely(self, monkeypatch):
        monkeypatch.setattr(backends_module, "_memo", {})
        monkeypatch.setattr(backends_module, "HASH_EMBED_MEMO_SIZE", 64)
        batches = [[f"{w} line {i} of worker {w}" for i in range(6)] for w in range(6)]
        expected = [sha256_hash_embed(batch) for batch in batches]
        mismatches = []

        def work(w):
            for _ in range(30):
                if not np.array_equal(hash_embed(batches[w]), expected[w]):
                    mismatches.append(w)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        for keys, buckets, signs in backends_module._memo.values():
            assert len(keys) == len(buckets) == len(signs) <= 64
            assert (np.diff(keys) > 0).all()

    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(
            st.text(alphabet=ALPHABET, max_size=8), min_size=1, max_size=6
        ),
        seed=st.sampled_from([0, 3]),
    )
    def test_matches_the_sha256_loop_on_any_batch(self, texts, seed):
        expected = sha256_hash_embed(texts, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backends_module, "_memo", {})
            # cold, then warm
            assert np.array_equal(hash_embed(texts, seed), expected)
            assert np.array_equal(hash_embed(texts, seed), expected)
            # a memo too small for the batch is cleared as it fills, and
            # blocks of a few characters split the batch
            mp.setattr(backends_module, "HASH_EMBED_MEMO_SIZE", 4)
            mp.setattr(backends_module, "_EMBED_BLOCK_CHARS", 5)
            mp.setattr(backends_module, "_memo", {})
            assert np.array_equal(hash_embed(texts, seed), expected)
            assert np.array_equal(hash_embed(texts, seed), expected)


def test_approx_token_count():
    assert approx_token_count("") == 0
    assert approx_token_count("abcd") == 1
    assert approx_token_count("abcde") == 2
    assert approx_token_count("x" * 4096 * 4) == 4096


class TestMockBackend:
    def test_script_consumed_in_order(self):
        be = MockBackend(["one", "two"])
        assert be.complete(exchange(), GenerationParams()) == "one"
        assert be.complete(exchange(), GenerationParams()) == "two"
        with pytest.raises(ConfigurationError):
            be.complete(exchange(), GenerationParams())

    def test_calls_recorded(self):
        be = MockBackend(["one"])
        be.complete(exchange("payload"), GenerationParams(mode="sampled"))
        assert len(be.calls) == 1
        assert "payload" in be.calls[0].exchange.messages[0][1]

    def test_clone_restarts_script(self):
        be = MockBackend(["one", "two"])
        be.complete(exchange(), GenerationParams())
        other = MockBackend(be.script)
        assert other.complete(exchange(), GenerationParams()) == "one"

    def test_embeddings_deterministic_and_unit_norm(self):
        be = MockBackend()
        [v1] = be.embed(["some text"])
        [v2] = be.embed(["some text"])
        assert np.array_equal(v1, v2)
        assert sum(x * x for x in v1) == pytest.approx(1.0)

    def test_similar_texts_embed_closer_than_dissimilar(self):
        be = MockBackend()
        a, b, c = be.embed(
            ["error connecting to database", "error connecting to database!",
             "watermark advanced normally"]
        )
        assert cosine(a, b) > cosine(a, c)

    def test_policy_backend_embeds_like_the_mock(self):
        texts = ["error connecting to database", "", "watermark advanced normally"]
        assert np.array_equal(
            PolicyBackend(seed=0).embed(texts), MockBackend().embed(texts)
        )

    def test_concurrent_calls_take_each_response_once(self):
        script = [f"response {i}" for i in range(100)]
        be = MockBackend(script)
        taken = [[] for _ in range(10)]

        def drain(out):
            for _ in range(10):
                out.append(be.complete(exchange(), GenerationParams()))

        threads = [threading.Thread(target=drain, args=(out,)) for out in taken]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(r for out in taken for r in out) == sorted(script)
        assert be.cursor == 100
        assert sorted(c.response for c in be.calls) == sorted(script)


class TestGenerateAdaptive:
    def test_short_output_single_attempt(self):
        be = MockBackend(["short"])
        out = generate_adaptive(be, exchange(), GenerationParams())
        assert isinstance(out, AdaptiveGeneration)
        assert out.text == "short"
        assert out.attempts == 1

    def test_restart_escalates_penalties_once(self):
        long_text = "x" * (4097 * 4)
        be = MockBackend([long_text, "recovered"])
        base = GenerationParams(penalty=1.0)
        out = generate_adaptive(be, exchange(), base)
        assert out.text == "recovered"
        assert out.attempts == 2
        assert be.calls[-1].params.penalty == pytest.approx(1.5)

    def test_escalation_capped(self):
        long_text = "x" * (4097 * 4)
        be = MockBackend([long_text] * 5)
        out = generate_adaptive(be, exchange(), GenerationParams())
        assert out.attempts == 3  # 1 + DEFAULT_MAX_ESCALATIONS
        assert len(be.calls) == 3


class TestOverlapped:
    def test_runs_in_order_on_the_calling_thread_until_a_completion_waits(self):
        seen = []

        def call(i):
            seen.append((i, threading.get_ident()))
            return -i

        assert overlapped(call, [1, 2]) == [-1, -2]
        assert seen == [(1, threading.get_ident()), (2, threading.get_ident())]

    def test_the_latest_completion_decides_whether_calls_overlap(self):
        class Waiting(MockBackend):
            def complete(self, exchange, params):
                time.sleep(0.01)
                return super().complete(exchange, params)

        generate_adaptive(Waiting(["slow"]), exchange(), GenerationParams())
        assert LAST_COMPLETION_WAITED.get() is True
        generate_adaptive(MockBackend(["fast"]), exchange(), GenerationParams())
        assert LAST_COMPLETION_WAITED.get() is False

    @pytest.mark.parametrize(
        "wall, cpu, pooled",
        [
            # 40 ms off the CPU around 20 ms of computing, as when another
            # process holds the CPU: the call computed, it did not wait
            (0.060, 0.020, False),
            # 20 ms of waiting around 0.2 ms of computing
            (0.0202, 0.0002, True),
        ],
    )
    def test_a_completion_waits_only_when_idle_far_exceeds_its_cpu_time(
        self, monkeypatch, wall, cpu, pooled
    ):
        clocks = {
            "perf_counter": [0.0, wall],
            "process_time": [0.0, cpu],
            "thread_time": [0.0, cpu],
        }
        monkeypatch.setattr(
            backends_module,
            "time",
            SimpleNamespace(**{name: iter(ticks).__next__ for name, ticks in clocks.items()}),
        )
        generate_adaptive(MockBackend(["reply"]), exchange(), GenerationParams())
        monkeypatch.undo()
        threads = overlapped(lambda _: threading.get_ident(), [1, 2, 3])
        assert (threading.get_ident() not in threads) is pooled

    def test_overlapped_calls_keep_input_order_under_the_cap(self):
        LAST_COMPLETION_WAITED.set(True)
        in_flight, peak = [0], [0]
        lock = threading.Lock()
        # the first three calls return only once all three are in flight
        barrier = threading.Barrier(3, timeout=10)

        def call(i):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            if i < 3:
                barrier.wait()
            time.sleep(0.001 * (25 - i))
            with lock:
                in_flight[0] -= 1
            return i

        before = threading.active_count()
        assert overlapped(call, list(range(25))) == list(range(25))
        assert 3 <= peak[0] <= MAX_IN_FLIGHT
        assert threading.active_count() == before


# ---------------------------------------------------------------------------
# HTTP backend against a local stub server


class _Stub(http.server.BaseHTTPRequestHandler):
    fail_next = 0
    requests: list = []
    # finish reasons of the next chat replies, one per reply
    finish_reasons: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).requests.append((self.path, payload))
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        if self.path.endswith("/chat/completions"):
            choice = {"message": {"content": "stub reply"}}
            if type(self).finish_reasons:
                choice["finish_reason"] = type(self).finish_reasons.pop(0)
            body = {"choices": [choice]}
        else:
            body = {
                "data": [
                    {"index": i, "embedding": [1.0, 0.0]}
                    for i, _ in enumerate(payload.get("input", []))
                ]
            }
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def stub_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_complete_roundtrip(self, stub_server):
        be = HttpBackend(stub_server, "test-model")
        _Stub.requests.clear()
        out = be.complete(exchange("ping"), GenerationParams(mode="greedy"))
        assert out == "stub reply"
        path, payload = _Stub.requests[-1]
        assert path.endswith("/chat/completions")
        assert payload["model"] == "test-model"
        # greedy means temperature zero on the wire
        assert payload["temperature"] == 0.0

    def test_sampled_params_on_wire(self, stub_server):
        be = HttpBackend(stub_server, "test-model")
        _Stub.requests.clear()
        be.complete(exchange(), GenerationParams(mode="sampled"))
        _, payload = _Stub.requests[-1]
        assert payload["temperature"] == pytest.approx(0.9)
        assert payload["top_p"] == pytest.approx(0.6)

    def test_retry_on_server_error(self, stub_server, monkeypatch):
        waits = []
        monkeypatch.setattr(backends_module.time, "sleep", waits.append)
        be = HttpBackend(stub_server, "test-model")
        _Stub.fail_next = 2
        out = be.complete(exchange(), GenerationParams())
        assert out == "stub reply"
        wait = backends_module.RETRY_WAIT_S
        assert waits == [wait * 1, wait * 2]

    def test_retries_exhausted(self, stub_server, monkeypatch):
        monkeypatch.setattr(backends_module.time, "sleep", lambda _s: None)
        be = HttpBackend(stub_server, "test-model")
        _Stub.requests.clear()
        _Stub.fail_next = 10
        with pytest.raises(TransportError):
            be.complete(exchange(), GenerationParams())
        _Stub.fail_next = 0
        assert len(_Stub.requests) == backends_module.MAX_ATTEMPTS

    def test_replies_cut_at_max_tokens_escalate_the_penalty(
        self, stub_server, monkeypatch
    ):
        monkeypatch.setattr(_Stub, "finish_reasons", ["length"] * 3)
        be = HttpBackend(stub_server, "test-model")
        _Stub.requests.clear()
        out = generate_adaptive(be, exchange(), GenerationParams())
        assert isinstance(out.text, TruncatedReply) and out.text == "stub reply"
        assert out.attempts == 3
        penalties = [payload["frequency_penalty"] for _, payload in _Stub.requests]
        assert penalties == [0.0, 0.5, 1.0]

    def test_a_finished_reply_is_one_request(self, stub_server, monkeypatch):
        monkeypatch.setattr(_Stub, "finish_reasons", ["stop"])
        be = HttpBackend(stub_server, "test-model")
        _Stub.requests.clear()
        out = generate_adaptive(be, exchange(), GenerationParams())
        assert type(out.text) is str and out.attempts == 1
        assert len(_Stub.requests) == 1

    def test_embed(self, stub_server):
        be = HttpBackend(stub_server, "test-model")
        vectors = be.embed(["a", "b"])
        assert len(vectors) == 2
        assert tuple(vectors[0]) == (1.0, 0.0)


class _NumberingStub(_Stub):
    """Embeds each input "... <n>" as the row [n, len(input)]."""

    requests: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["input"]
        type(self).requests.append(len(texts))
        rows = [[float(t.rsplit(" ", 1)[1]), float(len(t))] for t in texts]
        # listed in reverse index order, as a server may send them
        data = [{"index": i, "embedding": row} for i, row in enumerate(rows)][::-1]
        body = json.dumps({"data": data}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_embed_posts_at_most_max_embed_inputs_per_request(monkeypatch):
    server = http.server.HTTPServer(("127.0.0.1", 0), _NumberingStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        be = HttpBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        texts = [f"log line {i}" for i in range(5000)]
        sliced = be.embed(texts)
        assert _NumberingStub.requests == [2048, 2048, 904]
        monkeypatch.setattr(backends_module, "MAX_EMBED_INPUTS", len(texts))
        whole = be.embed(texts)
        assert _NumberingStub.requests[3:] == [5000]
    finally:
        server.shutdown()
        server.server_close()
    assert np.array_equal(sliced, whole)
    assert sliced[:, 0].tolist() == list(range(5000))


class _DeepStub(http.server.BaseHTTPRequestHandler):
    """Answers every request 200 with a JSON body nested 200,000 levels
    deep, past the depth CPython's parser reads."""

    posts = 0

    def do_POST(self):
        type(self).posts += 1
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b"[" * 200_000
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestDeeplyNestedBody:
    """A 2xx body nested too deep is retried like a body that is not JSON,
    and ends as a TransportError, not a RecursionError."""

    @pytest.fixture
    def backend(self, monkeypatch):
        monkeypatch.setattr(backends_module.time, "sleep", lambda _s: None)
        server = http.server.HTTPServer(("127.0.0.1", 0), _DeepStub)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield HttpBackend(f"http://127.0.0.1:{server.server_address[1]}", "m")
        server.shutdown()
        server.server_close()

    def test_complete_and_embed_raise_transport_error(self, backend):
        for call in (
            lambda: backend.complete(exchange(), GenerationParams()),
            lambda: backend.embed(["a"]),
        ):
            _DeepStub.posts = 0
            with pytest.raises(TransportError):
                call()
            assert _DeepStub.posts == backends_module.MAX_ATTEMPTS

    def test_a_trajectory_records_a_backend_failure(self, backend):
        registry = ToolRegistry()
        registry.register(FINALIZE_SPEC, lambda kwargs: "Finalized.")
        trajectory = run_trajectory(make_config("fj00000000"), registry, backend)
        assert trajectory.diagnostic.startswith("backend failure:")
        assert not trajectory.passed


class _FakeResponse:
    """A scripted response; a ``body`` that is an exception is raised by
    ``json()``, as a body that is not JSON makes requests raise."""

    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._body = body
        self.text = "" if isinstance(body, Exception) else json.dumps(body)

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class _FakeSession:
    """Answers each post with the next scripted response, or raises it when
    it is an exception; no network."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.posts = 0
        self.bodies = []
        self.headers = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        self.bodies.append((url, json))
        self.headers.append(headers)
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


CHAT_OK = {"choices": [{"message": {"content": "after the wait"}}]}


def test_import_leaves_the_http_client_unloaded():
    # only an HTTP run needs requests and email.utils, and requests is about
    # a third of the time `import cloudrca` takes
    src = os.path.dirname(os.path.dirname(backends_module.__file__))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cloudrca; "
        "print(sorted({'requests', 'email.utils'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_request_bodies_on_the_wire():
    """The exact JSON bodies, key order included, of greedy, sampled and
    once-escalated chat requests and of an embeddings request."""
    embedded = {"data": [{"index": 0, "embedding": [1.0, 0.0]}]}
    session = _FakeSession(
        [_FakeResponse(200, CHAT_OK)] * 3 + [_FakeResponse(200, embedded)]
    )
    be = HttpBackend("http://localhost:1", "the-model", session=session)
    for params in (
        GenerationParams(mode="greedy"),
        GenerationParams(mode="sampled"),
        GenerationParams(mode="greedy").escalated(),
    ):
        be.complete(exchange("ping"), params)
    be.embed(["some text"])
    messages = [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": "ping"},
    ]
    chat = {"model": "the-model", "messages": messages, "max_tokens": 2048}
    expected = [
        ("/chat/completions", {**chat, "frequency_penalty": 0.0, "temperature": 0.0}),
        (
            "/chat/completions",
            {**chat, "frequency_penalty": 0.0, "temperature": 0.9, "top_p": 0.6},
        ),
        (
            "/chat/completions",
            {
                **chat,
                "frequency_penalty": 0.5,
                "temperature": 0.0,
                "repetition_penalty": 0.5,
            },
        ),
        ("/embeddings", {"model": "the-model", "input": ["some text"]}),
    ]
    sent = [(url, json.dumps(body)) for url, body in session.bodies]
    assert sent == [
        ("http://localhost:1" + path, json.dumps(body)) for path, body in expected
    ]


@pytest.mark.parametrize("content", [None, 42, ["part"], {"text": "x"}])
def test_non_string_content_is_a_protocol_error(content):
    chat = {"choices": [{"message": {"content": content}}]}
    be = HttpBackend(
        "http://localhost:1", "m", session=_FakeSession([_FakeResponse(200, chat)])
    )
    with pytest.raises(ProtocolError):
        be.complete(exchange(), GenerationParams())


def embeddings_backend(rows) -> HttpBackend:
    """HTTP backend whose endpoint answers one embeddings request with
    ``rows``, listed in reverse index order; a scripted session stands in for
    the network."""
    data = [{"index": i, "embedding": row} for i, row in enumerate(rows)][::-1]
    session = _FakeSession([_FakeResponse(200, {"data": data})])
    return HttpBackend("http://localhost:1", "m", session=session)


class TestHttpEmbed:
    def test_no_texts_is_an_error_before_any_request(self):
        session = _FakeSession([])
        with pytest.raises(ValueError, match="non-empty list"):
            HttpBackend("http://model.test/v1", "m", session=session).embed([])
        assert session.posts == 0

    def test_returns_one_float64_array_in_index_order(self):
        vectors = embeddings_backend([[1, 0.5], [0.0, -2.0], [3.0, 4]]).embed(
            ["a", "b", "c"]
        )
        assert isinstance(vectors, np.ndarray)
        assert vectors.dtype == np.float64 and vectors.flags.c_contiguous
        assert vectors.tolist() == [[1.0, 0.5], [0.0, -2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "rows",
        [
            ["abc", "def"],
            [1.5, 2.5],
            [{"x": 1.0}, {"x": 2.0}],
            [[1.0, "1.5"], [1.0, 0.5]],
            [[1.0, True], [1.0, 0.5]],
            [[1.0, [0.5]], [1.0, 0.5]],
            [[1.0, None], [1.0, 0.5]],
            [[1.0, float("nan")], [1.0, 0.5]],
            [[1.0, float("inf")], [1.0, 0.5]],
            [[1.0, 0.5], [float("-inf"), 0.5]],
            [[1.0, 10**400], [1.0, 0.5]],
            [[1.0, 0.5], [1.0, 0.5, 0.0]],
            [[1.0, 0.5]],
            [[1.0, 0.5], [1.0, 0.5], [1.0, 0.5]],
        ],
        ids=[
            "string",
            "number",
            "object",
            "numeric-string",
            "bool",
            "nested-list",
            "null",
            "nan",
            "inf",
            "minus-inf",
            "overflowing-int",
            "ragged",
            "too-few",
            "too-many",
        ],
    )
    def test_malformed_vectors_are_a_protocol_error(self, rows):
        with pytest.raises(ProtocolError):
            embeddings_backend(rows).embed(["first text", "second text"])

    @pytest.mark.parametrize(
        "indices",
        [[0, 0], [1, 1], [1, 2], [0, 2], [False, True], [0.0, 1.0]],
    )
    def test_each_input_position_needs_one_vector(self, indices):
        data = [{"index": i, "embedding": [1.0, 0.5]} for i in indices]
        session = _FakeSession([_FakeResponse(200, {"data": data})])
        be = HttpBackend("http://localhost:1", "m", session=session)
        with pytest.raises(ProtocolError):
            be.embed(["first text", "second text"])


class TestRateLimit:
    def backend(self, responses, monkeypatch):
        sleeps = []
        monkeypatch.setattr(backends_module.time, "sleep", sleeps.append)
        session = _FakeSession(responses)
        be = HttpBackend("http://localhost:1", "m", session=session)
        return be, session, sleeps

    def test_429_waits_for_retry_after_seconds(self, monkeypatch):
        be, session, sleeps = self.backend(
            [_FakeResponse(429, {}, {"Retry-After": "7"}), _FakeResponse(200, CHAT_OK)],
            monkeypatch,
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert session.posts == 2
        assert sleeps == [7]

    def test_429_without_header_uses_backoff(self, monkeypatch):
        be, session, sleeps = self.backend(
            [_FakeResponse(429, {}), _FakeResponse(429, {}), _FakeResponse(200, CHAT_OK)],
            monkeypatch,
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert sleeps == [0.5, 1.0]

    def test_http_date_retry_after_uses_backoff(self, monkeypatch):
        date = {"Retry-After": "Fri, 31 Dec 1999 23:59:59 GMT"}
        be, session, sleeps = self.backend(
            [_FakeResponse(503, {}, date), _FakeResponse(200, CHAT_OK)], monkeypatch
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert sleeps == [0.5]

    @pytest.mark.parametrize(
        "ahead, expected", [(7, [7]), (86400, [backends_module.MAX_RETRY_AFTER_S])]
    )
    def test_future_http_date_waits_until_then(self, monkeypatch, ahead, expected):
        now = 1_700_000_000
        monkeypatch.setattr(backends_module.time, "time", lambda: float(now))
        date = {"Retry-After": email.utils.formatdate(now + ahead, usegmt=True)}
        be, session, sleeps = self.backend(
            [_FakeResponse(503, {}, date), _FakeResponse(200, CHAT_OK)], monkeypatch
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert sleeps == expected

    def test_http_date_without_zone_counts_as_gmt(self, monkeypatch):
        now = 1_700_000_000
        monkeypatch.setattr(backends_module.time, "time", lambda: float(now))
        stamp = email.utils.formatdate(now + 7, usegmt=True).removesuffix(" GMT")
        be, session, sleeps = self.backend(
            [_FakeResponse(429, {}, {"Retry-After": stamp}), _FakeResponse(200, CHAT_OK)],
            monkeypatch,
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert sleeps == [7]

    def test_unparsable_retry_after_uses_backoff(self, monkeypatch):
        monkeypatch.setattr(backends_module.time, "time", lambda: 1_700_000_000.0)
        be, session, sleeps = self.backend(
            [_FakeResponse(429, {}, {"Retry-After": "soon"}), _FakeResponse(200, CHAT_OK)],
            monkeypatch,
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert sleeps == [0.5]

    def test_429_exhausts_retries(self, monkeypatch):
        be, session, sleeps = self.backend([_FakeResponse(429, {})] * 3, monkeypatch)
        with pytest.raises(TransportError) as err:
            be.complete(exchange(), GenerationParams())
        assert session.posts == 3
        assert "HTTP 429" in str(err.value)

    @pytest.mark.parametrize("value", ["86400", "0" * 20 + "61", "9" * 5000])
    def test_huge_retry_after_is_capped(self, monkeypatch, value):
        be, session, sleeps = self.backend(
            [_FakeResponse(429, {}, {"Retry-After": value})] * 3, monkeypatch
        )
        with pytest.raises(TransportError):
            be.complete(exchange(), GenerationParams())
        assert session.posts == 3
        assert sleeps == [backends_module.MAX_RETRY_AFTER_S] * 2

    def test_other_4xx_stays_fatal(self, monkeypatch):
        be, session, sleeps = self.backend(
            [_FakeResponse(404, {}), _FakeResponse(200, CHAT_OK)], monkeypatch
        )
        with pytest.raises(TransportError):
            be.complete(exchange(), GenerationParams())
        assert session.posts == 1 and sleeps == []


class TestHttpFaults:
    """A fault of the connection or of the reply's shape, on a scripted
    session: a transport fault is retried up to MAX_ATTEMPTS posts and then
    a TransportError; a reply of the wrong shape is a ProtocolError at once."""

    def backend(self, responses, monkeypatch, api_key=""):
        monkeypatch.setattr(backends_module.time, "sleep", lambda _s: None)
        session = _FakeSession(responses)
        return HttpBackend("http://localhost:1", "m", api_key=api_key, session=session), session

    @pytest.mark.parametrize(
        "fault", [requests.ConnectionError("refused"), requests.Timeout("timed out")]
    )
    def test_a_fault_on_every_attempt_is_a_transport_error(self, monkeypatch, fault):
        be, session = self.backend([fault] * backends_module.MAX_ATTEMPTS, monkeypatch)
        with pytest.raises(TransportError, match=str(fault)):
            be.complete(exchange(), GenerationParams())
        assert session.posts == backends_module.MAX_ATTEMPTS

    def test_one_fault_then_a_reply_returns_the_reply(self, monkeypatch):
        be, session = self.backend(
            [requests.ConnectionError("reset"), _FakeResponse(200, CHAT_OK)], monkeypatch
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert session.posts == 2

    def test_a_body_that_is_not_json_is_retried(self, monkeypatch):
        not_json = requests.exceptions.JSONDecodeError("Expecting value", "<html>", 0)
        be, session = self.backend(
            [_FakeResponse(200, not_json), _FakeResponse(200, CHAT_OK)], monkeypatch
        )
        assert be.complete(exchange(), GenerationParams()) == "after the wait"
        assert session.posts == 2

    @pytest.mark.parametrize(
        "body",
        [{}, {"choices": []}, {"choices": [{"message": "text"}]}, {"choices": [{"message": [1]}]}],
        ids=["no-choices", "empty-choices", "string-message", "list-message"],
    )
    def test_a_malformed_chat_body_is_a_protocol_error(self, monkeypatch, body):
        be, session = self.backend([_FakeResponse(200, body)] * 2, monkeypatch)
        with pytest.raises(ProtocolError, match="malformed chat completion"):
            be.complete(exchange(), GenerationParams())
        assert session.posts == 1

    @pytest.mark.parametrize(
        "body",
        [{}, {"data": [{"embedding": [1.0, 0.5]}]}],
        ids=["no-data", "item-without-index"],
    )
    def test_a_malformed_embeddings_body_is_a_protocol_error(self, monkeypatch, body):
        be, session = self.backend([_FakeResponse(200, body)] * 2, monkeypatch)
        with pytest.raises(ProtocolError, match="malformed embeddings"):
            be.embed(["some text"])
        assert session.posts == 1

    @pytest.mark.parametrize("api_key", ["", "sk-test"])
    def test_a_key_is_sent_as_a_bearer_token(self, monkeypatch, api_key):
        be, session = self.backend([_FakeResponse(200, CHAT_OK)], monkeypatch, api_key)
        be.complete(exchange(), GenerationParams())
        expected = {"Content-Type": "application/json"}
        if api_key:
            expected["Authorization"] = "Bearer sk-test"
        assert session.headers == [expected]
