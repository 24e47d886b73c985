import hashlib
import http.server
import json
import math
import sys
import threading

import numpy as np
import pytest

from cloudrca import backends as backends_module
from cloudrca.backends import (
    AdaptiveGeneration,
    ChatExchange,
    GenerationParams,
    HttpBackend,
    MockBackend,
    approx_token_count,
    cosine,
    generate_adaptive,
    hash_embed,
)
from cloudrca.errors import ConfigurationError, ProtocolError, TransportError
from cloudrca.mockpolicy import PolicyBackend


def exchange(user="hello"):
    return ChatExchange(system_prompt="sys", messages=[("user", user)])


class TestGenerationParams:
    def test_defaults(self):
        p = GenerationParams()
        assert p.mode == "greedy"

    def test_escalated_adds_half_to_both_penalties(self):
        p = GenerationParams(repetition_penalty=1.0, frequency_penalty=0.0)
        q = p.escalated()
        assert q.repetition_penalty == pytest.approx(1.5)
        assert q.frequency_penalty == pytest.approx(0.5)
        # original untouched (frozen)
        assert p.repetition_penalty == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationParams(mode="bogus")


class TestChatExchange:
    def test_alternation_enforced(self):
        bad = ChatExchange(system_prompt="s", messages=[("assistant", "x")])
        with pytest.raises(ValueError):
            bad.validate()
        bad2 = ChatExchange(system_prompt="s", messages=[("user", "a"), ("user", "b")])
        with pytest.raises(ValueError):
            bad2.validate()
        exchange().validate()  # no raise


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


def sha256_hash_embed(texts, seed=0):
    """Reference hash embedding: one sha256 per trigram, added straight into
    the vector."""
    vectors = []
    for text in texts:
        vec = np.zeros(backends_module.HASH_EMBED_DIM, dtype=np.float64)
        padded = f"^{text}$"
        for i in range(max(1, len(padded) - 2)):
            gram = padded[i : i + 3]
            digest = hashlib.sha256(f"{seed}:{gram}".encode("utf-8")).digest()
            idx = int.from_bytes(digest[:4], "big") % backends_module.HASH_EMBED_DIM
            vec[idx] += 1.0 if digest[4] & 1 else -1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        else:
            vec[0] = 1.0
        vectors.append(vec)
    return np.array(vectors)


class TestHashEmbed:
    TEXTS = [
        "",
        "a",
        "ab",
        "2024-03-01 12:00:01 ERROR TaskManager lost heartbeat from tm-3",
        "retry retry retry retry retry retry retry retry",
        "日本語のログ行",
        "non-BMP 🚀 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 \U0001f600 done",
    ]

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

    def test_memo_is_bounded(self):
        maxsize = backends_module._trigram_bucket.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 1 << 20


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
        other = be.clone()
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
        assert not out.over_threshold

    def test_restart_escalates_penalties_once(self):
        long_text = "x" * (4097 * 4)
        be = MockBackend([long_text, "recovered"])
        base = GenerationParams(repetition_penalty=1.0, frequency_penalty=0.0)
        out = generate_adaptive(be, exchange(), base)
        assert out.text == "recovered"
        assert out.attempts == 2
        assert out.final_params.repetition_penalty == pytest.approx(1.5)
        assert out.final_params.frequency_penalty == pytest.approx(0.5)

    def test_escalation_capped(self):
        long_text = "x" * (4097 * 4)
        be = MockBackend([long_text] * 5)
        out = generate_adaptive(be, exchange(), GenerationParams())
        assert out.attempts == 3  # 1 + DEFAULT_MAX_ESCALATIONS
        assert out.over_threshold
        assert len(be.calls) == 3


# ---------------------------------------------------------------------------
# HTTP backend against a local stub server


class _Stub(http.server.BaseHTTPRequestHandler):
    fail_next = 0
    requests: list = []

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
            body = {"choices": [{"message": {"content": "stub reply"}}]}
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

    def test_retry_on_server_error(self, stub_server):
        be = HttpBackend(stub_server, "test-model", max_retries=3)
        _Stub.fail_next = 2
        out = be.complete(exchange(), GenerationParams())
        assert out == "stub reply"

    def test_retries_exhausted(self, stub_server):
        be = HttpBackend(stub_server, "test-model", max_retries=2)
        _Stub.fail_next = 10
        with pytest.raises(TransportError) as err:
            be.complete(exchange(), GenerationParams())
        _Stub.fail_next = 0
        assert err.value.attempts == 2

    def test_embed(self, stub_server):
        be = HttpBackend(stub_server, "test-model")
        vectors = be.embed(["a", "b"])
        assert len(vectors) == 2
        assert tuple(vectors[0]) == (1.0, 0.0)


class _FakeResponse:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._body = body
        self.text = json.dumps(body)

    def json(self):
        return self._body


class _FakeSession:
    """Answers each post with the next scripted response; no network."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.posts = 0
        self.bodies = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        self.bodies.append((url, json))
        return self.responses.pop(0)


CHAT_OK = {"choices": [{"message": {"content": "after the wait"}}]}


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
        be = HttpBackend(
            "http://localhost:1", "m", session=session, max_retries=3, retry_wait=0.5
        )
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

    def test_429_exhausts_retries(self, monkeypatch):
        be, session, sleeps = self.backend([_FakeResponse(429, {})] * 3, monkeypatch)
        with pytest.raises(TransportError) as err:
            be.complete(exchange(), GenerationParams())
        assert err.value.attempts == 3
        assert "HTTP 429" in str(err.value)

    @pytest.mark.parametrize("value", ["86400", "0" * 20 + "61", "9" * 5000])
    def test_huge_retry_after_is_capped(self, monkeypatch, value):
        be, session, sleeps = self.backend(
            [_FakeResponse(429, {}, {"Retry-After": value})] * 3, monkeypatch
        )
        with pytest.raises(TransportError) as err:
            be.complete(exchange(), GenerationParams())
        assert err.value.attempts == 3
        assert sleeps == [backends_module.MAX_RETRY_AFTER_S] * 2

    def test_other_4xx_stays_fatal(self, monkeypatch):
        be, session, sleeps = self.backend(
            [_FakeResponse(404, {}), _FakeResponse(200, CHAT_OK)], monkeypatch
        )
        with pytest.raises(TransportError) as err:
            be.complete(exchange(), GenerationParams())
        assert err.value.attempts == 1
        assert session.posts == 1 and sleeps == []
