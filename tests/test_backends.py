import http.server
import json
import math
import threading

import pytest

from cloudrca import backends as backends_module
from cloudrca.backends import (
    AdaptiveGeneration,
    ChatExchange,
    EmbeddingVector,
    GenerationParams,
    HttpBackend,
    MockBackend,
    approx_token_count,
    cosine,
    generate_adaptive,
)
from cloudrca.errors import ConfigurationError, ProtocolError, TransportError
from cloudrca.mockpolicy import PolicyBackend


def exchange(user="hello"):
    return ChatExchange(system_prompt="sys", messages=[("user", user)])


class TestGenerationParams:
    def test_defaults(self):
        p = GenerationParams()
        assert p.temperature == 0.9
        assert p.nucleus_p == 0.6
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
            GenerationParams(temperature=-1.0)
        with pytest.raises(ValueError):
            GenerationParams(nucleus_p=1.5)
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
        a = EmbeddingVector((1.0, 0.0), "m")
        b = EmbeddingVector((0.0, 1.0), "m")
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, b) == pytest.approx(0.0)
        c = EmbeddingVector((1.0, 1.0), "m")
        assert cosine(a, c) == pytest.approx(1.0 / math.sqrt(2))

    def test_dimension_mismatch(self):
        a = EmbeddingVector((1.0, 0.0), "m")
        b = EmbeddingVector((1.0, 0.0, 0.0), "m")
        with pytest.raises(ProtocolError):
            cosine(a, b)


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
        be.complete(exchange("payload"), GenerationParams(temperature=0.3))
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
        assert v1.values == v2.values
        assert sum(x * x for x in v1.values) == pytest.approx(1.0)

    def test_similar_texts_embed_closer_than_dissimilar(self):
        be = MockBackend()
        a, b, c = be.embed(
            ["error connecting to database", "error connecting to database!",
             "watermark advanced normally"]
        )
        assert cosine(a, b) > cosine(a, c)

    def test_policy_backend_embeds_like_the_mock(self):
        texts = ["error connecting to database", "", "watermark advanced normally"]
        assert PolicyBackend(seed=0).embed(texts) == MockBackend().embed(texts)


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
        out = generate_adaptive(
            be, exchange(), GenerationParams(), max_escalations=2
        )
        assert out.attempts == 3  # 1 + max_escalations
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
        be.complete(
            exchange(), GenerationParams(mode="sampled", temperature=0.9, nucleus_p=0.6)
        )
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
        assert vectors[0].values == (1.0, 0.0)


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

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        return self.responses.pop(0)


CHAT_OK = {"choices": [{"message": {"content": "after the wait"}}]}


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
