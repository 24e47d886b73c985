"""Text-generation and embedding providers.

Two interchangeable backends: an HTTP client for OpenAI-compatible endpoints
and a deterministic scripted mock for tests and offline runs.  The offline
hash embedding that the mock, the scripted policy and batch scoring share
lives here, and so does the adaptive repetition-penalty wrapper, since it
only needs a backend handle.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol, Sequence

import numpy as np
import requests

from .errors import ConfigurationError, ProtocolError, TransportError

DEFAULT_SAMPLED_TEMPERATURE = 0.9
DEFAULT_NUCLEUS_P = 0.6
DEFAULT_RESTART_THRESHOLD = 4096
DEFAULT_MAX_ESCALATIONS = 2
PENALTY_STEP = 0.5
MAX_TOKENS = 2048
# longest wait a server's Retry-After header can ask of one retry
MAX_RETRY_AFTER_S = 60
HASH_EMBED_DIM = 64
HASH_EMBED_MODEL = "mock-hash"
# (seed, trigram) pairs hash_embed remembers, at about 270 bytes each (under
# 9 MB when full); one pass of a benchmark workload meets under 6k of them
HASH_EMBED_MEMO_SIZE = 1 << 15


@dataclass(frozen=True)
class GenerationParams:
    """Decoding mode and penalties of one call; sampled mode decodes at
    DEFAULT_SAMPLED_TEMPERATURE with nucleus DEFAULT_NUCLEUS_P."""

    repetition_penalty: float = 0.0
    frequency_penalty: float = 0.0
    mode: str = "greedy"  # "greedy" or "sampled"

    def __post_init__(self):
        if self.repetition_penalty < 0 or self.frequency_penalty < 0:
            raise ValueError("penalties must be non-negative")
        if self.mode not in ("greedy", "sampled"):
            raise ValueError(f"unknown mode: {self.mode!r}")

    def escalated(self) -> "GenerationParams":
        """Same params with both penalties raised by one step."""
        return replace(
            self,
            repetition_penalty=self.repetition_penalty + PENALTY_STEP,
            frequency_penalty=self.frequency_penalty + PENALTY_STEP,
        )


# Deterministic decoding for the expert, repair and aggregation calls.
GREEDY_PARAMS = GenerationParams(mode="greedy")


@dataclass
class ChatExchange:
    system_prompt: str
    messages: list[tuple[str, str]] = field(default_factory=list)

    def validate(self):
        if not self.messages:
            raise ValueError("exchange has no messages")
        expected = "user"
        for role, content in self.messages:
            if role != expected:
                raise ValueError("roles must alternate starting with user")
            if not content:
                raise ValueError("message content must be non-empty")
            expected = "assistant" if expected == "user" else "user"


def _cosine_rows(va: np.ndarray, na: float, vb: np.ndarray, nb: float) -> float:
    """Cosine similarity of two same-shape rows given their norms; 0.0 when
    either row is zero."""
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two embedding rows."""
    if a.shape != b.shape:
        raise ProtocolError("embedding dimension mismatch")
    return _cosine_rows(a, np.linalg.norm(a), b, np.linalg.norm(b))


class Backend(Protocol):
    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str: ...

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One C-contiguous (len(texts), d) float64 array, a row per text."""
        ...


def approx_token_count(text: str) -> int:
    """Cheap tokenizer stand-in: ceil(characters / 4), monotone in length."""
    return math.ceil(len(text) / 4)


@functools.lru_cache(maxsize=HASH_EMBED_MEMO_SIZE)
def _trigram_bucket(seed: int, gram: str) -> tuple[int, float]:
    """The bucket and the sign one trigram adds to a hash embedding."""
    digest = hashlib.sha256(f"{seed}:{gram}".encode("utf-8")).digest()
    idx = int.from_bytes(digest[:4], "big") % HASH_EMBED_DIM
    return idx, 1.0 if digest[4] & 1 else -1.0


def hash_embed(texts: Sequence[str], seed: int = 0) -> np.ndarray:
    """Offline embedding: feature-hash each text's character trigrams into a
    HASH_EMBED_DIM unit vector.

    Deterministic and similarity-respecting enough for tests and offline
    scoring: shared trigrams land in shared buckets regardless of position.
    """
    if not texts:
        raise ValueError("embed() requires a non-empty list")
    vectors = np.empty((len(texts), HASH_EMBED_DIM), dtype=np.float64)
    for vec, text in zip(vectors, texts):
        # bucket sums are small integers, so a list sums them exactly
        counts = [0.0] * HASH_EMBED_DIM
        padded = f"^{text}$"
        for i in range(max(1, len(padded) - 2)):
            idx, sign = _trigram_bucket(seed, padded[i : i + 3])
            counts[idx] += sign
        vec[:] = counts
        # one norm per row: a norm along axis 1 can differ in the last bit
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        else:
            vec[0] = 1.0
    return vectors


@dataclass
class RecordedCall:
    exchange: ChatExchange
    params: GenerationParams
    response: str


class MockBackend:
    """Scripted backend: complete() replays a fixed list of responses.

    The script cursor is per-instance; a replay of the same script yields
    byte-identical output.  Concurrent calls each take a different response,
    in an unspecified order.  Embeddings are the unseeded hash_embed.
    """

    def __init__(self, script: Sequence[str] = ()):
        self.script = list(script)
        self.cursor = 0
        self.calls: list[RecordedCall] = []
        self._lock = threading.Lock()

    def clone(self) -> "MockBackend":
        return MockBackend(self.script)

    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str:
        exchange.validate()
        with self._lock:
            if self.cursor >= len(self.script):
                raise ConfigurationError(
                    f"mock script exhausted after {len(self.script)} responses"
                )
            response = self.script[self.cursor]
            self.cursor += 1
            self.calls.append(RecordedCall(exchange, params, response))
        return response

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        return hash_embed(texts)


def _retry_after_seconds(value: Optional[str]) -> Optional[int]:
    """The wait a Retry-After header asks for, when it holds delta-seconds
    (RFC 9110 section 10.2.3), capped at MAX_RETRY_AFTER_S; None for an
    absent header or an HTTP-date."""
    if value is None:
        return None
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    # a digit string can be too long for int(); compare lengths first
    digits = value.lstrip("0") or "0"
    if len(digits) > len(str(MAX_RETRY_AFTER_S)):
        return MAX_RETRY_AFTER_S
    return min(int(digits), MAX_RETRY_AFTER_S)


class HttpBackend:
    """Client for OpenAI-compatible chat-completions and embeddings APIs."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str = "",
        max_retries: int = 3,
        timeout: float = 120.0,
        session: Optional[requests.Session] = None,
        retry_wait: float = 0.5,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.max_retries = max_retries
        self.timeout = timeout
        self.session = session or requests.Session()
        self.retry_wait = retry_wait

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        last_error = None
        for attempt in range(1, self.max_retries + 1):
            wait = None
            try:
                resp = self.session.post(
                    f"{self.endpoint}{path}",
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout,
                )
                if resp.status_code >= 500 or resp.status_code == 429:
                    last_error = f"HTTP {resp.status_code}"
                    wait = _retry_after_seconds(resp.headers.get("Retry-After"))
                elif resp.status_code >= 400:
                    raise TransportError(
                        f"HTTP {resp.status_code}: {resp.text[:200]}", attempts=attempt
                    )
                else:
                    return resp.json()
            except requests.RequestException as exc:
                last_error = str(exc)
            if attempt < self.max_retries:
                time.sleep(self.retry_wait * attempt if wait is None else wait)
        raise TransportError(
            f"request to {path} failed after {self.max_retries} attempts: {last_error}",
            attempts=self.max_retries,
        )

    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str:
        exchange.validate()
        messages = [{"role": "system", "content": exchange.system_prompt}]
        messages += [{"role": r, "content": c} for r, c in exchange.messages]
        payload = {
            "model": self.model,
            "messages": messages,
            "max_tokens": MAX_TOKENS,
            "frequency_penalty": params.frequency_penalty,
        }
        if params.mode == "greedy":
            payload["temperature"] = 0.0
        else:
            payload["temperature"] = DEFAULT_SAMPLED_TEMPERATURE
            payload["top_p"] = DEFAULT_NUCLEUS_P
        if params.repetition_penalty > 0:
            # vLLM-style extension; harmless for servers that ignore it.
            payload["repetition_penalty"] = params.repetition_penalty
        data = self._post("/chat/completions", payload)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat completion response: {exc}")
        # servers send null content for refusals and tool calls
        if not isinstance(content, str):
            raise ProtocolError(
                f"chat completion content is {type(content).__name__}, not a string"
            )
        return content

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """The server's vectors for ``texts``; raises ProtocolError unless it
        sends one list of finite numbers per input index, all of one length."""
        if not texts:
            raise ValueError("embed() requires a non-empty list")
        data = self._post("/embeddings", {"model": self.model, "input": list(texts)})
        try:
            items = sorted(data["data"], key=lambda d: d["index"])
            rows = [item["embedding"] for item in items]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embeddings response: {exc}")
        indices = [item["index"] for item in items]
        # exact ints: [False, True] and [0.0, 1.0] both equal [0, 1]
        expected = list(range(len(texts)))
        if indices != expected or any(type(i) is not int for i in indices):
            raise ProtocolError("embeddings do not match the inputs one to one")
        for row in rows:
            # exact types: numpy would also convert "1.5", True and None
            if not isinstance(row, list) or any(
                type(v) not in (int, float) for v in row
            ):
                raise ProtocolError("embedding is not a list of numbers")
        dims = {len(row) for row in rows}
        if len(dims) > 1:
            raise ProtocolError(f"inconsistent embedding dimensions: {dims}")
        try:
            vectors = np.array(rows, dtype=np.float64)
        except OverflowError as exc:
            raise ProtocolError(f"embedding value out of range: {exc}")
        if not np.isfinite(vectors).all():
            raise ProtocolError("embedding has a non-finite value")
        return vectors


@dataclass
class AdaptiveGeneration:
    text: str
    attempts: int
    over_threshold: bool
    final_params: GenerationParams


def generate_adaptive(
    backend: Backend,
    exchange: ChatExchange,
    params: GenerationParams,
) -> AdaptiveGeneration:
    """Generate, restarting with +0.5 repetition/frequency penalty whenever the
    output exceeds DEFAULT_RESTART_THRESHOLD tokens (a looping-pattern
    heuristic).

    Makes at most 1 + DEFAULT_MAX_ESCALATIONS backend calls; if repetition
    persists the last attempt is returned with over_threshold set.
    """
    current = params
    attempts = 0
    while True:
        text = backend.complete(exchange, current)
        attempts += 1
        if approx_token_count(text) <= DEFAULT_RESTART_THRESHOLD:
            return AdaptiveGeneration(text, attempts, False, current)
        if attempts > DEFAULT_MAX_ESCALATIONS:
            return AdaptiveGeneration(text, attempts, True, current)
        current = current.escalated()
