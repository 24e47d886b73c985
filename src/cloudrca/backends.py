"""Text-generation and embedding providers.

Two interchangeable backends: an HTTP client for OpenAI-compatible endpoints
and a deterministic scripted mock for tests and offline runs.  The offline
hash embedding that the mock, the scripted policy and batch scoring share
lives here, and so does the adaptive repetition-penalty wrapper, since it
only needs a backend handle.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Protocol, Sequence

import numpy as np
import requests

from .errors import ConfigurationError, ProtocolError, TransportError

DEFAULT_SAMPLED_TEMPERATURE = 0.9
DEFAULT_NUCLEUS_P = 0.6
DEFAULT_RESTART_THRESHOLD = 4096
DEFAULT_MAX_ESCALATIONS = 2
PENALTY_STEP = 0.5
# longest wait a server's Retry-After header can ask of one retry
MAX_RETRY_AFTER_S = 60
HASH_EMBED_DIM = 64
HASH_EMBED_MODEL = "mock-hash"


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = DEFAULT_SAMPLED_TEMPERATURE
    nucleus_p: float = DEFAULT_NUCLEUS_P
    repetition_penalty: float = 0.0
    frequency_penalty: float = 0.0
    max_tokens: int = 2048
    mode: str = "greedy"  # "greedy" or "sampled"

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.nucleus_p <= 1:
            raise ValueError("nucleus_p must be in (0, 1]")
        if self.repetition_penalty < 0 or self.frequency_penalty < 0:
            raise ValueError("penalties must be non-negative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
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


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]
    source_model_id: str

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    va, vb = a.as_array(), b.as_array()
    if va.shape != vb.shape:
        raise ProtocolError("embedding dimension mismatch")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


class Backend(Protocol):
    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str: ...

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


def approx_token_count(text: str) -> int:
    """Cheap tokenizer stand-in: ceil(characters / 4), monotone in length."""
    return math.ceil(len(text) / 4)


def hash_embed(texts: Sequence[str], seed: int = 0) -> list[EmbeddingVector]:
    """Offline embedding: feature-hash each text's character trigrams into a
    HASH_EMBED_DIM unit vector.

    Deterministic and similarity-respecting enough for tests and offline
    scoring: shared trigrams land in shared buckets regardless of position.
    """
    if not texts:
        raise ValueError("embed() requires a non-empty list")
    vectors = []
    for text in texts:
        vec = np.zeros(HASH_EMBED_DIM, dtype=np.float64)
        padded = f"^{text}$"
        for i in range(max(1, len(padded) - 2)):
            gram = padded[i : i + 3]
            digest = hashlib.sha256(f"{seed}:{gram}".encode("utf-8")).digest()
            idx = int.from_bytes(digest[:4], "big") % HASH_EMBED_DIM
            vec[idx] += 1.0 if digest[4] & 1 else -1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        else:
            vec[0] = 1.0
        vectors.append(EmbeddingVector(tuple(vec.tolist()), HASH_EMBED_MODEL))
    return vectors


@dataclass
class RecordedCall:
    exchange: ChatExchange
    params: GenerationParams
    response: str


class MockBackend:
    """Scripted backend: complete() replays a fixed list of responses.

    The script cursor is per-instance; a replay of the same script yields
    byte-identical output.  Embeddings are the unseeded hash_embed.
    """

    def __init__(self, script: Sequence[str] = ()):
        self.script = list(script)
        self.cursor = 0
        self.calls: list[RecordedCall] = []

    def clone(self) -> "MockBackend":
        return MockBackend(self.script)

    def extend(self, responses: Sequence[str]):
        self.script.extend(responses)

    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str:
        exchange.validate()
        if self.cursor >= len(self.script):
            raise ConfigurationError(
                f"mock script exhausted after {len(self.script)} responses"
            )
        response = self.script[self.cursor]
        self.cursor += 1
        self.calls.append(RecordedCall(exchange, params, response))
        return response

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
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
        embedding_model: Optional[str] = None,
        max_retries: int = 3,
        timeout: float = 120.0,
        session: Optional[requests.Session] = None,
        retry_wait: float = 0.5,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.embedding_model = embedding_model or model
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
            "max_tokens": params.max_tokens,
            "frequency_penalty": params.frequency_penalty,
        }
        if params.mode == "greedy":
            payload["temperature"] = 0.0
        else:
            payload["temperature"] = params.temperature
            payload["top_p"] = params.nucleus_p
        if params.repetition_penalty > 0:
            # vLLM-style extension; harmless for servers that ignore it.
            payload["repetition_penalty"] = params.repetition_penalty
        data = self._post("/chat/completions", payload)
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat completion response: {exc}")

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            raise ValueError("embed() requires a non-empty list")
        data = self._post(
            "/embeddings", {"model": self.embedding_model, "input": list(texts)}
        )
        try:
            rows = sorted(data["data"], key=lambda d: d["index"])
            vectors = [
                EmbeddingVector(tuple(row["embedding"]), self.embedding_model)
                for row in rows
            ]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embeddings response: {exc}")
        if len(vectors) != len(texts):
            raise ProtocolError("embedding count does not match input count")
        dims = {len(v.values) for v in vectors}
        if len(dims) > 1:
            raise ProtocolError(f"inconsistent embedding dimensions: {dims}")
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
    restart_threshold: int = DEFAULT_RESTART_THRESHOLD,
    max_escalations: int = DEFAULT_MAX_ESCALATIONS,
    token_counter: Optional[Callable[[str], int]] = None,
) -> AdaptiveGeneration:
    """Generate, restarting with +0.5 repetition/frequency penalty whenever the
    output exceeds the token threshold (a looping-pattern heuristic).

    Makes at most 1 + max_escalations backend calls; if repetition persists the
    last attempt is returned with over_threshold set.
    """
    if restart_threshold <= 0:
        raise ValueError("restart_threshold must be positive")
    count = token_counter or approx_token_count
    current = params
    attempts = 0
    while True:
        text = backend.complete(exchange, current)
        attempts += 1
        if count(text) <= restart_threshold:
            return AdaptiveGeneration(text, attempts, False, current)
        if attempts > max_escalations:
            return AdaptiveGeneration(text, attempts, True, current)
        current = current.escalated()
