"""Text-generation and embedding providers.

Two interchangeable backends: an HTTP client for OpenAI-compatible endpoints
and a deterministic scripted mock for tests and offline runs.  The adaptive
repetition-penalty wrapper lives here too, since it only needs a backend
handle.
"""

from __future__ import annotations

import hashlib
import math
import os
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


def _hash_embed(text: str, dim: int, seed: int) -> tuple[float, ...]:
    """Feature-hash character trigrams into a unit vector.

    Deterministic and similarity-respecting enough for tests: shared trigrams
    land in shared buckets regardless of position.
    """
    vec = np.zeros(dim, dtype=np.float64)
    padded = f"^{text}$"
    grams = [padded[i : i + 3] for i in range(max(1, len(padded) - 2))]
    for gram in grams:
        digest = hashlib.sha256(f"{seed}:{gram}".encode("utf-8")).digest()
        idx = int.from_bytes(digest[:4], "big") % dim
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[idx] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    else:
        vec[0] = 1.0
    return tuple(vec.tolist())


@dataclass
class RecordedCall:
    exchange: ChatExchange
    params: GenerationParams
    response: str


class MockBackend:
    """Scripted backend: complete() replays a fixed list of responses.

    The script cursor is per-instance; a replay of the same script yields
    byte-identical output.  Embeddings are a seeded hash of the text.
    """

    def __init__(self, script: Sequence[str] = (), embed_dim: int = 64, seed: int = 0):
        self.script = list(script)
        self.embed_dim = embed_dim
        self.seed = seed
        self.cursor = 0
        self.calls: list[RecordedCall] = []

    def clone(self) -> "MockBackend":
        return MockBackend(self.script, embed_dim=self.embed_dim, seed=self.seed)

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
        if not texts:
            raise ValueError("embed() requires a non-empty list")
        return [
            EmbeddingVector(_hash_embed(t, self.embed_dim, self.seed), "mock-hash")
            for t in texts
        ]


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
            try:
                resp = self.session.post(
                    f"{self.endpoint}{path}",
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout,
                )
                if resp.status_code >= 500:
                    last_error = f"HTTP {resp.status_code}"
                elif resp.status_code >= 400:
                    raise TransportError(
                        f"HTTP {resp.status_code}: {resp.text[:200]}", attempts=attempt
                    )
                else:
                    return resp.json()
            except requests.RequestException as exc:
                last_error = str(exc)
            if attempt < self.max_retries:
                time.sleep(self.retry_wait * attempt)
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


def backend_from_config(config: dict) -> Backend:
    """Build a backend from a config mapping (CLI/config-file shape)."""
    kind = config.get("backend", "mock")
    if kind == "mock":
        return MockBackend(
            script=config.get("script", []),
            embed_dim=int(config.get("embed_dim", 64)),
            seed=int(config.get("seed", 0)),
        )
    if kind == "http":
        endpoint = config.get("endpoint") or os.environ.get("CLOUDRCA_ENDPOINT")
        if not endpoint:
            raise ConfigurationError("http backend requires an endpoint URL")
        api_key = (
            config.get("api_key")
            or os.environ.get("CLOUDRCA_API_KEY")
            or os.environ.get("OPENAI_API_KEY", "")
        )
        return HttpBackend(
            endpoint=endpoint,
            model=config.get("model", "default"),
            api_key=api_key,
            embedding_model=config.get("embedding_model"),
        )
    raise ConfigurationError(f"unknown backend kind: {kind!r}")


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
