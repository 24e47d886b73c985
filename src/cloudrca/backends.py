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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from datetime import timezone
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolError, TransportError

if TYPE_CHECKING:
    import requests

DEFAULT_SAMPLED_TEMPERATURE = 0.9
DEFAULT_NUCLEUS_P = 0.6
DEFAULT_RESTART_THRESHOLD = 4096
DEFAULT_MAX_ESCALATIONS = 2
PENALTY_STEP = 0.5
MAX_TOKENS = 2048
# most inputs one embeddings request may carry (OpenAI's limit)
MAX_EMBED_INPUTS = 2048
MAX_ATTEMPTS = 3
REQUEST_TIMEOUT_S = 120.0
# without a Retry-After header, attempt n + 1 waits RETRY_WAIT_S * n seconds
RETRY_WAIT_S = 0.5
# longest wait a server's Retry-After header can ask of one retry
MAX_RETRY_AFTER_S = 60
HASH_EMBED_DIM = 64
HASH_EMBED_MODEL = "mock-hash"
# (seed, trigram) pairs hash_embed remembers, at 17 bytes each (an int64 key,
# a uint8 bucket and a float64 sign: under 600 kB when full); one pass of a
# benchmark workload meets under 6k of them
HASH_EMBED_MEMO_SIZE = 1 << 15
# most calls one overlapped() keeps in flight at once; it runs the k branches
# of a sampled mode and every other set of a job's independent model calls
MAX_IN_FLIGHT = 10

# Whether the latest controller generation in this context idled (its wall
# time less the whole process's CPU time meanwhile) more than WAIT_RATIO times
# as long as this thread computed, since a process the OS does not run also
# reads as idle; generate_adaptive sets it.
WAIT_RATIO = 8
LAST_COMPLETION_WAITED: ContextVar[bool] = ContextVar(
    "LAST_COMPLETION_WAITED", default=False
)


@dataclass(frozen=True)
class GenerationParams:
    """Decoding mode and repetition penalty of one call; sampled mode decodes
    at DEFAULT_SAMPLED_TEMPERATURE with nucleus DEFAULT_NUCLEUS_P."""

    penalty: float = 0.0
    mode: str = "greedy"  # "greedy" or "sampled"

    def __post_init__(self):
        if self.penalty < 0:
            raise ValueError("penalty must be non-negative")
        if self.mode not in ("greedy", "sampled"):
            raise ValueError(f"unknown mode: {self.mode!r}")

    def escalated(self) -> "GenerationParams":
        """Same params with the penalty raised by one step."""
        return replace(self, penalty=self.penalty + PENALTY_STEP)


# Deterministic decoding: the controller's default, and every expert, repair
# and aggregation call.
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


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two embedding rows; 0.0 when either row is zero."""
    if a.shape != b.shape:
        raise ProtocolError("embedding dimension mismatch")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a C-ordered (n, d) array.  For a
    row, np.linalg.norm is the square root of np.dot(row, row), and matmul
    of a (1, d) by a (d, 1) block takes the same dot product, so each norm
    has np.linalg.norm's bits whatever n is."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def first_best(scores: np.ndarray, best: int) -> int:
    """The index of the winner of one scan of ``scores`` in order, with
    ``scores[best]`` the best before the scan: a score replaces the best so
    far only when it is higher by more than 1e-12.  So ``best`` wins its
    ties, and among the others the earliest wins."""
    start = 0
    while True:
        ahead = np.flatnonzero(scores[start:] > scores[best] + 1e-12)
        if not ahead.size:
            return best
        best = start + int(ahead[0])
        start = best + 1


def left_sum(values: Iterable[float]) -> float:
    """Sum of floats strictly left to right.  The builtin sum of floats is
    compensated from CPython 3.12 on, which can move the last bit of a
    modularity, and with it a tie between two labellings, or of a report
    mean."""
    total = 0.0
    for value in values:
        total += value
    return total


class Backend(Protocol):
    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str: ...

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One C-contiguous (len(texts), d) float64 array, a row per text."""
        ...


def approx_token_count(text: str) -> int:
    """Cheap tokenizer stand-in: ceil(characters / 4), monotone in length."""
    return math.ceil(len(text) / 4)


# A trigram's key packs its code points (at most 0x10FFFF, 21 bits each) into
# 63 bits; the lone gram "^$" of an empty text ends in the sentinel _NO_CHAR.
_CHAR_BITS = 21
_CHAR_MASK = (1 << _CHAR_BITS) - 1
_NO_CHAR = 0x110000
_EMPTY_TEXT_GRAM = (ord("^") << 2 * _CHAR_BITS) | (ord("$") << _CHAR_BITS) | _NO_CHAR
_EMBED_BLOCK_CHARS = 4096
_NO_TABLE = (np.empty(0, np.int64), np.empty(0, np.uint8), np.empty(0, np.float64))

# seed -> (sorted trigram keys, their buckets, their signs); each update
# publishes a new dict, so a concurrent call reads one whole table
_memo: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _hash_grams(seed: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bucket and the sign each trigram key adds to a hash embedding, from
    one sha256 per key of "seed:gram" in UTF-8 with lone surrogates passed."""
    prefix = [ord(c) for c in f"{seed}:"]
    points = np.empty((len(keys), len(prefix) + 3), np.uint32)
    points[:, : len(prefix)] = prefix
    points[:, -3] = keys >> 2 * _CHAR_BITS
    points[:, -2] = keys >> _CHAR_BITS & _CHAR_MASK
    points[:, -1] = keys & _CHAR_MASK
    real = points != _NO_CHAR
    text = points[real].tobytes().decode("utf-32-le", "surrogatepass")
    data = text.encode("utf-8", "surrogatepass")
    # a code point's UTF-8 bytes: 1 below U+0080, 2 below U+0800, 3 below
    # U+10000 (surrogates too), else 4
    width = real * (1 + (points >= 0x80) + (points >= 0x800) + (points >= 0x10000))
    stops = np.cumsum(width.sum(1)).tolist()
    digests = b"".join(
        [hashlib.sha256(data[a:b]).digest() for a, b in zip([0, *stops], stops)]
    )
    digests = np.frombuffer(digests, np.uint8).reshape(-1, 32)
    # HASH_EMBED_DIM divides 256, so the big-endian digest[:4] modulo it
    # is digest[3] modulo it
    return digests[:, 3] % HASH_EMBED_DIM, np.where(digests[:, 4] & 1, 1.0, -1.0)


def _gram_buckets(seed: int, grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bucket and the sign of each trigram key in ``grams``, looked up in
    the seed's memo.  The missing distinct keys are hashed in one batch, each
    once, and the memo is replaced by the grown table, or cleared if that
    would hold more than HASH_EMBED_MEMO_SIZE keys."""
    global _memo
    memo = _memo
    keys, buckets, signs = memo.get(seed, _NO_TABLE)
    at = np.searchsorted(keys, grams)
    if keys.size:
        known = keys.take(at, mode="clip") == grams
    else:
        known = np.zeros(len(grams), dtype=bool)
    if not known.all():
        new = np.sort(grams[~known])
        new = new[np.insert(new[1:] != new[:-1], 0, True)]
        new_buckets, new_signs = _hash_grams(seed, new)
        place = np.searchsorted(keys, new)
        keys = np.insert(keys, place, new)
        buckets = np.insert(buckets, place, new_buckets)
        signs = np.insert(signs, place, new_signs)
        others = sum(len(t[0]) for s, t in memo.items() if s != seed)
        if others + len(keys) <= HASH_EMBED_MEMO_SIZE:
            _memo = {**memo, seed: (keys, buckets, signs)}
        else:
            _memo = {}
        at = np.searchsorted(keys, grams)
    return buckets[at], signs[at]


def _gram_counts(texts: Sequence[str], lengths: np.ndarray, seed: int) -> np.ndarray:
    """Each text's signed trigram counts, one HASH_EMBED_DIM row per text."""
    n = len(texts)
    joined = ("^" + "$^".join(texts) + "$").encode("utf-32-le", "surrogatepass")
    # two trailing sentinels give the last text's grams a third code point
    points = np.full(len(joined) // 4 + 2, _NO_CHAR, dtype=np.int64)
    points[:-2] = np.frombuffer(joined, np.uint32)
    keys = points[:-2] << 2 * _CHAR_BITS
    keys |= points[1:-1] << _CHAR_BITS
    keys |= points[2:]
    # a text's grams start at its "^" and at each of its characters but the
    # last; an empty text has the one gram "^$"
    ends = np.cumsum(lengths + 2)
    empty = (ends - 2)[lengths == 0]
    take = np.ones(len(keys), dtype=bool)
    take[ends - 2] = False
    take[ends - 1] = False
    take[empty] = True
    keys[empty] = _EMPTY_TEXT_GRAM
    buckets, signs = _gram_buckets(seed, keys[take])
    bins = np.repeat(np.arange(0, n * HASH_EMBED_DIM, HASH_EMBED_DIM), np.maximum(lengths, 1))
    bins += buckets
    # the signed counts are small integers, so the sums are exact
    counts = np.bincount(bins, weights=signs, minlength=n * HASH_EMBED_DIM)
    return counts.reshape(n, HASH_EMBED_DIM)


def hash_embed(texts: Sequence[str], seed: int = 0) -> np.ndarray:
    """Offline embedding: feature-hash each text's character trigrams into a
    HASH_EMBED_DIM unit vector.

    Deterministic and similarity-respecting enough for tests and offline
    scoring: shared trigrams land in shared buckets regardless of position.
    Each trigram of "^text$" adds the sign its sha256 gives to one bucket.
    Texts are counted a block of about _EMBED_BLOCK_CHARS characters at a
    time, which bounds the temporaries, and each row is divided by its
    ``row_norms`` norm.
    """
    if not texts:
        raise ValueError("embed() requires a non-empty list")
    n = len(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=n)
    total = np.cumsum(lengths)
    vectors = np.empty((n, HASH_EMBED_DIM), dtype=np.float64)
    top = 0
    while top < n:
        limit = _EMBED_BLOCK_CHARS + (total[top - 1] if top else 0)
        stop = max(top + 1, int(np.searchsorted(total, limit, "right")))
        vectors[top:stop] = _gram_counts(texts[top:stop], lengths[top:stop], seed)
        top = stop
    norms = row_norms(vectors)
    zero = norms == 0
    norms[zero] = 1.0
    vectors /= norms[:, None]
    vectors[zero, 0] = 1.0
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


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """The wait a Retry-After header asks for (RFC 9110 section 10.2.3),
    capped at MAX_RETRY_AFTER_S: its delta-seconds, or the time until its
    HTTP-date, where a date with no zone counts as GMT.  None for an absent
    header, a date already past or a value that does not parse."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        # a digit string can be too long for int(); compare lengths first
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_RETRY_AFTER_S)):
            return MAX_RETRY_AFTER_S
        return min(int(digits), MAX_RETRY_AFTER_S)
    import email.utils

    try:
        date = email.utils.parsedate_to_datetime(value)
    except ValueError:
        return None
    if date.tzinfo is None:
        date = date.replace(tzinfo=timezone.utc)
    wait = date.timestamp() - time.time()
    if wait <= 0:
        return None
    return min(wait, MAX_RETRY_AFTER_S)


class TruncatedReply(str):
    """A completion the server cut at MAX_TOKENS (``finish_reason`` "length");
    every caller but generate_adaptive reads it as the plain text."""


class HttpBackend:
    """Client for OpenAI-compatible chat-completions and embeddings APIs."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str = "",
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def close(self) -> None:
        """Close the session's pooled connections; the backend sends nothing
        after this."""
        self.session.close()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        import requests

        last_error = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            wait = None
            try:
                resp = self.session.post(
                    f"{self.endpoint}{path}",
                    json=payload,
                    headers=self._headers(),
                    timeout=REQUEST_TIMEOUT_S,
                )
                if resp.status_code >= 500 or resp.status_code == 429:
                    last_error = f"HTTP {resp.status_code}"
                    wait = _retry_after_seconds(resp.headers.get("Retry-After"))
                elif resp.status_code >= 400:
                    raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                else:
                    try:
                        return resp.json()
                    except RecursionError as exc:  # nested too deep: as if not JSON
                        last_error = str(exc)
            except requests.RequestException as exc:
                last_error = str(exc)
            if attempt < MAX_ATTEMPTS:
                time.sleep(RETRY_WAIT_S * attempt if wait is None else wait)
        raise TransportError(
            f"request to {path} failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    def complete(self, exchange: ChatExchange, params: GenerationParams) -> str:
        exchange.validate()
        messages = [{"role": "system", "content": exchange.system_prompt}]
        messages += [{"role": r, "content": c} for r, c in exchange.messages]
        payload = {
            "model": self.model,
            "messages": messages,
            "max_tokens": MAX_TOKENS,
            "frequency_penalty": params.penalty,
        }
        if params.mode == "greedy":
            payload["temperature"] = 0.0
        else:
            payload["temperature"] = DEFAULT_SAMPLED_TEMPERATURE
            payload["top_p"] = DEFAULT_NUCLEUS_P
        if params.penalty > 0:
            # vLLM-style extension; harmless for servers that ignore it.
            payload["repetition_penalty"] = params.penalty
        data = self._post("/chat/completions", payload)
        try:
            choice = data["choices"][0]
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat completion response: {exc}")
        # servers send null content for refusals and tool calls
        if not isinstance(content, str):
            raise ProtocolError(
                f"chat completion content is {type(content).__name__}, not a string"
            )
        if choice.get("finish_reason") == "length":
            return TruncatedReply(content)
        return content

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """The server's vectors for ``texts``, requested MAX_EMBED_INPUTS
        texts at a time; raises ProtocolError unless each response sends one
        list of finite numbers per input index, all of one length."""
        if not texts:
            raise ValueError("embed() requires a non-empty list")
        rows = []
        for top in range(0, len(texts), MAX_EMBED_INPUTS):
            batch = list(texts[top : top + MAX_EMBED_INPUTS])
            data = self._post("/embeddings", {"model": self.model, "input": batch})
            try:
                items = sorted(data["data"], key=lambda d: d["index"])
                rows += [item["embedding"] for item in items]
            except (KeyError, TypeError) as exc:
                raise ProtocolError(f"malformed embeddings response: {exc}")
            indices = [item["index"] for item in items]
            # exact ints: [False, True] and [0.0, 1.0] both equal [0, 1]
            expected = list(range(len(batch)))
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


def ask(backend: Backend, system: str, user: str) -> str:
    """One greedy single-turn call: how every expert, repair and merge call
    reaches the model."""
    return backend.complete(ChatExchange(system, [("user", user)]), GREEDY_PARAMS)


def generate_adaptive(
    backend: Backend,
    exchange: ChatExchange,
    params: GenerationParams,
) -> AdaptiveGeneration:
    """Generate, restarting with the penalty raised by PENALTY_STEP whenever
    the reply looks like a looping pattern: the server cut it at MAX_TOKENS
    (a TruncatedReply), or it exceeds DEFAULT_RESTART_THRESHOLD tokens, the
    rule for backends that report no finish reason.

    Makes at most 1 + DEFAULT_MAX_ESCALATIONS backend calls; if repetition
    persists the last attempt is returned.  Each call sets
    LAST_COMPLETION_WAITED.
    """
    current = params
    attempts = 0
    while True:
        wall, process, cpu = time.perf_counter(), time.process_time(), time.thread_time()
        text = backend.complete(exchange, current)
        cpu = time.thread_time() - cpu
        idle = time.perf_counter() - wall - (time.process_time() - process)
        LAST_COMPLETION_WAITED.set(idle > WAIT_RATIO * cpu)
        attempts += 1
        looping = (
            isinstance(text, TruncatedReply)
            or approx_token_count(text) > DEFAULT_RESTART_THRESHOLD
        )
        if not looping or attempts > DEFAULT_MAX_ESCALATIONS:
            return AdaptiveGeneration(text, attempts)
        current = current.escalated()


def overlapped(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, for calls that read none of each
    other's replies.

    Once the latest controller generation in the caller's context waited
    (LAST_COMPLETION_WAITED), the calls run concurrently, at most
    MAX_IN_FLIGHT at a time, in a pool that ends with this call; a backend
    they share must then accept concurrent calls.  Results keep
    input order, and a failure raises the exception of the first failing
    item in that order once every call has ended.  A CPU-bound backend
    gains nothing from threads, so its calls run one after another."""
    if len(items) < 2 or not LAST_COMPLETION_WAITED.get():
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(len(items), MAX_IN_FLIGHT)) as pool:
        return list(pool.map(fn, items))
