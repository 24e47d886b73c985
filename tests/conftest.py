import contextlib
import json
import os
import threading
import time
from collections import Counter

import pytest

from cloudrca import AgentConfig, PolicyBackend, Sandbox, generate_scenarios
from cloudrca.backends import LAST_COMPLETION_WAITED, GenerationParams

from policy_server import PolicyServer


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenarios") / "bundle"
    generate_scenarios(seed=1234, count=8, out_dir=str(out))
    return str(out)


@pytest.fixture(scope="session")
def sandbox(scenario_dir):
    return Sandbox(scenario_dir)


def job_entries(bundle_dir: str, job_id: str, name: str) -> list[dict]:
    """The entries of one of a job's JSONL files (``logs.<level>`` or
    ``advisor``), read from the bundle itself, post-detection ones included."""
    path = os.path.join(bundle_dir, job_id, f"{name}.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture
def policy_backend():
    return PolicyBackend()


@pytest.fixture
def policy_server():
    """A PolicyServer serving from a thread, shut down and closed after the
    test."""
    server = PolicyServer()
    # shutdown waits for the loop's next poll
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def make_config(job_id: str, **overrides) -> AgentConfig:
    defaults = dict(
        task_statement=f"Diagnose the anomalous job {job_id}.",
        params=GenerationParams(mode="greedy"),
    )
    defaults.update(overrides)
    return AgentConfig(**defaults)


@pytest.fixture(autouse=True)
def no_completion_waited():
    """Each test starts with no controller generation that waited, so a
    scripted backend sees its calls in order until one does."""
    LAST_COMPLETION_WAITED.set(False)


class SlowBackend(PolicyBackend):
    """Policy backend that sleeps ``delay`` seconds in every completion and
    embedding, as a live endpoint makes a job wait.  Calls are counted by
    kind: all completions under "complete", embeddings under "embed", and
    the completions of each system prompt under that prompt; ``calls`` holds
    the counts, with "prompt_chars" and "embed_texts", and ``peaks`` the
    largest number of calls of each kind in flight at once."""

    def __init__(self, delay: float, malformed_pct: int = 0):
        super().__init__(malformed_pct)
        self.delay = delay
        self.calls: Counter = Counter()
        self.peaks: Counter = Counter()
        self._in_flight: Counter = Counter()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def _flight(self, *kinds: str, **sizes: int):
        with self._lock:
            self.calls.update(sizes)
            for kind in kinds:
                self.calls[kind] += 1
                self._in_flight[kind] += 1
                self.peaks[kind] = max(self.peaks[kind], self._in_flight[kind])
        try:
            time.sleep(self.delay)
            yield
        finally:
            with self._lock:
                for kind in kinds:
                    self._in_flight[kind] -= 1

    def complete(self, exchange, params):
        chars = len(exchange.system_prompt)
        chars += sum(len(content) for _, content in exchange.messages)
        with self._flight("complete", exchange.system_prompt, prompt_chars=chars):
            return super().complete(exchange, params)

    def embed(self, texts):
        with self._flight("embed", embed_texts=len(texts)):
            return super().embed(texts)
