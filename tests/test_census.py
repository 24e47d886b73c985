"""Function-level census of what the CLI reaches end to end.

The test generates a bundle, stretches two jobs' runtime logs past the
sizes where dedup bounds its pairs and overlap repair has runs to merge,
runs `cloudrca batch` in every mode and aggregation at 10% malformed
actions, one greedy `batch` over HTTP against
the policy served on a local port, then `diagnose` (its settings from a
`--config` file) and `replay`, all through CliRunner, and profiles every
Python call.  The `src` functions that no run calls must equal UNCALLED,
so a function that only the unit tests reach is a listed, visible choice:
wire it in or delete it.  A name that joins or leaves the set fails the
test with that name.

Lambdas and comprehensions are not counted.  A function that runs only at
import (such as a decorator) counts as uncalled.
"""

import inspect
import json
import pathlib
import random
import sys
import threading

import pytest
from click.testing import CliRunner

import cloudrca
from cloudrca import backends, logexpert
from cloudrca.cli import AGGREGATES, main
from cloudrca.consistency import MODES

from test_golden import stretch_runtime_logs

SRC = pathlib.Path(cloudrca.__file__).parent

# by kind: import-time only, abstract, paper components and public helpers
# no run uses, and error paths.  The stretched runtime logs reach the
# long-observation paths: the dedup pair bound and both overlap repairs.
# structured.extract_json is a public helper and the fallback reader
# of json_regen's unkeyed direct stage and its repair stages, which no bundle
# reply reaches: each parses at its first brace or, when corrupted, in the
# keyed span scan.
UNCALLED = {
    "backends:Backend.complete",
    "backends:Backend.embed",
    "backends:GenerationParams.escalated",
    "backends:MockBackend.complete",
    "backends:_retry_after_seconds",
    "cli:_common_options",
    "cli:_trajectory_divergence",
    "codeexpert:RepoIndex.is_external",
    "codeexpert:analyze_file",
    "codeexpert:find_class_file",
    "codeexpert:make_code_agent_handler.<locals>.handler",
    "codeexpert:run_code_expert",
    "errors:SnapshotKeyError.__init__",
    "mockpolicy:PolicyBackend.clone",
    "mockpolicy:_regen",
    "structured:_merge",
    "structured:extract_json",
    "tools:_error_result",
}


def _functions(code, module: str):
    """``module:qualname`` of every named function compiled under ``code``."""
    for const in code.co_consts:
        if inspect.iscode(const):
            # a class body is compiled as code too, but not as a function
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield f"{module}:{const.co_qualname}"
            yield from _functions(const, module)


def _all_functions() -> dict[str, set[str]]:
    """Each ``src`` file's path and the names of its functions."""
    return {
        str(path): set(_functions(compile(path.read_text(), str(path), "exec"), path.stem))
        for path in sorted(SRC.glob("*.py"))
    }


def _run_cli(tmp_path: pathlib.Path, endpoint: str):
    runner = CliRunner()

    def invoke(*args):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, result.output

    bundle = tmp_path / "bundle"
    invoke("gen-scenarios", "--seed", 4242, "--count", 4, "--out-dir", bundle)
    # two jobs' runtime observations hold over textdist._MATRIX_MAX distinct
    # lines; the other two stay short
    runtime_logs = sorted(bundle.glob("*/logs.runtime.jsonl"))[:2]
    stretch_runtime_logs(runtime_logs, random.Random(43), 60)
    for mode in MODES:
        for aggregate in AGGREGATES:
            invoke(
                "batch", "--scenarios", bundle, "--out-dir", tmp_path / f"{mode}-{aggregate}",
                "--mode", mode, "--aggregate", aggregate, "--k", 3, "--jobs", 2,
                "--malformed-pct", 10,
            )
    invoke(
        "batch", "--scenarios", bundle, "--out-dir", tmp_path / "http",
        "--backend", "http", "--endpoint", endpoint,
    )
    job_id = json.loads((bundle / "index.json").read_text())["job_ids"][0]
    out = tmp_path / "diagnose"
    config = tmp_path / "run.yaml"
    config.write_text("malformed_pct: 10\n")
    invoke("diagnose", job_id, "--scenarios", bundle, "--out-dir", out, "--config", config)
    invoke("replay", out / job_id / "trajectory.jsonl")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects name their qualname from 3.11")
def test_uncalled_functions_are_listed(tmp_path, monkeypatch, policy_server):
    # the program's two memos start empty, so the functions behind them are
    # called whatever the tests before this one computed
    monkeypatch.setattr(backends, "_memo", {})
    logexpert._labellings.cache_clear()
    functions = _all_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in functions:
                called.add(f"{pathlib.Path(code.co_filename).stem}:{code.co_qualname}")

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        _run_cli(tmp_path, policy_server.url)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    uncalled = set().union(*functions.values()) - called
    assert not uncalled - UNCALLED, f"no longer called end to end: {sorted(uncalled - UNCALLED)}"
    assert not UNCALLED - uncalled, f"now called end to end: {sorted(UNCALLED - uncalled)}"
