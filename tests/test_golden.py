"""Golden output bytes.

The files of fixed bundles, the rendered tool documentation, the
trajectories and results of the 8-job bundle and the files the CLI writes
for it are hashed and compared with literals, so a change to any bundle,
prompt, trajectory or output file byte fails here and not only in the
benchmark digests.  A deliberate output change updates the literals in the
same commit and says why.
"""

import hashlib
import json
import os
import pathlib
import random
import shutil
import threading
from collections import Counter

import pytest
from click.testing import CliRunner

from cloudrca import PolicyBackend, Sandbox, agent, codeexpert, generate_scenarios, logexpert, tools
from cloudrca.cli import main
from cloudrca.consistency import run_with_consistency
from cloudrca.structured import jsonl_text
from cloudrca.textdist import DEDUP_THRESHOLD, split_log
from cloudrca.tools import render_documentation

from conftest import make_config
from oracles import (
    dedup_reference,
    dict_louvain_oracle,
    forward_dp_oracle,
    per_edge_build_graph,
    recursive_exact_partition,
    span_scan_read,
)
from test_textdist import _multi_field_lines, _two_template_lines

BUNDLE_SHA256 = "9ddb11eb9da2467ffb785b1513855ab705c80bd4867543172d63d047fc324af5"

# (seed, count) -> digest: an odd count leaves the family rotation partial,
# and count 0 writes only src/ and index.json
SMALL_BUNDLE_SHA256 = {
    (6007, 5): "e6cf85665e21f435ec8d1e99c37e3ba139c9daf57ff9781cddefd5fc4125ff1b",
    (4242, 0): "1393a23e2dbd644d856b3fa890bf60b5f00e919c91fc8476078ab7d94cb0a03f",
}

DOCUMENTATION_SHA256 = "3e115414df67131d5e810d0e2b4c14120408c7ee0716392a2cb9709807c36b08"

RUN_SHA256 = {
    "greedy": "a65bd39348968f282a7308523694501e31595cb342d6a6550ae1e2ebd7cf209b",
    "sc": "266268276c8b34d11848d22db833fa20020b3130d1ed647dd9ec71368ef13079",
    "tsc": "266268276c8b34d11848d22db833fa20020b3130d1ed647dd9ec71368ef13079",
    "sample-full": "5cba937e97940206e4955e29b0b1fd64b7992ce9a31e95b0bae8f3f3b3348bf6",
}


# the files `cloudrca diagnose` and `cloudrca batch` write for the 8-job
# bundle, at 10% malformed actions, with the bundle's path as BUNDLE_TOKEN
CLI_ARGS = {
    "diagnose": ["diagnose", None],
    "batch-greedy": ["batch"],
    "batch-tsc": ["batch", "--mode", "tsc", "--k", "3"],
}
CLI_SHA256 = {
    "diagnose": "a61c415b1dec2c7d12fadc2d238c77b483e952f5589c9ad192261d8b68dcdcc4",
    "batch-greedy": "f9718544b35565134b630bbd7e7003c8348e9b6685969106392847c4ae2ac423",
    "batch-tsc": "7f75b63e5e9df01819de4369c2b281687089ae5d5464d65dde4857607b5ab61b",
}
BUNDLE_TOKEN = "<bundle>"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tree_sha256(root: pathlib.Path, bundle_path: str = "") -> str:
    """The digest of every file under ``root``, by relative path and bytes,
    with each ``bundle_path`` in them read as BUNDLE_TOKEN."""
    digest = hashlib.sha256()
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    for rel in files:
        data = (root / rel).read_bytes()
        if bundle_path:
            data = data.replace(bundle_path.encode("utf-8"), BUNDLE_TOKEN.encode("utf-8"))
        digest.update(f"{rel}\n{len(data)}\n".encode("utf-8") + data)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "bundle"
    generate_scenarios(seed=4242, count=8, out_dir=str(out))
    return str(out)


@pytest.fixture(scope="module")
def golden_sandbox(golden_bundle):
    return Sandbox(golden_bundle)


def test_bundle_bytes(golden_bundle):
    """Every file the generator writes, by relative path and bytes,
    including the platform, infrastructure and advisor files that no
    greedy run reads."""
    assert _tree_sha256(pathlib.Path(golden_bundle)) == BUNDLE_SHA256


@pytest.mark.parametrize("seed, count", list(SMALL_BUNDLE_SHA256))
def test_small_bundle_bytes(tmp_path, seed, count):
    generate_scenarios(seed=seed, count=count, out_dir=str(tmp_path))
    assert _tree_sha256(tmp_path) == SMALL_BUNDLE_SHA256[(seed, count)]


@pytest.mark.parametrize("command", list(CLI_SHA256))
def test_cli_output_bytes(golden_bundle, golden_sandbox, tmp_path, command):
    """trajectory.jsonl and result.json of each job run, and the batch's
    report.json and predictions.jsonl; result.json records the bundle's
    absolute path, which the digest reads as BUNDLE_TOKEN."""
    args = [golden_sandbox.job_ids[0] if a is None else a for a in CLI_ARGS[command]]
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        [*args, "--scenarios", golden_bundle, "--out-dir", str(out), "--malformed-pct", "10"],
    )
    assert result.exit_code == 0, result.output
    assert _tree_sha256(out, os.path.abspath(golden_bundle)) == CLI_SHA256[command]


# requests: the completion and embedding calls the mock backend gets in the
# same batch
@pytest.mark.parametrize("command, requests", [("batch-greedy", 61), ("batch-tsc", 109)])
def test_http_backend_writes_the_mock_runs(
    golden_bundle, tmp_path, policy_server, command, requests
):
    """``batch --backend http`` against the policy served on a local port
    writes every file the mock backend writes, but for result.json's
    settings, and sends one request per completion and embedding call."""

    def run(out: pathlib.Path, *flags: str) -> dict:
        result = CliRunner().invoke(
            main, [*CLI_ARGS[command], "--scenarios", golden_bundle, "--out-dir", str(out), *flags]
        )
        assert result.exit_code == 0, result.output
        files = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "result.json":
                data = {**json.loads(data), "settings": None}
            files[path.relative_to(out).as_posix()] = data
        return files

    mock = run(tmp_path / "mock", "--malformed-pct", "10")
    assert len(mock) == 18
    assert run(tmp_path / "http", "--backend", "http", "--endpoint", policy_server.url) == mock
    assert policy_server.requests == requests


def _interleaved_template_lines(rng: random.Random, count: int) -> list[str]:
    """``count`` lines of ``_two_template_lines``' two templates, in blocks
    of 10 to 29 lines of one template, each holding one line of the other
    template at a random place, so that Louvain's clusters cross a few times
    and overlap repair has runs to merge."""
    lines = _two_template_lines(rng, count)
    own, other = lines[0::2], lines[1::2]
    out = []
    while own or other:
        size = rng.randrange(10, 30)
        block, own = own[:size], own[size:]
        if block and other:
            block.insert(rng.randrange(len(block)), other.pop(0))
        out += block
        own, other = other, own
    return out


# the layouts stretch_runtime_logs takes in turn, one per file
_LAYOUTS = (_two_template_lines, _interleaved_template_lines, _multi_field_lines)


def stretch_runtime_logs(paths: list[pathlib.Path], rng: random.Random, count: int) -> None:
    """Add ``count`` lines of two templates before detection to each runtime
    log file of ``paths``, laid out by each of ``_LAYOUTS`` in turn:
    alternating, so that the greedy overlap repair runs; in blocks, so that
    the exact one does; and as multi-field lines, 60 of which deduplicate to
    a log longer than CHUNK_BUDGET that the greedy repair can cut."""
    for i, path in enumerate(paths):
        text = path.read_text(encoding="utf-8")
        first = json.loads(text.splitlines()[0])["timestamp"]
        layout = _LAYOUTS[i % len(_LAYOUTS)]
        added = [{"timestamp": first, "text": line} for line in layout(rng, count)]
        path.write_text(jsonl_text(added) + text, encoding="utf-8")


@pytest.fixture(scope="module")
def long_log_bundle(golden_bundle, tmp_path_factory):
    """The 8-job bundle with 60 more runtime log lines per job, laid out by
    ``stretch_runtime_logs``.  Every graph is past the exact limit and runs
    Louvain's levels, every log is cut into several chunks, and the
    multi-field logs are longer than CHUNK_BUDGET, one of them cut by the
    greedy overlap repair.  60 lines, not more, keep
    the all-pairs dedup reference within a few seconds."""
    out = tmp_path_factory.mktemp("long") / "bundle"
    shutil.copytree(golden_bundle, out)
    stretch_runtime_logs(sorted(out.glob("*/logs.runtime.jsonl")), random.Random(43), 60)
    return str(out)


def _oracle_louvain(graph):
    if graph.n <= logexpert._EXACT_VERTEX_LIMIT:
        return recursive_exact_partition(graph)
    return dict_louvain_oracle(graph)


# the oracle pipeline's batch runs beside CLI_ARGS'
ORACLE_ARGS = {
    **CLI_ARGS,
    "batch-sc": ["batch", "--mode", "sc", "--k", "3"],
    "batch-sample-full": ["batch", "--mode", "sample-full", "--k", "3"],
    # for the long-log bundle, where each branch's observations go through
    # the all-pairs dedup reference
    "batch-sc-k2": ["batch", "--mode", "sc", "--k", "2"],
    "batch-sample-full-k2": ["batch", "--mode", "sample-full", "--k", "2"],
}


@pytest.mark.parametrize(
    "command, bundle",
    [
        (command, bundle)
        for command in ["batch-greedy", "batch-tsc"]
        for bundle in ["golden_bundle", "long_log_bundle"]
    ]
    + [("batch-sc", "golden_bundle"), ("batch-sample-full", "golden_bundle")]
    + [("batch-sc-k2", "long_log_bundle"), ("batch-sample-full-k2", "long_log_bundle")],
)
def test_oracle_pipeline_writes_the_same_runs(request, tmp_path, monkeypatch, bundle, command):
    """Every job's trajectory.jsonl and result.json are byte-identical, and
    every log is cut into the same chunks, when each observation goes
    through the reference dedup, graph build, Louvain (the recursive
    enumeration up to the exact vertex limit) and exact overlap repair, and
    each reply through the span-scan read, instead of the fast paths.  The
    chunks are compared as well because the scripted policy quotes each
    signal line whole whichever chunk holds it, so its files do not show
    where a log was cut."""
    bundle_dir = request.getfixturevalue(bundle)
    partition = logexpert.partition
    cutting = threading.local()  # the log partition is cutting on this thread

    def run(out: pathlib.Path) -> tuple[dict[str, bytes], dict[str, list[str]]]:
        chunks = {}

        def recorded(log, backend):
            cutting.log = log
            chunks[log] = partition(log, backend)
            return chunks[log]

        monkeypatch.setattr(logexpert, "partition", recorded)
        result = CliRunner().invoke(
            main,
            [*ORACLE_ARGS[command], "--scenarios", bundle_dir, "--out-dir", str(out),
             "--malformed-pct", "10"],
        )
        assert result.exit_code == 0, result.output
        files = {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.glob("*/*"))
            if path.name in ("trajectory.jsonl", "result.json")
        }
        return files, chunks

    calls, greedy_calls = Counter(), Counter()  # greedy_calls by log
    for name in ("_greedy_contiguous", "_min_flip_contiguous"):
        repair = getattr(logexpert, name)

        def counted(labels, name=name, repair=repair):
            calls[name] += 1
            if name == "_greedy_contiguous":
                greedy_calls[cutting.log] += 1
            return repair(labels)

        monkeypatch.setattr(logexpert, name, counted)
    fast = run(tmp_path / "fast")
    assert len(fast[0]) == 16 and len(fast[1]) == 8
    if bundle == "long_log_bundle":
        # the input still reaches what long_log_bundle's docstring says it
        # does; each log is a read_log observation, deduplicated already
        for log, chunks in fast[1].items():
            assert len(split_log(log)) > logexpert._EXACT_VERTEX_LIMIT
            assert len(chunks) >= 2
        # a log that no single prompt holds, so its chunk lists compare cuts
        # whichever way partition groups clusters
        assert any(
            len(log) > logexpert.CHUNK_BUDGET and len(chunks) >= 2
            for log, chunks in fast[1].items()
        )
        assert calls["_greedy_contiguous"] >= 1 and calls["_min_flip_contiguous"] >= 1
        # what holds of the over-budget logs alone, however many chunks a log
        # that fits one prompt is cut into: each is cut, and the greedy
        # repair cuts at least one
        over_budget = {
            log: chunks for log, chunks in fast[1].items() if len(log) > logexpert.CHUNK_BUDGET
        }
        assert all(len(chunks) >= 2 for chunks in over_budget.values())
        assert any(greedy_calls[log] >= 1 for log in over_budget)
    for module, name, oracle in [
        (tools, "deduplicate_entries", lambda entries: dedup_reference(entries, DEDUP_THRESHOLD)),
        (logexpert, "build_graph", lambda lines, embeddings: per_edge_build_graph(
            lines, embeddings, logexpert.DEFAULT_WINDOW, logexpert.DEFAULT_TAU)),
        (logexpert, "louvain", _oracle_louvain),
        (logexpert, "_min_flip_contiguous", forward_dp_oracle),
        *((module, "json_regen", span_scan_read) for module in (agent, logexpert, codeexpert)),
    ]:
        monkeypatch.setattr(module, name, oracle)
    assert run(tmp_path / "oracle") == fast


def test_tool_documentation_bytes(golden_sandbox):
    doc = render_documentation(golden_sandbox.build_registry(PolicyBackend()))
    assert _sha256(doc) == DOCUMENTATION_SHA256


@pytest.mark.parametrize("mode", list(RUN_SHA256))
def test_run_bytes(golden_sandbox, mode):
    """Each job's greedy trajectory, final result and candidate
    trajectories, in bundle order, at 10% malformed actions and k=10."""
    payloads = []
    for job_id in golden_sandbox.job_ids:
        report = run_with_consistency(
            make_config(job_id),
            golden_sandbox.build_registry,
            PolicyBackend(malformed_pct=10),
            mode=mode,
            k=10,
        )
        payloads.append(
            report.greedy.to_jsonl()
            + json.dumps(report.outcome.result.to_dict(), sort_keys=True)
            + "".join(c.to_jsonl() for c in report.candidates)
        )
    assert _sha256("\n".join(payloads)) == RUN_SHA256[mode]
