"""Golden output bytes.

The files of a fixed 8-job bundle, the rendered tool documentation and
the trajectories and results of that bundle are hashed and compared with
literals, so a change to any bundle, prompt or trajectory byte fails here
and not only in the benchmark digests.  A deliberate output change updates
the literals in the same commit and says why.
"""

import hashlib
import json
import pathlib

import pytest

from cloudrca import PolicyBackend, Sandbox, generate_scenarios
from cloudrca.consistency import run_with_consistency
from cloudrca.tools import render_documentation

from conftest import make_config

BUNDLE_SHA256 = "9ddb11eb9da2467ffb785b1513855ab705c80bd4867543172d63d047fc324af5"

DOCUMENTATION_SHA256 = "3e115414df67131d5e810d0e2b4c14120408c7ee0716392a2cb9709807c36b08"

RUN_SHA256 = {
    "greedy": "a65bd39348968f282a7308523694501e31595cb342d6a6550ae1e2ebd7cf209b",
    "sc": "266268276c8b34d11848d22db833fa20020b3130d1ed647dd9ec71368ef13079",
    "tsc": "266268276c8b34d11848d22db833fa20020b3130d1ed647dd9ec71368ef13079",
    "sample-full": "5cba937e97940206e4955e29b0b1fd64b7992ce9a31e95b0bae8f3f3b3348bf6",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    root = pathlib.Path(golden_bundle)
    digest = hashlib.sha256()
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    for rel in files:
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\n{len(data)}\n".encode("utf-8") + data)
    assert digest.hexdigest() == BUNDLE_SHA256


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
