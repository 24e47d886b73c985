"""Scenario generator and sandbox tool tests: determinism, temporal
soundness of every tool output, and registry composition."""

import collections
import filecmp
import gc
import inspect
import json
import os
import re
import tracemalloc

import pytest

import cloudrca.sandbox as sandbox_module
from cloudrca import PolicyBackend, RepoIndex, Sandbox, generate_scenarios, prompts
from cloudrca.backends import ask
from cloudrca.cli import RunSettings, _opened_backend, run_job
from cloudrca.codeexpert import find_class_file
from cloudrca.errors import ConfigurationError
from cloudrca.sandbox import LOG_LEVELS

from conftest import job_entries

HIDDEN_MARKER = "post-detection entry (must stay hidden)"
# the info tool that returns each log level, independent of the sandbox's table
LOG_TOOL = {"platform": "platform_log", "runtime": "runtime_log", "infrastructure": "infra_log"}


def _walk_files(root):
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


class TestGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ids_a = generate_scenarios(seed=77, count=6, out_dir=str(a))
        ids_b = generate_scenarios(seed=77, count=6, out_dir=str(b))
        assert ids_a == ids_b
        files_a = [os.path.relpath(p, a) for p in _walk_files(a)]
        files_b = [os.path.relpath(p, b) for p in _walk_files(b)]
        assert files_a == files_b
        match, mismatch, errors = filecmp.cmpfiles(a, b, files_a, shallow=False)
        assert mismatch == [] and errors == []

    def test_different_seed_differs(self, tmp_path):
        ids_a = generate_scenarios(seed=1, count=4, out_dir=str(tmp_path / "a"))
        ids_b = generate_scenarios(seed=2, count=4, out_dir=str(tmp_path / "b"))
        assert ids_a != ids_b

    def test_job_id_shape(self, sandbox):
        for job_id in sandbox.job_ids:
            assert job_id.startswith("fj")
            assert len(job_id) == 10
            int(job_id[2:], 16)

    def test_templates_rotate(self, sandbox):
        scenario_ids = [sandbox.job(j).scenario_id for j in sandbox.job_ids]
        assert scenario_ids[:4] == [
            "timeout",
            "oom_config",
            "code_exception",
            "platform_eviction",
        ]
        assert scenario_ids[4:8] == scenario_ids[:4]

    def test_ground_truth_complete(self, sandbox):
        for job_id in sandbox.job_ids:
            record = sandbox.job(job_id)
            gt = record.ground_truth
            assert gt.responsibility in ("User", "Platform")
            for name in ("root_cause", "solution", "evidence"):
                assert getattr(gt, name).strip()

    def test_hidden_entries_exist_on_disk(self, sandbox):
        # each level carries two post-detection entries in the raw files
        job_id = sandbox.job_ids[0]
        detection_time = sandbox.job(job_id).detection_time
        for level in LOG_LEVELS:
            entries = job_entries(sandbox.root, job_id, f"logs.{level}")
            hidden = [e for e in entries if HIDDEN_MARKER in e["text"]]
            assert len(hidden) == 2
            for entry in hidden:
                assert entry["timestamp"] >= detection_time


class TestTemporalSoundness:
    def test_log_text_cuts_at_detection(self, sandbox):
        for job_id in sandbox.job_ids:
            detection_time = sandbox.job(job_id).detection_time
            for level in LOG_LEVELS:
                text = sandbox.job(job_id).texts[LOG_TOOL[level]]
                assert HIDDEN_MARKER not in text
                visible = [
                    e["text"]
                    for e in job_entries(sandbox.root, job_id, f"logs.{level}")
                    if e["timestamp"] < detection_time
                ]
                assert text == "\n".join(visible)

    def test_advisor_text_cuts_at_detection(self, sandbox):
        for job_id in sandbox.job_ids:
            assert HIDDEN_MARKER not in sandbox.job(job_id).texts["advisor_history"]

    def test_signal_lines_remain_visible(self, sandbox):
        # the anomaly signal predates detection, so the cutoff must keep it
        for job_id in sandbox.job_ids:
            record = sandbox.job(job_id)
            level = (
                "infrastructure"
                if record.scenario_id == "platform_eviction"
                else "runtime"
            )
            assert record.ground_truth.evidence in record.texts[LOG_TOOL[level]]


class TestRegistry:
    def test_tool_composition(self, sandbox):
        registry = sandbox.build_registry(PolicyBackend())
        assert {spec.name for spec in registry.specs()} == {
            "runtime_log",
            "platform_log",
            "infra_log",
            "advisor_history",
            "log_agent",
            "code_agent",
            "finalize",
        }

    def test_info_tools_reject_unknown_job(self, sandbox):
        registry = sandbox.build_registry(PolicyBackend())
        for name in ("runtime_log", "platform_log", "infra_log", "advisor_history"):
            handler = registry.handler(name)
            with pytest.raises(ValueError):
                handler({"job_id": "fjdeadbeef"})

    def test_info_tools_are_temporally_sound(self, sandbox):
        registry = sandbox.build_registry(PolicyBackend())
        for job_id in sandbox.job_ids:
            for name in ("runtime_log", "platform_log", "infra_log", "advisor_history"):
                out = registry.handler(name)({"job_id": job_id})
                assert HIDDEN_MARKER not in out


class TestSandboxLoading:
    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Sandbox(str(tmp_path))

    def test_unknown_job_rejected(self, sandbox):
        with pytest.raises(ConfigurationError):
            sandbox.job("fj00000000")

    @pytest.mark.parametrize(
        "job_id",
        [7, None, "", ".", "..", "../victim/esc", "a/b", "/abs", "trailing/", os.sep + "x"],
        ids=["int", "null", "empty", "dot", "dotdot", "escape", "slash", "absolute",
             "trailing-slash", "os-sep"],
    )
    def test_job_id_that_is_not_one_path_component_rejected(self, tmp_path, job_id):
        bundle = tmp_path / "bundle"
        [good] = generate_scenarios(seed=5, count=1, out_dir=str(bundle))
        (bundle / "index.json").write_text(json.dumps({"job_ids": [good, job_id]}))
        with pytest.raises(ConfigurationError, match="not a single path component"):
            Sandbox(str(bundle))

    def test_job_id_listed_twice_rejected(self, tmp_path):
        bundle = tmp_path / "bundle"
        job_ids = generate_scenarios(seed=5, count=2, out_dir=str(bundle))
        (bundle / "index.json").write_text(json.dumps({"job_ids": [*job_ids, job_ids[0]]}))
        with pytest.raises(ConfigurationError, match="twice"):
            Sandbox(str(bundle))

    def test_code_repo_binding(self, sandbox):
        index = sandbox.repo_index
        path = find_class_file(index, "AdvisorService")
        assert path is not None and path.endswith("AdvisorService.java")
        assert index.is_external("org.apache.sls.Client")

    def test_registries_share_one_repo_index(self, scenario_dir, monkeypatch):
        builds = []
        real_build = RepoIndex.build

        def build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(RepoIndex, "build", build)
        fresh = Sandbox(scenario_dir)
        for _ in range(2):
            handler = fresh.build_registry(PolicyBackend()).handler("code_agent")
            assert inspect.getclosurevars(handler).nonlocals["index"] is fresh.repo_index
        assert len(builds) == 1

    def test_each_job_file_read_once(self, scenario_dir, monkeypatch):
        reads = collections.Counter()
        real_read = sandbox_module.read_jsonl

        def read(path, keys):
            reads[path] += 1
            return real_read(path, keys)

        monkeypatch.setattr(sandbox_module, "read_jsonl", read)
        fresh = Sandbox(scenario_dir)
        job_id = fresh.job_ids[0]
        for _ in range(3):
            fresh.job(job_id)
            for level in LOG_LEVELS:
                fresh.job(job_id).texts[LOG_TOOL[level]]
            fresh.job(job_id).texts["advisor_history"]
        assert len(reads) == len(LOG_LEVELS) + 1
        assert set(reads.values()) == {1}

    def test_failed_parse_is_not_cached(self, tmp_path):
        bundle = tmp_path / "bundle"
        job_id = generate_scenarios(seed=5, count=1, out_dir=str(bundle))[0]
        advisor = bundle / job_id / "advisor.jsonl"
        good = advisor.read_text()
        advisor.write_text("{not json\n")
        fresh = Sandbox(str(bundle))
        for _ in range(2):
            with pytest.raises(ValueError):
                fresh.job(job_id)
        advisor.write_text(good)
        assert fresh.job(job_id).texts["advisor_history"]

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"{not json", "Expecting property name"),
            (b'{"timestamp": "T000000000001", "text": "\xff"}', "can't decode byte 0xff"),
            (b'["T000000000001", "text"]', "entry is not an object"),
            (b'{"text": "x"}', "entry has no string 'timestamp'"),
            (b'{"timestamp": 17, "text": "x"}', "entry has no string 'timestamp'"),
            (b'{"timestamp": "T000000000001"}', "entry has no string 'text'"),
            (b'{"timestamp": "T000000000001", "text": null}', "entry has no string 'text'"),
        ],
        ids=["not-json", "not-utf-8", "not-object", "no-timestamp", "int-timestamp", "no-text", "null-text"],
    )
    def test_malformed_entry_names_its_file_and_line(self, tmp_path, line, reason):
        bundle = tmp_path / "bundle"
        [job_id] = generate_scenarios(seed=5, count=1, out_dir=str(bundle))
        path = bundle / job_id / "logs.platform.jsonl"
        lines = path.read_bytes().splitlines()
        # a blank line still counts in the numbering
        lines[1:1] = [b"", line]
        path.write_bytes(b"\n".join(lines) + b"\n")
        fresh = Sandbox(str(bundle))
        for _ in range(2):  # a failed load is not cached
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(reason)):
                fresh.job(job_id)

    def test_runtime_log_line_nested_too_deep_names_its_file_and_line(self, tmp_path):
        bundle = tmp_path / "bundle"
        [job_id] = generate_scenarios(seed=5, count=1, out_dir=str(bundle))
        path = bundle / job_id / "logs.runtime.jsonl"
        path.write_bytes(b"[" * 200_000 + b"\n" + path.read_bytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: maximum recursion depth")):
            Sandbox(str(bundle)).job(job_id)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda gt: b"{not json", "Expecting property name"),
            (lambda gt: b'{"detection_time": "\xff"}', "can't decode byte 0xff"),
            (lambda gt: json.dumps([gt]).encode(), "entry is not an object"),
            (lambda gt: json.dumps({k: v for k, v in gt.items() if k != "detection_time"}).encode(),
             "entry has no string 'detection_time'"),
            (lambda gt: json.dumps({**gt, "detection_time": 5}).encode(),
             "entry has no string 'detection_time'"),
            (lambda gt: json.dumps({k: v for k, v in gt.items() if k != "scenario_id"}).encode(),
             "entry has no string 'scenario_id'"),
            (lambda gt: b"[" * 200_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-json", "not-utf-8", "not-object", "no-detection-time", "int-detection-time",
             "no-scenario-id", "nested-too-deep"],
    )
    def test_malformed_ground_truth_names_its_file(self, tmp_path, edit, reason):
        bundle = tmp_path / "bundle"
        [job_id] = generate_scenarios(seed=5, count=1, out_dir=str(bundle))
        path = bundle / job_id / "ground_truth.json"
        good = path.read_text()
        path.write_bytes(edit(json.loads(good)))
        fresh = Sandbox(str(bundle))
        for _ in range(2):  # a failed load is not cached
            with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(reason)):
                fresh.job(job_id)
        path.write_text(good)
        assert fresh.job(job_id).detection_time


class TestRetainedMemory:
    def test_a_loaded_job_keeps_little_beyond_its_tool_visible_text(self, tmp_path):
        # post-detection entries and per-entry records are never kept
        generate_scenarios(seed=1234, count=50, out_dir=str(tmp_path / "bundle"))
        bundle = Sandbox(str(tmp_path / "bundle"))
        gc.collect()
        tracemalloc.start()
        try:
            for job_id in bundle.job_ids:
                bundle.job(job_id)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        visible = sum(
            len(text.encode("utf-8"))
            for job_id in bundle.job_ids
            for text in [
                *(bundle.job(job_id).texts[LOG_TOOL[level]] for level in LOG_LEVELS),
                bundle.job(job_id).texts["advisor_history"],
            ]
        )
        assert retained <= visible + 2048 * len(bundle.job_ids)


class TestPolicyRouting:
    """The scripted policy tells model calls apart by their system prompt,
    so rewording an instruction leaves every run's result as it was."""

    def test_a_summary_request_without_pairs_finds_no_anomaly(self):
        reply = ask(PolicyBackend(), prompts.LOG_SUMMARY_SYSTEM, prompts.LOG_SUMMARY_INSTRUCTION)
        assert json.loads(reply) == {"interpretation": "No anomaly found.", "evidence": ""}

    def test_results_do_not_depend_on_instruction_wording(self, tmp_path, monkeypatch):
        generate_scenarios(seed=4242, count=4, out_dir=str(tmp_path / "bundle"))
        bundle = Sandbox(str(tmp_path / "bundle"))
        runs = [
            RunSettings(malformed_pct=10),
            RunSettings(mode="tsc", k=3, aggregate="llm_aggregate", malformed_pct=10),
        ]

        def results():
            out = []
            for settings in runs:
                with _opened_backend(settings) as backend:
                    out += [
                        run_job(settings, bundle, job_id, backend).outcome.result
                        for job_id in bundle.job_ids
                    ]
            return out

        before = results()
        monkeypatch.setattr(
            prompts, "LOG_SUMMARY_INSTRUCTION", "Condense these log findings into one."
        )
        monkeypatch.setattr(
            prompts, "AGGREGATE_INSTRUCTION", "Combine the candidates into one answer."
        )
        assert results() == before
