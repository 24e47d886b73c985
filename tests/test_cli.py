"""Command-line interface tests, against the mock backend but for
``TestHttpConnectionsClose``, which serves the policy over HTTP."""

import json
import os
import shutil
import threading

import pytest
import yaml
from click.testing import CliRunner

from cloudrca import cli
from cloudrca.backends import MockBackend
from cloudrca.cli import RunSettings, _read_mapping, _settings_from, _trajectory_divergence, main
from cloudrca.errors import TransportError
from cloudrca.sandbox import generate_scenarios

from oracles import emb_score
from policy_server import PolicyServer


@pytest.fixture
def runner():
    return CliRunner()


class TestRunSettings:
    def test_roundtrip(self):
        settings = RunSettings(mode="tsc", k=5, malformed_pct=10)
        assert RunSettings.from_dict(settings.to_dict()) == settings

    def test_from_dict_ignores_unknown_keys(self):
        settings = RunSettings.from_dict({"mode": "sc", "unrelated": True})
        assert settings.mode == "sc"

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump({"mode": "sc", "k": 3, "seed": 9}))
        settings = _settings_from(_read_mapping(str(config)), mode="tsc", aggregate="llm")
        assert settings.mode == "tsc"
        assert settings.k == 3
        assert settings.seed == 9
        assert settings.aggregate == "llm_aggregate"

    def test_empty_config_file_holds_no_settings(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("")
        assert _settings_from(_read_mapping(str(config))) == RunSettings()


class TestGenScenarios:
    def test_writes_bundle(self, runner, tmp_path):
        out = tmp_path / "bundle"
        result = runner.invoke(
            main, ["gen-scenarios", "--seed", "5", "--count", "3", "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "generated 3 scenarios" in result.output
        index = json.loads((out / "index.json").read_text())
        assert len(index["job_ids"]) == 3

    def test_negative_count_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "bundle"
        result = runner.invoke(main, ["gen-scenarios", "--count", "-3", "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_zero_count_writes_an_empty_bundle(self, runner, tmp_path):
        out = tmp_path / "bundle"
        result = runner.invoke(main, ["gen-scenarios", "--count", "0", "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "index.json").read_text())["job_ids"] == []


class TestDiagnose:
    def test_pass_exits_zero(self, runner, scenario_dir, tmp_path, sandbox):
        job_id = sandbox.job_ids[0]
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "diagnose",
                job_id,
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert f"{job_id}: passed=True" in result.output
        manifest = json.loads((out / job_id / "result.json").read_text())
        trailer = (out / job_id / "trajectory.jsonl").read_text().splitlines()[-1]
        assert json.loads(trailer)["passed"] is True
        assert manifest["result"]["responsibility"] in ("User", "Platform")
        assert (out / job_id / "trajectory.jsonl").exists()

    def test_lone_surrogate_in_a_log_line(self, runner, tmp_path):
        # json.loads turns "\ud800" in a log line into a lone surrogate, which
        # reaches the snapshot key and the log expert's embedding
        bundle = tmp_path / "bundle"
        [job_id] = generate_scenarios(seed=4242, count=1, out_dir=str(bundle))
        path = bundle / job_id / "logs.runtime.jsonl"
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        first["text"] += "\ud800"
        path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["diagnose", job_id, "--scenarios", str(bundle), "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert f"{job_id}: passed=True" in result.output
        trailer = (out / job_id / "trajectory.jsonl").read_text().splitlines()[-1]
        assert json.loads(trailer)["passed"] is True

    def test_unknown_job_exits_nonzero(self, runner, scenario_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "diagnose",
                "fj00000000",
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 1

    def test_unknown_job_stops_before_any_model_call(
        self, runner, scenario_dir, tmp_path, monkeypatch
    ):
        def run_job(*args):
            raise AssertionError("run_job called for an unknown job")

        monkeypatch.setattr(cli, "run_job", run_job)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["diagnose", "fjdeadbeef", "--scenarios", scenario_dir, "--out-dir", str(out)],
        )
        assert result.exit_code == 1
        assert "fjdeadbeef" in result.output
        assert not out.exists()

    def test_tsc_mode_records_candidates(self, runner, scenario_dir, tmp_path, sandbox):
        job_id = sandbox.job_ids[1]
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "diagnose",
                job_id,
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(out),
                "--mode",
                "tsc",
                "--k",
                "3",
            ],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / job_id / "result.json").read_text())
        assert manifest["settings"]["mode"] == "tsc"
        assert len(manifest["candidates"]) == 3

    def test_http_without_endpoint_is_a_usage_error(
        self, runner, scenario_dir, tmp_path, sandbox
    ):
        result = runner.invoke(
            main,
            [
                "diagnose",
                sandbox.job_ids[0],
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(tmp_path / "out"),
                "--backend",
                "http",
            ],
        )
        assert result.exit_code == 2, result.output
        assert "--endpoint" in result.output
        assert not (tmp_path / "out").exists()

    def test_unknown_backend_in_config_is_a_usage_error(
        self, runner, scenario_dir, tmp_path, sandbox
    ):
        path = tmp_path / "run.yaml"
        path.write_text("backend: foo\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["diagnose", sandbox.job_ids[0], "--scenarios", scenario_dir,
             "--out-dir", str(out), "--config", str(path)],
        )
        assert result.exit_code == 2, result.output
        assert "backend must be one of mock, http" in result.output
        assert not out.exists()


class TestBatch:
    def test_report_and_floor(self, runner, scenario_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "batch",
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(out),
                "--pass-floor",
                "95",
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["pass_rate"] == 100.0
        predictions = (out / "predictions.jsonl").read_text().splitlines()
        assert len(predictions) == len(report["jobs"]) * 4

    def test_floor_failure_exits_nonzero(self, runner, scenario_dir, tmp_path):
        # one step cannot both gather evidence and finalize, so no job passes
        result = runner.invoke(
            main,
            [
                "batch",
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(tmp_path / "out"),
                "--max-steps",
                "1",
                "--pass-floor",
                "50",
            ],
        )
        assert result.exit_code == 1, result.output
        assert "pass_rate=0.00" in result.output

    @pytest.mark.parametrize("floor", ["150", "-5", "100.1"])
    def test_floor_out_of_range_is_a_usage_error(self, runner, scenario_dir, tmp_path, floor):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["batch", "--scenarios", scenario_dir, "--out-dir", str(out), "--pass-floor", floor],
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_zero_jobs_is_a_usage_error(self, runner, scenario_dir, tmp_path):
        result = runner.invoke(
            main,
            ["batch", "--scenarios", scenario_dir, "--out-dir", str(tmp_path / "out"),
             "--jobs", "0"],
        )
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

    def test_http_without_endpoint_fails_before_any_job(self, runner, scenario_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["batch", "--scenarios", scenario_dir, "--out-dir", str(out), "--backend", "http"],
        )
        assert result.exit_code == 2, result.output
        assert not (out / "report.json").exists()

    def test_scores_use_the_fixed_offline_scorer(self, runner, scenario_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["batch", "--scenarios", scenario_dir, "--out-dir", str(out), "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["scorer"] == "mock-hash"
        rows = [row for row in report["jobs"] if row["reference"] is not None]
        scorer = MockBackend()
        for name, scores in report["fields"].items():
            if name == "responsibility":
                continue
            expected = [
                emb_score(row["prediction"][name], row["reference"][name], scorer)
                for row in rows
            ]
            assert scores["emb_score"] == pytest.approx(sum(expected) / len(expected))


class TestGroundTruthIsNormalized:
    """Ground truth loads by the rule that normalizes every result, so a
    reference written "user " is User and scores as one."""

    def test_padded_responsibility_counts_in_precision(self, runner, tmp_path):
        bundle = tmp_path / "bundle"
        job_ids = generate_scenarios(seed=11, count=2, out_dir=str(bundle))
        wanted = {}
        for job_id in job_ids:
            path = bundle / job_id / "ground_truth.json"
            truth = json.loads(path.read_text())
            wanted[job_id] = truth["responsibility"]
            truth["responsibility"] = truth["responsibility"].lower() + " "
            truth["root_cause"] = "   "
            path.write_text(json.dumps(truth))
        out = tmp_path / "out"
        result = runner.invoke(main, ["batch", "--scenarios", str(bundle), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        for row in report["jobs"]:
            assert row["reference"]["responsibility"] == wanted[row["job_id"]]
            assert row["reference"]["root_cause"] == "Unclear"
            assert row["prediction"]["responsibility"] == wanted[row["job_id"]]
        assert report["fields"]["responsibility"]["precision"] == 100.0


class TestBadSettings:
    """A bad run setting or an empty bundle stops the batch before any job
    runs."""

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--mode", "tsc", "--k", "0"], None),
            (["--max-steps", "0"], None),
            (["--mode", "tsc"], {"k": 0}),
            (["--mode", "tsc"], {"k": "3"}),
            ([], ["mode", "tsc"]),
            ([], []),
            ([], {"mode": "bogus"}),
            ([], {"mode": "tsc", "aggregate": "bogus"}),
            ([], {"seed": "7"}),
            ([], {"malformed_pct": "10"}),
            ([], {"malformed_pct": 101}),
            (["--malformed-pct", "-1"], None),
            ([], {"json_regen": "false"}),
            ([], {"backend": ["mock"]}),
            ([], {"backend": "foo"}),
            ([], {"endpoint": 8080}),
            ([], {"model": None}),
        ],
        ids=[
            "k-flag",
            "max-steps-flag",
            "k-in-config",
            "k-string-in-config",
            "config-list",
            "config-empty-list",
            "mode-in-config",
            "aggregate-in-config",
            "seed-string-in-config",
            "malformed-pct-string-in-config",
            "malformed-pct-above-100-in-config",
            "malformed-pct-negative-flag",
            "json-regen-string-in-config",
            "backend-list-in-config",
            "backend-unknown-in-config",
            "endpoint-int-in-config",
            "model-null-in-config",
        ],
    )
    def test_usage_error(self, runner, scenario_dir, tmp_path, flags, config):
        if config is not None:
            path = tmp_path / "run.yaml"
            path.write_text(yaml.safe_dump(config))
            flags = flags + ["--config", str(path)]
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["batch", "--scenarios", scenario_dir, "--out-dir", str(out), *flags]
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("absent.yaml", None),
            ("run.yaml", "mode: [tsc"),
            ("run.json", '{"k": 3,'),
            ("run.json", "[" * 200_000),
            ("run.yaml", "[" * 200_000),
        ],
        ids=["missing-file", "bad-yaml", "bad-json", "json-too-deep", "yaml-too-deep"],
    )
    def test_unreadable_config_is_a_usage_error(
        self, runner, scenario_dir, tmp_path, monkeypatch, name, text
    ):
        def run_job(*args):
            raise AssertionError("run_job called with an unreadable config")

        monkeypatch.setattr(cli, "run_job", run_job)
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["batch", "--scenarios", scenario_dir, "--out-dir", str(out),
             "--config", str(path)],
        )
        TestUnreadableBundle.assert_usage_error(result, path)
        assert f"cannot read {path}" in result.output
        assert not out.exists()

    def test_bundle_without_jobs(self, runner, tmp_path):
        bundle = tmp_path / "bundle"
        assert generate_scenarios(seed=11, count=0, out_dir=str(bundle)) == []
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["batch", "--scenarios", str(bundle), "--out-dir", str(out)]
        )
        assert result.exit_code == 1
        assert result.output == f"Error: scenario bundle {bundle} has no jobs\n"
        assert not out.exists()


class TestUnreadableBundle:
    """A scenario bundle whose index is missing or malformed is a usage error
    (exit 2, no traceback), raised before any job runs or --out-dir is made."""

    @staticmethod
    def assert_usage_error(result, index_path):
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and str(index_path) in errors[0], result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "index_text",
        [None, "{not json", '{"seed": 1}', '["fj00000000"]', '{"job_ids": "fj00000000"}',
         "[" * 200_000],
        ids=["missing", "unparsable", "no-job-ids", "list", "job-ids-string", "nested-too-deep"],
    )
    def test_batch(self, runner, tmp_path, index_text):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        if index_text is not None:
            (bundle / "index.json").write_text(index_text)
        out = tmp_path / "out"
        result = runner.invoke(main, ["batch", "--scenarios", str(bundle), "--out-dir", str(out)])
        self.assert_usage_error(result, bundle / "index.json")
        assert not out.exists()

    def test_diagnose(self, runner, tmp_path):
        bundle = tmp_path / "nonexistent"
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["diagnose", "fj00000000", "--scenarios", str(bundle), "--out-dir", str(out)]
        )
        self.assert_usage_error(result, bundle / "index.json")
        assert not out.exists()

    def test_replay_of_a_bundle_that_is_gone(self, runner, tmp_path):
        bundle = tmp_path / "bundle"
        [job_id] = generate_scenarios(seed=11, count=1, out_dir=str(bundle))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["diagnose", job_id, "--scenarios", str(bundle), "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        bundle.rename(tmp_path / "moved")
        result = runner.invoke(main, ["replay", str(out / job_id / "trajectory.jsonl")])
        self.assert_usage_error(result, bundle / "index.json")


class TestIndexJobIds:
    """An index job id names a directory in the bundle and in --out-dir, so
    one that is not a single path component, or is listed twice, is a usage
    error before any job runs."""

    @pytest.mark.parametrize("command", ["batch", "diagnose"])
    def test_escaping_id_writes_nothing(self, runner, tmp_path, command):
        bundle = tmp_path / "bundle"
        [job_id] = generate_scenarios(seed=11, count=1, out_dir=str(bundle))
        # a readable job outside the bundle, where "../victim/esc" points
        shutil.copytree(bundle / job_id, tmp_path / "victim" / "esc")
        (bundle / "index.json").write_text(
            json.dumps({"job_ids": ["../victim/esc", job_id, job_id]})
        )
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "runs" / "out"
        args = ["--scenarios", str(bundle), "--out-dir", str(out)]
        args = ["batch", *args] if command == "batch" else ["diagnose", job_id, *args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "'../victim/esc', which is not a single path component" in result.output
        assert sorted(tmp_path.rglob("*")) == before


class TestOutDirIsAFile:
    """An --out-dir naming an existing file, or a path below one, is a usage
    error, raised before any job runs; an existing directory is accepted."""

    @pytest.fixture
    def no_job(self, monkeypatch):
        def run_job(*args):
            raise AssertionError("run_job called with an unusable --out-dir")

        monkeypatch.setattr(cli, "run_job", run_job)

    @staticmethod
    def assert_usage_error(result, path):
        assert result.exit_code == 2, result.output
        assert "--out-dir" in result.output
        assert path.read_text() == "a file"

    def test_gen_scenarios(self, runner, tmp_path):
        path = tmp_path / "taken"
        path.write_text("a file")
        result = runner.invoke(main, ["gen-scenarios", "--count", "1", "--out-dir", str(path)])
        self.assert_usage_error(result, path)

    def test_diagnose(self, runner, scenario_dir, sandbox, tmp_path, no_job):
        path = tmp_path / "taken"
        path.write_text("a file")
        result = runner.invoke(
            main,
            ["diagnose", sandbox.job_ids[0], "--scenarios", scenario_dir, "--out-dir", str(path)],
        )
        self.assert_usage_error(result, path)

    def test_batch(self, runner, scenario_dir, tmp_path, no_job):
        path = tmp_path / "taken"
        path.write_text("a file")
        result = runner.invoke(main, ["batch", "--scenarios", scenario_dir, "--out-dir", str(path)])
        self.assert_usage_error(result, path)

    def test_gen_scenarios_below_a_file(self, runner, tmp_path, monkeypatch):
        def generate_scenarios(*args):
            raise AssertionError("scenarios generated under an unusable --out-dir")

        monkeypatch.setattr(cli, "generate_scenarios", generate_scenarios)
        path = tmp_path / "taken"
        path.write_text("a file")
        result = runner.invoke(
            main, ["gen-scenarios", "--count", "1", "--out-dir", str(path / "sub")]
        )
        self.assert_usage_error(result, path)

    def test_diagnose_below_a_file(self, runner, scenario_dir, sandbox, tmp_path, no_job):
        path = tmp_path / "taken"
        path.write_text("a file")
        result = runner.invoke(
            main,
            ["diagnose", sandbox.job_ids[0], "--scenarios", scenario_dir,
             "--out-dir", str(path / "sub")],
        )
        self.assert_usage_error(result, path)

    def test_batch_below_a_file(self, runner, scenario_dir, tmp_path, no_job):
        path = tmp_path / "taken"
        path.write_text("a file")
        result = runner.invoke(
            main, ["batch", "--scenarios", scenario_dir, "--out-dir", str(path / "sub")]
        )
        self.assert_usage_error(result, path)

    def test_existing_directory_is_accepted(self, runner, scenario_dir, sandbox, tmp_path):
        job_id = sandbox.job_ids[0]
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(
            main, ["diagnose", job_id, "--scenarios", scenario_dir, "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert (out / job_id / "result.json").exists()


class TestBatchJobFailure:
    """A job that raises is recorded as a failed row; the batch goes on."""

    @pytest.mark.parametrize(
        "error",
        [RuntimeError("worker crashed"), TransportError("embed endpoint down")],
        ids=["runtime", "transport"],
    )
    def test_failing_job_becomes_failed_row(
        self, runner, scenario_dir, tmp_path, sandbox, monkeypatch, error
    ):
        broken = sandbox.job_ids[2]
        real_run_job = cli.run_job

        def run_job(settings, bundle, job_id, backend):
            if job_id == broken:
                raise error
            return real_run_job(settings, bundle, job_id, backend)

        monkeypatch.setattr(cli, "run_job", run_job)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["batch", "--scenarios", scenario_dir, "--out-dir", str(out), "--jobs", "2"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        rows = {row["job_id"]: row for row in report["jobs"]}
        assert set(rows) == set(sandbox.job_ids)
        failed = rows.pop(broken)
        assert failed["passed"] is False
        assert failed["steps"] == 0
        assert str(error) in failed["diagnostic"]
        assert failed["prediction"] == {k: "Unclear" for k in failed["prediction"]}
        assert all(row["passed"] for row in rows.values())
        n = len(sandbox.job_ids)
        assert report["pass_rate"] == pytest.approx(100.0 * (n - 1) / n)
        predictions = (out / "predictions.jsonl").read_text().splitlines()
        assert len(predictions) == n * 4

    def test_unreadable_ground_truth_becomes_failed_row(self, runner, tmp_path):
        bundle = tmp_path / "bundle"
        job_ids = generate_scenarios(seed=77, count=3, out_dir=str(bundle))
        (bundle / job_ids[1] / "ground_truth.json").write_text("{not json")
        out = tmp_path / "out"
        result = runner.invoke(main, ["batch", "--scenarios", str(bundle), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = {row["job_id"]: row for row in json.loads((out / "report.json").read_text())["jobs"]}
        assert rows[job_ids[1]]["passed"] is False
        assert rows[job_ids[1]]["reference"] is None
        assert "JSONDecodeError" in rows[job_ids[1]]["diagnostic"]
        assert rows[job_ids[0]]["passed"] and rows[job_ids[2]]["passed"]

    def test_log_entry_without_timestamp_names_its_line_in_the_failed_row(self, runner, tmp_path):
        bundle = tmp_path / "bundle"
        job_ids = generate_scenarios(seed=77, count=2, out_dir=str(bundle))
        path = bundle / job_ids[1] / "logs.runtime.jsonl"
        path.write_text('{"text": "INFO no timestamp"}\n' + path.read_text())
        out = tmp_path / "out"
        result = runner.invoke(main, ["batch", "--scenarios", str(bundle), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = {row["job_id"]: row for row in json.loads((out / "report.json").read_text())["jobs"]}
        assert rows[job_ids[1]]["diagnostic"] == (
            f"job failed: ValueError: {path}:1: entry has no string 'timestamp'"
        )
        assert rows[job_ids[0]]["passed"]


class TestReplay:
    def _diagnose(self, runner, scenario_dir, out, job_id):
        result = runner.invoke(
            main,
            ["diagnose", job_id, "--scenarios", scenario_dir, "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        return os.path.join(str(out), job_id, "trajectory.jsonl")

    def test_match(self, runner, scenario_dir, tmp_path, sandbox):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 0, result.output
        assert "replay matches" in result.output

    def test_divergence_detected(self, runner, scenario_dir, tmp_path, sandbox):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        with open(path) as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[0])
        record["step"]["thought"] = "tampered"
        lines[0] = json.dumps(record, sort_keys=True)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 1
        assert "divergence at step 0" in result.output

    @pytest.mark.parametrize("record", ["result", "candidate"])
    def test_result_json_divergence_detected(
        self, runner, scenario_dir, tmp_path, sandbox, record
    ):
        job_id = sandbox.job_ids[1]
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "diagnose", job_id, "--scenarios", scenario_dir, "--out-dir", str(out),
                "--mode", "tsc", "--k", "3",
            ],
        )
        assert result.exit_code == 0, result.output
        manifest_path = out / job_id / "result.json"
        manifest = json.loads(manifest_path.read_text())
        edited = manifest["result"] if record == "result" else manifest["candidates"][1]
        edited["root_cause"] = "tampered"
        manifest_path.write_text(json.dumps(manifest))
        result = runner.invoke(main, ["replay", str(out / job_id / "trajectory.jsonl")])
        assert result.exit_code == 1
        assert "divergence in result.json" in result.output

    def test_bad_setting_in_result_json_is_a_usage_error(
        self, runner, scenario_dir, tmp_path, sandbox
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        manifest_path = os.path.join(os.path.dirname(path), "result.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["settings"]["malformed_pct"] = "10"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 2, result.output
        assert "malformed_pct must be of type int" in result.output

    def test_http_without_endpoint_in_result_json_is_a_usage_error(
        self, runner, scenario_dir, tmp_path, sandbox
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        manifest_path = os.path.join(os.path.dirname(path), "result.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["settings"]["backend"] = "http"
        manifest["settings"]["endpoint"] = ""
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 2, result.output
        assert "--endpoint" in result.output

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda m: {**m, "settings": ["x"]}, "is not a mapping"),
            (lambda m: {k: v for k, v in m.items() if k != "job_id"}, "'job_id'"),
            (lambda m: {**m, "job_id": 7}, "result.json: entry has no string 'job_id'"),
            (lambda m: [m], "result.json: entry is not an object"),
            (None, "does not exist"),
        ],
        ids=["settings-list", "no-job-id", "job-id-int", "list-file", "missing-trajectory"],
    )
    def test_malformed_inputs_are_usage_errors(
        self, runner, scenario_dir, tmp_path, sandbox, damage, message
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        if damage is None:
            os.remove(path)
        else:
            manifest_path = os.path.join(os.path.dirname(path), "result.json")
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            with open(manifest_path, "w") as fh:
                json.dump(damage(manifest), fh)
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_result_json_nested_too_deep_is_a_usage_error(
        self, runner, scenario_dir, tmp_path, sandbox
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        manifest_path = os.path.join(os.path.dirname(path), "result.json")
        with open(manifest_path, "w") as fh:
            fh.write("[" * 200_000)
        result = runner.invoke(main, ["replay", path])
        TestUnreadableBundle.assert_usage_error(result, manifest_path)

    def test_job_not_in_the_bundle_stops_before_any_model_call(
        self, runner, scenario_dir, tmp_path, sandbox, monkeypatch
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        manifest_path = os.path.join(os.path.dirname(path), "result.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["job_id"] = "fjdeadbeef"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)

        def run_job(*args):
            raise AssertionError("run_job called for a job not in the bundle")

        monkeypatch.setattr(cli, "run_job", run_job)
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"Error: job fjdeadbeef is not in scenario bundle {scenario_dir}\n"
        )

    @pytest.mark.parametrize("entry", ["result", "candidates"])
    def test_result_json_without_an_output_entry_diverges(
        self, runner, scenario_dir, tmp_path, sandbox, entry
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        manifest_path = os.path.join(os.path.dirname(path), "result.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        del manifest[entry]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 1, result.output
        assert "divergence in result.json" in result.output

    @pytest.mark.parametrize(
        "damage",
        [
            lambda lines: [b"not json\n"] + lines[1:],
            lambda lines: [lines[0].replace(b'"observation":', b'"observed":')] + lines[1:],
            lambda lines: [b"\xff\xfe" + lines[0][2:]] + lines[1:],
            lambda lines: [],
        ],
        ids=["not-json", "no-observation", "not-utf8", "empty"],
    )
    def test_damaged_trajectory_is_a_divergence(
        self, runner, scenario_dir, tmp_path, sandbox, damage
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.write(b"".join(damage(lines)))
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "divergence" in result.output

    def test_a_byte_after_the_result_record_is_an_extra_line(
        self, runner, scenario_dir, tmp_path, sandbox
    ):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        with open(path, "ab") as fh:
            fh.write(b"x")
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 1
        assert result.output == "divergence: 1 extra line after the result record\n"

    def test_reordered_keys_diverge_at_their_step(self, runner, scenario_dir, tmp_path, sandbox):
        path = self._diagnose(runner, scenario_dir, tmp_path / "out", sandbox.job_ids[0])
        with open(path) as fh:
            lines = fh.read().splitlines()
        step = json.loads(lines[1])["step"]
        reordered = json.dumps({"step": dict(reversed(list(step.items())))})
        assert reordered != lines[1] and json.loads(reordered) == json.loads(lines[1])
        lines[1] = reordered
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", path])
        assert result.exit_code == 1
        assert "divergence at step 1" in result.output

    def test_job_written_by_batch_replays(self, runner, tmp_path):
        bundle = tmp_path / "bundle"
        job_ids = generate_scenarios(seed=11, count=2, out_dir=str(bundle))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["batch", "--scenarios", str(bundle), "--out-dir", str(out),
             "--mode", "tsc", "--k", "3"],
        )
        assert result.exit_code == 0, result.output
        for job_id in job_ids:
            result = runner.invoke(main, ["replay", str(out / job_id / "trajectory.jsonl")])
            assert result.exit_code == 0, result.output
            assert "replay matches" in result.output


class TestHttpConnectionsClose:
    """A command closes the connections of the http backend it built.  A
    keep-alive server's ``server_close()`` waits for every open connection,
    so it returns at once only when the commands closed theirs.  The test
    holds every backend the commands build, so that only their close, and
    not the collection of a dropped backend, ends a connection."""

    @pytest.mark.parametrize("commands", ["batch", "diagnose-replay"])
    def test_keep_alive_server_closes_after_the_commands(
        self, runner, tmp_path, monkeypatch, commands
    ):
        built = []

        class HeldBackend(cli.HttpBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "HttpBackend", HeldBackend)
        bundle, out = tmp_path / "bundle", tmp_path / "out"
        job_ids = generate_scenarios(seed=4242, count=2, out_dir=str(bundle))
        server = PolicyServer(keep_alive=True)
        serving = threading.Thread(target=server.serve_forever, args=(0.05,))
        serving.start()
        http = ["--backend", "http", "--endpoint", server.url]
        if commands == "batch":
            runs = [["batch", "--scenarios", str(bundle), "--out-dir", str(out), *http]]
        else:
            runs = [
                ["diagnose", job_ids[0], "--scenarios", str(bundle), "--out-dir", str(out), *http],
                ["replay", str(out / job_ids[0] / "trajectory.jsonl")],
            ]
        try:
            for args in runs:
                result = runner.invoke(main, args)
                assert result.exit_code == 0, result.output
        finally:
            closing = threading.Thread(
                target=lambda: (server.shutdown(), server.server_close()), daemon=True
            )
            closing.start()
            closing.join(timeout=3)
            closed = not closing.is_alive()
            # a connection left open is dropped after the handler's timeout
            closing.join(timeout=30)
            serving.join(timeout=30)
        assert closed, "server_close() still waits on an open connection"
        assert len(built) == len(runs)
        assert server.requests > 0
        assert server.in_flight == 0


@pytest.mark.parametrize(
    "recorded, message",
    [
        (b"s0\nX\nr\n", "divergence at step 1"),
        (b"s0\nr\n", "divergence: step count 1 vs 2"),
        (b"s0\ns1\nr\nextra\n", "divergence: 1 extra line after the result record"),
        (b"s0\ns1\nr\nx\ny", "divergence: 2 extra lines after the result record"),
        (b"", "divergence: step count 0 vs 2"),
        (b"s0\ns1\nX\n", "divergence in trailing result record"),
        (b"s0\ns1\nr", "divergence in trailing result record"),
    ],
)
def test_first_differing_line_names_the_divergence(recorded, message):
    assert _trajectory_divergence(recorded, b"s0\ns1\nr\n") == message
