"""Command-line interface tests (all against the mock backend)."""

import json
import os

import pytest
import yaml
from click.testing import CliRunner

from cloudrca import cli
from cloudrca.backends import MockBackend
from cloudrca.cli import RunSettings, _settings_from, main
from cloudrca.errors import ConfigurationError, TransportError
from cloudrca.metrics import emb_score
from cloudrca.sandbox import generate_scenarios


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
        settings = _settings_from(str(config), mode="tsc", aggregate="llm")
        assert settings.mode == "tsc"
        assert settings.k == 3
        assert settings.seed == 9
        assert settings.aggregate == "llm_aggregate"


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
        assert manifest["passed"] is True
        assert manifest["result"]["responsibility"] in ("User", "Platform")
        assert (out / job_id / "trajectory.jsonl").exists()

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
        assert manifest["mode"] == "tsc"
        assert len(manifest["candidates"]) == 3

    def test_http_without_endpoint_is_a_configuration_error(
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
        assert result.exit_code == 1
        assert isinstance(result.exception, ConfigurationError)
        assert "--endpoint" in str(result.exception)


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
        result = runner.invoke(
            main,
            [
                "batch",
                "--scenarios",
                scenario_dir,
                "--out-dir",
                str(tmp_path / "out"),
                "--pass-floor",
                "100.1",
            ],
        )
        assert result.exit_code == 1

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
        assert result.exit_code == 1
        assert isinstance(result.exception, ConfigurationError)
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
        ],
        ids=[
            "k-flag",
            "max-steps-flag",
            "k-in-config",
            "k-string-in-config",
            "config-list",
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

        def run_job(settings, bundle, job_id):
            if job_id == broken:
                raise error
            return real_run_job(settings, bundle, job_id)

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
