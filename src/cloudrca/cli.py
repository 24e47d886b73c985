"""Command-line entry points: scenario generation, single-job diagnosis,
batch evaluation, and deterministic trajectory replay."""

from __future__ import annotations

import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import click
import yaml

from .agent import AgentConfig
from .backends import HASH_EMBED_MODEL, Backend, HttpBackend, MockBackend
from .consistency import ConsistencyReport, run_with_consistency
from .errors import ConfigurationError
from .metrics import JobOutcome, build_report, export_predictions, fill_baseline
from .mockpolicy import PolicyBackend
from .sandbox import Sandbox, generate_scenarios
from .trajectory import AnalysisResult, Trajectory


@dataclass
class RunSettings:
    backend: str = "mock"
    endpoint: str = ""
    model: str = "default"
    mode: str = "greedy"
    k: int = 10
    aggregate: str = "embedding_vote"
    max_steps: int = 15
    seed: int = 0
    json_regen: bool = True
    malformed_pct: int = 0
    scenarios: str = ""

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSettings":
        names = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in names})


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return yaml.safe_load(fh) or {}


def _make_backend(settings: RunSettings) -> Backend:
    if settings.backend == "mock":
        return PolicyBackend(
            malformed_pct=settings.malformed_pct, seed=settings.seed
        )
    if settings.backend == "http":
        if not settings.endpoint:
            raise ConfigurationError("http backend requires --endpoint")
        api_key = os.environ.get("CLOUDRCA_API_KEY") or os.environ.get(
            "OPENAI_API_KEY", ""
        )
        return HttpBackend(settings.endpoint, settings.model, api_key=api_key)
    raise ConfigurationError(f"unknown backend {settings.backend!r}")


def _agent_config(settings: RunSettings, job_id: str) -> AgentConfig:
    return AgentConfig(
        max_steps=settings.max_steps,
        task_statement=f"Diagnose the anomalous job {job_id}.",
        json_regen_enabled=settings.json_regen,
    )


def run_job(settings: RunSettings, sandbox: Sandbox, job_id: str) -> ConsistencyReport:
    return run_with_consistency(
        _agent_config(settings, job_id),
        sandbox.build_registry,
        _make_backend(settings),
        mode=settings.mode,
        aggregation=settings.aggregate,
        k=settings.k,
    )


def _write_job_artifacts(out_dir: str, job_id: str, settings: RunSettings, report):
    job_out = os.path.join(out_dir, job_id)
    os.makedirs(job_out, exist_ok=True)
    trajectory_path = os.path.join(job_out, "trajectory.jsonl")
    with open(trajectory_path, "w", encoding="utf-8") as fh:
        fh.write(report.greedy.to_jsonl())
    result = {
        "job_id": job_id,
        "passed": report.greedy.passed,
        "mode": settings.mode,
        "result": fill_baseline(report.outcome.result).to_dict(),
        "candidates": [c.result.to_dict() for c in report.candidates],
        "settings": settings.to_dict(),
    }
    with open(os.path.join(job_out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return trajectory_path


@click.group()
def main():
    """Root cause analysis agent for cloud job anomalies."""


def _common_options(fn):
    options = [
        click.option("--backend", type=click.Choice(["mock", "http"]), default=None),
        click.option("--endpoint", default=None, help="OpenAI-compatible base URL"),
        click.option("--model", default=None),
        click.option("--mode", type=click.Choice(["greedy", "sc", "tsc", "sample-full"]), default=None),
        click.option("--k", type=int, default=None, help="consistency sample count"),
        click.option(
            "--aggregate",
            type=click.Choice(["vote", "llm"]),
            default=None,
        ),
        click.option("--max-steps", type=int, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--json-regen/--no-json-regen", default=None),
        click.option("--malformed-pct", type=int, default=None,
                     help="mock only: percent of actions emitted corrupted"),
        click.option("--config", "config_path", default=None, help="YAML/JSON config file"),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _settings_from(config_path, **flags) -> RunSettings:
    """Config file, then flags over it; a bad setting is a usage error before
    any job runs."""
    data = _load_config_file(config_path) if config_path else {}
    if not isinstance(data, dict):
        raise click.UsageError(f"config file {config_path} does not hold a mapping")
    settings = RunSettings.from_dict(data)
    aggregate = flags.pop("aggregate", None)
    for flag, value in flags.items():
        if value is not None:
            setattr(settings, flag, value)
    if aggregate is not None:
        settings.aggregate = "embedding_vote" if aggregate == "vote" else "llm_aggregate"
    for name in ("k", "max_steps"):
        value = getattr(settings, name)
        if type(value) is not int or value < 1:
            raise click.UsageError(f"{name} must be an integer of at least 1")
    return settings


@main.command("gen-scenarios")
@click.option("--seed", type=int, default=0)
@click.option("--count", type=int, default=10)
@click.option("--out-dir", required=True)
def cmd_gen_scenarios(seed, count, out_dir):
    """Generate a deterministic synthetic scenario bundle."""
    job_ids = generate_scenarios(seed, count, out_dir)
    click.echo(f"generated {len(job_ids)} scenarios under {out_dir}")


@main.command("diagnose")
@click.argument("job_id")
@click.option("--scenarios", required=True, help="scenario bundle directory")
@click.option("--out-dir", required=True)
@_common_options
def cmd_diagnose(job_id, scenarios, out_dir, config_path, **flags):
    """Run one job end-to-end; exit 0 iff the trajectory passed."""
    settings = _settings_from(config_path, **flags)
    settings.scenarios = os.path.abspath(scenarios)
    sandbox = Sandbox(settings.scenarios)
    report = run_job(settings, sandbox, job_id)
    _write_job_artifacts(out_dir, job_id, settings, report)
    click.echo(
        f"{job_id}: passed={report.greedy.passed} steps={len(report.greedy.steps)}"
    )
    sys.exit(0 if report.greedy.passed else 1)


@main.command("batch")
@click.option("--scenarios", required=True)
@click.option("--out-dir", required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, help="concurrent jobs")
@click.option("--pass-floor", type=float, default=0.0,
              help="minimum acceptable pass rate in percent (0-100)")
@_common_options
def cmd_batch(scenarios, out_dir, jobs, pass_floor, config_path, **flags):
    """Diagnose every job in a bundle, then write an evaluation report."""
    settings = _settings_from(config_path, **flags)
    # a bad backend setting fails the command before any job runs, instead
    # of becoming one failed row per job
    _make_backend(settings)
    settings.scenarios = os.path.abspath(scenarios)
    sandbox = Sandbox(settings.scenarios)
    if not sandbox.job_ids:
        raise click.ClickException(f"scenario bundle {scenarios} has no jobs")
    os.makedirs(out_dir, exist_ok=True)

    def one(job_id: str) -> JobOutcome:
        outcome = JobOutcome(job_id, Trajectory(), AnalysisResult())
        try:
            outcome.reference = sandbox.job(job_id).ground_truth
            report = run_job(settings, sandbox, job_id)
            _write_job_artifacts(out_dir, job_id, settings, report)
            outcome.trajectory = report.greedy
            outcome.prediction = report.outcome.result
        except Exception as exc:  # one failing job never aborts the batch
            click.echo(f"{job_id}: failed\n{traceback.format_exc()}", err=True)
            outcome.trajectory.diagnostic = f"job failed: {type(exc).__name__}: {exc}"
        return outcome

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(pool.map(one, sandbox.job_ids))

    # one fixed offline scorer, whatever --backend and --seed say, so the
    # scores are a function of (prediction, reference) alone
    report = build_report(outcomes, MockBackend())
    report["scorer"] = HASH_EMBED_MODEL
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    export_predictions(outcomes, os.path.join(out_dir, "predictions.jsonl"))
    click.echo(
        f"pass_rate={report['pass_rate']:.2f} invalid_rate={report['invalid_rate']:.2f}"
    )
    sys.exit(0 if report["pass_rate"] >= pass_floor else 1)


@main.command("replay")
@click.argument("trajectory_file")
def cmd_replay(trajectory_file):
    """Re-run a persisted trajectory deterministically and verify it matches.

    Exits nonzero on the first diverging step (regression guard)."""
    manifest_path = os.path.join(os.path.dirname(trajectory_file), "result.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    settings = RunSettings.from_dict(manifest["settings"])
    sandbox = Sandbox(settings.scenarios)
    with open(trajectory_file, "r", encoding="utf-8") as fh:
        recorded_text = fh.read()
    recorded = Trajectory.from_jsonl(recorded_text)
    report = run_job(settings, sandbox, manifest["job_id"])
    replayed = report.greedy
    for idx, (old, new) in enumerate(zip(recorded.steps, replayed.steps)):
        if old.to_dict() != new.to_dict():
            click.echo(f"divergence at step {idx}")
            sys.exit(1)
    if len(recorded.steps) != len(replayed.steps):
        click.echo(
            f"divergence: step count {len(recorded.steps)} vs {len(replayed.steps)}"
        )
        sys.exit(1)
    if replayed.to_jsonl() != recorded_text:
        click.echo("divergence in trailing result record")
        sys.exit(1)
    click.echo("replay matches recorded trajectory")
    sys.exit(0)


if __name__ == "__main__":
    main()
