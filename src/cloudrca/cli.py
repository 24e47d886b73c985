"""Command-line entry points: scenario generation, single-job diagnosis,
batch evaluation, and deterministic trajectory replay."""

from __future__ import annotations

import contextlib
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import click
import yaml

from .agent import DEFAULT_MAX_STEPS, AgentConfig
from .backends import HASH_EMBED_MODEL, Backend, HttpBackend, MockBackend
from .consistency import DEFAULT_K, METHOD_EMBEDDING_VOTE, METHOD_LLM_AGGREGATE, MODES
from .consistency import ConsistencyReport, run_with_consistency
from .errors import ConfigurationError
from .metrics import JobOutcome, build_report, prediction_rows
from .mockpolicy import PolicyBackend
from .sandbox import Sandbox, generate_scenarios
from .structured import json_text, jsonl_text, read_json, write_files
from .trajectory import Trajectory

# --aggregate flag -> the method name result.json records and replay reads back
AGGREGATES = {"vote": METHOD_EMBEDDING_VOTE, "llm": METHOD_LLM_AGGREGATE}
BACKENDS = ("mock", "http")


@dataclass
class RunSettings:
    backend: str = "mock"
    endpoint: str = ""
    model: str = "default"
    mode: str = "greedy"
    k: int = DEFAULT_K
    aggregate: str = METHOD_EMBEDDING_VOTE
    max_steps: int = DEFAULT_MAX_STEPS
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


def _read_mapping(path: str) -> dict:
    """The mapping a --config file holds, JSON by its .json suffix and YAML
    otherwise; a usage error when the file cannot be read or parsed or
    holds no mapping."""
    try:
        if path.endswith(".json"):
            return read_json(path)
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, ValueError, RecursionError, yaml.YAMLError) as exc:
        # RecursionError: YAML nested too deep
        raise click.UsageError(f"cannot read {path}: {exc}")
    # an empty YAML file loads as None: no settings
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise click.UsageError(f"{path} does not hold a mapping")
    return data


@contextlib.contextmanager
def _opened_backend(settings: RunSettings) -> Iterator[Backend]:
    """The backend of one command: the scripted policy for mock, or else an
    http client whose pooled connections are closed when the command is done
    with it, whether or not it raised."""
    if settings.backend == "mock":
        yield PolicyBackend(malformed_pct=settings.malformed_pct, seed=settings.seed)
        return
    api_key = os.environ.get("CLOUDRCA_API_KEY") or os.environ.get("OPENAI_API_KEY", "")
    backend = HttpBackend(settings.endpoint, settings.model, api_key=api_key)
    try:
        yield backend
    finally:
        backend.close()


def _load_sandbox(path: str) -> Sandbox:
    """The scenario bundle at path; a usage error when its index is missing
    or malformed."""
    try:
        return Sandbox(path)
    except ConfigurationError as exc:
        raise click.UsageError(str(exc))


def _require_job(sandbox: Sandbox, job_id: str, scenarios: str) -> None:
    """Stop (exit 1) before any model call when the bundle has no such job."""
    if job_id not in sandbox.job_ids:
        raise click.ClickException(f"job {job_id} is not in scenario bundle {scenarios}")


def _agent_config(settings: RunSettings, job_id: str) -> AgentConfig:
    return AgentConfig(
        max_steps=settings.max_steps,
        task_statement=f"Diagnose the anomalous job {job_id}.",
        json_regen_enabled=settings.json_regen,
    )


def run_job(
    settings: RunSettings, sandbox: Sandbox, job_id: str, backend: Backend
) -> ConsistencyReport:
    return run_with_consistency(
        _agent_config(settings, job_id),
        sandbox.build_registry,
        backend,
        mode=settings.mode,
        aggregation=settings.aggregate,
        k=settings.k,
    )


def _render_job(job_id: str, settings: RunSettings, report: ConsistencyReport) -> dict:
    """The text of each file a job writes, by file name: diagnose and batch
    write it, and replay compares its bytes with the files on disk."""
    result = {
        "job_id": job_id,
        "result": report.outcome.result.to_dict(),
        "candidates": [c.result.to_dict() for c in report.candidates],
        "settings": settings.to_dict(),
    }
    return {
        "trajectory.jsonl": report.greedy.to_jsonl(),
        "result.json": json_text(result),
    }


def _make_out_dir(out_dir: str) -> None:
    """Create --out-dir and its parents; a usage error when the path cannot
    be a directory, as when it or a parent is a file."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise click.BadParameter(str(exc), param_hint="'--out-dir'")


def _trajectory_divergence(recorded: bytes, replayed: bytes) -> str:
    """The message for the first line where two trajectory files differ: the
    replayed file's last line is the result record, the lines before it are
    steps, and recorded lines past all of its lines are extra; none is parsed."""
    old, new = recorded.splitlines(keepends=True), replayed.splitlines(keepends=True)
    line = len(os.path.commonprefix([old, new]))  # lines, not characters
    if line == len(new):
        extra = len(old) - line
        return f"divergence: {extra} extra line{'s' * (extra > 1)} after the result record"
    old_steps, new_steps = max(len(old) - 1, 0), len(new) - 1
    if line < min(old_steps, new_steps):
        return f"divergence at step {line}"
    if old_steps != new_steps:
        return f"divergence: step count {old_steps} vs {new_steps}"
    return "divergence in trailing result record"


@click.group()
def main():
    """Root cause analysis agent for cloud job anomalies."""


def _common_options(fn):
    options = [
        click.option("--backend", type=click.Choice(BACKENDS), default=None),
        click.option("--endpoint", default=None, help="OpenAI-compatible base URL"),
        click.option("--model", default=None),
        click.option("--mode", type=click.Choice(MODES), default=None),
        click.option("--k", type=int, default=None, help="consistency sample count"),
        click.option("--aggregate", type=click.Choice(list(AGGREGATES)), default=None),
        click.option("--max-steps", type=int, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--json-regen/--no-json-regen", default=None),
        click.option("--malformed-pct", type=int, default=None,
                     help="mock only: percent of actions emitted corrupted"),
        click.option("--config", default=None, help="YAML/JSON config file",
                     callback=lambda _ctx, _param, path: _read_mapping(path) if path else {}),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _settings_from(data: dict, **flags) -> RunSettings:
    """Settings from a mapping (a config file's, or result.json's
    ``settings``), then flags over it.  The first setting of a wrong type or
    out of range is a usage error naming it, raised before any job runs."""
    settings = RunSettings.from_dict(data)
    aggregate = flags.pop("aggregate", None)
    for flag, value in flags.items():
        if value is not None:
            setattr(settings, flag, value)
    if aggregate is not None:
        settings.aggregate = AGGREGATES[aggregate]
    # each setting has the type of its default (an int is not a bool here)
    for name, default in RunSettings().to_dict().items():
        if type(getattr(settings, name)) is not type(default):
            raise click.UsageError(f"{name} must be of type {type(default).__name__}")
    for name in ("k", "max_steps"):
        if getattr(settings, name) < 1:
            raise click.UsageError(f"{name} must be at least 1")
    if not 0 <= settings.malformed_pct <= 100:
        raise click.UsageError("malformed_pct must be from 0 to 100")
    for name, allowed in (
        ("backend", BACKENDS), ("mode", MODES), ("aggregate", AGGREGATES.values())
    ):
        if getattr(settings, name) not in allowed:
            raise click.UsageError(f"{name} must be one of {', '.join(allowed)}")
    if settings.backend == "http" and not settings.endpoint:
        raise click.UsageError("http backend requires --endpoint")
    return settings


@main.command("gen-scenarios")
@click.option("--seed", type=int, default=0)
@click.option("--count", type=click.IntRange(min=0), default=10)
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_gen_scenarios(seed, count, out_dir):
    """Generate a deterministic synthetic scenario bundle."""
    _make_out_dir(out_dir)
    job_ids = generate_scenarios(seed, count, out_dir)
    click.echo(f"generated {len(job_ids)} scenarios under {out_dir}")


@main.command("diagnose")
@click.argument("job_id")
@click.option("--scenarios", required=True, help="scenario bundle directory")
@click.option("--out-dir", type=click.Path(), required=True)
@_common_options
def cmd_diagnose(job_id, scenarios, out_dir, config, **flags):
    """Run one job end-to-end; exit 0 iff the trajectory passed."""
    settings = _settings_from(config, **flags)
    settings.scenarios = os.path.abspath(scenarios)
    sandbox = _load_sandbox(settings.scenarios)
    _require_job(sandbox, job_id, scenarios)
    _make_out_dir(out_dir)
    with _opened_backend(settings) as backend:
        report = run_job(settings, sandbox, job_id, backend)
    write_files(os.path.join(out_dir, job_id), _render_job(job_id, settings, report))
    click.echo(
        f"{job_id}: passed={report.greedy.passed} steps={len(report.greedy.steps)}"
    )
    sys.exit(0 if report.greedy.passed else 1)


@main.command("batch")
@click.option("--scenarios", required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, help="concurrent jobs")
@click.option("--pass-floor", type=click.FloatRange(0, 100), default=0.0,
              help="minimum acceptable pass rate in percent (0-100)")
@_common_options
def cmd_batch(scenarios, out_dir, jobs, pass_floor, config, **flags):
    """Diagnose every job in a bundle, then write an evaluation report."""
    settings = _settings_from(config, **flags)
    settings.scenarios = os.path.abspath(scenarios)
    sandbox = _load_sandbox(settings.scenarios)
    if not sandbox.job_ids:
        raise click.ClickException(f"scenario bundle {scenarios} has no jobs")
    _make_out_dir(out_dir)
    # one backend for every job: the mock policy is a pure function of the
    # prompt, and an http backend must accept concurrent calls anyway
    with _opened_backend(settings) as backend:

        def one(job_id: str) -> JobOutcome:
            outcome = JobOutcome(job_id, Trajectory(), None)
            try:
                outcome.reference = sandbox.job(job_id).ground_truth
                report = run_job(settings, sandbox, job_id, backend)
                write_files(os.path.join(out_dir, job_id), _render_job(job_id, settings, report))
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
    predictions = jsonl_text(prediction_rows(outcomes))
    write_files(out_dir, {"report.json": json_text(report), "predictions.jsonl": predictions})
    click.echo(
        f"pass_rate={report['pass_rate']:.2f} invalid_rate={report['invalid_rate']:.2f}"
    )
    sys.exit(0 if report["pass_rate"] >= pass_floor else 1)


@main.command("replay")
@click.argument("trajectory_file", type=click.Path(exists=True, dir_okay=False))
def cmd_replay(trajectory_file):
    """Re-run the job of a persisted trajectory and compare the bytes of its
    trajectory.jsonl and result.json with the files on disk.  Exits 1 on the
    first divergence (regression guard)."""
    manifest_path = os.path.join(os.path.dirname(trajectory_file), "result.json")
    try:
        manifest = read_json(manifest_path, ("job_id",))
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read {manifest_path}: {exc}")
    if not isinstance(manifest.get("settings"), dict):
        raise click.UsageError(f"settings in {manifest_path} is not a mapping")
    job_id = manifest["job_id"]
    settings = _settings_from(manifest["settings"])
    sandbox = _load_sandbox(settings.scenarios)
    _require_job(sandbox, job_id, settings.scenarios)
    with _opened_backend(settings) as backend:
        report = run_job(settings, sandbox, job_id, backend)
    paths = {"trajectory.jsonl": trajectory_file, "result.json": manifest_path}
    for name, text in _render_job(job_id, settings, report).items():
        with open(paths[name], "rb") as fh:
            recorded = fh.read()
        replayed = text.encode()
        if recorded != replayed:
            click.echo(
                _trajectory_divergence(recorded, replayed)
                if name == "trajectory.jsonl"
                else "divergence in result.json"
            )
            sys.exit(1)
    click.echo("replay matches recorded trajectory")
    sys.exit(0)


if __name__ == "__main__":
    main()
