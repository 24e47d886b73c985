"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-greedy --seed 4242 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every metric is printed with its unit, then the last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (spans go to ``.perfbench_out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import cloudrca from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cloudrca", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/cloudrca")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import cloudrca

    if not os.path.realpath(cloudrca.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: cloudrca was imported from {cloudrca.__file__}")


def _print_metrics(title: str, metrics: dict, details: dict):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    for name, value in details.items():
        if name == "job_p90_ms":
            value = (
                f"{value:.6f} ms (n={details['job_p90_samples']} jobs, each at its median run)"
                if value is not None
                else f"not reported: {details['job_p90_samples']} jobs per pass < 100"
            )
        print(f"  {name:36s} {value}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import harness, workloads

    config = workloads.load_config()
    if args.workload not in config["workloads"]:
        known = ", ".join(config["workloads"])
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} (known: {known})")
    wl = workloads.workload(config, args.workload)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        bundle = os.path.join(work_dir, "bundle")
        workloads.make_bundle(config, wl, args.seed, bundle)
        ctx = harness.make_context(config, wl, bundle)
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{wl.name}-{args.seed}.jsonl")
            metrics, details = harness.measure_traced(ctx, args.seconds, spans)
            details["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            metrics, details = harness.measure(ctx, args.seconds, SRC)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    mode = "traced per-layer" if args.trace else "end-to-end"
    _print_metrics(f"{wl.name} seed={args.seed} ({mode}, per job unless stated)", metrics, details)
    print(f"  digest sha256:{harness.run_digest(ctx)}")
    for problem in ctx.problems:
        print(f"  PROBLEM {problem}")
    result = {
        "correct": not ctx.problems,
        "attempted": details["timed_jobs"],
        "failed": details["failed_jobs"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
