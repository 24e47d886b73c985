"""In-memory span tracing of the program's layers, from the benchmark side.

Each wrapper is bound to the name its caller looks the function up by
(``cloudrca.tools.deduplicate_entries``, both ``cloudrca.textdist.levenshtein``
and ``cloudrca.logexpert.levenshtein``, and so on), records one span per call
(name, start, end, parent span, job id) and tallies the layer's work counts.
The program itself is not modified; wrappers are removed when tracing ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

Tally = Callable[[Counter, tuple, dict, object], None]


def _tally_run_step(counts, args, kwargs, step):
    counts["agent.invalid_steps"] += bool(step.invalid_flag)


def _tally_adaptive(counts, args, kwargs, generation):
    counts["backends.adaptive_attempts"] += generation.attempts


def _tally_json_regen(counts, args, kwargs, outcome):
    counts[f"structured.stage.{outcome.stage}"] += 1
    counts["structured.regen_attempts"] += outcome.attempts


def _tally_check_errors(counts, args, kwargs, error):
    if error is not None:
        counts[f"tools.rule.{error.rule}"] += 1


def _tally_dedup(counts, args, kwargs, kept):
    counts["tools.dedup_lines_in"] += len(args[0])
    counts["tools.dedup_lines_out"] += len(kept)


def _tally_put(counts, args, kwargs, key):
    counts["snapshots.put_chars"] += len(args[1])


def _tally_levenshtein(counts, args, kwargs, distance):
    counts["textdist.levenshtein_cells"] += len(args[0]) * len(args[1])


def _tally_partition(counts, args, kwargs, chunks):
    counts["logexpert.lines"] += sum(1 for line in args[0].splitlines() if line.strip())
    counts["logexpert.chunks"] += len(chunks)


def _tally_graph(counts, args, kwargs, graph):
    counts["logexpert.graph_edges"] += len(graph.edges)


def _tally_louvain(counts, args, kwargs, assignment):
    # louvain calls _exact_partition on small graphs and runs Louvain levels
    # on the rest; both counts are final when the outer call returns.
    counts["logexpert.louvain_large"] = (
        counts["logexpert.louvain"] - counts["logexpert.exact_partition"]
    )


def _tally_evidence(counts, args, kwargs, accepted):
    counts["logexpert.evidence_kept"] += bool(accepted)


def _tally_candidates(counts, args, kwargs, result):
    counts["consistency.candidates"] += len(result[0] if isinstance(result, tuple) else result)


@dataclass(frozen=True)
class Binding:
    """One wrapped lookup name: ``target`` is ``module:attribute`` or
    ``module:Class.method``; ``required`` lists the workloads on which the
    wrapper must fire at least once."""

    target: str
    span: str
    required: tuple = ("*",)
    tally: Optional[Tally] = None


ALL = ("*",)
GREEDY = ("batch-greedy",)
TSC = ("batch-tsc-live",)
LONGLOG = ("longlog",)
NONE = ()

BINDINGS = [
    Binding("cloudrca:run_with_consistency", "consistency.run_with_consistency"),
    Binding("cloudrca.consistency:run_greedy", "consistency.run_greedy"),
    Binding("cloudrca.consistency:tsc", "consistency.tsc", TSC, _tally_candidates),
    Binding("cloudrca.consistency:sc_stepwise", "consistency.sc_stepwise", NONE, _tally_candidates),
    Binding("cloudrca.consistency:aggregate", "consistency.aggregate", TSC),
    Binding("cloudrca.consistency:run_trajectory", "agent.run_trajectory"),
    Binding("cloudrca.agent:run_step", "agent.run_step", ALL, _tally_run_step),
    Binding("cloudrca.consistency:run_step", "agent.run_step", NONE, _tally_run_step),
    Binding("cloudrca.agent:assemble_prompt", "agent.assemble_prompt"),
    Binding("cloudrca.agent:generate_adaptive", "backends.generate_adaptive", ALL, _tally_adaptive),
    Binding("cloudrca.agent:json_regen", "structured.json_regen", ALL, _tally_json_regen),
    Binding("cloudrca.logexpert:json_regen", "structured.json_regen", ALL, _tally_json_regen),
    Binding("cloudrca.codeexpert:json_regen", "structured.json_regen", NONE, _tally_json_regen),
    Binding("cloudrca.agent:check_errors", "tools.check_errors", ALL, _tally_check_errors),
    Binding("cloudrca.agent:dispatch", "tools.dispatch"),
    Binding("cloudrca.tools:deduplicate_entries", "tools.deduplicate_entries", ALL, _tally_dedup),
    Binding("cloudrca.tools:render_head", "snapshots.render_head"),
    Binding("cloudrca.snapshots:SnapshotStore.put", "snapshots.put", ALL, _tally_put),
    Binding("cloudrca.snapshots:SnapshotStore.resolve_args", "snapshots.resolve_args"),
    Binding("cloudrca.textdist:levenshtein", "textdist.levenshtein", ALL, _tally_levenshtein),
    Binding("cloudrca.logexpert:levenshtein", "textdist.levenshtein", ALL, _tally_levenshtein),
    Binding("cloudrca.logexpert:run_log_expert", "logexpert.run_log_expert"),
    Binding("cloudrca.logexpert:partition", "logexpert.partition", ALL, _tally_partition),
    Binding("cloudrca.logexpert:build_graph", "logexpert.build_graph", ALL, _tally_graph),
    Binding("cloudrca.logexpert:louvain", "logexpert.louvain", ALL, _tally_louvain),
    Binding("cloudrca.logexpert:_exact_partition", "logexpert.exact_partition", GREEDY),
    Binding("cloudrca.logexpert:remove_overlaps", "logexpert.remove_overlaps"),
    Binding("cloudrca.logexpert:_greedy_contiguous", "logexpert.greedy_contiguous", LONGLOG),
    Binding("cloudrca.logexpert:analyze_chunk", "logexpert.analyze_chunk"),
    Binding("cloudrca.logexpert:filter_evidence", "logexpert.filter_evidence"),
    Binding("cloudrca.logexpert:evidence_accepted", "logexpert.evidence_accepted", ALL, _tally_evidence),
    Binding("cloudrca.sandbox:Sandbox.job", "sandbox.job"),
    Binding("cloudrca.sandbox:Sandbox.build_registry", "sandbox.build_registry"),
    Binding("cloudrca:build_report", "metrics.build_report"),
]

# Counters each workload must raise above zero, on top of the bindings.
REQUIRED_COUNTS = {
    "batch-greedy": ("structured.stage.escape_fixed",),
    "batch-tsc-live": ("consistency.branches", "consistency.candidates"),
    "longlog": ("logexpert.louvain_large", "logexpert.evidence_kept"),
}

BRANCHING_SPANS = ("consistency.tsc", "consistency.sc_stepwise")


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@dataclass
class Tracer:
    """Span recorder.  Spans are [name, start, end, parent, job] records kept
    in call order; ``parent`` is the index of the enclosing span or -1."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    job: str = ""
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    def wrap(self, span: str, fn, tally: Optional[Tally] = None, binding: str = ""):
        spans, stack, counts = self.spans, self._stack, self.counts
        binding = binding or span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [span, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                counts[span] += 1
                counts[f"binding:{binding}"] += 1
            if span == "agent.run_trajectory" and parent >= 0:
                if spans[parent][0] in BRANCHING_SPANS:
                    counts["consistency.branches"] += 1
            if tally is not None:
                tally(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Bind every wrapper; targets that no longer exist are recorded in
        ``missing`` (the coverage check then fails) instead of raising."""
        for binding in BINDINGS:
            try:
                owner, attr = _resolve(binding.target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(binding.target)
                continue
            wrapped = self.wrap(binding.span, original, binding.tally, binding.target)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def instrument_backend(self, backend):
        """Wrap one job's metered backend and the stand-in model inside it."""
        inner = backend.inner
        inner.complete = self.wrap("mockpolicy.complete", inner.complete)
        inner.embed = self.wrap("mockpolicy.embed", inner.embed)
        backend.complete = self.wrap("backends.complete", backend.complete)
        backend.embed = self.wrap("backends.embed", backend.embed)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer of span time not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        per_layer: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            per_layer[name.split(".", 1)[0]] += end - start - covered[index]
        return dict(per_layer)

    def inclusive(self) -> dict[str, float]:
        """Seconds per span name, children included."""
        totals: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def coverage_failures(self, workload: str) -> list[str]:
        failures = [f"{target}: not found" for target in self.missing]
        for binding in BINDINGS:
            if binding.target in self.missing:
                continue
            if "*" in binding.required or workload in binding.required:
                if self.counts[f"binding:{binding.target}"] == 0:
                    failures.append(f"{binding.target}: fired 0 times")
        for name in REQUIRED_COUNTS.get(workload, ()):
            if self.counts[name] == 0:
                failures.append(f"{name}: counted 0")
        return failures

    def write(self, path: str):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )
