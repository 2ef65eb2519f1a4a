"""In-memory spans around coopdyn's layer boundaries, installed from outside.

`Tracer.install()` replaces layer functions with timed wrappers at the
module attribute each caller looks them up through (for example the
kernel-row function in `coopdyn.mfg`, the solver as `coopdyn.harness`
imported it), so no code under src/ changes. A span records name, start,
end, parent span and the id of the `coopdyn` run it belongs to, plus
counts taken at the same boundary. `layer_metrics` turns one pass's spans into per-layer
metrics; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


def _csv_counts(result, args, kwargs):
    path, _header, rows = args
    return {"rows": len(rows), "bytes": Path(path).stat().st_size}


def _kernel_counts(result, args, kwargs):
    # Computed from the returned array's shape, not from the work done to fill it.
    return {"cells": result.size, "bytes": result.nbytes}


def _simulate_counts(result, args, kwargs):
    params = args[0]
    episodes = kwargs.get("episodes", args[2] if len(args) > 2 else None)
    return {"agent_steps": episodes * params.horizon * params.n_agents}


# (module, attribute, span name, counts from (result, args, kwargs)).
# An attribute missing from the program is skipped, so its metrics are
# reported absent rather than as 0.
BOUNDARIES = (
    ("coopdyn.cli", "main", "cli.main", None),
    ("coopdyn.cli", "run", "harness.run",
     lambda r, a, k: {"files": len(r.csv_files) + 2}),  # CSVs + manifest + report
    ("coopdyn.harness", "write_csv", "harness.csv", _csv_counts),
    ("coopdyn.harness", "solve_equilibrium", "mfg.solve",
     lambda r, a, k: {"sweeps": r.iterations}),
    ("coopdyn.harness", "simulate_population", "mfg.simulate", _simulate_counts),
    ("coopdyn.mfg", "bellman_backward", "mfg.backward", None),
    ("coopdyn.mfg", "forward_flow", "mfg.forward", None),
    ("coopdyn.mfg", "softmax_policy", "mfg.softmax", None),
    ("coopdyn.mfg", "best_response_gap", "mfg.certificate", None),
    ("coopdyn.mfg", "_binomial_pmf_rows", "mfg.kernel_build", _kernel_counts),
    ("coopdyn.harness", "tournament", "ipd.tournament", None),
    ("coopdyn.harness", "play_match", "ipd.match",
     lambda r, a, k: {"rounds": len(r.trajectory)}),
    ("coopdyn.ipd", "play_match", "ipd.match",
     lambda r, a, k: {"rounds": len(r.trajectory)}),
    ("coopdyn.harness", "critical_discount", "ipd.threshold", None),
    ("coopdyn.harness", "intersection_episode", "envs.intersection",
     lambda r, a, k: {"rounds": len(r.rounds)}),
    ("coopdyn.harness", "run_dungeon", "envs.dungeon",
     lambda r, a, k: {"rounds": len(r.rounds)}),
    ("coopdyn.envs", "deterministic_assign", "roles.assign", None),
    ("coopdyn.envs", "stochastic_selection", "roles.assign", None),
    ("coopdyn.envs", "delayed_credit", "roles.credit", None),
    ("coopdyn.envs", "fairness_report", "roles.fairness", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one process; `run` is the current run id."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.run = 0
        self.installed: set[str] = set()

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run)
            if counts is not None:
                self.spans[index].counts = counts(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counts in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(name, original, counts))
            self.installed.add(name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                record = {"id": index, "name": span.name, "start": span.start,
                          "end": span.end, "parent": span.parent, "run": span.run,
                          **span.counts}
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the direct children's durations (calls nest, one thread)."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    return own


# metric -> (spans it sums over, what it sums): "time" is span duration,
# "self" is self time, "calls" counts spans, anything else is a span count.
METRICS = {
    "cli.self_s": (("cli.main",), "self"),
    "harness.run_s": (("harness.run",), "time"),
    "harness.self_s": (("harness.run",), "self"),
    "harness.csv_s": (("harness.csv",), "time"),
    "harness.csv_rows": (("harness.csv",), "rows"),
    "harness.csv_bytes": (("harness.csv",), "bytes"),
    "harness.files_written": (("harness.run",), "files"),
    "mfg.solve_s": (("mfg.solve",), "time"),
    "mfg.sweeps": (("mfg.solve",), "sweeps"),
    "mfg.backward_s": (("mfg.backward",), "time"),
    "mfg.backward_calls": (("mfg.backward",), "calls"),
    "mfg.forward_s": (("mfg.forward",), "time"),
    "mfg.forward_calls": (("mfg.forward",), "calls"),
    "mfg.softmax_s": (("mfg.softmax",), "time"),
    "mfg.certificate_s": (("mfg.certificate",), "time"),
    "mfg.kernel_build_s": (("mfg.kernel_build",), "time"),
    "mfg.kernel_builds": (("mfg.kernel_build",), "calls"),
    "mfg.kernel_cells": (("mfg.kernel_build",), "cells"),
    "mfg.kernel_bytes_computed": (("mfg.kernel_build",), "bytes"),
    "mfg.simulate_s": (("mfg.simulate",), "time"),
    "mfg.agent_steps": (("mfg.simulate",), "agent_steps"),
    "ipd.tournament_s": (("ipd.tournament",), "time"),
    "ipd.match_s": (("ipd.match",), "time"),
    "ipd.matches": (("ipd.match",), "calls"),
    "ipd.rounds_played": (("ipd.match",), "rounds"),
    "ipd.threshold_s": (("ipd.threshold",), "time"),
    "envs.intersection_s": (("envs.intersection",), "time"),
    "envs.dungeon_s": (("envs.dungeon",), "time"),
    "envs.self_s": (("envs.intersection", "envs.dungeon"), "self"),
    "envs.rounds": (("envs.intersection", "envs.dungeon"), "rounds"),
    "roles.assign_s": (("roles.assign",), "time"),
    "roles.assign_calls": (("roles.assign",), "calls"),
    "roles.credit_s": (("roles.credit",), "time"),
    "roles.fairness_s": (("roles.fairness",), "time"),
}


def layer_metrics(spans: list[Span], installed: set[str]) -> dict[str, float]:
    """Per-layer totals for one pass. A metric whose boundaries were all
    missing from the program is left out, never reported as 0."""
    totals = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name, "time"] += span.seconds
        totals[span.name, "self"] += own
        totals[span.name, "calls"] += 1
        for key, value in span.counts.items():
            totals[span.name, key] += value
    return {
        metric: sum(totals[name, what] for name in names)
        for metric, (names, what) in METRICS.items()
        if any(name in installed for name in names)
    }
