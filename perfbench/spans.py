"""In-memory spans around polystar's public functions, for the traced run.

Each wrapped call records one span (name, start, end, parent span, run
id).  Wrappers are installed where callers look the name up: every
`polystar` module attribute bound to the original function object is
replaced, so `from .evolution import smallness_monitor` in `energetics`
and the global lookup of `nonlinear_accel` inside `evolution.step` are
both seen.  `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# Functions wrapped in the traced run, by module.  `emit_profile`,
# `emit_mode` and `emit_energy_report` are left out: no workload calls them.
TARGETS = {
    "polytrope": [
        "solve_lane_emden",
        "equilibrium_energy",
        "potential_coefficient",
        "vacuum_exponent",
        "substitution_residual",
    ],
    "spectral": ["assemble_pencil", "largest_eigenpair", "rayleigh_quotient"],
    "evolution": [
        "nonlinear_accel",
        "linear_accel",
        "cell_jacobian_minus_one",
        "step",
        "smallness_monitor",
        "conserved_energy",
        "cfl_dt",
    ],
    "energetics": [
        "zero_norm",
        "growth_fit",
        "duhamel_remainder",
        "instant_energy",
        "hardy_check_origin",
        "hardy_check_boundary",
    ],
    "experiments": [
        "run_instability_experiment",
        "evolve_run",
        "sweep",
        "check",
        "emit_run",
        "emit_fit",
        "emit_remainder",
        "emit_instability_summary",
        "emit_sweep",
        "emit_check",
    ],
    "io_utils": ["write_csv", "write_json"],
    "config": ["load_config", "config_hash"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]

# Metrics derived from the spans and the emitted files, beside the
# `<span>.calls`, `<span>.s` and `<span>.self_s` of every wrapped function.
DERIVED = [
    "import_s",
    "io_utils.files",
    "io_utils.bytes",
    "evolution.nonlinear_accel.us_p50",
    "evolution.nonlinear_accel.us_p99",
    "evolution.accel_per_step",
    "experiments.record_share",
    "traced_wall_s",
    "trace_unaccounted_s",
    "trace_overhead",
]

RECORDING = ("evolution.smallness_monitor", "evolution.conserved_energy", "energetics.zero_norm")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    run: int


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        clock, spans, stack = time.perf_counter, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.run)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def install(self) -> None:
        """Replace every polystar module attribute bound to a target."""
        importlib.import_module("polystar.cli")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "polystar" or name.startswith("polystar."))
        ]
        for mod_name, fns in TARGETS.items():
            home = importlib.import_module(f"polystar.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: name,start,end,parent,run."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,run\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.run}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of its interval that the union
    of its children's intervals covers."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(spans: list[Span], traced_wall_s: float, untraced_wall_s: float,
              import_s: float, files: int, nbytes: int) -> dict:
    """The per-module table: calls, inclusive and self seconds of every
    wrapped function, and the derived ratios."""
    self_s = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    incl = dict.fromkeys(SPAN_NAMES, 0.0)
    excl = dict.fromkeys(SPAN_NAMES, 0.0)
    accel_us = []
    for s, own in zip(spans, self_s):
        calls[s.name] += 1
        incl[s.name] += s.end - s.start
        excl[s.name] += own
        if s.name == "evolution.nonlinear_accel":
            accel_us.append((s.end - s.start) * 1e6)

    recording = 0.0
    for s in spans:
        if s.name in RECORDING and s.parent >= 0 and spans[s.parent].name == "experiments.evolve_run":
            recording += s.end - s.start
    evolve = incl["experiments.evolve_run"]
    steps = calls["evolution.step"]
    accels = calls["evolution.nonlinear_accel"] + calls["evolution.linear_accel"]

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = excl[name]
    out.update(
        {
            "import_s": import_s,
            "io_utils.files": files,
            "io_utils.bytes": nbytes,
            "evolution.nonlinear_accel.us_p50": _quantile(accel_us, 50),
            "evolution.nonlinear_accel.us_p99": _quantile(accel_us, 99),
            "evolution.accel_per_step": accels / steps if steps else 0.0,
            "experiments.record_share": (
                (recording + excl["experiments.evolve_run"]) / evolve if evolve else 0.0
            ),
            "traced_wall_s": traced_wall_s,
            "trace_unaccounted_s": traced_wall_s - sum(self_s),
            "trace_overhead": traced_wall_s / untraced_wall_s - 1.0,
        }
    )
    return out
