"""The benchmark's workloads: generated configs, one repeat through
`polystar.cli.main`, and the correctness gate on what the repeat emitted.

Every workload runs the public CLI in-process: `check` at the default
N = 1024, `ladder` and `sweep` at N = TIME_LOOP_NODES.  The program sees only the generated config file; the workload seed moves the inputs a
little, so that no change can be tuned to one exact input.  Seed 0 gives
the default inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0
CHECK_SEED = 20240802  # experiment.seed of the default config

# Acceptance criterion 09: fitted rate within 2 % of sqrt(mu0), escape time
# at 2 theta0 within 5 % of ln(2 theta0/delta)/sqrt(mu0).
RATE_TOL = 0.02
ESCAPE_TOL = 0.05

# The seed moves the ladder's deltas down within a tenth of their decade.
# delta 1e-3 cannot move up: its fit window [3 delta, theta0/3] would hold
# too few samples.  The two shifts add up to the same tenth of a decade,
# so the simulated time, and with it wall_s, does not depend on the seed.
DELTA_SHIFT = 0.1
# The seed moves each unstable gamma by up to this much, inside
# [1.25, 1.32].  Escape time grows like 1/sqrt(mu0), and mu0 falls fast
# towards 4/3, so a wider move would make wall_s a function of the seed.
GAMMA_SHIFT = 0.002
STABLE_GAMMAS = [4.0 / 3.0, 1.4, 5.0 / 3.0, 2.0]

# Mesh size of the two time-loop workloads.  At N = 1024 one ladder or
# sweep repeat takes 16-24 s on a shared 2-core host, so a run holds one
# repeat and the host's bursts of contention set its time.  At N = 256 a
# repeat takes 2-4 s and a run holds 7-11, whose median is steadier.  The
# loop is still bound by numpy dispatch, the gates of criterion 09 still
# hold (rate and escape errors about 0.5 %), and N = 128 is too coarse:
# delta 1e-3's fit window holds too few samples.
TIME_LOOP_NODES = 256


def ladder_config(seed: int) -> dict:
    deltas = [1e-3, 1e-4]
    if seed != DEFAULT_SEED:
        u = random.Random(f"ladder:{seed}").random()
        deltas = [1e-3 * 10 ** (-DELTA_SHIFT * u), 1e-4 * 10 ** (-DELTA_SHIFT * (1.0 - u))]
    return {"mesh": {"n_nodes": TIME_LOOP_NODES}, "experiment": {"kind": "instability", "deltas": deltas}}


def unstable_gammas(seed: int) -> list:
    if seed == DEFAULT_SEED:
        return [1.25, 1.3, 1.32]
    rng = random.Random(f"sweep:{seed}")
    return [
        1.25 + GAMMA_SHIFT * rng.random(),
        1.3 + GAMMA_SHIFT * (2.0 * rng.random() - 1.0),
        1.32 - GAMMA_SHIFT * rng.random(),
    ]


def sweep_config(seed: int) -> dict:
    return {
        "mesh": {"n_nodes": TIME_LOOP_NODES},
        "experiment": {
            "kind": "sweep",
            "gammas": unstable_gammas(seed) + STABLE_GAMMAS,
            "delta": 1e-4,
        }
    }


def check_config(seed: int) -> dict:
    """The default battery; other seeds move gamma by up to GAMMA_SHIFT.

    experiment.seed stays at its default.  The battery's conservation run
    starts from random data of that seed, and `zeta**3` in
    cell_jacobian_minus_one costs about 25 times more on negative entries,
    so the battery's wall time depends on the signs the seed draws: from
    0.76 s to 1.49 s over ten seeds on a 2-core x86 machine with numpy 2.4.
    Varying it would make wall_s a function of the seed; the default draws
    the slow path.
    """
    config = {"experiment": {"kind": "check", "seed": CHECK_SEED}}
    if seed != DEFAULT_SEED:
        u = random.Random(f"check:{seed}").random()
        config["polytrope"] = {"gamma": 1.3 + GAMMA_SHIFT * (2.0 * u - 1.0)}
    return config


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[int], dict]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ladder",
            "instability",
            ladder_config,
            # The paper's headline experiment.  Almost all time goes to the
            # recorded RK4 loop, nonlinear and paired linear, and to emitting
            # about 100 snapshot files per delta (12 % of the time at
            # N = 256).  Fused recording and batched ensembles should win.
            "delta ladder at gamma 1.3 and N 256: recorded nonlinear and paired linear time loop plus snapshot emission",
        ),
        Workload(
            "sweep",
            "sweep",
            sweep_config,
            # The same time loop without the linear pair or snapshot files,
            # on a new grid and eigenproblem per gamma; four members are
            # eigen-only.  Gains from sharing one grid, from the pairing or
            # from emission should not show here; batching gammas should.
            "gamma sweep at N 256: one nonlinear run per unstable gamma, a new grid per member, no snapshots",
        ),
        Workload(
            "check",
            "check",
            check_config,
            # Set-up and diagnostics: two profile solves, nested quadrature,
            # the eigen solve with 100 Rayleigh quotients, Hardy families and
            # one short unrecorded RK4 run.  Changes to the recorded loop or
            # to emission should not move it.
            "property battery at N 1024: profile, eigen, quadrature and Hardy diagnostics with a short unrecorded run",
        ),
    )
}


def first_member_gamma(name: str, config: dict):
    """Gamma of the first profile the workload builds (None: the default)."""
    return min(config["experiment"]["gammas"]) if name == "sweep" else None


@dataclass
class Outcome:
    """What one repeat did, read back from the files it emitted."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    sim_tu: float = 0.0
    rate_rel_err: float | None = None
    escape_rel_err: float | None = None
    drift_rel: float | None = None
    counters: dict = field(default_factory=dict)


def run_repeat(workload: Workload, config: dict, work_dir: str) -> Outcome:
    """Write the config, run the CLI on it into a fresh directory, and gate."""
    from polystar import cli

    cfg_path = os.path.join(work_dir, "config.json")
    out_dir = os.path.join(work_dir, "out")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    argv = [workload.command, "--config", cfg_path, "--out", out_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    outcome = Outcome(wall_s=wall)
    files = listing(out_dir)
    outcome.counters = {
        "files": len(files),
        "bytes": sum(files.values()),
        "digest": digest(out_dir, files),
    }
    GATES[workload.name](config, out_dir, files, outcome)
    if code != 0:
        outcome.problems.append(f"exit code {code}")
        outcome.failed = outcome.attempted
    return outcome


def listing(out_dir: str) -> dict:
    """Relative path -> size of every file under out_dir."""
    sizes = {}
    for root, _, names in os.walk(out_dir):
        for n in names:
            p = os.path.join(root, n)
            sizes[os.path.relpath(p, out_dir)] = os.path.getsize(p)
    return sizes


def digest(out_dir: str, files: dict) -> str:
    """sha256 over the sorted relative paths and contents."""
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(out_dir, rel), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _rel_err(value, reference) -> float:
    if value is None or reference is None or not reference:
        return math.inf
    return abs(value - reference) / abs(reference)


def gate_ladder(config: dict, out_dir: str, files: dict, o: Outcome) -> None:
    """One unit per delta: escaped, within criterion 09, its files present."""
    deltas = config["experiment"]["deltas"]
    o.attempted = len(deltas)
    try:
        summary = _load_json(os.path.join(out_dir, "instability_summary.json"))
    except (OSError, ValueError) as exc:
        o.failed = o.attempted
        o.problems.append(f"no summary: {exc}")
        return
    expected = {"instability_summary.json"}
    rate_errs, esc_errs, samples = [], [], 0
    runs = summary["runs"]
    for entry in runs:
        tag = f"delta{entry['delta']:.0e}"
        ok = entry["status"] == "escaped"
        rate_err = _rel_err(entry["fitted_rate"], entry["linear_rate"])
        esc_err = _rel_err(entry["escape_time_double"], entry["predicted_escape"])
        ok &= rate_err <= RATE_TOL and esc_err <= ESCAPE_TOL
        rate_errs.append(rate_err)
        esc_errs.append(esc_err)
        try:
            run = _load_json(os.path.join(out_dir, f"{tag}_run.json"))
            with open(os.path.join(out_dir, f"{tag}_series.csv")) as fh:
                rows = list(csv.reader(fh))[1:]
        except (OSError, ValueError) as exc:
            o.problems.append(f"{tag}: {exc}")
            o.failed += 1
            continue
        samples += run["n_samples"]
        ok &= len(rows) == run["n_samples"]
        # Simulated time: the nonlinear run's last sample, and for its linear
        # partner (not emitted) the crossing of 2 theta0, which pure
        # exponential growth from delta reaches at the predicted time.
        o.sim_tu += float(rows[-1][0]) + (entry["predicted_escape"] or 0.0)
        expected |= {f"{tag}_{n}" for n in ("run.json", "series.csv", "fit.json", "remainder.csv")}
        expected |= {f"{tag}_snapshot_{i:05d}.csv" for i in range(len(run["snapshot_times"]))}
        if not ok:
            o.failed += 1
            o.problems.append(f"{tag}: status {entry['status']}, rate err {rate_err:.3g}, escape err {esc_err:.3g}")
    if len(runs) != len(deltas):
        o.failed += len(deltas) - len(runs)
        o.problems.append(f"{len(runs)} runs for {len(deltas)} deltas")
    if set(files) != expected:
        o.failed = o.attempted
        o.problems.append(f"file set differs: missing {sorted(expected - set(files))[:3]}, extra {sorted(set(files) - expected)[:3]}")
    o.rate_rel_err = max(rate_errs, default=math.inf)
    o.escape_rel_err = max(esc_errs, default=math.inf)
    o.counters["samples"] = samples


def gate_sweep(config: dict, out_dir: str, files: dict, o: Outcome) -> None:
    """One unit per row: unstable gammas escaped within criterion 09's
    bounds; the stable and marginal gammas stable or marginal, with mu0 at
    most the sweep's marginal band 10/N^2 (4/3 has mu0 = 0 exactly, and its
    computed mu0 may fall on either side of 0)."""
    gammas = config["experiment"]["gammas"]
    marginal = 10.0 * config["mesh"]["n_nodes"] ** -2.0
    unstable = set(gammas[:3])
    o.attempted = len(gammas)
    try:
        with open(os.path.join(out_dir, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        o.failed = o.attempted
        o.problems.append(f"no sweep.csv: {exc}")
        return
    rate_errs, esc_errs = [], []
    for row in rows:
        gamma, mu0 = float(row["gamma"]), float(row["mu0"])
        rate_err = esc_err = math.nan
        if gamma in unstable:
            rate_err = _rel_err(float(row["fitted_rate"]), float(row["sqrt_mu0"]))
            esc_err = _rel_err(float(row["escape_time"]), float(row["predicted_escape"]))
            ok = row["status"] == "escaped" and mu0 > 0
            ok &= rate_err <= RATE_TOL and esc_err <= ESCAPE_TOL
            rate_errs.append(rate_err)
            esc_errs.append(esc_err)
            # the run stops at the first sample past the 2 theta0 crossing
            if math.isfinite(float(row["escape_time"])):
                o.sim_tu += float(row["escape_time"])
        else:
            ok = mu0 <= marginal and row["status"] in ("stable", "marginal")
        if not ok:
            o.failed += 1
            o.problems.append(
                f"gamma {gamma}: status {row['status']}, mu0 {mu0:.3g}, "
                f"rate err {rate_err:.3g}, escape err {esc_err:.3g}"
            )
    if sorted(float(r["gamma"]) for r in rows) != sorted(gammas):
        o.failed = o.attempted
        o.problems.append("sweep.csv rows do not match the configured gammas")
    o.rate_rel_err = max(rate_errs, default=math.inf)
    o.escape_rel_err = max(esc_errs, default=math.inf)


def gate_check(config: dict, out_dir: str, files: dict, o: Outcome) -> None:
    """One unit per check; the battery must report all_mandatory_pass."""
    try:
        report = _load_json(os.path.join(out_dir, "check.json"))
    except (OSError, ValueError) as exc:
        o.attempted = o.failed = 1
        o.problems.append(f"no check.json: {exc}")
        return
    checks = report["checks"]
    o.attempted = len(checks)
    o.failed = sum(c["status"] == "fail" for c in checks)
    o.problems += [f"check {c['name']} failed" for c in checks if c["status"] == "fail"]
    if not report["all_mandatory_pass"] or set(files) != {"check.json", "hardy.csv"}:
        o.failed = max(o.failed, 1)
        o.problems.append("battery not passed or file set differs")
    drift = [c["value"] for c in checks if c["name"] == "conservation_drift"]
    o.drift_rel = drift[0] if drift else math.inf


GATES = {"ladder": gate_ladder, "sweep": gate_sweep, "check": gate_check}
