"""Experiment orchestration: single runs, delta sweeps, gamma sweeps,
and the property-check battery behind the `check` subcommand.

A run freezes its time step at t = 0 and records the energy series every
record_every steps.  The frozen dt is the CFL dt of the initial data
(evolution.cfl_dt at sim.dt_cfl): the state stays small up to the escape
threshold, so the CFL bound at equilibrium keeps its margin.  A
growing-mode run of the ladder or the sweep (growing_mode_member) lowers
it, by at most a factor of 2, until growth_fit's window holds
FIT_WINDOW_SAMPLES samples.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import energetics, evolution, polytrope, spectral
from .config import ExperimentConfig, config_hash
from .errors import PolystarError, RateUnavailable, StatePastVacuumCollapse
from .io_utils import csv_template, write_csv, write_json


@dataclass(eq=False)
class RunRecord:
    """Time series and snapshots of one evolution run, and final, the
    state it ended on: the sample that met its stop when it ended
    escaped, smallness_exceeded or nonfinite, else the last state whose
    acceleration was evaluated, recorded or not."""

    dt: float
    mu0: float
    profile: polytrope.LaneEmdenProfile = field(repr=False)
    times: list = field(default_factory=list)
    E0: list = field(default_factory=list)
    H: list = field(default_factory=list)
    sup_zeta: list = field(default_factory=list)
    sup_zeta_r: list = field(default_factory=list)
    boundary_radius: list = field(default_factory=list)
    exceeded: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    status: str = "running"
    final: evolution.PerturbationState | None = field(default=None, repr=False)

    def series_rows(self):
        for i, t in enumerate(self.times):
            yield (
                t,
                self.E0[i],
                math.sqrt(self.E0[i]),
                self.H[i],
                self.boundary_radius[i],
                self.sup_zeta[i],
                self.sup_zeta_r[i],
                # 0.0 and 1.0 print as 0 and 1: every value takes the float template
                float(self.exceeded[i]),
            )


SERIES_HEADER = [
    "t",
    "E0",
    "sqrtE0",
    "H",
    "boundary_radius",
    "sup_zeta",
    "sup_zeta_r",
    "exceeded",
]

# The columns of sweep.csv, which are also the keys of a sweep() row.
SWEEP_HEADER = [
    "gamma",
    "mu0",
    "sqrt_mu0",
    "fitted_rate",
    "escape_time",
    "predicted_escape",
    "escape_ratio",
    "status",
]


def build_profile(cfg: ExperimentConfig, gamma: float | None = None):
    pc = cfg.polytrope if gamma is None else replace(cfg.polytrope, gamma=gamma)
    return polytrope.solve_lane_emden(pc, n_nodes=cfg.mesh.n_nodes, grading=cfg.mesh.grading)


def build_mode(profile, eig_tol: float):
    return spectral.largest_eigenpair(spectral.assemble_pencil(profile), eig_tol=eig_tol)


# Recorded samples evaluated per vectorized pass of evolve_batch.
RECORD_CHUNK = 32


@dataclass(frozen=True, eq=False)
class Member:
    """One run of a batch; the fields are evolve_run's arguments of the
    same names."""

    profile: polytrope.LaneEmdenProfile
    initial: evolution.PerturbationState
    mu0: float
    stop_amplitude: float | None = None
    t_end: float | None = None
    dt: float | None = None


def evolve_run(
    profile,
    initial: evolution.PerturbationState,
    cfg: ExperimentConfig,
    mu0: float,
    stop_amplitude: float | None = None,
    t_end: float | None = None,
    dt: float | None = None,
    max_steps: int = 5_000_000,
) -> RunRecord:
    """March the state with RK4 at a frozen dt, recording the series: the
    one-member batch of evolve_batch, whose docstring gives the stops.  A
    collapse of the first sample propagates."""
    member = Member(profile, initial, mu0, stop_amplitude, t_end, dt)
    (result,) = evolve_batch([member], cfg, max_steps=max_steps)
    if isinstance(result, StatePastVacuumCollapse):
        raise result
    return result


def evolve_batch(members: list, cfg: ExperimentConfig, max_steps: int = 5_000_000) -> list:
    """March every member with RK4 at its own frozen dt, all as one
    (B, N+1) block, recording each member's series.  Returns one RunRecord
    per member, or the StatePastVacuumCollapse its first sample raised.
    Each member's record equals the one a batch of that member alone
    gives, bit for bit: the rows of the block never mix.

    A member stops when a recorded E0 or H is not finite (status
    nonfinite), when the smallness monitor trips theta1
    (smallness_exceeded), when sqrt(E0) reaches its stop_amplitude
    (escaped), on collapse (collapsed), after max_steps steps short of
    its t_end (max_steps), or at its t_end (completed).  A sample that
    meets several stops reports the first in this order, and the first
    sample stops only when it is not finite.  A stopped member leaves the
    block, so the block shrinks as the run goes on.

    Members share N and cfg.  Each steps on its own profile's grid (one
    FlatRows lays out the rows), with its own dt, which fills its row of a
    (B, N+1) block, and its own time.

    The block always holds each member's state with its acceleration
    (_Batch): a step ends by evaluating the acceleration of the state it
    reaches, which is the next step's k1 and, when the step is recorded,
    the sample's.  A collapse, in a stage or in that state, ends only its
    members, and the others redo the step from the block as it was.  So
    the state a run ends on has been evaluated, recorded or not: a run
    whose last state collapses ends collapsed.  The record keeps a copy of
    that state, or of the sample that met the stop, as its final.

    A recorded sample's zeta, zeta_t and acceleration go into
    (RECORD_CHUNK, N+1) buffers per member, whose E0, H and sup-norms are
    evaluated in one pass over the rows when the buffers are full and when
    the member stops.  The record ends at the first row that meets a stop;
    the steps taken after it are discarded.
    """
    if not members:
        return []
    runs = [_Run(m, cfg) for m in members]
    batch = _Batch(list(runs), [m.initial for m in members], cfg.sim)
    batch.take()
    batch.end_chunk()
    steps = 0
    while batch.runs:
        ended = {
            b: "max_steps" if run.t < run.t_end - 1e-12 else "completed"
            for b, run in enumerate(batch.runs)
            if steps >= max_steps or not run.t < run.t_end - 1e-12
        }
        if ended:
            batch.stop(ended)
            continue
        try:
            batch.step()
        except StatePastVacuumCollapse as exc:
            batch.stop(dict.fromkeys(exc.rows, "collapsed"))
            continue
        steps += 1
        if steps % cfg.sim.record_every:
            continue
        batch.take()
        if batch.n == RECORD_CHUNK:
            batch.end_chunk()
    return [run.result for run in runs]


class _Run:
    """One member's progress in evolve_batch: its record, frozen step,
    end time, stop amplitude, time, buffered sample times and result."""

    def __init__(self, member: Member, cfg: ExperimentConfig):
        self.dt = member.dt
        if self.dt is None:
            self.dt = evolution.cfl_dt(member.initial, member.profile, cfg.sim)
        self.t_end = cfg.sim.t_end if member.t_end is None else member.t_end
        self.stop_amplitude = member.stop_amplitude
        self.t = member.initial.t
        self.times = []  # of the buffered samples
        self.rec = RunRecord(dt=self.dt, mu0=member.mu0, profile=member.profile)
        self.result = None

    def end(self, status: str, t: float, zeta: np.ndarray, zeta_t: np.ndarray) -> None:
        """End the run with status on the state (t, zeta, zeta_t), a copy
        of which is the record's final."""
        self.rec.status = status
        self.rec.final = evolution.PerturbationState(t, zeta.copy(), zeta_t.copy())
        self.result = self.rec

    def record(self, z, zt, ztt, sim: evolution.SimConfig) -> bool:
        """Record the buffered samples (rows of z, zt, ztt) up to the first
        that meets a stop, which ends the run on it; True when one does.
        sim gives theta1 and snapshot_every."""
        rec = self.rec
        disc = rec.profile.discretization
        E0 = [n**2 for n in energetics.zero_norm_rows(z, zt, disc)]
        H = evolution.energy_rows(z, zt, disc).tolist()
        sups = evolution.smallness_rows(z, zt, ztt, disc, sim.theta1)
        sup_zeta, sup_zeta_r, _, _, exceeded = (v.tolist() for v in sups)
        radius = ((1.0 + z[:, -1]) * rec.profile.R).tolist()
        status = None
        for k, t in enumerate(self.times[: len(z)]):
            i = len(rec.times)
            rec.times.append(t)
            rec.E0.append(E0[k])
            rec.H.append(H[k])
            rec.sup_zeta.append(sup_zeta[k])
            rec.sup_zeta_r.append(sup_zeta_r[k])
            rec.boundary_radius.append(radius[k])
            rec.exceeded.append(exceeded[k])
            if i == 0 or (sim.snapshot_every and i % sim.snapshot_every == 0):
                rec.snapshot_times.append(t)
                rec.snapshots.append((z[k].copy(), zt[k].copy()))
            if not (math.isfinite(E0[k]) and math.isfinite(H[k])):
                status = "nonfinite"
            elif i and exceeded[k]:
                status = "smallness_exceeded"
            elif i and self.stop_amplitude is not None and math.sqrt(E0[k]) >= self.stop_amplitude:
                status = "escaped"
            if status:
                self.end(status, t, z[k], zt[k])
                break
        self.times.clear()
        return status is not None


class _Batch:
    """The runs still marching in evolve_batch: their state, one
    C-contiguous (3, B, N+1) block [zeta, zeta_t, a(zeta)] (row b is run
    b's), a spare block of that shape, chunk buffers
    (3, B, RECORD_CHUNK, N+1) of the same three samples, and per block
    layout one FlatRows of the runs' grids and one evolution.Stages.  A
    lone run's rows are a block too, and each run's dt fills its rows of
    the Stages coefficients, so that no product broadcasts a column.
    sim, shared by the runs, gives what recording reads.

    The state block always holds the acceleration of its zeta: __init__
    evaluates it for the first sample, where a collapse becomes that
    run's result, and each step for the state it reaches.  The time loop
    allocates no array until the block shrinks and its layout is
    rebuilt."""

    def __init__(self, runs: list, initial: list, sim: evolution.SimConfig):
        self.runs = runs
        self.sim = sim
        zeta = np.stack([state.zeta for state in initial])
        # the acceleration rows are filled below
        self.state = np.stack([zeta, np.stack([state.zeta_t for state in initial]), zeta])
        self.buffers = np.empty((3, len(runs), RECORD_CHUNK, zeta.shape[1]))
        self.n = 0  # samples buffered per run
        self._layout()
        while self.runs:
            try:
                self.accel(self.state[0], self.state[2])
                break
            except StatePastVacuumCollapse as exc:
                for b in exc.rows:
                    self.runs[b].result = exc
                self.remove(exc.rows)

    def accel(self, zeta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The runs' acceleration of a block of zeta rows, into out."""
        return evolution.nonlinear_accel_rows(zeta, self.flat, out)

    def step(self) -> None:
        """One RK4 step of every run: step_rows and the new zeta's
        acceleration go into the spare block, which then becomes the
        state.  A collapse in either leaves the state as it was."""
        new = self.spare
        evolution.step_rows(self.state, self.stages, self.accel, new[:2])
        self.accel(new[0], new[2])
        self.state, self.spare = new, self.state
        for run in self.runs:
            run.t += run.dt

    def take(self) -> None:
        """Buffer the current sample of every run."""
        self.buffers[:, :, self.n] = self.state
        for run in self.runs:
            run.times.append(run.t)
        self.n += 1

    def flush(self, b: int) -> bool:
        """Record run b's buffered samples; True when one meets a stop,
        which ends the run."""
        return bool(self.n) and self.runs[b].record(*self.buffers[:, b, : self.n], self.sim)

    def end_chunk(self) -> None:
        """Flush every run; the runs that meet a stop leave."""
        stopped = [b for b in range(len(self.runs)) if self.flush(b)]
        self.n = 0
        self.remove(stopped)

    def stop(self, ends: dict) -> None:
        """The rows of ends (row -> status) leave the batch, recording their
        buffered samples first; a run that meets no stop there ends with
        its status on its current state."""
        for b, status in ends.items():
            if not self.flush(b):
                run = self.runs[b]
                run.end(status, run.t, self.state[0, b], self.state[1, b])
        self.remove(list(ends))

    def remove(self, rows: list) -> None:
        keep = [b for b in range(len(self.runs)) if b not in rows]
        if len(keep) == len(self.runs):
            return
        self.runs = [self.runs[b] for b in keep]
        self.buffers = self.buffers[:, keep]
        self.state = self.state.take(keep, axis=1)  # C-contiguous, unlike [:, keep]
        if keep:
            self._layout()

    def _layout(self) -> None:
        """The runs' FlatRows and Stages, and the spare block."""
        B, n = self.state.shape[1:]
        dt = np.repeat([run.dt for run in self.runs], n).reshape(B, n)
        self.stages = evolution.Stages(dt, (B, n))
        self.flat = polytrope.FlatRows.build([run.rec.profile.discretization for run in self.runs])
        self.spare = np.empty_like(self.state)


# Samples a growing-mode run aims to put in growth_fit's window, 25 % over
# the fit's minimum.
FIT_WINDOW_SAMPLES = 1.25 * energetics.MIN_FIT_SAMPLES


def growing_mode_member(profile, mode, delta: float, cfg: ExperimentConfig) -> Member:
    """The run from delta times the growing mode that stops at 2 theta0.

    Its dt is the CFL dt of its initial data, capped so that growth_fit's
    window [3 delta, theta0/3], which lasts about ln(theta0 / (9 delta)) /
    rate, holds FIT_WINDOW_SAMPLES samples.  The cap never lowers dt by
    more than a factor of 2, and a delta whose window is empty (delta at
    or above theta0/9) keeps the CFL dt."""
    theta0 = cfg.experiment.theta0
    initial = evolution.mode_initial_state(mode, delta)
    dt = evolution.cfl_dt(initial, profile, cfg.sim)
    window = math.log(theta0 / (9.0 * delta)) / mode.rate
    if window > 0.0:
        dt = max(0.5 * dt, min(dt, window / (FIT_WINDOW_SAMPLES * cfg.sim.record_every)))
    return Member(profile, initial, mode.mu0, 2.0 * theta0, dt=dt)


def run_instability_experiment(cfg: ExperimentConfig, delta: float | None = None) -> dict:
    """Growing-mode seeded nonlinear run with growth fit; optionally the
    remainder against the linear approximate solution (duhamel_remainder).

    The run continues past the theta0 crossing up to 2*theta0, where the
    linear-envelope prediction ln(2 theta0/delta)/sqrt(mu0) applies.
    """
    delta = cfg.experiment.delta if delta is None else delta
    return next(instability_ladder(cfg, (delta,)))


def instability_ladder(cfg: ExperimentConfig, deltas=None) -> Iterator[dict]:
    """Yield run_instability_experiment(cfg, delta) for each delta (by
    default cfg.experiment.deltas), in order, from one batch of the
    nonlinear runs of every delta (evolve_batch; the deltas share one
    profile).

    The checks that do not depend on the run (gamma in the unstable range,
    every delta below theta0, a positive mu0) raise before the first
    result.  A delta whose run, fit or remainder fails raises when its
    turn comes, after the earlier deltas' results were yielded.
    """
    exp = cfg.experiment
    deltas = exp.deltas if deltas is None else deltas
    theta0 = exp.theta0
    if cfg.polytrope.gamma >= 4.0 / 3.0:
        raise RateUnavailable(
            f"gamma={cfg.polytrope.gamma} outside the unstable range (6/5, 4/3)"
        )
    for delta in deltas:
        if delta >= theta0:
            raise PolystarError(
                f"delta={delta} must be well below theta0={theta0} (linear window empty)"
            )
    profile = build_profile(cfg)
    mode = build_mode(profile, cfg.eig.eig_tol)
    if mode.mu0 <= 0:
        raise RateUnavailable(f"largest eigenvalue {mode.mu0} is not positive")

    members = [growing_mode_member(profile, mode, delta, cfg) for delta in deltas]
    for delta, record in zip(deltas, evolve_batch(members, cfg)):
        if not isinstance(record, RunRecord):
            raise record
        fit = energetics.growth_fit(record, delta, theta0)
        out = {"record": record, "fit": fit, "mode": mode, "profile": profile, "delta": delta}
        if exp.pair_linear:
            out["remainder"] = energetics.duhamel_remainder(record, mode, delta)
        yield out


def sweep(cfg: ExperimentConfig) -> list:
    """One row per gamma: eigenvalue, rate, and (when unstable) the
    fitted growth rate and escape diagnostics.  The runs of the unstable
    gammas march as one evolve_batch, each on its own grid.  Rows never
    abort their siblings; failures land in the status column."""
    rows = []
    unstable = []  # (row, member)
    for gamma in sorted(cfg.experiment.gammas):
        row = dict.fromkeys(SWEEP_HEADER, math.nan) | {"gamma": gamma, "status": "ok"}
        try:
            profile = build_profile(cfg, gamma=gamma)
            mode = build_mode(profile, cfg.eig.eig_tol)
            row["mu0"] = mode.mu0
            marginal = abs(mode.mu0) <= 10.0 * profile.n_nodes ** -2.0
            if mode.mu0 > 0 and not marginal:
                row["sqrt_mu0"] = mode.rate
                member = growing_mode_member(profile, mode, cfg.experiment.delta, cfg)
                unstable.append((row, member))
            elif marginal:
                row["status"] = "marginal"
            else:
                row["status"] = "stable"
        except PolystarError as exc:
            row["status"] = f"error:{type(exc).__name__}"
        rows.append(row)
    records = evolve_batch([member for _, member in unstable], cfg)
    for (row, _), rec in zip(unstable, records):
        try:
            if not isinstance(rec, RunRecord):
                raise rec
            fit = energetics.growth_fit(rec, cfg.experiment.delta, cfg.experiment.theta0)
            row["fitted_rate"] = fit.rate
            if fit.escape_time_double is not None:
                row["escape_time"] = fit.escape_time_double
                row["predicted_escape"] = fit.predicted_escape
                row["escape_ratio"] = fit.escape_time_double / fit.predicted_escape
            row["status"] = rec.status
        except PolystarError as exc:
            row["status"] = f"error:{type(exc).__name__}"
    return rows


# ---------------------------------------------------------------------------
# Property-check battery
# ---------------------------------------------------------------------------


def _seeded_coefficients(rng, n: int, degree: int = 6) -> np.ndarray:
    """n seeded rows of degree + 1 series coefficients, standard normal
    draws halved at each degree."""
    return rng.standard_normal((n, degree + 1)) * 0.5 ** np.arange(degree + 1)


def check(cfg: ExperimentConfig) -> dict:
    """Run the full property battery and report measured values: the
    checks, the Hardy family rows and whether every check passed or was
    skipped (emit_check adds the document header).

    Refinement-based checks are marked skipped below 256 nodes, where a
    doubled mesh would not be meaningfully finer.  radius_convergence
    compares R with polytrope.vacuum_radius at a tenth of the ODE
    tolerances, from the profile's series radius, and is skipped too
    where ode_rel_tol / 10 would fall below 100 eps.

    The equilibrium and conservation runs march as one evolve_batch of
    two members, each at its own CFL dt, recording every min(16, n)
    steps, where n = max(1, round(3/dt)).  The conservation run takes n
    steps rounded up to a multiple of that cadence, so that its last
    sample of H is its final state; the equilibrium run takes 200 steps
    and is read at its record's final.  A collapse of either run's first
    sample raises.
    """
    results = []
    rng = np.random.default_rng(cfg.experiment.seed)

    def add(name, status, value=None, threshold=None, note=None):
        results.append(dict(name=name, status=status, value=value, threshold=threshold, note=note))

    n_nodes = cfg.mesh.n_nodes
    refinement_ok = n_nodes >= 256

    profile = build_profile(cfg)

    res = polytrope.substitution_residual(profile)
    add("profile_residual", "pass" if res <= 1e-6 else "fail", res, 1e-6)

    try:
        polytrope.validate_profile(profile)
        add("profile_invariants", "pass")
    except Exception as exc:
        add("profile_invariants", "fail", note=str(exc))

    corrupted = replace(profile, w_r=-profile.w_r)
    try:
        polytrope.validate_profile(corrupted)
        add("fault_injection_nonmonotone", "fail", note="corrupted profile accepted")
    except PolystarError:
        add("fault_injection_nonmonotone", "pass")

    idx = np.linspace(8, profile.n_nodes - 8, 9).astype(int)
    phi_q = polytrope.potential_coefficient(profile, profile.grid[idx])
    rel = np.max(np.abs(phi_q - profile.phi[idx]) / profile.phi[idx])
    add("phi_identity", "pass" if rel <= 1e-6 else "fail", float(rel), 1e-6)

    if refinement_ok:
        p = polytrope.vacuum_exponent(profile)
        add("vacuum_exponent", "pass" if 0.99 <= p <= 1.01 else "fail", p, (0.99, 1.01))
    else:
        add("vacuum_exponent", "skipped", note="n_nodes below refinement threshold")

    ee = polytrope.equilibrium_energy(profile)
    note = None if ee.pressure_formula else "pressure formula is 0: |direct| relative to the internal energy"
    add("energy_identity", "pass" if ee.rel_diff <= 1e-4 else "fail", ee.rel_diff, 1e-4, note)

    # R is the ODE's event, found before any grid exists: refine the
    # integrator's tolerances, not the mesh
    pc = cfg.polytrope
    if not refinement_ok:
        add("radius_convergence", "skipped", note="n_nodes below refinement threshold")
    elif pc.ode_rel_tol / 10 < polytrope.MIN_REL_TOL:
        add("radius_convergence", "skipped", note="ode_rel_tol / 10 below 100 eps")
    else:
        finer = replace(pc, ode_rel_tol=pc.ode_rel_tol / 10, ode_abs_tol=pc.ode_abs_tol / 10)
        dR = abs(polytrope.vacuum_radius(finer, profile.series_radius) - profile.R)
        bound = 1e-10 * profile.R
        add("radius_convergence", "pass" if dR <= bound else "fail", dR, bound)

    disc = profile.discretization
    mode = build_mode(profile, cfg.eig.eig_tol)
    u = rng.standard_normal(disc.N - 1)
    v = rng.standard_normal(disc.N - 1)
    sym = abs(disc.bilinear(u, v) - disc.bilinear(v, u))
    add("pencil_symmetry", "pass" if sym == 0.0 else "fail", sym, 0.0)

    interior = disc.r[1:-1]
    x = 2.0 * interior / interior[-1] - 1.0
    # 100 Chebyshev trials in x, evaluated 10 rows at a time: each row
    # gets the doubles of one (100, N-1) evaluation, without that block's
    # peak memory
    worst = max(
        spectral.rayleigh_quotient(disc, trial)
        for block in np.split(_seeded_coefficients(rng, 100), 10)
        for trial in np.polynomial.chebyshev.chebval(x, block.T)
    )
    dom = worst <= mode.mu0 + cfg.eig.eig_tol
    add("rayleigh_dominance", "pass" if dom else "fail", worst, mode.mu0)

    q1 = spectral.rayleigh_quotient(disc, np.ones(disc.N - 1))
    add(
        "constant_trial_lower_bound",
        "pass" if mode.mu0 >= q1 - cfg.eig.eig_tol else "fail",
        q1,
        mode.mu0,
    )

    def add_run(name, rec, value, threshold):
        """A value measured on a run, which fails when the run did not complete."""
        if rec.status == "completed":
            add(name, "pass" if value <= threshold else "fail", value, threshold)
        else:
            add(name, "fail", threshold=threshold, note=f"run ended {rec.status}")

    # one batch from t = 0, stopped by neither the document's theta1 nor
    # its t_end: 200 steps from the equilibrium, and about 3 time units
    # from generic smooth data, H sampled every min(16, n) steps, so at
    # least once after t = 0 and at its last step
    eq = evolution.equilibrium_state(profile)
    state = _conservation_state(profile, rng)
    dt_eq, dt = (evolution.cfl_dt(st, profile, cfg.sim) for st in (eq, state))
    n = max(1, round(3.0 / dt))
    every = min(16, n)
    n = -(-n // every) * every
    members = [
        Member(profile, eq, mode.mu0, t_end=199.5 * dt_eq, dt=dt_eq),
        Member(profile, state, mode.mu0, t_end=(n - 0.5) * dt, dt=dt),
    ]
    sim = replace(cfg.sim, theta1=math.inf, record_every=every)
    eq_rec, rec = evolve_batch(members, replace(cfg, sim=sim))
    for r in (eq_rec, rec):
        if isinstance(r, StatePastVacuumCollapse):
            raise r
    final = eq_rec.final
    moved = float(np.abs(final.zeta).max() + np.abs(final.zeta_t).max())
    add_run("equilibrium_preservation", eq_rec, moved, 0.0)
    drift = max(abs(h - rec.H[0]) for h in rec.H) / abs(rec.H[0])
    add_run("conservation_drift", rec, drift, 1e-6)

    # 20 seeded polynomial rows, one block per family
    P = np.polynomial.polynomial
    coeffs = _seeded_coefficients(rng, 20, degree=8)
    x = profile.grid / profile.R
    v = P.polyval(x, coeffs.T)
    v_r = P.polyval(x, P.polyder(coeffs.T)) / profile.R
    families = {"origin": energetics.hardy_check_origin(v, profile, v_r)}
    note = None
    if profile.alpha > 1.0:
        families["boundary"] = energetics.hardy_check_boundary(
            v * (1.0 - x), profile, a=profile.alpha, v_r=v_r * (1.0 - x) - v / profile.R
        )
    else:
        note = f"boundary family skipped: it needs alpha > 1, and alpha = {profile.alpha:g}"
    ratios = {name: [rep.ratio for rep in reps] for name, reps in families.items()}
    fin = all(np.isfinite(rs).all() for rs in ratios.values())
    maxima = {"boundary_max": None} | {f"{name}_max": float(max(rs)) for name, rs in ratios.items()}
    add("hardy_families_finite", "pass" if fin else "fail", maxima, note=note)
    hardy_rows = [(k, float(max(rs)), float(np.mean(rs)), len(rs)) for k, rs in ratios.items()]
    if note:
        hardy_rows.append(("boundary", "skipped: needs alpha > 1", "", 0))

    add("eigen_residual", "pass" if mode.residual <= 1e-6 else "fail", mode.residual, 1e-6)

    # nonlinear/instant energy equivalence: one finite fitted constant
    if mode.mu0 > 0:
        st = evolution.mode_initial_state(mode, 1e-3)
        rep = energetics.instant_energy(st, profile, jmax=1)
        theta = max(rep.theta_measure.values())
        gap_const = abs(rep.frakE[0] - rep.Ej[0]) / (theta * (rep.E0 + rep.Ej[0]))
        total = rep.E0 + sum(x for row in rep.Ejk for x in row)
        inclusion = rep.E0 + sum(rep.Ej) <= total
        ok = np.isfinite(gap_const) and inclusion
        add("energy_equivalence_constant", "pass" if ok else "fail", gap_const)
    else:
        add("energy_equivalence_constant", "skipped", note="no growing mode at this gamma")

    return {
        "n_nodes": n_nodes,
        "checks": results,
        "hardy_families": hardy_rows,
        "all_mandatory_pass": all(c["status"] in ("pass", "skipped") for c in results),
    }


def emit_check(report: dict, cfg: ExperimentConfig, out_dir: str) -> None:
    fields = {k: v for k, v in report.items() if k != "hardy_families"}
    _write_document(_path(out_dir, "check.json"), config_hash(cfg), fields)
    write_csv(
        _path(out_dir, "hardy.csv"),
        ["family", "ratio_max", "ratio_mean", "n_samples"],
        report["hardy_families"],
    )


def _conservation_state(profile, rng) -> evolution.PerturbationState:
    """Generic smooth data of amplitude 1e-3 for the conservation run:
    seeded trials in 2(r/R)^2 - 1, even at the origin like every state
    the scheme represents."""
    x = 2.0 * (profile.grid / profile.grid[-1]) ** 2 - 1.0
    z0, zt0 = 1e-3 * np.polynomial.chebyshev.chebval(x, _seeded_coefficients(rng, 2, degree=4).T)
    return evolution.PerturbationState(t=0.0, zeta=z0, zeta_t=zt0)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _path(out_dir: str, name: str, tag: str = "") -> str:
    """out_dir/name, the name prefixed with tag_ when there is a tag."""
    return os.path.join(out_dir, f"{tag}_{name}" if tag else name)


def _write_document(path: str, chash: str, fields: dict) -> None:
    """A JSON output: schema version 1, the run's config hash and fields."""
    write_json(path, {"schema_version": 1, "config_hash": chash, **fields})


def emit_profile(profile, cfg: ExperimentConfig, out_dir: str) -> None:
    rows = zip(*(x.tolist() for x in (profile.grid, profile.w, profile.w_r, profile.phi)))
    write_csv(_path(out_dir, "profile.csv"), ["r", "w", "w_r", "phi"], rows)
    _write_document(
        _path(out_dir, "profile.json"),
        config_hash(cfg),
        {
            "gamma": profile.gamma,
            "alpha": profile.alpha,
            "K": profile.K,
            "c_frak": profile.c_frak,
            "R": profile.R,
            "mass": profile.mass,
            "vacuum_exponent": polytrope.vacuum_exponent(profile),
        },
    )


def emit_mode(mode, profile, cfg: ExperimentConfig, out_dir: str) -> None:
    write_csv(
        _path(out_dir, "mode.csv"),
        ["r", "phi0"],
        zip(profile.grid.tolist(), mode.phi0.tolist()),
    )
    _write_document(
        _path(out_dir, "mode.json"),
        config_hash(cfg),
        {
            "gamma": profile.gamma,
            "mu0": mode.mu0,
            "rate": mode.rate,
            "residual": mode.residual,
            "norm_X": mode.norm_X,
            "norm_Y": mode.norm_Y,
        },
    )


def emit_run(record: RunRecord, cfg: ExperimentConfig, out_dir: str, tag: str = "") -> None:
    write_csv(_path(out_dir, "series.csv", tag), SERIES_HEADER, record.series_rows())
    # every snapshot shares its header and r column; Python floats format
    # faster than numpy scalars, to the same text
    header = ["r", "zeta", "zeta_t"]
    template = csv_template(header, record.profile.grid.tolist())
    for i, (z, zt) in enumerate(record.snapshots):
        path = _path(out_dir, f"snapshot_{i:05d}.csv", tag)
        write_csv(path, header, (z.tolist(), zt.tolist()), template=template)
    _write_document(
        _path(out_dir, "run.json", tag),
        config_hash(cfg),
        {
            "gamma": record.profile.gamma,
            "n_nodes": record.profile.n_nodes,
            "dt": record.dt,
            "mu0": record.mu0,
            "linear": False,  # kept in the schema: every run is nonlinear
            "status": record.status,
            "n_samples": len(record.times),
            "snapshot_times": list(record.snapshot_times),
        },
    )


def emit_fit(fit, cfg: ExperimentConfig, out_dir: str, tag: str = "") -> None:
    _write_document(_path(out_dir, "fit.json", tag), config_hash(cfg), asdict(fit))


def emit_remainder(remainder: dict, out_dir: str, tag: str = "") -> None:
    columns = ["t", "remainder", "ratio"]
    write_csv(
        _path(out_dir, "remainder.csv", tag),
        columns,
        zip(*(remainder[k].tolist() for k in columns)),
    )


def emit_instability_summary(results: list, cfg: ExperimentConfig, out_dir: str) -> None:
    """Side-by-side ladder summary: fitted rates, escape times, and the
    spacing between successive escapes against ln(ratio)/rate."""
    entries = []
    for res in results:
        fit = res["fit"]
        entries.append(
            {
                "delta": res["delta"],
                "status": res["record"].status,
                "mu0": res["mode"].mu0,
                "linear_rate": res["mode"].rate,
                "fitted_rate": fit.rate,
                "escape_time": fit.escape_time,
                "escape_time_double": fit.escape_time_double,
                "predicted_escape": fit.predicted_escape,
            }
        )
    steps = []
    for a, b in zip(entries, entries[1:]):
        if a["escape_time"] is not None and b["escape_time"] is not None:
            rate = b["linear_rate"]
            steps.append(
                {
                    "delta_from": a["delta"],
                    "delta_to": b["delta"],
                    "escape_step": b["escape_time"] - a["escape_time"],
                    "predicted_step": math.log(a["delta"] / b["delta"]) / rate
                    if rate > 0
                    else None,
                }
            )
    _write_document(
        _path(out_dir, "instability_summary.json"),
        config_hash(cfg),
        {
            "runs": entries,
            "escape_steps": steps,
        },
    )


def emit_energy_report(report, cfg: ExperimentConfig, out_dir: str) -> None:
    _write_document(_path(out_dir, "energies.json"), config_hash(cfg), asdict(report))


def emit_sweep(rows: list, cfg: ExperimentConfig, out_dir: str) -> None:
    write_csv(
        _path(out_dir, "sweep.csv"), SWEEP_HEADER, ([row[k] for k in SWEEP_HEADER] for row in rows)
    )
