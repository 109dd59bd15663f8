"""Configuration, orchestration, CLI surface, and emission tests."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polystar as ps
from polystar import energetics, evolution, experiments
from polystar.cli import main as cli_main
from polystar.config import (
    ExperimentConfig,
    canonical_json,
    config_from_dict,
    config_hash,
    config_to_dict,
    delta_tag,
)
from polystar.errors import ConfigError, RateUnavailable, StatePastVacuumCollapse
from polystar.experiments import RECORD_CHUNK
from polystar.polytrope import MIN_NODES

from conftest import make_config


def test_config_defaults_roundtrip():
    cfg = ExperimentConfig()
    again = config_from_dict(config_to_dict(cfg))
    assert canonical_json(again) == canonical_json(cfg)
    assert config_hash(again) == config_hash(cfg)


def test_config_identity_pinned():
    # every output file embeds this hash; it must not move with refactors
    cfg = ExperimentConfig()
    assert config_hash(cfg) == "2f4c7a8556645c3d"
    doc = json.loads(canonical_json(cfg))
    assert sorted(doc["sim"]) == [
        "dt_cfl",
        "record_every",
        "scheme",
        "snapshot_every",
        "t_end",
        "theta1",
    ]
    assert sorted(doc["polytrope"]) == [
        "K",
        "gamma",
        "ode_abs_tol",
        "ode_rel_tol",
        "r_max",
        "series_radius",
    ]
    assert doc["polytrope"]["K"] is None


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"mesh": {"n_nodes": 128, "bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"unknown_section": {}})


# wrongly typed or out-of-range values that validation used to let through
BAD_TYPED_CONFIGS = [
    {"mesh": {"n_nodes": "1024"}},
    {"mesh": {"n_nodes": 1024.5}},
    # below the solver's MIN_NODES
    {"mesh": {"n_nodes": 32}},
    {"mesh": {"n_nodes": 63}},
    {"experiment": {"deltas": 1e-3}},
    # a ladder or sweep of no runs
    {"experiment": {"deltas": []}},
    {"experiment": {"gammas": []}},
    {"sim": {"record_every": 0}},
    {"polytrope": {"gamma": "1.3"}},
    {"sim": {"t_end": True}},
    {"output_dir": 5},
    {"sim": {"scheme": "euler"}},
    {"sim": {"theta1": -1}},
    {"polytrope": {"K": -1.0}},
    {"sim": {"snapshot_every": -1}},
    {"experiment": {"jmax": 7}},
    # the NaN and Infinity literals json.load accepts
    {"sim": {"t_end": float("nan")}, "mesh": {"n_nodes": 64}},
    {"experiment": {"theta0": float("inf")}},
    {"experiment": {"delta": float("nan")}},
    {"experiment": {"deltas": [float("inf"), 1e-3]}},
    {"sim": {"t_end": float("-inf")}},
    {"sim": {"t_end": -1}},
    {"sim": {"t_end": 0}},
    # per-run fields are set by the orchestration, never by the document
    {"sim": {"dt": 0.1}},
    {"sim": {"linear": True}},
    # no sim key chooses a Jacobian: cfl_dt reads the one the dynamics uses
    {"sim": {"amplitude_floor": 1e-4}},
    # deltas whose runs would write the same files (delta1e-04_*)
    {"mesh": {"n_nodes": 256}, "experiment": {"kind": "instability", "deltas": [1.4e-4, 1e-4]}},
    {"experiment": {"deltas": [1e-3, 1e-3]}},
    {"experiment": {"deltas": [10**400]}},
    # ints that do not convert to a finite float, in float fields
    {"mesh": {"n_nodes": 64}, "experiment": {"delta": 10**400}, "sim": {"t_end": 1.0}},
    {"experiment": {"theta0": 10**400}},
    # solver fields the integrator would clamp, reject or fail on mid-solve
    {"polytrope": {"ode_rel_tol": 0.0}},
    {"polytrope": {"ode_rel_tol": 2e-14}},
    {"polytrope": {"ode_abs_tol": -1}},
    {"polytrope": {"r_max": -5}},
    {"polytrope": {"r_max": 0}},
    # a handover radius that is no positive finite radius
    {"polytrope": {"series_radius": 0}},
    {"polytrope": {"series_radius": -1}},
    {"polytrope": {"series_radius": float("nan")}},
    # numpy's generator takes no negative seed
    {"experiment": {"seed": -1}},
    # K^alpha beyond the float range: c_frak overflows or divides by zero
    {"mesh": {"n_nodes": 64}, "polytrope": {"gamma": 1.3, "K": 1e300}},
    {"mesh": {"n_nodes": 64}, "polytrope": {"gamma": 1.3, "K": 1e-300}},
]


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"polytrope": {"gamma": 1.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": {"deltas": [1e-5, 1e-3]}})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": {"gammas": [2.5]}})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": {"kind": "explode"}})
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 99})
    for bad in BAD_TYPED_CONFIGS:
        with pytest.raises(ConfigError):
            config_from_dict(bad)


_SECTION_FIELDS = {
    name: sorted(json.loads(canonical_json(ExperimentConfig()))[name])
    for name in ("polytrope", "mesh", "eig", "sim", "experiment")
}
# junk next to plausible values, so that some documents are accepted
_PLAUSIBLE = st.one_of(
    st.floats(1e-3, 0.9),
    st.floats(1.21, 2.0),
    st.integers(0, 4096),
    st.sampled_from(["rk4", "check", "sweep", "out"]),
    st.lists(st.floats(1.21, 2.0), max_size=3),
)
_VALUE = st.one_of(
    _PLAUSIBLE,
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.floats(), st.text(max_size=2)), max_size=3),
)


def _mostly(usual, junk):
    """usual three times in four, junk otherwise."""
    return st.sampled_from([usual, usual, usual, junk]).flatmap(lambda strategy: strategy)


def _with_junk_keys(known: dict, junk_keys):
    """Optional known keys plus, now and then, one junk key."""
    junk = st.dictionaries(junk_keys, _VALUE, min_size=1, max_size=1)
    return st.tuples(
        st.fixed_dictionaries({}, optional=known), _mostly(st.just({}), junk)
    ).map(lambda parts: {**parts[1], **parts[0]})


def _section(names):
    junk_keys = st.one_of(st.sampled_from(["linear", "dt"]), st.text(max_size=4))
    values = _mostly(_PLAUSIBLE, _VALUE)
    return _mostly(_with_junk_keys(dict.fromkeys(names, values), junk_keys), _VALUE)


_DOCUMENT = _with_junk_keys(
    {
        **{name: _section(names) for name, names in _SECTION_FIELDS.items()},
        "output_dir": _mostly(st.text(max_size=4), _VALUE),
        "schema_version": _mostly(st.just(1), _VALUE),
    },
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENT)
def test_config_from_any_json_is_valid_or_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    again = config_from_dict(config_to_dict(cfg))
    assert config_hash(again) == config_hash(cfg)


def test_rate_unavailable_on_stable_side():
    cfg = make_config(n_nodes=256, gamma=1.4, kind="instability")
    with pytest.raises(RateUnavailable):
        ps.run_instability_experiment(cfg)


def test_delta_must_be_below_threshold():
    cfg = make_config(n_nodes=256, kind="instability", theta0=1e-2)
    with pytest.raises(ps.PolystarError):
        ps.run_instability_experiment(cfg, delta=2e-2)


def test_instability_quick_run(insta13):
    out = insta13[1e-3]
    rec, fit, mode = out["record"], out["fit"], out["mode"]
    assert rec.status == "escaped"
    assert abs(fit.rate - mode.rate) <= 0.02 * mode.rate
    assert fit.escape_time is not None
    assert fit.escape_time_double is not None
    assert np.all(np.diff(rec.times) > 0)


def test_record_status_consistency(insta13):
    rec = insta13[1e-3]["record"]
    assert rec.status == "escaped"
    # escaped implies the last recorded amplitude reached 2*theta0
    assert np.sqrt(rec.E0[-1]) >= 2e-2 * (1 - 1e-12)


def test_sweep_marginal_and_stable_routing():
    cfg = make_config(n_nodes=256, kind="sweep", gammas=(4 / 3, 1.5))
    rows = ps.sweep(cfg)
    assert all(list(row) == experiments.SWEEP_HEADER for row in rows)
    by_gamma = {round(r["gamma"], 6): r for r in rows}
    assert by_gamma[round(4 / 3, 6)]["status"] == "marginal"
    assert by_gamma[1.5]["status"] == "stable"
    assert by_gamma[1.5]["mu0"] < 0


def test_sweep_unstable_rows_and_isolation():
    cfg = make_config(n_nodes=256, kind="sweep", gammas=(1.25, 1.30, 1.32), delta=1e-3)
    broken = dataclasses.replace(
        cfg, polytrope=dataclasses.replace(cfg.polytrope, r_max=10.0)
    )
    rows = ps.sweep(broken)
    by_gamma = {round(r["gamma"], 3): r for r in rows}
    # gamma = 1.25 has R ~ 15 > r_max: the row fails alone
    assert by_gamma[1.25]["status"].startswith("error:")
    for g in (1.30, 1.32):
        assert by_gamma[g]["status"] == "escaped"
        assert by_gamma[g]["mu0"] > 0
    mus = [by_gamma[g]["mu0"] for g in (1.30, 1.32)]
    assert mus[0] > mus[1]


def test_run_status_smallness_exceeded():
    cfg = make_config(n_nodes=256, kind="evolve")
    import dataclasses

    tight = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, theta1=1e-5))
    profile = ps.build_profile(tight)
    mode = ps.build_mode(profile, tight.eig.eig_tol)
    rec = ps.evolve_run(
        profile,
        ps.mode_initial_state(mode, 1e-3),
        tight,
        mu0=mode.mu0,
        t_end=50.0,
    )
    assert rec.status == "smallness_exceeded"


def test_run_status_collapsed():
    cfg = make_config(n_nodes=256, kind="evolve")
    import dataclasses

    loose = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, theta1=1e9))
    profile = ps.build_profile(loose)
    mode = ps.build_mode(profile, loose.eig.eig_tol)
    # strong inward velocity drives J through zero within a fraction of a
    # sound-crossing time; the run must stop with a structured status
    initial = ps.PerturbationState(
        t=0.0, zeta=np.zeros(profile.n_nodes), zeta_t=-3.0 * mode.phi0
    )
    rec = ps.evolve_run(profile, initial, loose, mu0=mode.mu0, t_end=5.0)
    assert rec.status == "collapsed"


def test_run_whose_unrecorded_last_state_collapses_ends_collapsed():
    # a compressing mode recorded every step collapses at sample n; a run
    # of exactly n steps recorded every 3 ends on that state unrecorded,
    # and must still not report completed
    cfg = make_config(n_nodes=128, kind="evolve")
    profile = ps.build_profile(cfg)
    mode = ps.build_mode(profile, cfg.eig.eig_tol)
    initial = ps.mode_initial_state(mode, -0.05)

    def run(record_every, **kwargs):
        sim = dataclasses.replace(cfg.sim, theta1=1e9, record_every=record_every)
        loose = dataclasses.replace(cfg, sim=sim)
        return ps.evolve_run(profile, initial, loose, mode.mu0, **kwargs)

    every = run(1, t_end=1e3)
    assert every.status == "collapsed"
    n = len(every.times)
    assert n % 3
    assert every.final.t == every.times[-1]
    rec = run(3, t_end=(n - 0.5) * every.dt, dt=every.dt)
    assert rec.status == "collapsed"
    assert rec.times == every.times[::3]
    # it ends on the last state whose acceleration was evaluated, sample
    # n - 1, which it did not record
    assert rec.final.t > rec.times[-1]
    _assert_same_state(rec.final, every.final)


def test_run_status_max_steps():
    cfg = make_config(n_nodes=128, kind="evolve")
    profile = ps.build_profile(cfg)
    mode = ps.build_mode(profile, cfg.eig.eig_tol)
    rec = ps.evolve_run(
        profile, ps.mode_initial_state(mode, 1e-3), cfg, mu0=mode.mu0, t_end=10.0, max_steps=5
    )
    assert rec.status == "max_steps"
    assert len(rec.times) == 6 and rec.times[-1] < 10.0


def test_run_status_nonfinite():
    cfg = make_config(n_nodes=128, kind="evolve")
    profile = ps.build_profile(cfg)
    mode = ps.build_mode(profile, cfg.eig.eig_tol)
    initial = ps.mode_initial_state(mode, 1e-3)
    initial.zeta[profile.n_nodes // 2] = np.nan
    rec = ps.evolve_run(profile, initial, cfg, mu0=mode.mu0, t_end=1.0, dt=0.01)
    assert rec.status == "nonfinite"
    assert len(rec.times) == 1 and not np.isfinite(rec.E0[0])


SERIES_FIELDS = ("times", "E0", "H", "sup_zeta", "sup_zeta_r", "boundary_radius", "exceeded")


def _reference_run(profile, initial, sim, stop_amplitude=None, max_steps=5_000_000):
    """Step and record one sample at a time with the public functions,
    stopping as evolve_run documents; returns (series, snapshots, status,
    final), final being the sample that met the stop or else the last
    state whose acceleration was evaluated."""
    series = {name: [] for name in SERIES_FIELDS}
    snapshots = []

    def record(state):
        # the monitor computes the nonlinear acceleration, which may collapse
        mon = ps.smallness_monitor(state, profile, sim)
        e0 = ps.zero_norm(state.zeta, state.zeta_t, profile) ** 2
        h = ps.conserved_energy(state, profile)
        i = len(series["times"])
        values = (
            state.t, e0, h, mon.sup_zeta, mon.sup_zeta_r,
            (1.0 + state.zeta[-1]) * profile.R, mon.exceeded,
        )
        for name, value in zip(SERIES_FIELDS, values):
            series[name].append(value)
        if i == 0 or (sim.snapshot_every and i % sim.snapshot_every == 0):
            snapshots.append((state.t, state.zeta.copy(), state.zeta_t.copy()))
        if not (math.isfinite(e0) and math.isfinite(h)):
            return "nonfinite"
        if i and mon.exceeded:
            return "smallness_exceeded"
        if i and stop_amplitude is not None and math.sqrt(e0) >= stop_amplitude:
            return "escaped"
        return None

    state = final = initial
    status = record(state)
    steps = 0
    try:
        while not status and steps < max_steps and state.t < sim.t_end - 1e-12:
            state = ps.step(state, profile, sim)
            steps += 1
            ps.nonlinear_accel(state, profile)
            final = state
            if steps % sim.record_every == 0:
                status = record(state)
    except StatePastVacuumCollapse:
        status = "collapsed"
    if not status:
        status = "max_steps" if state.t < sim.t_end - 1e-12 else "completed"
    return series, snapshots, status, final


def _assert_same_state(state, other):
    assert state.t == other.t
    assert np.array_equal(state.zeta, other.zeta)
    assert np.array_equal(state.zeta_t, other.zeta_t)


def _assert_matches_reference(rec, reference):
    series, snapshots, status, final = reference
    assert rec.status == status
    _assert_same_state(rec.final, final)
    for name, values in series.items():
        assert getattr(rec, name) == values, name
    assert rec.snapshot_times == [t for t, _, _ in snapshots]
    assert len(rec.snapshots) == len(snapshots)
    for (z, zt), (_, ref_z, ref_zt) in zip(rec.snapshots, snapshots):
        assert np.array_equal(z, ref_z)
        assert np.array_equal(zt, ref_zt)


@pytest.fixture(scope="module")
def run128():
    """(cfg, profile, growing mode) at N = 128.  The chunk-boundary tests
    place their stops on the sample grid of dt_cfl 0.4."""
    cfg = make_config(n_nodes=128, kind="evolve")
    cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, dt_cfl=0.4, snapshot_every=4))
    profile = ps.build_profile(cfg)
    mode = ps.build_mode(profile, cfg.eig.eig_tol)
    return cfg, profile, mode


def _run_both(run128, record_every=1, t_end=6.0, **stops):
    """evolve_run and the one-sample-at-a-time reference on one setup."""
    cfg, profile, mode = run128
    cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, record_every=record_every))
    initial = ps.mode_initial_state(mode, 1e-3)
    rec = ps.evolve_run(profile, initial, cfg, mu0=mode.mu0, t_end=t_end, **stops)
    sim = dataclasses.replace(cfg.sim, dt=rec.dt, t_end=t_end)
    return rec, _reference_run(profile, initial, sim, **stops)


@pytest.mark.parametrize("record_every", [1, 3], ids=["nonlinear", "every3"])
def test_evolve_run_matches_unfused_recomputation(run128, record_every):
    # the run takes one acceleration per sample, reuses it as the step's
    # k1 and evaluates the samples in chunks; stepping and recording with
    # the public functions one by one must give the same bits
    rec, reference = _run_both(run128, record_every=record_every)
    assert rec.status == "completed"
    # every case spans more than one chunk
    assert len(rec.times) > RECORD_CHUNK + 1
    assert len(rec.snapshots) > 1
    _assert_matches_reference(rec, reference)


@pytest.mark.parametrize(
    "stop_index",
    [2 * RECORD_CHUNK, 2 * RECORD_CHUNK + 1, RECORD_CHUNK + RECORD_CHUNK // 2],
    ids=["last_row", "first_row_of_next", "mid_chunk"],
)
def test_evolve_run_escape_at_chunk_boundaries(run128, stop_index):
    # sample 0 is recorded alone, so chunk c holds samples
    # (c - 1) K + 1 .. c K; the stop must land on the same sample
    _, (series, *_) = _run_both(run128)
    amp = np.sqrt(series["E0"])
    assert amp[:stop_index].max() < amp[stop_index]
    rec, reference = _run_both(run128, stop_amplitude=float(amp[stop_index]))
    assert rec.status == "escaped"
    assert len(rec.times) == stop_index + 1
    _assert_matches_reference(rec, reference)


def test_evolve_run_max_steps_mid_chunk(run128):
    max_steps = RECORD_CHUNK + RECORD_CHUNK // 2 + 3
    rec, reference = _run_both(run128, max_steps=max_steps)
    assert rec.status == "max_steps"
    assert len(rec.times) == max_steps + 1
    _assert_matches_reference(rec, reference)


def _collapsing_rows(hit, accel=evolution.nonlinear_accel_rows):
    """nonlinear_accel_rows, raising a collapse of every row for which
    hit(row) holds."""

    def collapsing(zeta, disc, out=None, views=None):
        rows = [b for b, row in enumerate(zeta.reshape(-1, zeta.shape[-1])) if hit(row)]
        if rows:
            raise StatePastVacuumCollapse("forced", rows=rows)
        return accel(zeta, disc, out, views)

    return collapsing


@pytest.mark.parametrize("escape_first", [False, True], ids=["collapse", "earlier_escape_wins"])
@pytest.mark.parametrize("record_every", [1, 3], ids=["every1", "every3"])
def test_evolve_run_collapse_mid_chunk(run128, monkeypatch, escape_first, record_every):
    # force a collapse from the first acceleration of a state past the
    # mean amplitude of samples K + 9 and K + 10: inside the last step to
    # sample K + 10 or at it with record_every 1, in an unrecorded step
    # with record_every 3.  The kernels see no time, so the forcing reads
    # the growing amplitude.  A stop met by an earlier sample of the
    # collapse's chunk must still be reported, and the record must equal
    # the reference's
    _, (series, *_) = _run_both(run128, record_every=record_every)
    threshold = sum(series["sup_zeta"][RECORD_CHUNK + 9 : RECORD_CHUNK + 11]) / 2.0
    monkeypatch.setattr(
        evolution, "nonlinear_accel_rows", _collapsing_rows(lambda row: np.abs(row).max() > threshold)
    )
    stops = {}
    if escape_first:
        stops["stop_amplitude"] = math.sqrt(series["E0"][RECORD_CHUNK + 5])
    rec, reference = _run_both(run128, record_every=record_every, **stops)
    assert rec.status == ("escaped" if escape_first else "collapsed")
    assert len(rec.times) == RECORD_CHUNK + (6 if escape_first else 10)
    _assert_matches_reference(rec, reference)


def _assert_same_record(rec, solo):
    assert rec.status == solo.status
    assert rec.dt == solo.dt
    _assert_same_state(rec.final, solo.final)
    for name in SERIES_FIELDS + ("snapshot_times",):
        assert getattr(rec, name) == getattr(solo, name), name
    assert len(rec.snapshots) == len(solo.snapshots)
    for (z, zt), (solo_z, solo_zt) in zip(rec.snapshots, solo.snapshots):
        assert np.array_equal(z, solo_z)
        assert np.array_equal(zt, solo_zt)


def _check_members(members, records, cfg, max_steps=5_000_000):
    """Each batched record equals its member's one-member batch and the
    one-sample-at-a-time reference, bit for bit."""
    assert len(records) == len(members)
    for m, rec in zip(members, records):
        solo = ps.evolve_run(
            m.profile, m.initial, cfg, mu0=m.mu0,
            stop_amplitude=m.stop_amplitude, t_end=m.t_end, dt=m.dt, max_steps=max_steps,
        )
        _assert_same_record(rec, solo)
        sim = dataclasses.replace(cfg.sim, dt=solo.dt, t_end=m.t_end)
        _assert_matches_reference(
            rec, _reference_run(m.profile, m.initial, sim, m.stop_amplitude, max_steps)
        )


@pytest.fixture(scope="module")
def ladder128(run128):
    """Members of a delta ladder on run128's profile: delta 1e-3 and 3e-4
    escape, and 1e-4 completes at t_end."""
    cfg, profile, mode = run128
    return [
        ps.Member(profile, ps.mode_initial_state(mode, delta), mode.mu0, 2e-3, t_end=12.0)
        for delta in (1e-3, 3e-4, 1e-4)
    ]


def test_batched_ladder_members_equal_solo_runs(run128, ladder128):
    # the runs share one profile and have their own dt (the CFL dt of each
    # delta's initial data)
    cfg = run128[0]
    records = ps.evolve_batch(ladder128, cfg)
    assert [rec.status for rec in records] == ["escaped", "escaped", "completed"]
    assert len({rec.dt for rec in records}) == 3
    _check_members(ladder128, records, cfg)


def test_batched_sweep_members_equal_solo_runs():
    # three gammas on stacked grids with one N
    runs = []
    for gamma in (1.25, 1.30, 1.32):
        cfg = make_config(n_nodes=128, gamma=gamma, kind="sweep")
        profile = ps.build_profile(cfg)
        mode = ps.build_mode(profile, cfg.eig.eig_tol)
        runs.append(ps.Member(profile, ps.mode_initial_state(mode, 1e-3), mode.mu0, 4e-3, t_end=6.0))
    records = ps.evolve_batch(runs, cfg)
    assert [rec.profile.gamma for rec in records] == [1.25, 1.30, 1.32]
    assert records[0].status == "escaped" and records[2].status == "completed"
    _check_members(runs, records, cfg)


def test_batched_max_steps_mid_chunk(run128, ladder128):
    cfg = run128[0]
    max_steps = RECORD_CHUNK + RECORD_CHUNK // 2 + 3
    records = ps.evolve_batch(ladder128, cfg, max_steps=max_steps)
    assert {rec.status for rec in records} == {"max_steps"}
    _check_members(ladder128, records, cfg, max_steps=max_steps)


@pytest.mark.parametrize("where", ["at_sample", "inside_step"])
def test_batched_collapse_ends_only_its_member(run128, ladder128, monkeypatch, where):
    # delta 1e-4's run collapses in the middle of chunk 2, at a sample or
    # in a stage of the step before it; the others march on unchanged
    cfg = run128[0]
    free = ps.evolve_batch(ladder128, cfg)
    collapse_index = RECORD_CHUNK + 12  # a snapshot (snapshot_every 4)
    sample = free[2].snapshots[collapse_index // cfg.sim.snapshot_every][0]
    if where == "at_sample":
        def hit(row):
            return np.array_equal(row, sample)
    else:
        # the half-step stage after sample K + 11 already passes sample
        # K + 11; the other members are past 1.5 times it from the start
        previous = free[2].sup_zeta[collapse_index - 1]
        def hit(row):
            return previous < np.abs(row).max() < 1.5 * previous
        assert free[1].sup_zeta[0] > 1.5 * previous
    monkeypatch.setattr(evolution, "nonlinear_accel_rows", _collapsing_rows(hit))
    records = ps.evolve_batch(ladder128, cfg)
    assert [rec.status for rec in records] == ["escaped", "escaped", "collapsed"]
    assert len(records[2].times) == collapse_index
    _check_members(ladder128, records, cfg)


def test_batched_stop_on_chunk_boundary_while_another_is_mid_chunk(run128, ladder128):
    # delta 1e-3 escapes at the last row of chunk 3 and delta 1e-4 at a row
    # in the middle of chunk 2; delta 3e-4 completes at its t_end
    cfg = run128[0]
    free = ps.evolve_batch([dataclasses.replace(m, stop_amplitude=None) for m in ladder128], cfg)
    boundary, middle = 3 * RECORD_CHUNK, RECORD_CHUNK + RECORD_CHUNK // 2
    amp0 = np.sqrt(free[0].E0)
    amp2 = np.sqrt(free[2].E0)
    assert amp0[:boundary].max() < amp0[boundary] and amp2[:middle].max() < amp2[middle]
    members = [
        dataclasses.replace(ladder128[0], stop_amplitude=float(amp0[boundary]), t_end=20.0),
        dataclasses.replace(ladder128[1], stop_amplitude=None, t_end=5.0),
        dataclasses.replace(ladder128[2], stop_amplitude=float(amp2[middle]), t_end=20.0),
    ]
    records = ps.evolve_batch(members, cfg)
    assert [rec.status for rec in records] == ["escaped", "completed", "escaped"]
    assert [len(rec.times) for rec in records[::2]] == [boundary + 1, middle + 1]
    assert len(records[1].times) % RECORD_CHUNK not in (0, 1)
    _check_members(members, records, cfg)


def _with_sim(cfg, **fields):
    return dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, **fields))


def _nonfinite_H_at(monkeypatch, zeta):
    """Make every recorded H of a sample whose zeta equals zeta NaN."""
    energy_rows = evolution.energy_rows

    def poisoned(z, *args, **kwargs):
        H = energy_rows(z, *args, **kwargs)
        H[[np.array_equal(row, zeta) for row in z]] = np.nan
        return H

    monkeypatch.setattr(evolution, "energy_rows", poisoned)


@pytest.mark.parametrize(
    "stops",
    [
        ("nonfinite", "smallness_exceeded"),
        ("nonfinite", "escaped"),
        ("smallness_exceeded", "escaped"),
        ("nonfinite", "smallness_exceeded", "escaped"),
    ],
)
def test_batched_sample_meeting_several_stops_reports_the_first(run128, monkeypatch, stops):
    # sample K + 5, in the run's second chunk, is the first to meet each
    # stop of stops: H made NaN there, theta1 just below its largest sup
    # and the stop amplitude at its sqrt(E0).  The run ends on it with
    # the first of them in the order nonfinite, smallness_exceeded, escaped
    cfg, profile, mode = run128
    index = RECORD_CHUNK + 5
    initial = ps.mode_initial_state(mode, 1e-3)
    free_cfg = _with_sim(cfg, theta1=math.inf, snapshot_every=1)
    (free,) = ps.evolve_batch([ps.Member(profile, initial, mode.mu0, t_end=6.0)], free_cfg)
    assert free.status == "completed" and len(free.times) > index + 1
    sups = []
    for t, (z, zt) in zip(free.times[: index + 1], free.snapshots):
        report = ps.smallness_monitor(ps.PerturbationState(t, z, zt), profile, cfg.sim)
        sups.append(max(dataclasses.astuple(report)[:4]))
    amplitude = np.sqrt(free.E0[: index + 1])
    # both grow, so sample K + 5 is the first past a bound just below it
    assert np.all(np.diff(sups) > 0) and np.all(np.diff(amplitude) > 0)
    theta1 = sups[index - 1] if "smallness_exceeded" in stops else math.inf
    stop_amplitude = float(amplitude[index]) if "escaped" in stops else None
    if "nonfinite" in stops:
        _nonfinite_H_at(monkeypatch, free.snapshots[index][0])
    member = ps.Member(profile, initial, mode.mu0, stop_amplitude, t_end=6.0)
    (rec,) = ps.evolve_batch([member], _with_sim(cfg, theta1=theta1))
    assert rec.status == stops[0]
    assert len(rec.times) == index + 1
    assert rec.final.t == free.times[index]
    assert np.array_equal(rec.final.zeta, free.snapshots[index][0])


def test_batched_first_sample_stops_only_when_nonfinite(run128, monkeypatch):
    # every sample is past theta1 and the stop amplitude: the first sample
    # stops the run only once its H is NaN too
    cfg, profile, mode = run128
    initial = ps.mode_initial_state(mode, 1e-3)
    member = ps.Member(profile, initial, mode.mu0, 1e-300, t_end=6.0)
    tiny = _with_sim(cfg, theta1=1e-300)
    (rec,) = ps.evolve_batch([member], tiny)
    assert rec.status == "smallness_exceeded" and len(rec.times) == 2
    _nonfinite_H_at(monkeypatch, initial.zeta)
    (rec,) = ps.evolve_batch([member], tiny)
    assert rec.status == "nonfinite" and rec.times == [0.0]


def test_evolve_batch_first_sample_collapse_is_the_members_error(run128, ladder128):
    cfg = run128[0]
    bad = ps.PerturbationState(0.0, np.full(run128[1].n_nodes, -2.0), np.zeros(run128[1].n_nodes))
    members = [ladder128[0], dataclasses.replace(ladder128[1], initial=bad), ladder128[2]]
    records = ps.evolve_batch(members, cfg, max_steps=40)
    assert isinstance(records[1], StatePastVacuumCollapse)
    for i in (0, 2):
        assert records[i].status == "max_steps"
    with pytest.raises(StatePastVacuumCollapse):
        ps.evolve_run(run128[1], bad, cfg, mu0=1.0)


def test_instability_ladder_equals_solo_runs():
    # the batched ladder against one run_instability_experiment per delta:
    # records, fit and remainder
    cfg = make_config(n_nodes=256, kind="instability", deltas=(1e-3, 1e-4))
    ladder = list(ps.instability_ladder(cfg))
    assert [out["delta"] for out in ladder] == [1e-3, 1e-4]
    for out in ladder:
        solo = ps.run_instability_experiment(cfg, delta=out["delta"])
        _assert_same_record(out["record"], solo["record"])
        assert out["fit"] == solo["fit"]
        for key in ("t", "remainder", "ratio"):
            assert np.array_equal(out["remainder"][key], solo["remainder"][key])
        assert out["remainder"]["rate"] == solo["remainder"]["rate"]


def test_thinner_snapshots_are_every_kth_of_the_denser():
    # snapshot_every 64 keeps every 4th snapshot of snapshot_every 16, bit
    # for bit, and the remainder rows at those times; the series and the
    # fit read every sample and do not move
    cfg = make_config(n_nodes=256, kind="instability", deltas=(1e-3, 1e-4))
    assert cfg.sim.snapshot_every == 64
    dense = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, snapshot_every=16))
    for thin, full in zip(ps.instability_ladder(cfg), ps.instability_ladder(dense)):
        every4th = full["record"].snapshots[::4]
        times = full["record"].snapshot_times[::4]
        _assert_same_record(
            thin["record"],
            dataclasses.replace(full["record"], snapshots=every4th, snapshot_times=times),
        )
        assert thin["fit"] == full["fit"]
        for key in ("t", "remainder", "ratio"):
            assert np.array_equal(thin["remainder"][key], full["remainder"][key][::4])


@pytest.fixture(scope="module")
def ladder256():
    """(cfg, profile, growing mode) of the default ladder at N = 256."""
    cfg = make_config(n_nodes=256, kind="instability")
    profile = ps.build_profile(cfg)
    return cfg, profile, ps.build_mode(profile, cfg.eig.eig_tol)


def _cfl_dt_of(member, cfg):
    return evolution.cfl_dt(member.initial, member.profile, cfg.sim)


def test_fit_window_cap_stays_within_a_factor_of_two_of_the_cfl_dt(ladder256):
    cfg, profile, mode = ladder256
    theta0 = cfg.experiment.theta0
    for delta in (1e-8, 1e-5, 1e-3, 0.99 * theta0 / 9, theta0 / 9, 0.5 * theta0, 0.99 * theta0):
        member = experiments.growing_mode_member(profile, mode, delta, cfg)
        cfl = _cfl_dt_of(member, cfg)
        assert 0.5 * cfl <= member.dt <= cfl, delta
        assert member.stop_amplitude == 2.0 * theta0
        if delta >= theta0 / 9:
            # an empty window: no cap
            assert member.dt == cfl
    # the cap binds at the default ladder's first delta
    member = experiments.growing_mode_member(profile, mode, 1e-3, cfg)
    assert member.dt < _cfl_dt_of(member, cfg)


def test_fit_window_holds_min_fit_samples_at_the_default_dt_cfl(ladder256):
    # delta 1e-3 at N = 256 puts 29 samples in its window at the CFL dt of
    # dt_cfl 0.6, fewer than growth_fit takes; the capped run holds more
    cfg, profile, mode = ladder256
    assert cfg.sim.dt_cfl == ps.SimConfig().dt_cfl == 0.6
    delta, theta0 = 1e-3, cfg.experiment.theta0
    (rec,) = ps.evolve_batch([experiments.growing_mode_member(profile, mode, delta, cfg)], cfg)
    assert rec.status == "escaped"
    amp = np.sqrt(rec.E0)
    in_window = int(np.sum((amp > 3.0 * delta) & (amp < theta0 / 3.0)))
    assert in_window >= energetics.MIN_FIT_SAMPLES
    assert energetics.growth_fit(rec, delta, theta0).rate > 0.0


def test_fit_window_cap_below_theta0_over_9_marches_at_most_twice_the_steps(ladder256):
    # a window of almost no time asks for a tiny dt; the cap's floor keeps
    # the run at half the CFL dt
    cfg, profile, mode = ladder256
    delta = cfg.experiment.theta0 / 9 * (1.0 - 1e-9)
    capped = experiments.growing_mode_member(profile, mode, delta, cfg)
    assert capped.dt == 0.5 * _cfl_dt_of(capped, cfg)
    free = dataclasses.replace(capped, dt=None)
    records = ps.evolve_batch([capped, free], cfg)
    assert [rec.status for rec in records] == ["escaped", "escaped"]
    n_capped, n_free = (len(rec.times) for rec in records)
    assert n_free < n_capped <= 2 * n_free + 1


def test_delta_with_an_empty_fit_window_keeps_its_exit_code(tmp_path, monkeypatch, capsys):
    # theta0/9 <= delta < theta0: the run keeps the CFL dt and escapes, the
    # fit finds no window, and the CLI reports a numerical failure (exit 3)
    code, _ = _run_cli(["instability", "--nodes", "256", "--delta", "2e-3"], tmp_path, monkeypatch)
    assert code == 3
    assert "WindowTooSmall" in capsys.readouterr().err


def test_delta_at_or_above_theta0_is_a_config_error(tmp_path, monkeypatch, capsys):
    # the linear window is empty: rejected before the profile solve
    with monkeypatch.context() as m:
        m.setattr(experiments, "build_profile", None)
        code, _ = _run_cli(
            ["instability", "--nodes", "256", "--delta", "2e-2"], tmp_path, monkeypatch
        )
    assert code == 2
    assert "theta0" in capsys.readouterr().err


def test_check_battery_passes():
    cfg = make_config(n_nodes=512, kind="check")
    report = ps.check(cfg)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert not failed, failed
    assert report["all_mandatory_pass"]


def test_check_low_resolution_skips():
    cfg = make_config(n_nodes=64, kind="check")
    report = ps.check(cfg)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["radius_convergence"] == "skipped"
    assert status["vacuum_exponent"] == "skipped"
    assert report["all_mandatory_pass"]


def test_check_radius_convergence_refines_the_ode_tolerance():
    # R at N and at 2N are the same event, so the check refines the ODE
    # tolerances instead, and measures a nonzero change
    cfg = make_config(n_nodes=256, kind="check")
    entry = _check_entry(ps.check(cfg), "radius_convergence")
    pc = cfg.polytrope
    finer = dataclasses.replace(pc, ode_rel_tol=pc.ode_rel_tol / 10, ode_abs_tol=pc.ode_abs_tol / 10)
    R, R_fine = (ps.solve_lane_emden(p, 256).R for p in (pc, finer))
    assert entry["status"] == "pass"
    assert entry["value"] == abs(R_fine - R) > 0.0
    assert entry["threshold"] == 1e-10 * R
    assert entry["value"] <= entry["threshold"]

    # a tenth of ode_rel_tol = 1e-13 is below 100 eps
    tight = dataclasses.replace(cfg, polytrope=dataclasses.replace(pc, ode_rel_tol=1e-13))
    entry = _check_entry(ps.check(tight), "radius_convergence")
    assert entry["status"] == "skipped"
    assert entry["note"] == "ode_rel_tol / 10 below 100 eps"


def _check_entry(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_check_marches_through_evolve_run(monkeypatch):
    # both of the battery's runs take the batched loop, which calls
    # neither the 1-D step nor conserved_energy
    def called(*args, **kwargs):
        raise AssertionError("check stepped or measured H outside evolve_batch")

    monkeypatch.setattr(evolution, "step", called)
    monkeypatch.setattr(evolution, "conserved_energy", called)
    report = ps.check(make_config(n_nodes=64, kind="check"))
    assert report["all_mandatory_pass"]
    assert _check_entry(report, "conservation_drift")["value"] > 0.0


@pytest.mark.parametrize("gamma, r_max, dt_cfl", [(1.22, 500.0, 0.4), (1.205, 200.0, 0.99)])
def test_check_conservation_samples_h_after_t0(gamma, r_max, dt_cfl):
    # at gamma 1.22 and N 64 the CFL dt is about 0.56, so the 3-time-unit
    # run takes 5 steps, fewer than the 16 between samples of H; at gamma
    # 1.205 the dt of about 7.1 rounds 3 time units to 0 steps.  Each run
    # still measures the drift at its last step (at least one) instead of
    # passing with 0
    cfg = make_config(n_nodes=64, gamma=gamma, kind="check")
    cfg = dataclasses.replace(
        cfg,
        polytrope=dataclasses.replace(cfg.polytrope, r_max=r_max),
        sim=dataclasses.replace(cfg.sim, dt_cfl=dt_cfl),
    )
    report = ps.check(cfg)
    drift = _check_entry(report, "conservation_drift")
    assert drift["value"] > 0.0
    assert drift["status"] == ("pass" if drift["value"] <= drift["threshold"] else "fail")


def test_check_conservation_data_are_even_at_the_origin(profile13):
    # series in (r/R)^2: on a grid mirrored through r = 0 the data read
    # the same at -r as at r, so on the profile's grid the even
    # extrapolation of the scheme's origin node reproduces them
    r = profile13.grid
    N = r.size - 1
    mirrored = types.SimpleNamespace(grid=np.concatenate([-r[:0:-1], r]))
    state = experiments._conservation_state(mirrored, np.random.default_rng(0))
    for z in (state.zeta, state.zeta_t):
        assert np.array_equal(z[:N][::-1], z[N + 1 :])
    coef = profile13.discretization.origin_coef
    state = experiments._conservation_state(profile13, np.random.default_rng(0))
    for z in (state.zeta, state.zeta_t):
        assert abs(z[1] + (z[2] - z[1]) * coef - z[0]) <= 1e-9 * np.abs(z).max()


def test_check_does_each_piece_of_work_once(monkeypatch):
    # one profile (radius_convergence integrates R alone) and one batch of
    # the equilibrium and conservation runs, whose equilibrium member
    # marches 200 steps and is read at its final state, unrecorded
    calls = {"solve_lane_emden": 0, "evolve_batch": []}
    solve, batch = ps.polytrope.solve_lane_emden, experiments.evolve_batch
    records = []

    def counted_solve(*args, **kwargs):
        calls["solve_lane_emden"] += 1
        return solve(*args, **kwargs)

    def counted_batch(members, *args, **kwargs):
        calls["evolve_batch"].append(len(members))
        records.extend(batch(members, *args, **kwargs))
        return records

    monkeypatch.setattr(ps.polytrope, "solve_lane_emden", counted_solve)
    monkeypatch.setattr(experiments, "evolve_batch", counted_batch)
    report = ps.check(make_config(n_nodes=256, kind="check"))
    assert report["all_mandatory_pass"]
    assert _check_entry(report, "radius_convergence")["status"] == "pass"
    assert calls == {"solve_lane_emden": 1, "evolve_batch": [2]}
    eq_rec = records[0]
    assert eq_rec.status == "completed"
    assert len(eq_rec.times) - 1 == 200 // 16
    assert eq_rec.snapshot_times == [eq_rec.times[0]]
    assert eq_rec.final.t == pytest.approx(200 * eq_rec.dt, rel=1e-12)
    assert not eq_rec.final.zeta.any() and not eq_rec.final.zeta_t.any()


def test_check_conservation_run_ends_on_a_recorded_step(monkeypatch):
    # at N 256 round(3/dt) is 143 steps, not a multiple of the 16 between
    # samples of H: the run marches 144, and its last sample of H is its
    # final state
    batch = experiments.evolve_batch
    runs = []

    def captured(members, cfg, **kwargs):
        records = batch(members, cfg, **kwargs)
        runs.append((members[1], records[1], cfg.sim.record_every))
        return records

    monkeypatch.setattr(experiments, "evolve_batch", captured)
    ps.check(make_config(n_nodes=256, kind="check"))
    ((member, rec, every),) = runs
    assert rec.status == "completed" and every == 16
    assert len(rec.times) - 1 == 144 // 16
    # the loop stops at the first state past t_end, so a sample there is the last state
    assert rec.times[-1] >= member.t_end


def test_check_fails_a_run_that_does_not_complete(monkeypatch):
    real = experiments.evolve_batch

    def nonfinite(*args, **kwargs):
        records = real(*args, **kwargs)
        for record in records:
            record.status = "nonfinite"
        return records

    monkeypatch.setattr(experiments, "evolve_batch", nonfinite)
    report = ps.check(make_config(n_nodes=64, kind="check"))
    for name in ("equilibrium_preservation", "conservation_drift"):
        entry = _check_entry(report, name)
        assert entry["status"] == "fail" and entry["value"] is None
        assert entry["note"] == "run ended nonfinite"
    assert not report["all_mandatory_pass"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def _run_cli(args, tmp_path, monkeypatch, subdir="out"):
    out = tmp_path / subdir
    monkeypatch.setenv("POLYSTAR_OUT", str(out))
    code = cli_main(args)
    return code, out


def test_cli_profile_and_mode_outputs(tmp_path, monkeypatch):
    code, out = _run_cli(["profile", "--nodes", "256"], tmp_path, monkeypatch)
    assert code == 0
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "r,w,w_r,phi"
    side = json.loads((out / "profile.json").read_text())
    for key in ("gamma", "alpha", "K", "c_frak", "R", "mass", "vacuum_exponent"):
        assert key in side
    assert "config_hash" in side and "schema_version" in side

    code, out = _run_cli(["mode", "--nodes", "256"], tmp_path, monkeypatch, "m")
    assert code == 0
    assert (out / "mode.csv").read_text().splitlines()[0] == "r,phi0"
    mj = json.loads((out / "mode.json").read_text())
    for key in ("gamma", "mu0", "rate", "residual", "norm_X", "norm_Y"):
        assert key in mj

    # each override flag lands in its own field
    flags = ["--gamma", "1.25", "--delta", "2e-4", "--nodes", "128", "--seed", "7"]
    code, out = _run_cli(["profile", *flags], tmp_path, monkeypatch, "flags")
    assert code == 0
    side = json.loads((out / "profile.json").read_text())
    assert side["gamma"] == 1.25
    assert len((out / "profile.csv").read_text().splitlines()) == 1 + 129  # header, nodes 0..128
    assert side["config_hash"] == config_hash(make_config(128, 1.25, delta=2e-4, seed=7))


def test_cli_float_format_roundtrips(tmp_path, monkeypatch):
    code, out = _run_cli(["profile", "--nodes", "256"], tmp_path, monkeypatch)
    assert code == 0
    line = (out / "profile.csv").read_text().splitlines()[2]
    r_str = line.split(",")[0]
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 256)
    assert float(r_str) == prof.grid[1]


def test_cli_deterministic_outputs(tmp_path, monkeypatch):
    _, out1 = _run_cli(["check", "--nodes", "128"], tmp_path, monkeypatch, "a")
    _, out2 = _run_cli(["check", "--nodes", "128"], tmp_path, monkeypatch, "b")
    assert (out1 / "check.json").read_bytes() == (out2 / "check.json").read_bytes()


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"mesh\": {\"n_nodes\": 4}}")
    code, _ = _run_cli(["profile", "--config", str(bad)], tmp_path, monkeypatch)
    assert code == 2
    for cfg in BAD_TYPED_CONFIGS:
        bad.write_text(json.dumps(cfg))
        code, _ = _run_cli(["evolve", "--config", str(bad)], tmp_path, monkeypatch)
        assert code == 2, cfg

    # the flag overrides skip the JSON type checks but not the range checks
    code, _ = _run_cli(["evolve", "--nodes", "64", "--delta", "nan"], tmp_path, monkeypatch)
    assert code == 2
    # a negative seed fails at load, named, before the profile solve
    with monkeypatch.context() as m:
        m.setattr(experiments, "build_profile", None)
        code, _ = _run_cli(["check", "--nodes", "64", "--seed", "-1"], tmp_path, monkeypatch)
    assert code == 2
    assert "experiment.seed" in capsys.readouterr().err

    # the config and the solver share MIN_NODES: a mesh the solver cannot
    # take fails at load for every command, check included
    with pytest.raises(ValueError):
        ps.solve_lane_emden(ps.PolytropeConfig(), MIN_NODES - 1)
    for command in ("profile", "check"):
        code, _ = _run_cli([command, "--nodes", str(MIN_NODES - 1)], tmp_path, monkeypatch)
        assert code == 2

    code, _ = _run_cli(
        ["instability", "--nodes", "256", "--gamma", "1.4"], tmp_path, monkeypatch
    )
    assert code == 3


def test_config_error_names_the_float_range_briefly(tmp_path, monkeypatch, capsys):
    # an int beyond the float range is no wrong type, and the message
    # does not echo its 401 digits
    huge = [cfg for cfg in BAD_TYPED_CONFIGS if "0" * 400 in json.dumps(cfg)]
    assert len(huge) == 3
    bad = tmp_path / "bad.json"
    for cfg in huge:
        bad.write_text(json.dumps(cfg))
        code, _ = _run_cli(["evolve", "--config", str(bad)], tmp_path, monkeypatch)
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert "out of the float range" in err and "wrong type" not in err, err
        assert len(err) <= 120, err


# junk for the CLI: documents (JSON or not) and flags; --nodes only ever
# takes small values, so every accepted run stays cheap
_NODE_VALUES = st.sampled_from(["64", "65", "63", "0", "-64", "1e2", "x", ""])
_FLAG_VALUES = st.one_of(
    st.sampled_from(["1.3", "2", "1.21", "1.1", "nan", "-inf", "1e-3", "0", "-1", "1e400"]),
    st.text(max_size=4),
)
_FLAG = st.one_of(
    st.tuples(st.just("--nodes"), _NODE_VALUES),
    st.tuples(st.sampled_from(["--gamma", "--delta", "--seed", "--bogus"]), _FLAG_VALUES),
).map(list)
_CONFIG_BYTES = st.one_of(
    st.none(),
    _DOCUMENT.map(lambda doc: json.dumps(doc).encode()),
    st.binary(min_size=1, max_size=8),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["profile", "mode", "bogus"]),
    _CONFIG_BYTES,
    st.lists(_FLAG, max_size=3),
    st.booleans(),
)
def test_cli_on_junk_exits_with_a_code(command, config_bytes, flags, missing_config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--nodes", "64", "--out", os.path.join(tmp, "out")]
        if config_bytes is not None or missing_config:
            path = os.path.join(tmp, "config.json")
            if config_bytes is not None:
                with open(path, "wb") as fh:
                    fh.write(config_bytes)
            argv += ["--config", path]
        argv += [part for flag in flags for part in flag]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_cli_instability_emission(tmp_path, monkeypatch):
    code, out = _run_cli(
        ["instability", "--nodes", "256", "--delta", "1e-3"], tmp_path, monkeypatch
    )
    assert code == 0
    files = sorted(os.listdir(out))
    assert any(f.endswith("series.csv") for f in files)
    assert any(f.endswith("fit.json") for f in files)
    assert any(f.endswith("remainder.csv") for f in files)
    series = [f for f in files if f.endswith("series.csv")][0]
    header = (out / series).read_text().splitlines()[0]
    assert header == "t,E0,sqrtE0,H,boundary_radius,sup_zeta,sup_zeta_r,exceeded"
    snap = [f for f in files if "snapshot" in f][0]
    assert (out / snap).read_text().splitlines()[0] == "r,zeta,zeta_t"
    summary = json.loads((out / "instability_summary.json").read_text())
    assert len(summary["runs"]) == 1
    tag = delta_tag(1e-3)
    names = ["instability_summary.json", f"{tag}_run.json", f"{tag}_fit.json"]
    _assert_documents(out, names, make_config(256, delta=1e-3, deltas=(1e-3,)))


def test_cli_instability_delta_flag_is_its_config_document(tmp_path, monkeypatch):
    # --delta D on instability is the ladder of D alone: the same experiment,
    # hash and bytes as the document that says so, and not the default ladder
    code, flag = _run_cli(
        ["instability", "--nodes", "256", "--delta", "1e-4"], tmp_path, monkeypatch, "flag"
    )
    assert code == 0
    cfgfile = tmp_path / "one.json"
    cfgfile.write_text(
        json.dumps({"mesh": {"n_nodes": 256}, "experiment": {"delta": 1e-4, "deltas": [1e-4]}})
    )
    code, doc = _run_cli(["instability", "--config", str(cfgfile)], tmp_path, monkeypatch, "doc")
    assert code == 0
    names = sorted(os.listdir(flag))
    assert names == sorted(os.listdir(doc))
    for name in names:
        assert (flag / name).read_bytes() == (doc / name).read_bytes(), name
    chash = json.loads((flag / "instability_summary.json").read_text())["config_hash"]
    assert chash == config_hash(make_config(256, delta=1e-4, deltas=(1e-4,)))
    assert chash != config_hash(make_config(256))


def _assert_documents(out, names, cfg):
    """The *.json files in out include names, and each has schema
    version 1 and cfg's hash."""
    documents = sorted(out.glob("*.json"))
    assert set(names) <= {path.name for path in documents}
    for path in documents:
        doc = json.loads(path.read_text())
        assert (doc["schema_version"], doc["config_hash"]) == (1, config_hash(cfg)), path.name


def test_cli_instability_ladder_summary(tmp_path, monkeypatch):
    cfgfile = tmp_path / "ladder.json"
    cfgfile.write_text(
        json.dumps(
            {
                "mesh": {"n_nodes": 256},
                "experiment": {
                    "kind": "instability",
                    "deltas": [1e-3, 1e-4],
                },
            }
        )
    )
    code, out = _run_cli(["instability", "--config", str(cfgfile)], tmp_path, monkeypatch)
    assert code == 0
    summary = json.loads((out / "instability_summary.json").read_text())
    assert [r["delta"] for r in summary["runs"]] == [1e-3, 1e-4]
    step = summary["escape_steps"][0]
    assert step["escape_step"] == pytest.approx(step["predicted_step"], rel=0.05)


def test_cli_check_hardy_report(tmp_path, monkeypatch):
    code, out = _run_cli(["check", "--nodes", "128"], tmp_path, monkeypatch)
    assert code == 0
    lines = (out / "hardy.csv").read_text().splitlines()
    assert lines[0] == "family,ratio_max,ratio_mean,n_samples"
    assert {line.split(",")[0] for line in lines[1:]} == {"origin", "boundary"}


def test_cli_check_at_gamma_two_skips_the_boundary_family(tmp_path, monkeypatch):
    # alpha = 1 at gamma 2: the boundary family needs alpha > 1, so it is
    # reported as skipped instead of stopping the battery
    code, out = _run_cli(["check", "--gamma", "2", "--nodes", "256"], tmp_path, monkeypatch)
    assert code in (0, 4)
    report = json.loads((out / "check.json").read_text(), parse_constant=_no_json_constant)
    (hardy,) = [c for c in report["checks"] if c["name"] == "hardy_families_finite"]
    assert hardy["status"] == "pass"
    assert hardy["value"]["boundary_max"] is None and "alpha > 1" in hardy["note"]
    rows = [line.split(",") for line in (out / "hardy.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["origin", "boundary"]
    assert rows[1][-1] == "0" and "alpha > 1" in rows[1][1]


def _no_json_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_check_at_gamma_four_thirds_writes_json(tmp_path, monkeypatch):
    # the energy identity's pressure formula is 0 at gamma 4/3: the check
    # measures |direct| against the internal energy there, and says so
    code, out = _run_cli(["check", "--gamma", repr(4.0 / 3.0), "--nodes", "128"], tmp_path, monkeypatch)
    assert code == 0
    report = json.loads((out / "check.json").read_text(), parse_constant=_no_json_constant)
    (energy,) = [c for c in report["checks"] if c["name"] == "energy_identity"]
    assert energy["status"] == "pass"
    assert "internal energy" in energy["note"]


def test_cli_evolve_energy_report(tmp_path, monkeypatch):
    cfgfile = tmp_path / "evolve.json"
    cfgfile.write_text(
        json.dumps({"mesh": {"n_nodes": 256}, "sim": {"t_end": 2.0}})
    )
    code, out = _run_cli(
        ["evolve", "--config", str(cfgfile), "--delta", "1e-3"], tmp_path, monkeypatch
    )
    assert code == 0
    rep = json.loads((out / "energies.json").read_text())
    for key in ("E0", "Ej", "Ejk", "frakE", "theta_measure"):
        assert key in rep
    assert len(rep["Ejk"]) == len(rep["Ej"])
    cfg = make_config(256, delta=1e-3)
    cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, t_end=2.0))
    _assert_documents(out, ["run.json", "energies.json"], cfg)


def _assert_evolve_energies_name_the_last_sample(tmp_path, monkeypatch, sim):
    # energies.json reports the state the run ended on, at N 128 and t_end
    # 6 its last sample (96), whatever the snapshot cadence: not its last
    # snapshot (64, or 0 with no snapshot after the first); it says so
    # with its time t
    cfgfile = tmp_path / "evolve.json"
    cfgfile.write_text(json.dumps({"mesh": {"n_nodes": 128}, "sim": {"t_end": 6.0, **sim}}))
    code, out = _run_cli(["evolve", "--config", str(cfgfile)], tmp_path, monkeypatch)
    assert code == 0
    rep = json.loads((out / "energies.json").read_text())
    run = json.loads((out / "run.json").read_text())
    last = (out / "series.csv").read_text().splitlines()[-1].split(",")
    last_t, last_E0 = float(last[0]), float(last[1])
    assert run["status"] == "completed"
    assert run["snapshot_times"][-1] < rep["t"] == last_t
    assert rep["E0"] == pytest.approx(last_E0, rel=1e-12)


def test_cli_evolve_energies_name_the_time_of_their_state(tmp_path, monkeypatch):
    # the default cadence, sim.snapshot_every 64
    _assert_evolve_energies_name_the_last_sample(tmp_path, monkeypatch, {})


def test_cli_evolve_energies_without_snapshots_name_the_last_sample(tmp_path, monkeypatch):
    _assert_evolve_energies_name_the_last_sample(tmp_path, monkeypatch, {"snapshot_every": 0})


def test_cli_evolve_nonfinite_run_exits_3_after_its_series(tmp_path, monkeypatch, capsys):
    # every acceleration after the first sample's is NaN, so sample 1 is
    # nonfinite: series.csv and run.json are written, and the energies of
    # that final state are not JSON
    accel = evolution.nonlinear_accel_rows
    calls = []

    def poisoned(zeta, flat, out=None, views=None):
        out = accel(zeta, flat, out, views)
        if calls:
            out[...] = np.nan
        calls.append(zeta.shape)
        return out

    monkeypatch.setattr(evolution, "nonlinear_accel_rows", poisoned)
    cfgfile = tmp_path / "evolve.json"
    cfgfile.write_text(json.dumps({"mesh": {"n_nodes": 64}, "sim": {"t_end": 1.0}}))
    code, out = _run_cli(["evolve", "--config", str(cfgfile)], tmp_path, monkeypatch)
    assert code == 3
    assert "NonFiniteOutput: energies.json" in capsys.readouterr().err
    run = json.loads((out / "run.json").read_text())
    assert (run["status"], run["n_samples"]) == ("nonfinite", 2)
    assert len((out / "series.csv").read_text().splitlines()) == 1 + 2
    assert not (out / "energies.json").exists()


def test_cli_sweep_emission(tmp_path, monkeypatch):
    cfgfile = tmp_path / "sweep.json"
    cfgfile.write_text(
        json.dumps(
            {
                "mesh": {"n_nodes": 256},
                "experiment": {"kind": "sweep", "gammas": [1.3, 1.5], "delta": 1e-3},
            }
        )
    )
    code, out = _run_cli(["sweep", "--config", str(cfgfile)], tmp_path, monkeypatch)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("gamma,mu0,sqrt_mu0,fitted_rate")
    assert len(lines) == 3
