"""Dynamics tests: equilibrium preservation, linear/nonlinear
consistency, integrator order, conservation, reversibility."""

import math
import types

import numpy as np
import pytest

import polystar as ps
from polystar.errors import StatePastVacuumCollapse
from polystar.evolution import (
    _endpoint_values,
    _pressure_energy_density,
    _radial_derivative,
    Stages,
    cell_jacobian_minus_one,
    nonlinear_accel_rows,
    step_rows,
)
from polystar.polytrope import FlatRows

from conftest import smooth_trials


def test_equilibrium_acceleration_is_exactly_zero(profile13):
    eq = ps.equilibrium_state(profile13)
    assert np.all(ps.nonlinear_accel(eq, profile13) == 0.0)
    assert np.all(ps.linear_accel(eq, profile13) == 0.0)


def test_cell_jacobian_cube_by_multiplication(profile13):
    # zeta * zeta * zeta stands in for numpy's pow, which is slow on
    # negative bases; on random-sign data the two forms of J - 1 differ by
    # rounding only, bounded here by 4 ulps of max |J - 1|
    disc = profile13.discretization
    assert disc.N + 1 == 1025
    zero = np.zeros(disc.N + 1)
    assert np.all(cell_jacobian_minus_one(zero, disc) == 0.0)
    eps = np.finfo(float).eps
    for seed in range(4):
        z = np.random.default_rng(seed).uniform(-0.9, 0.9, disc.N + 1)
        u = cell_jacobian_minus_one(z, disc)
        pow_form = disc.conservative_derivative(z + z * z + z**3 / 3.0)
        assert np.abs(u - pow_form).max() <= 4.0 * eps * np.abs(u).max()


def test_pressure_energy_series_cube_by_multiplication():
    # H's internal-energy series cubes by multiplication too: on random-sign
    # data inside the series range xs * xs * xs and numpy's pow differ by
    # at most 2 ulps, and the densities of the two forms by rounding only.
    # A block that takes the series everywhere skips the masked gather and
    # scatter, and gives each entry the bits it has in a block that mixes
    # the series and the direct form
    alpha = 1.0 / 0.3
    ia = 1.0 / alpha
    eps = np.finfo(float).eps
    for seed in range(4):
        x = np.random.default_rng(seed).uniform(-1e-2, 1e-2, (4, 1024))
        assert np.abs(x).max() < 1e-2 and (x < 0).any()
        cube = x**3
        assert np.all(np.abs(x * x * x - cube) <= 2.0 * np.spacing(np.abs(cube)))
        got = _pressure_energy_density(x, alpha)
        pow_form = (
            (1.0 + ia) * x * x / 2.0
            * (
                1.0
                - (ia + 2.0) * x / 3.0
                + (ia + 2.0) * (ia + 3.0) * x * x / 12.0
                - (ia + 2.0) * (ia + 3.0) * (ia + 4.0) * cube / 60.0
            )
        )
        assert np.abs(got - pow_form).max() <= 4.0 * eps * np.abs(got).max()
        mixed = x.copy()
        mixed[:, 0] = 0.5
        assert np.array_equal(_pressure_energy_density(mixed, alpha)[:, 1:], got[:, 1:])


def test_equilibrium_preserved_ten_thousand_steps():
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 256)
    state = ps.equilibrium_state(prof)
    sim = ps.SimConfig(dt=ps.cfl_dt(state, prof, ps.SimConfig()))
    for _ in range(10_000):
        state = ps.step(state, prof, sim)
    assert np.all(state.zeta == 0.0)
    assert np.all(state.zeta_t == 0.0)
    assert state.t > 0


def test_linear_accel_reproduces_eigenvector(profile13, mode13):
    _, mode = mode13
    state = ps.mode_initial_state(mode, 1.0)
    accel = ps.linear_accel(state, profile13)
    diff = np.abs(accel[1:-1] - mode.mu0 * mode.phi0[1:-1]).max()
    assert diff <= 1e-7 * abs(mode.mu0)


def test_constant_displacement_marginal_gamma():
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=4 / 3), 256)
    state = ps.PerturbationState(
        t=0.0, zeta=np.ones(prof.n_nodes), zeta_t=np.zeros(prof.n_nodes)
    )
    accel = ps.linear_accel(state, prof)
    assert np.abs(accel).max() <= 1e-12


def test_richardson_linearization(profile13, mode13):
    _, mode = mode13
    a = profile13.alpha
    target = mode.mu0 * mode.phi0
    scale = ps.weighted_norm_X(target, profile13, a)
    errs = []
    for eps in (1e-2, 1e-3, 1e-5):
        st = ps.mode_initial_state(mode, eps)
        acc = ps.nonlinear_accel(st, profile13)
        errs.append(ps.weighted_norm_X(acc / eps - target, profile13, a) / scale)
    # linear decrease until the mesh-consistency floor between the two operators
    assert errs[0] > 4.0 * errs[1]
    assert errs[2] <= 1.5 * errs[1]
    assert errs[2] <= 1e-3


def test_nonlinear_minus_linear_is_quadratic(profile13, mode13):
    _, mode = mode13
    a = profile13.alpha
    diffs = []
    for eps in (2e-2, 1e-2, 5e-3):
        st = ps.mode_initial_state(mode, eps)
        d = ps.nonlinear_accel(st, profile13) - ps.linear_accel(st, profile13)
        diffs.append(ps.weighted_norm_X(d, profile13, a))
    r1 = diffs[0] / diffs[1]
    r2 = diffs[1] / diffs[2]
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5


def test_one_linear_step_matches_exponential(profile13, mode13):
    _, mode = mode13
    delta = 1e-4
    st = ps.mode_initial_state(mode, delta)
    dt = ps.cfl_dt(st, profile13, ps.SimConfig())
    sim = ps.SimConfig(dt=dt, linear=True)
    out = ps.step(st, profile13, sim)
    growth = math.exp(mode.rate * dt)
    expect = delta * growth * mode.phi0[1:-1]
    err = np.abs(out.zeta[1:-1] - expect).max()
    assert err <= 10.0 * delta * (mode.rate * dt) ** 5


def test_rk4_global_order(profile13, mode13):
    _, mode = mode13
    delta = 1e-3
    horizon = 0.5
    sims = {}
    base_dt = ps.cfl_dt(ps.mode_initial_state(mode, delta), profile13, ps.SimConfig())
    for fac in (1.0, 0.5, 0.125):
        dt = base_dt * fac
        n = int(round(horizon / dt))
        st = ps.mode_initial_state(mode, delta)
        sim = ps.SimConfig(dt=horizon / n)
        for _ in range(n):
            st = ps.step(st, profile13, sim)
        sims[fac] = st
    ref = sims[0.125]
    a = profile13.alpha
    e1 = ps.weighted_norm_X(sims[1.0].zeta - ref.zeta, profile13, a)
    e2 = ps.weighted_norm_X(sims[0.5].zeta - ref.zeta, profile13, a)
    order = math.log2(e1 / e2)
    assert order >= 3.5


def test_conserved_energy_zero_at_equilibrium(profile13):
    assert ps.conserved_energy(ps.equilibrium_state(profile13), profile13) == 0.0


def test_conservation_generic_small_data(profile13_512, rng):
    prof = profile13_512
    z0 = smooth_trials(rng, prof.grid, 1, amplitude=1e-3)[0]
    zt0 = smooth_trials(rng, prof.grid, 1, amplitude=1e-3)[0]
    state = ps.PerturbationState(t=0.0, zeta=z0, zeta_t=zt0)
    sim = ps.SimConfig(dt=ps.cfl_dt(state, prof, ps.SimConfig()))
    H0 = ps.conserved_energy(state, prof)
    drift = 0.0
    n = int(round(5.0 / sim.dt))
    for i in range(n):
        state = ps.step(state, prof, sim)
        if (i + 1) % 16 == 0:
            drift = max(drift, abs(ps.conserved_energy(state, prof) - H0))
    assert drift / abs(H0) <= 1e-6


def test_conservation_drift_order(profile13_512, rng):
    # band-limited sharp data puts the integrator error above the
    # round-off floor so the refinement order is observable
    prof = profile13_512
    x = 2.0 * prof.grid / prof.R - 1.0
    c = np.zeros(21)
    c[12:] = rng.standard_normal(9)
    z0 = 1e-5 * np.polynomial.chebyshev.chebval(x, c)
    c2 = np.zeros(21)
    c2[12:] = rng.standard_normal(9)
    zt0 = 1e-5 * np.polynomial.chebyshev.chebval(x, c2)
    st0 = ps.PerturbationState(t=0.0, zeta=z0, zeta_t=zt0)
    dt0 = ps.cfl_dt(st0, prof, ps.SimConfig())
    H0 = ps.conserved_energy(st0, prof)
    drifts = []
    for fac in (1.0, 0.5, 0.25):
        dt = dt0 * fac
        st = st0
        sim = ps.SimConfig(dt=dt)
        d = 0.0
        for i in range(int(round(2.0 / dt))):
            st = ps.step(st, prof, sim)
            if (i + 1) % 8 == 0:
                d = max(d, abs(ps.conserved_energy(st, prof) - H0))
        drifts.append(d)
    assert math.log2(drifts[0] / drifts[1]) >= 3.5
    assert math.log2(drifts[1] / drifts[2]) >= 3.5
    assert max(drifts) / abs(H0) <= 1e-6


def test_time_reversibility(profile13_512, mode13_512):
    _, mode = mode13_512
    prof = profile13_512
    delta = 1e-3
    st0 = ps.mode_initial_state(mode, delta)
    dt = ps.cfl_dt(st0, prof, ps.SimConfig())
    sim = ps.SimConfig(dt=dt)
    st = st0
    n = 200
    for _ in range(n):
        st = ps.step(st, prof, sim)
    back = ps.PerturbationState(t=0.0, zeta=st.zeta, zeta_t=-st.zeta_t)
    for _ in range(n):
        back = ps.step(back, prof, sim)
    a = prof.alpha
    err = ps.weighted_norm_X(back.zeta - st0.zeta, prof, a)
    assert err <= 100.0 * delta * dt**4 * n


def test_collapse_guard(profile13):
    n = profile13.n_nodes
    state = ps.PerturbationState(
        t=0.0, zeta=np.full(n, -1.01), zeta_t=np.zeros(n)
    )
    with pytest.raises(StatePastVacuumCollapse):
        ps.nonlinear_accel(state, profile13)


def _cfl_dt_by_nodes(state, profile, sim):
    """cfl_dt written node by node: node j takes the smaller J of the
    cells j-1 and j that exist."""
    disc = profile.discretization
    J = 1.0 + cell_jacobian_minus_one(state.zeta, disc)
    N = disc.N
    node_J = np.array([min(J[max(j - 1, 0)], J[min(j, N - 1)]) for j in range(N + 1)])
    node_J = np.clip(node_J, 1e-12, None)
    c2 = (
        disc.gt * disc.w * node_J ** (-(1.0 + disc.alpha) / disc.alpha) / (1.0 + state.zeta) ** 2
        + 1e-14
    )
    return sim.dt_cfl * float(np.min(disc.dloc / np.sqrt(c2)))


def test_cfl_dt_uses_the_cell_jacobian(profile13, mode13):
    _, mode = mode13
    disc = profile13.discretization
    sim = ps.SimConfig()
    eq = ps.equilibrium_state(profile13)
    assert ps.cfl_dt(eq, profile13, sim) == sim.dt_cfl * float(
        np.min(disc.dloc / np.sqrt(disc.gt * disc.w + 1e-14))
    )
    grow = ps.mode_initial_state(mode, 1e-3)
    assert np.all(1.0 + grow.zeta > 0)
    assert np.all(cell_jacobian_minus_one(grow.zeta, disc) > -1.0)
    # random sign: smooth data as check's drift run starts from (at these
    # seeds the critical node's right cell has the smaller J), and node
    # noise whose steepest cells hit the 1e-12 clip
    r = profile13.grid
    x = 2.0 * r / r[-1] - 1.0
    states = [grow]
    for seed, amplitude in ((1, 1e-3), (2, 0.1)):
        coef = np.random.default_rng(seed).standard_normal(5) * 0.5 ** np.arange(5)
        zeta = amplitude * np.polynomial.chebyshev.chebval(x, coef)
        states.append(ps.PerturbationState(t=0.0, zeta=zeta, zeta_t=np.zeros_like(r)))
    noise = np.random.default_rng(3).uniform(-0.05, 0.05, r.size)
    states.append(ps.PerturbationState(t=0.0, zeta=noise, zeta_t=np.zeros_like(r)))
    for state in states:
        dt = ps.cfl_dt(state, profile13, sim)
        assert dt == _cfl_dt_by_nodes(state, profile13, sim)
        assert dt != ps.cfl_dt(eq, profile13, sim)


@pytest.mark.parametrize("n_nodes", [256, 1024])
@pytest.mark.parametrize("gamma", [1.22, 1.3, 1.7, 2.0])
def test_default_cfl_dt_keeps_rk4_stability_margin(gamma, n_nodes):
    # RK4 is stable on the imaginary axis up to |omega dt| = 2 sqrt(2).
    # omega_max^2 is the largest eigenvalue of the dense symmetrised pencil
    # M^(-1/2) S M^(-1/2), S = -L; the default dt_cfl puts omega_max times
    # the CFL dt at the equilibrium near 1.43
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), n_nodes)
    disc = prof.discretization
    scale = 1.0 / np.sqrt(disc.mass)
    dense = disc.apply_stiffness(np.eye(disc.N - 1)) * scale[:, None] * scale[None, :]
    omega_max = math.sqrt(np.linalg.eigvalsh(dense)[-1])
    dt = ps.cfl_dt(ps.equilibrium_state(prof), prof, ps.SimConfig())
    assert omega_max * dt < 2.0 * math.sqrt(2.0)


def test_radial_derivative_even_at_origin(profile13, mode13):
    _, mode = mode13
    zeta = ps.mode_initial_state(mode, 1e-3).zeta
    assert _radial_derivative(zeta, profile13.grid)[0] == 0.0


def test_smallness_monitor(profile13, mode13):
    _, mode = mode13
    eq = ps.equilibrium_state(profile13)
    rep = ps.smallness_monitor(eq, profile13, ps.SimConfig())
    assert rep.sup_zeta == rep.sup_zeta_t == rep.sup_zeta_r == 0.0
    assert not rep.exceeded

    r1 = ps.smallness_monitor(
        ps.mode_initial_state(mode, 1e-4), profile13, ps.SimConfig()
    )
    r2 = ps.smallness_monitor(
        ps.mode_initial_state(mode, 2e-4), profile13, ps.SimConfig()
    )
    assert r2.sup_zeta / r1.sup_zeta == pytest.approx(2.0, rel=1e-10)
    assert r2.sup_zeta_t / r1.sup_zeta_t == pytest.approx(2.0, rel=1e-10)
    assert r2.sup_w12_zeta_tt / r1.sup_w12_zeta_tt == pytest.approx(2.0, rel=1e-3)

    theta1 = 0.05
    n = profile13.n_nodes
    loud = ps.PerturbationState(
        t=0.0, zeta=np.full(n, 2.0 * theta1), zeta_t=np.zeros(n)
    )
    rep = ps.smallness_monitor(loud, profile13, ps.SimConfig(theta1=theta1))
    assert rep.exceeded


def test_cfl_halving_keeps_growth_rate(profile13_512, mode13_512):
    _, mode = mode13_512
    prof = profile13_512
    rates = []
    for cfl in (0.4, 0.2):
        st = ps.mode_initial_state(mode, 1e-3)
        dt = ps.cfl_dt(st, prof, ps.SimConfig(dt_cfl=cfl))
        sim = ps.SimConfig(dt=dt)
        ts, amps = [], []
        a = prof.alpha
        for i in range(int(round(8.0 / dt))):
            st = ps.step(st, prof, sim)
            ts.append(st.t)
            amps.append(ps.zero_norm(st.zeta, st.zeta_t, prof))
        ts, amps = np.array(ts), np.array(amps)
        mask = amps > 3e-3
        rates.append(np.polyfit(ts[mask], np.log(amps[mask]), 1)[0])
    assert abs(rates[0] - rates[1]) <= 1e-5 * rates[0]


def test_boundary_radius_diagnostic(profile13_512, mode13_512):
    _, mode = mode13_512
    prof = profile13_512
    st = ps.mode_initial_state(mode, 1e-3)
    sim = ps.SimConfig(dt=ps.cfl_dt(st, prof, ps.SimConfig()))
    radii = [(1.0 + st.zeta[-1]) * prof.R]
    for _ in range(300):
        st = ps.step(st, prof, sim)
        radii.append((1.0 + st.zeta[-1]) * prof.R)
    radii = np.array(radii)
    assert np.all(np.isfinite(radii))
    # continuous in t: per-step change bounded by |zeta_t(R)| dt scale
    assert np.abs(np.diff(radii)).max() <= 1e-3 * prof.R


def _scalar_endpoint_accel(z, disc):
    """The 1-D nonlinear acceleration as written before the row kernel,
    in the kernel's arithmetic (the sign in the flux and source
    coefficients): numpy-scalar arithmetic at the endpoints."""
    N = disc.N
    flux = disc.w_half_1a * np.expm1(-disc.gt * np.log1p(cell_jacobian_minus_one(z, disc)))
    a = np.empty_like(z)
    zi = z[1:N]
    a[1:N] = (
        (flux[1:] - flux[:-1]) * -disc.inv_dr_wr
        + np.expm1(-4.0 * np.log1p(zi)) * -disc.phi[1:N]
    ) * (1.0 + zi) ** 2
    a[0] = a[1] + (a[2] - a[1]) * disc.origin_coef
    zr_N = (z[N] - z[N - 1]) / disc.h[-1]
    JN = (1.0 + z[N]) ** 2 * (1.0 + z[N] + zr_N * disc.r[N])
    a[N] = (1.0 + z[N]) ** 2 * disc.phi[N] * (JN ** (-disc.gt) - (1.0 + z[N]) ** (-4))
    return a


def _profiles(n_nodes):
    return [ps.solve_lane_emden(ps.PolytropeConfig(gamma=g), n_nodes) for g in (1.25, 1.3, 2.0)]


@pytest.fixture(scope="module")
def profiles_256():
    return _profiles(256)


def test_nonlinear_accel_rows_match_1d_at_every_node(profiles_256, rng):
    # at N 256 and 1024: one grid per row (gamma 1.25, 1.3, 2) and one shared
    # grid, random-sign rows and growing-mode-sized rows; node N is where
    # an array pow and a scalar pow can differ
    for profiles in (profiles_256, _profiles(1024)):
        n = profiles[0].n_nodes
        per_row = FlatRows.build([p.discretization for p in profiles])
        # smooth rows, and noise small enough that the cells near R keep J > 0
        x = profiles[1].grid
        for z in (smooth_trials(rng, x, 3, amplitude=1e-2), 1e-7 * rng.standard_normal((3, n))):
            assert (z > 0).any() and (z < 0).any()
            block = nonlinear_accel_rows(z, per_row)
            for b, prof in enumerate(profiles):
                single = ps.nonlinear_accel(ps.PerturbationState(0.0, z[b], z[b]), prof)
                assert np.array_equal(block[b], single)
                assert np.array_equal(single, _scalar_endpoint_accel(z[b], prof.discretization))
            shared = profiles[1]
            block = nonlinear_accel_rows(z, FlatRows.build([shared.discretization] * 3))
            for b in range(3):
                assert np.array_equal(block[b], _scalar_endpoint_accel(z[b], shared.discretization))


def test_nonlinear_accel_rows_collapse_names_its_rows(profiles_256):
    prof = profiles_256[1]
    n = prof.n_nodes
    z = np.zeros((4, n))
    z[1, n // 2] = -1.5  # 1 + zeta <= 0
    z[3, -1] = -0.5  # only the boundary Jacobian J(R) <= 0
    z[3, -2] = 0.9
    disc = prof.discretization
    with pytest.raises(StatePastVacuumCollapse) as first:
        nonlinear_accel_rows(z, FlatRows.build([disc] * 4))
    assert first.value.rows == [1]
    with pytest.raises(StatePastVacuumCollapse) as second:
        nonlinear_accel_rows(z[[0, 2, 3]], FlatRows.build([disc] * 3))
    assert second.value.rows == [2]
    both = nonlinear_accel_rows(z[[0, 2]], FlatRows.build([disc] * 2))
    assert np.array_equal(both, np.zeros((2, n)))


def test_nonlinear_accel_rows_collapse_skips_nan_rows(profiles_256):
    # a NaN fails no collapse check, as in an entrywise test: only the row
    # that really collapses is named
    disc = profiles_256[1].discretization
    flat = FlatRows.build([disc] * 3)
    n = disc.N + 1
    z = np.zeros((3, n))
    z[0, 5] = np.nan
    interpenetrating = z.copy()
    interpenetrating[1, n // 2] = -1.5  # 1 + zeta <= 0
    with pytest.raises(StatePastVacuumCollapse, match="1 \\+ zeta") as exc:
        nonlinear_accel_rows(interpenetrating, flat)
    assert exc.value.rows == [1]
    inverted = z.copy()
    inverted[2, n // 2] = -0.99  # 1 + zeta > 0, but [r^3 (1+zeta)^3] < 0 across a cell
    with pytest.raises(StatePastVacuumCollapse, match="J <= 0") as exc:
        nonlinear_accel_rows(inverted, flat)
    assert exc.value.rows == [2]
    assert np.isnan(nonlinear_accel_rows(z, flat)[0]).any()


def _allocating_step_rows(zeta, zeta_t, dt, accel, k1=None):
    """step_rows as written before its own buffers: every stage input and
    every partial sum a new array."""
    z, zt = zeta, zeta_t
    half = 0.5 * dt
    k1v = accel(z) if k1 is None else k1
    k2z = zt + half * k1v
    k2v = accel(z + half * zt)
    k3z = zt + half * k2v
    k3v = accel(z + half * k2z)
    k4z = zt + dt * k3v
    k4v = accel(z + dt * k3z)
    sixth = dt / 6.0
    return (
        z + sixth * (zt + 2.0 * k2z + 2.0 * k3z + k4z),
        zt + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _growing_rows(profiles):
    """Rows of growing-mode data, delta 1e-3, and each row's CFL step."""
    states = [
        ps.mode_initial_state(ps.largest_eigenpair(ps.assemble_pencil(p)), 1e-3) for p in profiles
    ]
    dts = [ps.cfl_dt(st, p, ps.SimConfig()) for st, p in zip(states, profiles)]
    return np.stack([st.zeta for st in states]), np.stack([st.zeta_t for st in states]), dts


def _stage_accel(stages, flat):
    """step_rows' accel: stage i's acceleration on flat."""

    def accel(i):
        nonlinear_accel_rows(stages.rows[i], flat, stages.accels[i])

    return accel


def test_step_rows_match_the_allocating_form(profiles_256):
    # 30 steps of the unstable gammas stacked, with dt as (B, N+1) rows
    # and, in the allocating form, as the (B, 1) column it broadcast; and
    # of one row with a float dt.  Each state block steps in place with
    # one Stages, as evolve_batch's does
    profiles = [ps.solve_lane_emden(ps.PolytropeConfig(gamma=g), 256) for g in (1.25, 1.32)]
    profiles.insert(1, profiles_256[1])
    z, zt, dts = _growing_rows(profiles)
    disc = FlatRows.build([p.discretization for p in profiles])
    rows = np.repeat(dts, z.shape[1]).reshape(len(dts), -1)
    column = np.array(dts)[:, None]
    one = profiles[1].discretization.flat
    new, new1 = np.stack([z, zt, z]), np.stack([z[1], zt[1], z[1]])
    stages, stages1 = Stages(rows, z.shape), Stages(dts[1], z[1].shape)
    old = (z, zt)
    old1 = (z[1], zt[1])
    for _ in range(30):
        nonlinear_accel_rows(new[0], disc, new[2])
        step_rows(new, stages, _stage_accel(stages, disc), new[:2])
        old = _allocating_step_rows(*old, column, lambda y: nonlinear_accel_rows(y, disc))
        assert all(np.array_equal(a, b) for a, b in zip(new[:2], old))
        k1 = nonlinear_accel_rows(new1[0], one, new1[2]).copy()
        step_rows(new1, stages1, _stage_accel(stages1, one), new1[:2])
        old1 = _allocating_step_rows(*old1, dts[1], lambda y: nonlinear_accel_rows(y, one), k1)
        assert all(np.array_equal(a, b) for a, b in zip(new1[:2], old1))
        assert all(np.array_equal(a, b[1]) for a, b in zip(new1[:2], new[:2]))


@pytest.mark.parametrize("batched", [False, True])
def test_step_rows_writes_only_its_own_buffers(profiles_256, batched):
    # step_rows hands each acceleration a stage buffer and writes the
    # step into out: zeta, zeta_t, k1 and the step coefficients come back
    # unchanged, and an in-place step (out = state[:2]) gives the same bits
    z, zt, dts = _growing_rows(profiles_256[:2])
    disc = FlatRows.build([p.discretization for p in profiles_256[:2]])
    dt = np.repeat(dts, z.shape[1]).reshape(2, -1)
    if not batched:
        z, zt, dt, disc = z[0], zt[0], dts[0], profiles_256[0].discretization.flat
    stages = Stages(dt, z.shape)
    state = np.stack([z, zt, nonlinear_accel_rows(z, disc)])
    before = [np.copy(a) for a in (state, stages.half, stages.dt, stages.sixth)]
    buffers = []

    def accel(i):
        y, a = stages.rows[i], stages.accels[i]
        assert np.shares_memory(a, stages.y) and not np.shares_memory(a, y)
        buffers.append(a)
        nonlinear_accel_rows(y, disc, a)

    out = np.full((2, *z.shape), np.nan)
    step_rows(state, stages, accel, out)
    assert len(buffers) == 3
    after = (state, stages.half, stages.dt, stages.sixth)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    assert np.isfinite(out).all()
    step_rows(state, stages, accel, state[:2])
    assert np.array_equal(state[:2], out)
    assert np.array_equal(state[2], before[0][2])


def test_acceleration_without_out_is_the_callers(profiles_256):
    # without out the result is a new array that no later call writes,
    # whatever the kernel's scratch and the out of other calls hold; with
    # out the same bits go into out, which must be C-contiguous
    z, _, _ = _growing_rows(profiles_256[:2])
    prof = profiles_256[0]
    disc = FlatRows.build([p.discretization for p in profiles_256[:2]])
    first = nonlinear_accel_rows(z, disc)
    single = ps.nonlinear_accel(ps.PerturbationState(0.0, z[0], z[0]), prof)
    kept = first.copy(), single.copy()
    out = np.empty_like(z)
    assert nonlinear_accel_rows(z, disc, out) is out
    assert np.array_equal(out, first)
    nonlinear_accel_rows(2.0 * z, disc)
    nonlinear_accel_rows(3.0 * z, disc, out)
    ps.nonlinear_accel(ps.PerturbationState(0.0, 2.0 * z[0], z[0]), prof)
    ps.step(ps.PerturbationState(0.0, z[0], z[0]), prof, ps.SimConfig(dt=1e-3))
    assert np.array_equal(first, kept[0]) and np.array_equal(single, kept[1])
    with pytest.raises(ValueError, match="C-contiguous"):
        nonlinear_accel_rows(z, disc, np.empty((z.shape[1], 2)).T)


def test_nonlinear_accel_rows_endpoint_overflow_as_numpy(profiles_256):
    # a float pow that overflows raises in Python; the row falls back to
    # numpy scalars, which give inf as the 1-D form did
    prof = profiles_256[1]
    z = np.zeros(prof.n_nodes)
    z[-1] = 1e200
    with np.errstate(all="ignore"):
        got = ps.nonlinear_accel(ps.PerturbationState(0.0, z, z), prof)
        want = _scalar_endpoint_accel(z, prof.discretization)
    assert np.array_equal(got, want, equal_nan=True)
    # and in a block: of a row next to a join, and of the last row
    for b in (0, 1):
        z = np.zeros((2, prof.n_nodes))
        z[b, -1] = 1e200
        for block, discs in _blocks(profiles_256, z):
            with np.errstate(all="ignore"):
                got = nonlinear_accel_rows(block, FlatRows.build(discs))
                want = _reference_nonlinear_accel_rows(block, discs)
            _assert_same_bits(got, want)


# The row kernels as written over the trailing axis of a (B, N+1) block,
# before they treated the block as one flat vector, in the flat kernel's
# arithmetic (merged coefficients, the sign in the flux and source
# coefficients): the references the flat kernels must match bit for bit.


def _row_collapse(message, failed):
    return StatePastVacuumCollapse(message, rows=np.flatnonzero(failed).tolist())


def _reference_geometry(discs):
    """The arrays the reference reads for rows on discs: one grid's own
    arrays when every row shares it, else the grids' arrays stacked as
    (B, ...) rows, gt as a (B, 1) column and origin_coef as a (B,) vector,
    each broadcasting against the (B, N+1) block."""
    if all(d is discs[0] for d in discs):
        return discs[0]
    names = ("r", "h", "phi", "w_half_1a", "r3", "r3_third", "three_over_d3", "inv_dr_wr")
    g = types.SimpleNamespace(N=discs[0].N)
    for k in names:
        setattr(g, k, np.stack([getattr(d, k) for d in discs]))
    g.gt = np.array([d.gt for d in discs])[:, None]
    g.origin_coef = np.array([d.origin_coef for d in discs])
    return g


def _reference_nonlinear_accel_rows(zeta, discs):
    disc = _reference_geometry(discs)
    N = disc.N
    z = zeta
    xi = 1.0 + z
    if np.fmin.reduce(xi, axis=None) <= 0.0:
        failed = (xi <= 0.0).reshape(-1, N + 1).any(axis=1)
        raise _row_collapse("1 + zeta <= 0: flow map interpenetrates", failed)
    jm1 = cell_jacobian_minus_one(z, disc)
    if np.fmin.reduce(jm1, axis=None) <= -1.0:
        raise _row_collapse("J <= 0: orientation lost", (jm1 <= -1.0).reshape(-1, N).any(axis=1))
    flux = np.log1p(jm1)
    flux *= -disc.gt
    np.expm1(flux, out=flux)
    flux *= disc.w_half_1a
    ai = np.log1p(z[..., 1:N])
    ai *= -4.0
    np.expm1(ai, out=ai)
    ai *= -disc.phi[..., 1:N]
    dflux = flux[..., 1:] - flux[..., :-1]
    dflux *= -disc.inv_dr_wr
    ai += dflux
    xi = xi[..., 1:N]
    np.multiply(xi, xi, out=dflux)
    a = np.empty_like(z)
    np.multiply(ai, dflux, out=a[..., 1:N])
    rows = a.reshape(-1, N + 1)
    columns = (disc.origin_coef, disc.gt, disc.h[..., -1], disc.r[..., -1], disc.phi[..., -1])
    per_row = np.column_stack([np.ravel(c) for c in columns]).tolist()
    edges = z.reshape(-1, N + 1)[:, N - 1 :].tolist()
    if len(per_row) == 1:
        per_row = per_row * len(edges)
    ends = []
    for inner, edge, scalars in zip(rows[:, 1:3].tolist(), edges, per_row, strict=True):
        try:
            ends.append(_endpoint_values(*inner, *edge, *scalars))
        except OverflowError:
            ends.append(_endpoint_values(*map(np.float64, (*inner, *edge, *scalars))))
    if None in ends:
        raise _row_collapse("boundary Jacobian J(R) <= 0", [end is None for end in ends])
    rows[:, ::N] = ends
    return a


def _assert_same_bits(got, want):
    """Equal arrays, signed zeros included; NaN where want has NaN (its
    sign and payload may differ)."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _outcome(kernel, *args):
    """kernel(*args), or the (message, rows) of the collapse it raises."""
    try:
        return kernel(*args)
    except StatePastVacuumCollapse as exc:
        return str(exc), exc.rows


def _blocks(profiles, z):
    """(block, discretizations) pairs, one discretization per row, for the
    rows of z over profiles: the rows on one shared grid and on the grids
    of the profiles, cycled; a lone row also as a 1-D array on its own
    grid."""
    B = len(z)
    grids = [profiles[b % len(profiles)].discretization for b in range(B)]
    shared = profiles[1].discretization
    pairs = [(z, [shared] * B), (z, grids)]
    return pairs + [(z[0], [shared])] if B == 1 else pairs


@pytest.fixture(scope="module")
def profiles_1024():
    return _profiles(1024)


@pytest.mark.parametrize("n_nodes", [256, 1024])
def test_flat_kernels_match_the_row_kernels(profiles_256, profiles_1024, rng, n_nodes):
    # B = 1 to 4 on a shared grid and on the profiles' grids, random-sign rows: smooth
    # data, and noise small enough that the cells near R keep J > 0
    profiles = profiles_256 if n_nodes == 256 else profiles_1024
    x = profiles[1].grid
    n = x.size
    for B in (1, 2, 3, 4):
        smooth = smooth_trials(rng, x, B, amplitude=1e-2)
        smooth -= smooth.mean(axis=1, keepdims=True)  # each row changes sign
        noise = 1e-7 * rng.standard_normal((B, n))
        for z in (smooth, noise):
            assert (z > 0).any() and (z < 0).any()
            for block, discs in _blocks(profiles, z):
                _assert_same_bits(
                    nonlinear_accel_rows(block, FlatRows.build(discs)),
                    _reference_nonlinear_accel_rows(block, discs),
                )


def test_flat_kernels_keep_the_sign_of_zero_at_equilibrium(profiles_256, rng):
    # zero rows of both signs, next to random rows: no junk entry of a row
    # join may reach a row's signed zeros
    n = profiles_256[0].n_nodes
    for B in (1, 2, 3, 4):
        for z in (np.zeros((B, n)), np.full((B, n), -0.0), rng.choice([0.0, -0.0], (B, n))):
            z[1::2] = 1e-7 * rng.standard_normal(z[1::2].shape)
            for block, discs in _blocks(profiles_256, z):
                _assert_same_bits(
                    nonlinear_accel_rows(block, FlatRows.build(discs)),
                    _reference_nonlinear_accel_rows(block, discs),
                )


def test_flat_kernels_match_on_nan_rows(profiles_256):
    z = np.zeros((3, profiles_256[0].n_nodes))
    z[0, 5] = np.nan
    z[1, -1] = np.nan  # a vacuum node next to a row join
    z[2, 0] = np.nan  # an origin next to a row join
    for block, discs in _blocks(profiles_256, z):
        _assert_same_bits(
            nonlinear_accel_rows(block, FlatRows.build(discs)),
            _reference_nonlinear_accel_rows(block, discs),
        )


def _collapsing_blocks(discs):
    """(3, N+1) blocks on discs whose failing entries sit next to a row join."""
    n = discs[0].N + 1
    h = [d.h[-1] for d in discs]
    r = [d.r[-1] for d in discs]
    blocks = []
    for b in (0, 1):
        vacuum = np.zeros((3, n))
        vacuum[b, -1] = -1.5  # row b's vacuum node: 1 + zeta <= 0
        origin = np.zeros((3, n))
        origin[b + 1, 0] = -1.0  # row b+1's origin: 1 + zeta == 0
        last_cell = np.zeros((3, n))
        last_cell[b, -2] = 0.9  # row b's last cell: J <= 0, 1 + zeta > 0
        last_cell[b, -1] = -0.5
        both = last_cell.copy()
        both[b + 1, 0] = -1.5  # 1 + zeta <= 0 on row b+1 is reported first
        # the last cell keeps r_N (1 + zeta_N) > r_(N-1), so J > 0 there,
        # while the one-sided boundary Jacobian J(R) <= 0
        boundary = np.zeros((3, n))
        boundary[b, -1] = -1.0001 * h[b] / (r[b] + h[b])
        blocks += [vacuum, origin, last_cell, both, boundary]
    return blocks


def test_flat_kernel_collapse_checks_next_to_a_row_join(profiles_256):
    z = np.zeros((3, profiles_256[0].n_nodes))
    messages = set()
    for _, discs in _blocks(profiles_256, z):
        for block in _collapsing_blocks(discs):
            want = _outcome(_reference_nonlinear_accel_rows, block, discs)
            assert isinstance(want, tuple)
            assert _outcome(nonlinear_accel_rows, block, FlatRows.build(discs)) == want
            messages.add(want[0])
    assert len(messages) == 3


def test_flat_kernel_junk_raises_no_floating_point_error(profiles_256):
    # a huge or infinite vacuum node next to a row join, which the row
    # kernel handles without an invalid operation or a division by zero
    # (overflow in zeta^3 is the row kernel's own)
    for value in (1e150, np.inf):
        z = np.zeros((3, profiles_256[0].n_nodes))
        z[0, -1] = value
        z[1, 1] = 1e-3
        for block, discs in _blocks(profiles_256, z):
            with np.errstate(over="ignore", invalid="raise", divide="raise"):
                want = _reference_nonlinear_accel_rows(block, discs)
                got = nonlinear_accel_rows(block, FlatRows.build(discs))
            _assert_same_bits(got, want)
