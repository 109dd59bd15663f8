"""Norms, energies, growth fits, and Hardy checks."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import polystar as ps
from polystar import energetics, evolution
from polystar._spline import NotAKnot, integrals
from polystar.energetics import (
    EnergyGapReport,
    energy_gap_report,
    hardy_trace_check,
)
from polystar.errors import ExponentOutOfRange, UnsupportedOrder, WindowTooSmall

from conftest import make_config, smooth_trials


def test_norm_zero_function(profile13):
    z = np.zeros(profile13.n_nodes)
    assert ps.weighted_norm_X(z, profile13, 1.0) == 0.0
    assert ps.weighted_norm_Y(z, profile13, profile13.alpha) == 0.0


def test_norm_X_quadrature_oracle(profile2):
    # f = 1, a = 1 on the closed-form profile: int_0^pi (sin r / r) r^4 dr
    ones = np.ones(profile2.n_nodes)
    val = ps.weighted_norm_X(ones, profile2, 1.0) ** 2
    oracle = quad(lambda r: np.sin(r) / r * r**4, 1e-12, math.pi, limit=200)[0]
    assert val == pytest.approx(oracle, rel=1e-4)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.floats(min_value=-1e8, max_value=1e8).filter(lambda x: x != 0.0))
def test_norm_homogeneity(c):
    prof = _small()
    f = np.cos(np.linspace(0, 2, prof.n_nodes))
    assert ps.weighted_norm_X(c * f, prof, prof.alpha) == pytest.approx(
        abs(c) * ps.weighted_norm_X(f, prof, prof.alpha), rel=1e-12
    )
    assert ps.weighted_norm_Y(c * f, prof, prof.alpha) == pytest.approx(
        abs(c) * ps.weighted_norm_Y(f, prof, prof.alpha), rel=1e-12
    )


_CACHE = {}


def _small():
    if "p" not in _CACHE:
        _CACHE["p"] = ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 128)
    return _CACHE["p"]


def test_norm_second_order_mesh_convergence(profile13, profile13_2048):
    # smooth integrand: trapezoid error drops by ~4 when the mesh doubles
    def measure(prof):
        f = np.cos(prof.grid / prof.R * 3.0)
        val = ps.weighted_norm_X(f, prof, prof.alpha) ** 2

        def integrand(r):
            w = max(prof.enthalpy(r)[0][0], 0.0)
            return w**prof.alpha * r**4 * math.cos(r / prof.R * 3.0) ** 2

        oracle = quad(integrand, 0.0, prof.R, limit=200)[0]
        return abs(val - oracle)

    e_coarse = measure(profile13)
    e_fine = measure(profile13_2048)
    assert 2.5 <= e_coarse / e_fine <= 6.0


@pytest.mark.parametrize("gamma", [1.25, 4.0 / 3.0, 2.0])
def test_norms_and_pencil_share_one_geometry(gamma):
    # |f|_Y^2 is the flux part of the pencil's quadratic form and |f|_X^2
    # its mass; both endpoints carry zero weight in either norm
    p = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256)
    disc = ps.assemble_pencil(p)
    f = np.random.default_rng(7).standard_normal(p.n_nodes)
    fi = f[1:-1]
    mass = disc.mass
    zeroth = (4.0 - 3.0 * disc.gt) * np.sum(p.phi[1:-1] * mass * fi**2)
    y2 = ps.weighted_norm_Y(f, p, p.alpha) ** 2
    assert y2 == pytest.approx(disc.bilinear(fi, fi) + zeroth, rel=1e-13)
    x2 = ps.weighted_norm_X(f, p, p.alpha) ** 2
    assert x2 == pytest.approx(np.sum(mass * fi**2), rel=1e-13)


@pytest.mark.parametrize("gamma", [1.25, 4.0 / 3.0, 2.0])
def test_norms_at_alpha_match_the_pow_formula(gamma):
    # at a = alpha the norms read the Discretization's cached weights; the
    # bits must equal the weights built by pow on every call
    p = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256)
    disc, a, N = p.discretization, p.alpha, p.n_nodes - 1
    f = np.random.default_rng(11).standard_normal(p.n_nodes)
    xw = disc.w**a * disc.r**4 * disc.quad_w
    assert ps.weighted_norm_X(f, p, a) == float(np.sqrt(np.sum(xw * f * f)))
    df = (f[2:N] - f[1 : N - 1]) / disc.h[1 : N - 1]
    gcell = disc.w_half[1 : N - 1] ** (a + 1.0) * disc.rm[1 : N - 1] ** 4
    y2 = disc.gt * np.sum(gcell * df * df * disc.h[1 : N - 1])
    assert ps.weighted_norm_Y(f, p, a) == float(np.sqrt(y2))


def test_zero_norm_matches_E0(profile13, mode13):
    _, mode = mode13
    st = ps.mode_initial_state(mode, 1e-3)
    rep = ps.instant_energy(st, profile13, jmax=0)
    assert ps.zero_norm(st.zeta, st.zeta_t, profile13) ** 2 == pytest.approx(
        rep.E0, rel=1e-14
    )


def test_row_kernels_match_the_1d_functions(profile13, rng):
    # the trailing-axis kernels behind the chunked recording give each row
    # of a (K, N+1) block the bits of the 1-D public functions
    disc = profile13.discretization
    r = profile13.grid
    amplitudes = [1e-4, 1e-3, 5e-3, 2e-2, 5e-2]
    z = np.concatenate(
        [
            smooth_trials(rng, r, len(amplitudes)) * np.array(amplitudes)[:, None],
            -np.abs(smooth_trials(rng, r, 1, amplitude=1e-3)),
        ]
    )
    zt = smooth_trials(rng, r, len(z), amplitude=1e-3)
    ztt = np.array(
        [ps.nonlinear_accel(ps.PerturbationState(0.0, zi, zti), profile13) for zi, zti in zip(z, zt)]
    )
    # rows of mixed sign, and one negative throughout
    assert ((z > 0).any(axis=1) & (z < 0).any(axis=1)).any()
    assert (z < 0).all(axis=1).any()
    jm1 = np.abs(evolution.cell_jacobian_minus_one(z, disc))
    # whole rows inside the series branch, and rows with entries past it
    assert (jm1 < 1e-2).all(axis=1).any() and (jm1 >= 1e-2).any(axis=1).any()

    a = profile13.alpha
    sim = ps.SimConfig(theta1=2e-2)
    H = evolution.energy_rows(z, zt, disc)
    norms = energetics.zero_norm_rows(z, zt, disc)
    x_rows = energetics._norm_X_rows(z, disc.xweight)
    y_rows = energetics._norm_Y_rows(z, disc, disc.yweight)
    *sups, exceeded = evolution.smallness_rows(z, zt, ztt, disc, sim.theta1)
    assert exceeded.any() and not exceeded.all()
    for k in range(len(z)):
        state = ps.PerturbationState(0.0, z[k], zt[k])
        assert H[k] == ps.conserved_energy(state, profile13)
        assert norms[k] == ps.zero_norm(z[k], zt[k], profile13)
        assert x_rows[k] == ps.weighted_norm_X(z[k], profile13, a)
        assert y_rows[k] == ps.weighted_norm_Y(z[k], profile13, a)
        mon = ps.smallness_monitor(state, profile13, sim, zeta_tt=ztt[k])
        assert [s[k] for s in sups] == [
            mon.sup_zeta, mon.sup_zeta_r, mon.sup_zeta_t, mon.sup_w12_zeta_tt
        ]
        assert exceeded[k] == mon.exceeded


def test_instant_energy_evaluates_the_time_ladder_once(profile13, mode13, monkeypatch):
    _, mode = mode13
    st = ps.mode_initial_state(mode, 1e-3)
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    atd = counted(evolution.accel_time_derivative)
    monkeypatch.setattr(evolution, "accel_time_derivative", atd)
    monkeypatch.setattr(energetics, "accel_time_derivative", atd)
    monkeypatch.setattr(evolution, "nonlinear_accel", counted(evolution.nonlinear_accel))
    rep = ps.instant_energy(st, profile13, jmax=2)
    assert calls == {"accel_time_derivative": 1, "nonlinear_accel": 1}
    monkeypatch.undo()
    assert rep.frakE[:1] == ps.instant_energy(st, profile13, jmax=1).frakE


def test_mode_data_E0_is_delta_squared(profile13, mode13):
    _, mode = mode13
    for delta in (1e-3, 1e-5):
        st = ps.mode_initial_state(mode, delta)
        rep = ps.instant_energy(st, profile13, jmax=0)
        assert rep.E0 == pytest.approx(delta**2, rel=1e-10)


def test_equilibrium_energies_vanish(profile13):
    eq = ps.equilibrium_state(profile13)
    rep = ps.instant_energy(eq, profile13, jmax=2)
    assert rep.E0 == 0.0
    assert all(e == 0.0 for e in rep.Ej)
    assert all(x == 0.0 for row in rep.Ejk for x in row)
    assert all(e == 0.0 for e in rep.frakE)


def test_Ej0_equals_Ej(profile13, mode13):
    _, mode = mode13
    st = ps.mode_initial_state(mode, 1e-3)
    rep = ps.instant_energy(st, profile13, jmax=2)
    for j in (1, 2):
        assert rep.Ejk[j - 1][0] == rep.Ej[j - 1]


def test_total_energy_term_inclusion(profile13, mode13):
    _, mode = mode13
    st = ps.mode_initial_state(mode, 1e-3)
    rep = ps.instant_energy(st, profile13, jmax=2)
    total = rep.E0 + sum(x for row in rep.Ejk for x in row)
    instant = rep.E0 + sum(rep.Ej)
    assert instant <= total


def test_unsupported_order(profile13, mode13):
    _, mode = mode13
    st = ps.mode_initial_state(mode, 1e-3)
    with pytest.raises(UnsupportedOrder):
        ps.instant_energy(st, profile13, jmax=3)


def test_nonlinear_energy_gap_fitted_constant(profile13, mode13):
    # |frakE1 - E1| <= C theta (E0 + E1), one suite-wide finite C
    _, mode = mode13
    cs = []
    for delta in (2e-2, 1e-2, 5e-3):
        st = ps.mode_initial_state(mode, delta)
        rep = ps.instant_energy(st, profile13, jmax=1)
        theta = max(rep.theta_measure.values())
        gap = abs(rep.frakE[0] - rep.Ej[0])
        cs.append(gap / (theta * (rep.E0 + rep.Ej[0])))
    assert all(np.isfinite(c) for c in cs)
    assert max(cs) < 1e3


def test_energy_gap_cross_term_identity(profile13, mode13):
    # quadratic part of frakE1 - E1 equals 3 gt int Phi w^a r^4 zeta_t^2
    _, mode = mode13
    st = ps.mode_initial_state(mode, 1e-4)
    rep = energy_gap_report(st, profile13)
    assert isinstance(rep, EnergyGapReport)
    assert rep.cross_term == pytest.approx(rep.cross_term_ibp, rel=1e-4)
    assert rep.cross_term > 0


def test_reduced_energy_gap_halves_with_amplitude(profile13, mode13):
    # after removing the quadratic cross term the gap is first order in
    # the amplitude: halving the data halves the reduced gap
    _, mode = mode13
    gaps = []
    for delta in (4e-2, 2e-2, 1e-2, 5e-3):
        st = ps.mode_initial_state(mode, delta)
        gaps.append(energy_gap_report(st, profile13).gap_reduced)
    for a, b in zip(gaps, gaps[1:]):
        assert 0.4 <= b / a <= 0.6


class _FakeRecord:
    def __init__(self, times, E0, mu0=None):
        self.times = times
        self.E0 = E0
        if mu0 is not None:
            self.mu0 = mu0


def test_growth_fit_exact_exponential():
    rate = 0.17
    delta = 1e-4
    t = np.linspace(0.0, 40.0, 4000)
    amp = delta * np.exp(rate * t)
    rec = _FakeRecord(t, amp**2, mu0=rate**2)
    fit = ps.growth_fit(rec, delta, theta0=1e-2)
    assert fit.rate == pytest.approx(rate, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.escape_time == pytest.approx(math.log(1e-2 / delta) / rate, rel=1e-10)
    assert fit.escape_time_double == pytest.approx(
        math.log(2e-2 / delta) / rate, rel=1e-10
    )
    assert fit.predicted_escape == pytest.approx(
        math.log(2e-2 / delta) / rate, rel=1e-12
    )


def test_growth_fit_window_guard():
    t = np.linspace(0, 1, 10)
    rec = _FakeRecord(t, 1e-6 * np.exp(0.3 * t))
    with pytest.raises(WindowTooSmall):
        ps.growth_fit(rec, 1e-3, theta0=1e-2)


def _rk4_linear_remainder(record, mode, delta, sim):
    """The remainder of a nonlinear record against an RK4 linear run from
    the same mode data, stepped at the record's dt to each snapshot."""
    stride = sim.record_every * sim.snapshot_every
    linear = ps.SimConfig(linear=True, dt=record.dt)
    state = ps.mode_initial_state(mode, delta)
    rem = []
    for i, (t, (zn, vn)) in enumerate(zip(record.snapshot_times, record.snapshots)):
        for _ in range(stride if i else 0):
            state = ps.step(state, record.profile, linear)
        assert state.t == t
        rem.append(ps.zero_norm(zn - state.zeta, vn - state.zeta_t, record.profile))
    return np.array(rem)


def test_duhamel_closed_form_matches_rk4_linear_reference():
    # the closed form delta e^(rate t) (phi0, rate phi0) stands in for an
    # RK4 linear run on the growing mode; measured gap of the remainder
    # after t = 0 at N = 256: 1.9e-9 (delta 1e-3) and 2.2e-9 (1e-4)
    cfg = make_config(n_nodes=256, kind="instability", deltas=(1e-3, 1e-4))
    for out in ps.instability_ladder(cfg):
        record, rem = out["record"], out["remainder"]
        reference = _rk4_linear_remainder(record, out["mode"], out["delta"], cfg.sim)
        assert np.array_equal(rem["t"], record.snapshot_times)
        assert rem["remainder"][0] == 0.0 == reference[0]
        rel = np.abs(rem["remainder"][1:] - reference[1:]) / reference[1:]
        assert rel.max() <= 1e-8


def test_duhamel_zero_at_t0(duhamel_pairs):
    rem = duhamel_pairs[1e-3]["remainder"]
    assert rem["remainder"][0] == 0.0


def test_duhamel_remainder_equals_the_per_snapshot_loop(duhamel_pairs):
    # the one zero_norm_rows pass against zero_norm on each snapshot, bit for bit
    for delta, out in duhamel_pairs.items():
        record, mode, rem = out["record"], out["mode"], out["remainder"]
        amp = delta * np.exp(mode.rate * rem["t"])
        loop = [
            ps.zero_norm(zn - a * mode.phi0, vn - (a * mode.rate) * mode.phi0, record.profile)
            for a, (zn, vn) in zip(amp.tolist(), record.snapshots)
        ]
        assert len(loop) > 1
        assert np.array_equal(rem["remainder"], loop)


def test_duhamel_ratio_bounded(duhamel_pairs):
    for delta, out in duhamel_pairs.items():
        rem = out["remainder"]
        mask = rem["t"] > 1.0
        assert np.isfinite(rem["ratio"][mask]).all()
        assert rem["ratio"][mask].max() < 10.0


# ---------------------------------------------------------------------------
# Hardy checks
# ---------------------------------------------------------------------------


def test_hardy_origin_constant(profile13):
    rep = ps.hardy_check_origin(np.ones(profile13.n_nodes), profile13)
    assert np.isfinite(rep.ratio) and rep.ratio > 0


def test_hardy_origin_linear_closed_form(profile2):
    # v = r on the closed-form profile: all integrals are monomials
    r = profile2.grid
    rep = ps.hardy_check_origin(r, profile2, v_r=np.ones_like(r))
    c = profile2.R / 4.0
    lhs = c**5 / 5.0
    rhs = (2 * c) ** 5 / 5.0 + ((2 * c) ** 7 - c**7) / 7.0
    assert rep.lhs == pytest.approx(lhs, rel=1e-8)
    assert rep.rhs == pytest.approx(rhs, rel=1e-8)
    assert rep.ratio == pytest.approx(lhs / rhs, rel=1e-8)


def test_hardy_origin_family_bounded_and_mesh_stable(profile13, profile13_2048, rng):
    ratios = {}
    for prof in (profile13, profile13_2048):
        rs = []
        gen = np.random.default_rng(11)
        for _ in range(100):
            coeffs = gen.standard_normal(9) * 0.5 ** np.arange(9)
            poly = np.polynomial.Polynomial(coeffs)
            v = poly(prof.grid / prof.R)
            v_r = poly.deriv()(prof.grid / prof.R) / prof.R
            rs.append(ps.hardy_check_origin(v, prof, v_r).ratio)
        ratios[prof.grid.size] = np.array(rs)
    coarse, fine = ratios[profile13.grid.size], ratios[profile13_2048.grid.size]
    assert np.isfinite(coarse).all() and np.isfinite(fine).all()
    assert abs(coarse.max() - fine.max()) <= 0.05 * fine.max()
    assert abs(coarse.mean() - fine.mean()) <= 0.05 * fine.mean()


def test_hardy_boundary_exponent_guard(profile13):
    with pytest.raises(ExponentOutOfRange):
        ps.hardy_check_boundary(np.ones(profile13.n_nodes), profile13, a=1.0)


def test_hardy_boundary_zero_vector(profile13):
    rep = ps.hardy_check_boundary(np.zeros(profile13.n_nodes), profile13, a=2.0)
    assert rep.ratio == 0.0


def test_hardy_boundary_family_bounded_and_mesh_stable(profile13, profile13_2048):
    ratios = {}
    for prof in (profile13, profile13_2048):
        rs = []
        gen = np.random.default_rng(13)
        x = prof.grid / prof.R
        for _ in range(50):
            coeffs = gen.standard_normal(7) * 0.5 ** np.arange(7)
            poly = np.polynomial.Polynomial(coeffs)
            v = poly(x) * (1.0 - x)
            v_r = (poly.deriv()(x) * (1.0 - x) - poly(x)) / prof.R
            rs.append(
                ps.hardy_check_boundary(v, prof, a=prof.alpha, v_r=v_r).ratio
            )
        ratios[prof.grid.size] = np.array(rs)
    coarse, fine = ratios[profile13.grid.size], ratios[profile13_2048.grid.size]
    assert np.isfinite(coarse).all() and np.isfinite(fine).all()
    assert abs(coarse.max() - fine.max()) <= 0.05 * fine.max()


@pytest.mark.parametrize("with_derivative", [True, False])
def test_hardy_families_on_a_block_equal_one_row_calls(profile13, with_derivative):
    # one report per row, bit for bit the one-row report; a zero row is (0, 0)
    x = profile13.grid / profile13.R
    coeffs = np.random.default_rng(3).standard_normal((6, 9)) * 0.5 ** np.arange(9)
    coeffs[2] = 0.0
    P = np.polynomial.polynomial
    v = P.polyval(x, coeffs.T)
    v_r = P.polyval(x, P.polyder(coeffs.T)) / profile13.R if with_derivative else None
    vb = v * (1.0 - x)
    vb_r = v_r * (1.0 - x) - v / profile13.R if with_derivative else None
    origin = ps.hardy_check_origin(v, profile13, v_r)
    boundary = ps.hardy_check_boundary(vb, profile13, a=profile13.alpha, v_r=vb_r)
    for i in range(len(coeffs)):
        one = ps.hardy_check_origin(v[i], profile13, None if v_r is None else v_r[i])
        assert origin[i] == one
        one = ps.hardy_check_boundary(
            vb[i], profile13, a=profile13.alpha, v_r=None if vb_r is None else vb_r[i]
        )
        assert boundary[i] == one
    assert (origin[2].lhs, origin[2].rhs) == (boundary[2].lhs, boundary[2].rhs) == (0.0, 0.0)
    assert origin[0].ratio > 0.0 and boundary[0].ratio > 0.0


def _spline_grids(profile13):
    x = np.sort(np.random.default_rng(5).uniform(0.0, 2.0, 300))
    return {"profile13": profile13.grid, "random": np.concatenate([[0.0], x, [2.0]])}


@pytest.mark.parametrize("grid", ["profile13", "random"])
def test_not_a_knot_cubic_agrees_with_cubic_spline(profile13, grid):
    from scipy.interpolate import CubicSpline

    x = _spline_grids(profile13)[grid]
    y = np.random.default_rng(9).standard_normal((5, x.size))
    y[1] = np.sin(3.0 * x)
    spline, ref = NotAKnot(x), CubicSpline(x, y, axis=-1)
    slopes = spline.slopes(y)
    assert np.abs(slopes - ref(x, 1)).max() <= 1e-13 * np.abs(slopes).max()
    n = x.size - 1
    inside = (0.3 * x[37] + 0.7 * x[38], 0.5 * (x[n - 40] + x[n - 39]))
    ends = [
        (x[0], x[-1]),  # the whole grid
        (x[10], x[n - 10]),  # on knots
        inside,  # inside cells
        (x[0], inside[0]),
        (inside[1], x[-1]),
        (x[12], inside[1]),
        (inside[0], inside[0] + 0.3 * (x[39] - x[38])),  # within one cell
    ]
    for a, b in ends:
        want = ref.integrate(a, b)
        got = integrals(y, spline.weights(a, b))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (a, b)
    assert (integrals(y, spline.weights(inside[0], inside[0])) == 0.0).all()


def test_not_a_knot_cubic_reproduces_cubics(profile13):
    # not-a-knot interpolation of a cubic is the cubic itself; the slopes
    # carry the rounding eps |y| / h of the divided differences
    for x in _spline_grids(profile13).values():
        p = np.polynomial.Polynomial([0.3, -1.2, 0.8, 0.45])
        spline, prim = NotAKnot(x), p.integ()
        rounding = np.finfo(float).eps * np.abs(p(x)).max() / np.diff(x).min()
        assert np.abs(spline.slopes(p(x)) - p.deriv()(x)).max() <= 4 * rounding
        a, b = 0.31 * x[-1], 0.87 * x[-1]
        assert spline.weights(a, b) @ p(x) == pytest.approx(prim(b) - prim(a), rel=1e-14)
        assert spline.weights(x[0], x[-1]) @ p(x) == pytest.approx(
            prim(x[-1]) - prim(x[0]), rel=1e-14
        )


def test_hardy_trace_polynomial_case():
    # g = x(1-x), k = 0: both sides equal 1/3 exactly
    rep = hardy_trace_check(lambda s: s * (1 - s), k=0.0, g_prime=lambda s: 1 - 2 * s)
    assert rep.lhs == pytest.approx(1.0 / 3.0, rel=1e-8)
    assert rep.rhs == pytest.approx(1.0 / 3.0, rel=1e-8)
    assert rep.ratio == pytest.approx(1.0, rel=1e-8)


def test_hardy_trace_sqrt_closed_form():
    # g = sqrt(s), k = 1/2: lhs = int s^(-1/2) = 2, rhs = int s^(1/2) / (4 s) = 1/2;
    # math.sqrt takes only scalars
    rep = hardy_trace_check(math.sqrt, 0.5, lambda s: 0.5 / math.sqrt(s))
    assert rep.lhs == pytest.approx(2.0, rel=1e-12)
    assert rep.rhs == pytest.approx(0.5, rel=1e-12)


def test_hardy_trace_exponent_guard():
    with pytest.raises(ExponentOutOfRange):
        hardy_trace_check(lambda s: s, k=1.5, g_prime=lambda s: 1.0)


def test_linear_run_energy_growth(profile13, mode13):
    # E0(t) = delta^2 e^(2 rate t) along the linear mode evolution
    _, mode = mode13
    delta = 1e-4
    st = ps.mode_initial_state(mode, delta)
    dt = ps.cfl_dt(st, profile13, ps.SimConfig())
    sim = ps.SimConfig(dt=dt, linear=True)
    horizon = 3.0 / mode.rate
    n = int(round(horizon / dt))
    errs = []
    for i in range(n):
        st = ps.step(st, profile13, sim)
        if (i + 1) % 64 == 0:
            e0 = ps.zero_norm(st.zeta, st.zeta_t, profile13) ** 2
            expect = delta**2 * math.exp(2.0 * mode.rate * st.t)
            errs.append(abs(e0 - expect) / expect)
    assert max(errs) <= 1e-3
