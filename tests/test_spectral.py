"""Pencil assembly, eigensolve, and mode-regularity tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import polystar as ps
from polystar import _tridiag
from polystar.errors import ZeroVector
from polystar.spectral import mode_regularity_report

from conftest import smooth_trials


def test_stiffness_exact_symmetry(mode13, rng):
    disc, _ = mode13
    u = rng.standard_normal(disc.N - 1)
    v = rng.standard_normal(disc.N - 1)
    assert disc.bilinear(u, v) - disc.bilinear(v, u) == 0.0
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 128)
    small = ps.assemble_pencil(prof)
    assert small is prof.discretization
    off = small.stiffness_off
    S = np.diag(small.stiffness_diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.abs(S - S.T).max() == 0.0


def test_marginal_index_kills_zeroth_order():
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=4 / 3), 256)
    disc = ps.assemble_pencil(prof)
    ones = np.ones(disc.N - 1)
    # flux part annihilates constants; 4 - 3*(1+alpha)/alpha ~ eps at alpha = 3
    q = ps.rayleigh_quotient(disc, ones)
    assert abs(q) <= 1e-12


def test_constant_trial_quadratic_form(profile13, mode13):
    disc, _ = mode13
    alpha = profile13.alpha
    gt = (1.0 + alpha) / alpha
    ones = np.ones(disc.N - 1)
    q = ps.rayleigh_quotient(disc, ones)
    assert q > 0

    # after integration by parts: 3 (4-3gt) int w^(1+alpha) r^2 / int w^alpha r^4
    def num(s):
        return max(profile13.enthalpy(s)[0][0], 0.0) ** (1 + alpha) * s * s

    def den(s):
        return max(profile13.enthalpy(s)[0][0], 0.0) ** alpha * s**4

    R = profile13.R
    oracle = (
        3.0
        * (4.0 - 3.0 * gt)
        * quad(num, 0, R, limit=200)[0]
        / quad(den, 0, R, limit=200)[0]
    )
    assert q == pytest.approx(oracle, rel=1e-4)


def test_rayleigh_zero_vector(mode13):
    disc, _ = mode13
    with pytest.raises(ZeroVector):
        ps.rayleigh_quotient(disc, np.zeros(disc.N - 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: abs(x) > 1e-6))
def test_rayleigh_scaling_invariance(c):
    prof = _cached_small_profile()
    disc = ps.assemble_pencil(prof)
    phi = np.sin(np.linspace(0.1, 3.0, disc.N - 1))
    assert ps.rayleigh_quotient(disc, c * phi) == pytest.approx(
        ps.rayleigh_quotient(disc, phi), rel=1e-12
    )


_SMALL = {}


def _cached_small_profile():
    if "p" not in _SMALL:
        _SMALL["p"] = ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 128)
    return _SMALL["p"]


@pytest.mark.parametrize("gamma", [1.25, 1.28, 1.30, 1.32])
def test_unstable_side_positive_eigenvalue(gamma):
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 512)
    mode = ps.largest_eigenpair(ps.assemble_pencil(prof))
    assert mode.mu0 > 0
    assert mode.rate == pytest.approx(np.sqrt(mode.mu0))


@pytest.mark.parametrize("gamma", [1.35, 1.40, 5 / 3])
def test_stable_side_negative_eigenvalue(gamma):
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 512)
    mode = ps.largest_eigenpair(ps.assemble_pencil(prof))
    assert mode.mu0 < 0
    assert mode.rate == 0.0


def test_mu0_monotone_in_gamma():
    mus = []
    for gamma in (1.25, 1.28, 1.30, 1.32):
        prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 512)
        mus.append(ps.largest_eigenpair(ps.assemble_pencil(prof)).mu0)
    assert all(a > b for a, b in zip(mus, mus[1:]))


def test_variational_dominance(mode13, rng):
    disc, mode = mode13
    trials = smooth_trials(rng, disc.r[1:-1], 100)
    quotients = [ps.rayleigh_quotient(disc, t) for t in trials]
    assert max(quotients) <= mode.mu0 + 1e-8
    ones = np.ones(disc.N - 1)
    assert mode.mu0 >= ps.rayleigh_quotient(disc, ones) - 1e-8


def test_mode_normalization_and_sign(profile13, mode13):
    _, mode = mode13
    a = profile13.alpha
    total = (1.0 + mode.mu0) * ps.weighted_norm_X(
        mode.phi0, profile13, a
    ) ** 2 + ps.weighted_norm_Y(mode.phi0, profile13, a) ** 2
    assert abs(total - 1.0) <= 1e-10
    assert mode.phi0[0] > 0
    assert not mode.near_degenerate


def test_eigen_residual_and_refinement(mode13, mode13_2048):
    _, mode = mode13
    _, fine = mode13_2048
    assert mode.residual <= 1e-8
    assert fine.residual <= 1e-8
    # the eigenvalue itself is mesh-converged far beyond the FD order
    assert abs(fine.mu0 - mode.mu0) <= 1e-6 * abs(mode.mu0)


def test_mode_regularity_report(profile13, mode13, profile13_2048, mode13_2048):
    _, mode = mode13
    rep = mode_regularity_report(mode, profile13)
    assert abs(rep["origin_slope"]) <= 1e-3 * abs(mode.phi0[0])
    for beta, vals in rep["beta_integrals"].items():
        assert np.isfinite(vals["value"]) and np.isfinite(vals["derivative"])
    for z, val in rep["z_integrals"].items():
        assert np.isfinite(val) and val > 0

    _, fine = mode13_2048
    rep2 = mode_regularity_report(fine, profile13_2048)
    for beta in rep["beta_integrals"]:
        a, b = rep["beta_integrals"][beta]["value"], rep2["beta_integrals"][beta]["value"]
        assert abs(a - b) <= 0.05 * max(a, b)
    for z in rep["z_integrals"]:
        a, b = rep["z_integrals"][z], rep2["z_integrals"][z]
        assert abs(a - b) <= 0.05 * max(a, b)


def test_mu0_against_independent_discretization(profile13, mode13):
    # dual route: the exact Jacobian of the conservative nonlinear scheme
    # at equilibrium is an independent symmetric discretization of the
    # same operator; its top eigenvalue must agree at the FD order
    import polystar.evolution as ev
    from scipy.linalg import eigh_tridiagonal

    _, mode = mode13
    prof = profile13
    r = prof.grid
    N = r.size - 1
    alpha = prof.alpha
    gt = (1 + alpha) / alpha
    rm = 0.5 * (r[:-1] + r[1:])
    wm, _ = prof.enthalpy(rm)
    wm1a = np.clip(wm, 0, None) ** (1 + alpha)
    r3 = r**3
    V = np.diff(r3) / 3.0
    dri = 0.5 * (r[2:] - r[:-2])
    m = prof.w[1:N] ** alpha * r[1:N] ** 4 * dri
    diag = np.empty(N - 1)
    off = np.empty(N - 2)
    for j in range(1, N):
        i = j - 1
        diag[i] = -gt * (
            wm1a[j] * r3[j] * r3[j] / V[j] + wm1a[j - 1] * r3[j] * r3[j] / V[j - 1]
        ) + 4.0 * prof.phi[j] * m[i]
        if j < N - 1:
            off[i] = gt * wm1a[j] * r3[j] * r3[j + 1] / V[j]
    s = 1.0 / np.sqrt(m)
    vals = eigh_tridiagonal(
        diag * s * s, off * s[:-1] * s[1:], select="i",
        select_range=(N - 2, N - 2), eigvals_only=True,
    )
    assert vals[0] == pytest.approx(mode.mu0, rel=2e-3)


def test_marginal_gamma_mode_is_constant():
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=4 / 3), 1024)
    mode = ps.largest_eigenpair(ps.assemble_pencil(prof))
    interior = mode.phi0[1:-1]
    variation = (interior.max() - interior.min()) / np.abs(interior).max()
    assert variation <= 1e-3
    assert abs(mode.mu0) <= 1e-8


# ---------------------------------------------------------------------------
# The in-package tridiagonal solver
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _scaled_tridiagonal(disc):
    """The M^(-1/2)-scaled (d, e) that largest_eigenpair hands the solver,
    and ||T|| as the Gershgorin bound."""
    scale = 1.0 / np.sqrt(disc.mass)
    d = -disc.stiffness_diag * scale * scale
    e = -disc.stiffness_off * scale[:-1] * scale[1:]
    rows = np.abs(d)
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    return d, e, float(rows.max())


@pytest.mark.parametrize("n_nodes", [256, 1024, 2048])
@pytest.mark.parametrize("gamma", [1.22, 1.3, 4 / 3, 1.7, 2.0])
def test_largest_eigenpair_agrees_with_lapack(gamma, n_nodes):
    # LAPACK's stebz/stein through scipy, the solver this package used
    # before: both resolve eigenvalues to about eps ||T|| absolute
    from scipy.linalg import eigh_tridiagonal

    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), n_nodes)
    disc = ps.assemble_pencil(prof)
    mode = ps.largest_eigenpair(disc, eig_tol=1e-8)
    d, e, tnorm = _scaled_tridiagonal(disc)
    n = d.size
    top = eigh_tridiagonal(d, e, select="i", select_range=(n - 2, n - 1), eigvals_only=True)
    assert abs(mode.mu0 - top[1]) <= 2.0 * EPS * tnorm
    assert abs(mode.gap - (top[1] - top[0])) <= 2.0 * EPS * tnorm

    _, vecs = eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))
    ref = np.empty(disc.N + 1)
    ref[1:-1] = vecs[:, 0] / np.sqrt(disc.mass)
    disc.extrapolate_endpoints(ref)
    ref *= np.sign(ref[0])
    nx, ny = ps.weighted_norm_X(ref, prof, prof.alpha), ps.weighted_norm_Y(ref, prof, prof.alpha)
    ref /= np.sqrt((1.0 + top[1]) * nx**2 + ny**2)
    assert np.abs(mode.phi0 - ref).max() <= 1e-9

    interior = mode.phi0[1:-1]
    res_scale = (disc.mass / disc.dr_interior).max() * np.abs(interior).max() * (1.0 + abs(mode.mu0))
    assert mode.residual <= 1e-8 * res_scale


def test_top_eigenpair_of_the_second_difference_matrix():
    # d = 2, e = -1: eigenvalues 2 - 2 cos(k pi/(n+1)), k = 1..n, and the
    # top eigenvector sin(j n pi/(n+1)), j = 1..n
    n = 100
    d = np.full(n, 2.0)
    e = np.full(n - 1, -1.0)
    j = np.arange(1, n + 1)
    trials = np.stack([np.ones(n), j / n])
    tnorm = 4.0
    mu0, mu1, vec = _tridiag.top_eigenpair(d, e, trials)
    assert abs(mu0 - (2.0 - 2.0 * np.cos(n * np.pi / (n + 1)))) <= 2.0 * EPS * tnorm
    assert abs(mu1 - (2.0 - 2.0 * np.cos((n - 1) * np.pi / (n + 1)))) <= 2.0 * EPS * tnorm
    exact = np.sin(j * n * np.pi / (n + 1))
    exact /= np.linalg.norm(exact)
    assert np.abs(vec * np.sign(vec[0]) - exact).max() <= 1e-10

    again = _tridiag.top_eigenpair(d, e, trials)
    assert again[0] == mu0 and again[1] == mu1
    assert np.array_equal(again[2], vec)


def test_top_eigenpair_takes_few_sturm_passes(mode13, monkeypatch):
    # Laguerre steps from the Ritz values: 2 passes for mu0 and 5 for mu1
    # at gamma 1.3, where bisection alone would take about 40 each
    disc, mode = mode13
    calls = []
    sturm = _tridiag._sturm

    def counted(*args):
        calls.append(args[2])
        return sturm(*args)

    monkeypatch.setattr(_tridiag, "_sturm", counted)
    assert ps.largest_eigenpair(disc).mu0 == mode.mu0
    assert len(calls) <= 10


def test_mode_converges_at_8192_nodes(tmp_path, monkeypatch):
    # LAPACK's eigenvector missed the eigen residual gate here (3.75e-8
    # against 1e-8 * scale 1.19), and `mode` exited 3 (ConvergenceFailure)
    import json

    from polystar.cli import main

    monkeypatch.setenv("POLYSTAR_OUT", str(tmp_path))
    assert main(["mode", "--nodes", "8192"]) == 0
    mode = json.loads((tmp_path / "mode.json").read_text())
    assert mode["mu0"] == pytest.approx(0.0318259, rel=1e-5)
    assert mode["residual"] <= 1e-8
