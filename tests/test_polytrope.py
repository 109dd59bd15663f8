"""Equilibrium solver tests: closed form, series identities, boundary
behavior, energy identity, and structural invariants."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

import polystar as ps
from polystar import _dop853, cli
from polystar.errors import (
    ConfigError,
    InsufficientResolution,
    NonMonotone,
    NoVacuumRadius,
    OutOfDomain,
    UnsupportedOrder,
)
from polystar.polytrope import MIN_LENGTH, validate_profile


def test_closed_form_n1_polytrope(profile2):
    # alpha = 1, c = 1: w = sin(r)/r with R = pi
    r = profile2.grid
    exact = np.ones_like(r)
    exact[1:] = np.sin(r[1:]) / r[1:]
    assert np.abs(profile2.w - exact).max() <= 1e-8
    assert abs(profile2.R - math.pi) <= 1e-8


def test_closed_form_solve_under_one_second():
    t0 = time.perf_counter()
    ps.solve_lane_emden(ps.PolytropeConfig(gamma=2.0), 1024)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("gamma", [1.25, 1.3, 1.32, 1.4, 5 / 3])
def test_center_conditions(gamma):
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256)
    assert prof.w[0] == 1.0
    assert prof.w_r[0] == 0.0
    assert np.all(prof.w[1:-1] > 0)
    assert np.all(prof.w_r[1:] < 0)


def test_origin_series_order2():
    cfg = ps.PolytropeConfig(gamma=1.3)
    coef = ps.origin_series(cfg, 2)
    assert coef[0] == 1.0
    assert coef[1] == 0.0
    assert coef[2] == pytest.approx(-cfg.c_frak / 6.0, abs=1e-15)


def test_origin_series_order4_alpha3():
    cfg = ps.PolytropeConfig(gamma=4 / 3)  # alpha = 3
    coef = ps.origin_series(cfg, 4)
    assert coef[4] == pytest.approx(cfg.alpha * cfg.c_frak**2 / 120.0, rel=1e-13)


@pytest.mark.parametrize("gamma", [1.25, 1.3, 1.7])
def test_origin_series_odd_coefficients_vanish(gamma):
    coef = ps.origin_series(ps.PolytropeConfig(gamma=gamma), 8)
    assert coef[1] == 0.0 and coef[3] == 0.0 and coef[5] == 0.0 and coef[7] == 0.0


def test_origin_series_order_guard():
    with pytest.raises(UnsupportedOrder):
        ps.origin_series(ps.PolytropeConfig(gamma=1.3), 9)


@pytest.mark.parametrize("gamma", [1.25, 1.3, 1.32])
def test_series_second_and_fourth_derivative_identities(gamma):
    cfg = ps.PolytropeConfig(gamma=gamma)
    coef = ps.origin_series(cfg, 4)
    w_rr0 = 2.0 * coef[2]
    w_rrrr0 = 24.0 * coef[4]
    assert abs(w_rr0 + cfg.c_frak / 3.0) <= 1e-10
    assert abs(w_rrrr0 - cfg.alpha * cfg.c_frak**2 / 5.0) <= 1e-8


def test_odd_derivatives_vanish_at_origin(profile13):
    # w_r(h) ~ -c h/3 has no h^0 or h^2 part; (w_r + c h/3) scales as h^3
    c = profile13.c_frak
    for h in (1e-3, 5e-4):
        _, wr = profile13.enthalpy(h)
        assert abs(wr[0] + c * h / 3.0) <= 5.0 * h**3


def test_substitution_residual(profile13):
    assert ps.substitution_residual(profile13) <= 1e-6


def test_radius_mesh_convergence():
    cfg = ps.PolytropeConfig(gamma=1.3)
    R = [ps.solve_lane_emden(cfg, n).R for n in (256, 512, 1024)]
    # R is located by root-finding on dense output, not by the grid
    assert abs(R[1] - R[0]) <= 1e-10 * R[0]
    assert abs(R[2] - R[1]) <= 1e-10 * R[1]


def test_no_vacuum_radius_guard():
    with pytest.raises(NoVacuumRadius):
        ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.25, r_max=5.0), 256)


@pytest.mark.parametrize("series_radius", [None, 2e-3], ids=["default", "explicit"])
@pytest.mark.parametrize("gamma", [1.22, 1.3, 5.0 / 3.0, 2.0])
def test_vacuum_radius_is_the_profiles_r(gamma, series_radius):
    # the production pass alone, from the series radius of a profile at
    # other tolerances, finds the R of a whole profile at these
    pc = ps.PolytropeConfig(gamma=gamma, series_radius=series_radius)
    base = ps.solve_lane_emden(pc, 64)
    finer = dataclasses.replace(
        pc, ode_rel_tol=pc.ode_rel_tol / 10, ode_abs_tol=pc.ode_abs_tol / 10
    )
    assert ps.polytrope.vacuum_radius(finer, base.series_radius) == ps.solve_lane_emden(finer, 64).R
    assert ps.polytrope.vacuum_radius(pc, base.series_radius) == base.R


@pytest.mark.parametrize("gamma, r_max", [(1.25, 5.0), (1.3, 1e-3), (2.0, 3.0)])
def test_vacuum_radius_raises_where_the_profile_does(gamma, r_max):
    # r_max below R, and at gamma 1.3 below the series radius too
    pc = ps.PolytropeConfig(gamma=gamma, r_max=r_max)
    msg = rf"w did not cross zero before r_max={r_max} \(gamma={gamma}\)"
    with pytest.raises(NoVacuumRadius, match=msg):
        ps.solve_lane_emden(pc, 64)
    R = ps.solve_lane_emden(dataclasses.replace(pc, r_max=500.0), 64).R
    assert r_max < R
    with pytest.raises(NoVacuumRadius, match=msg):
        ps.polytrope.vacuum_radius(pc, 1e-3 * R)


def test_r_max_at_or_below_the_start_radius_is_no_vacuum_radius():
    # the rough pass starts at r = 1e-6; solve_ivp integrated backwards
    # from there and ended with status 0
    for r_max in (1e-7, 1e-6):
        msg = rf"w did not cross zero before r_max={r_max} \(gamma=1.3\)"
        with pytest.raises(NoVacuumRadius, match=msg):
            ps.solve_lane_emden(ps.PolytropeConfig(r_max=r_max), 256)


def test_step_size_collapse_is_no_vacuum_radius(monkeypatch):
    # status -1 ("Required step size is less than spacing between
    # numbers") from a right-hand side that blows up at r = 1
    solve = _dop853.solve

    def blowing_up(fun, t0, y0, t_bound, rtol, atol, dense):
        sol = solve(lambda t, y: (y[0] ** 2, 0.0), 0.0, (1.0, 0.0), t_bound, rtol, atol, dense)
        assert sol.status == -1
        return sol

    monkeypatch.setattr(_dop853, "solve", blowing_up)
    with pytest.raises(NoVacuumRadius, match=r"before r_max=500.0 \(gamma=1.3\)"):
        ps.solve_lane_emden(ps.PolytropeConfig(), 256)


def _event_on_w():
    def surface(r, y):
        return y[0]

    surface.terminal = True
    surface.direction = -1
    return surface


def _solve_ivp(fun, t0, y0, t_bound, rtol, atol, dense):
    return solve_ivp(
        fun, (t0, t_bound), y0, method="DOP853", rtol=rtol, atol=atol,
        events=_event_on_w(), dense_output=dense,
    )


def test_dop853_tableau_is_scipys():
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(_dop853, name), getattr(dop853_coefficients, name)), name


PIN_GAMMAS = [1.205, 1.22, 1.25, 1.3, 4 / 3, 1.4, 5 / 3, 1.9, 2.0]


@pytest.mark.parametrize("gamma", PIN_GAMMAS)
def test_dop853_equals_solve_ivp_bit_for_bit(gamma, monkeypatch):
    # both passes of a solve: the rough one (1e-8/1e-10, no dense output)
    # and the production one, against solve_ivp on the same arguments
    calls = []
    solve = _dop853.solve

    def recorded(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(_dop853, "solve", recorded)
    ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256)
    assert [args[4:] for args, _ in calls] == [(1e-8, 1e-10, False), (1e-12, 1e-14, True)]
    for args, sol in calls:
        ref = _solve_ivp(*args)
        assert sol.status == ref.status == 1
        assert np.array_equal(sol.t, ref.t)
        assert sol.root == ref.t_events[0][0]
        assert (sol.sol is None) == (ref.sol is None)
    sol, ref = calls[1][1], _solve_ivp(*calls[1][0])
    radii = np.concatenate([np.linspace(sol.t[0], sol.t[-1], 3001), sol.t, sol.t[1:] - 1e-9])
    assert np.array_equal(sol.sol(radii), ref.sol(radii))
    assert sol.sol.t_max == ref.sol.t_max


def test_dense_output_reads_the_earlier_step_at_a_step_end():
    # OdeSolution's searchsorted(side="left"): t = ts[k] reads step k - 1;
    # on real steps both choices mostly agree to the last bit
    F = np.zeros((_dop853.INTERPOLATOR_POWER, 2, 1))
    ts, y_old = np.array([0.0, 1.0, 2.0]), np.array([[0.0], [5.0]])
    dense = _dop853.DenseSolution(ts, np.ones(2), y_old, F)
    assert dense(np.array([0.0, 1.0, 1.5, 2.0])).tolist() == [[0.0, 0.0, 5.0, 5.0]]


def test_dop853_step_size_collapse_equals_solve_ivp():
    # y' = y^2 from y = 1 blows up at t = 1
    def fun(t, y):
        return (y[0] ** 2, 0.0)

    sol = _dop853.solve(fun, 0.0, (1.0, 0.0), 2.0, 1e-12, 1e-14, False)
    ref = solve_ivp(fun, (0.0, 2.0), (1.0, 0.0), method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.status == ref.status == -1
    assert np.array_equal(sol.t, ref.t)
    assert sol.t[-1] == 1.0000000000001357 and sol.t.size == 428  # t0 and 427 steps


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x**3 - 2.0, 0.0, 2.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 3.0, -1.0, 4.0),
        (lambda x: (x - 0.3) * (x + 2.0), 0.0, 1.0),
        (lambda x: 1.0 / (x - 0.7) if x != 0.7 else 0.0, 0.0, 1.0),
        (lambda x: math.sin(50.0 * x), 0.01, 0.1),
        (lambda x: x - 1e-300, -1.0, 1.0),
    ],
)
def test_brent_root_equals_scipys(f, a, b):
    eps = np.finfo(float).eps
    assert _dop853._brentq(f, a, b) == brentq(f, a, b, xtol=4 * eps, rtol=4 * eps)


def test_brent_root_is_none_where_scipy_raises():
    eps = np.finfo(float).eps
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=4 * eps, rtol=4 * eps)
    assert _dop853._brentq(lambda x: x * x + 1.0, -1.0, 1.0) is None

    def flat(x):
        return (x - 1.0 / 3.0) ** 5

    with pytest.raises(RuntimeError, match="converge after 100"):
        brentq(flat, 0.0, 1.0, xtol=4 * eps, rtol=4 * eps)
    assert _dop853._brentq(flat, 0.0, 1.0) is None


def _through_solve_ivp(*args):
    """_dop853.solve's result, computed by solve_ivp."""
    ref = _solve_ivp(*args)
    return _dop853.Solution(ref.status, ref.t, ref.t_events[0][0], ref.sol)


@pytest.mark.parametrize("n_nodes", [64, 256, 1024, 2048])
@pytest.mark.parametrize("gamma", PIN_GAMMAS)
def test_profile_equals_a_solve_ivp_build(gamma, n_nodes, monkeypatch):
    cfg = ps.PolytropeConfig(gamma=gamma)
    prof = ps.solve_lane_emden(cfg, n_nodes)
    monkeypatch.setattr(_dop853, "solve", _through_solve_ivp)
    ref = ps.solve_lane_emden(cfg, n_nodes)
    for name in ("grid", "w", "w_r", "phi"):
        assert np.array_equal(getattr(prof, name), getattr(ref, name)), name
    assert (prof.R, prof.mass, prof.series_radius) == (ref.R, ref.mass, ref.series_radius)
    assert ps.equilibrium_energy(prof) == ps.equilibrium_energy(ref)
    idx = np.linspace(8, n_nodes - 8, 9).astype(int)
    radii = np.concatenate([[0.0], prof.grid[idx], [prof.R]])
    phi, phi_ref = ps.potential_coefficient(prof, radii), ps.potential_coefficient(ref, radii)
    assert np.array_equal(phi, phi_ref)


def _run_fresh(code: str):
    """`code` run in a fresh interpreter that imports this polystar."""
    src = os.path.dirname(os.path.dirname(ps.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    return out


@pytest.mark.parametrize("K", [1e-30, 1e-5])
def test_small_K_is_a_config_error_that_names_it(tmp_path, K):
    # at gamma 1.3 these stars lie inside the rough pass's start r = 1e-6
    # (c^(-1/2) = 5.9e-51 and 2.7e-9): K = 1e-30 hung the solve and 1e-5
    # ended NoVacuumRadius after overflow warnings.  Both documents are
    # refused with exit 2, in a child process that must end in time
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps({"polytrope": {"gamma": 1.3, "K": K}}))
    src = os.path.dirname(os.path.dirname(ps.__file__))
    argv = ["profile", "--nodes", "64", "--config", str(doc), "--out", str(tmp_path / "out")]
    out = subprocess.run(
        [sys.executable, "-m", "polystar.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        timeout=60,
    )
    assert out.returncode == 2, out.stderr
    assert f"config error: K={K} at gamma=1.3" in out.stderr
    assert "Lane-Emden length" in out.stderr and not (tmp_path / "out").exists()


@pytest.mark.parametrize("gamma", [1.22, 1.3, 2.0])
def test_smallest_K_accepted_solves_the_scaled_star(gamma):
    # just above the bound, c = MIN_LENGTH^(-2): the star is the default
    # one shrunk by its Lane-Emden length c^(-1/2), to solver accuracy
    alpha = 1.0 / (gamma - 1.0)
    k_min = (4.0 * math.pi * MIN_LENGTH**2 / (1.0 + alpha)) ** (gamma - 1.0)
    with pytest.raises(ConfigError, match="Lane-Emden length"):
        ps.PolytropeConfig(gamma=gamma, K=k_min * (1.0 - 1e-9))
    config = ps.PolytropeConfig(gamma=gamma, K=k_min * (1.0 + 1e-9))
    assert config.c_frak == pytest.approx(MIN_LENGTH**-2, rel=1e-8)
    unit = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 64).R
    assert ps.solve_lane_emden(config, 64).R * math.sqrt(config.c_frak) == pytest.approx(
        unit, rel=1e-10
    )


_PRINT_SCIPY = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"


def test_import_loads_no_scipy_integrate():
    # the Lane-Emden solve and the eigen solve are in-package
    code = (
        "import sys\n"
        "import polystar\n"
        "from polystar import experiments\n"
        "from polystar.config import ExperimentConfig\n"
        "experiments.build_mode(experiments.build_profile(ExperimentConfig()), 1e-8)\n"
    ) + _PRINT_SCIPY
    out = _run_fresh(code)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def test_check_loads_no_scipy(tmp_path):
    # the Hardy families integrate on the in-package not-a-knot cubic
    code = (
        "import sys\n"
        "from polystar import cli\n"
        f"print(cli.main(['check', '--nodes', '256', '--out', {str(tmp_path)!r}]))\n"
    ) + _PRINT_SCIPY
    out = _run_fresh(code)
    assert out.stdout.strip().splitlines()[-2:] == ["0", "[]"], out.stdout + out.stderr
    assert (tmp_path / "hardy.csv").exists()


def test_package_runs_without_scipy(tmp_path):
    # an import of any scipy module raises ImportError in this interpreter
    (tmp_path / "evolve.json").write_text('{"sim": {"t_end": 0.5}}')
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import math\n"
        "from polystar import cli\n"
        "from polystar.energetics import hardy_trace_check\n"
        f"check = cli.main(['check', '--nodes', '256', '--out', {str(tmp_path / 'check')!r}])\n"
        f"evolve = cli.main(['evolve', '--nodes', '256', '--config', {str(tmp_path / 'evolve.json')!r},"
        f" '--out', {str(tmp_path / 'evolve')!r}])\n"
        "rep = hardy_trace_check(math.sqrt, 0.5, lambda s: 0.5 / math.sqrt(s))\n"
        "print(check, evolve, rep.lhs)\n"
    )
    out = _run_fresh(code)
    check, evolve, lhs = out.stdout.strip().splitlines()[-1].split()
    assert (check, evolve) == ("0", "0"), out.stdout + out.stderr
    assert float(lhs) == pytest.approx(2.0, rel=1e-12)
    assert (tmp_path / "evolve" / "energies.json").exists()


def test_scipy_is_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not [d for d in project["dependencies"] if d.startswith("scipy")]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_nonmonotone_detection(profile13):
    import dataclasses

    corrupted = dataclasses.replace(profile13, w_r=-profile13.w_r)
    with pytest.raises(NonMonotone):
        validate_profile(corrupted)


def test_grid_structure(profile13):
    r = profile13.grid
    assert r[0] == 0.0 and r[-1] == profile13.R
    assert np.all(np.diff(r) > 0)
    assert np.count_nonzero(profile13.w < 0.1) >= 64
    assert profile13.series_radius < 0.01 * profile13.R


def test_grading_one_gives_a_uniform_boundary_layer(tmp_path):
    # rho = 1 would make the geometric cell width 0/0
    from polystar.polytrope import _composite_grid

    for n_nodes in (64, 256, 1024):
        grid = _composite_grid(8.0, n_nodes, 1.0)
        layer = np.diff(grid[grid >= 0.9 * 8.0])
        assert layer == pytest.approx(np.full(layer.size, layer[0]), rel=1e-12)
        assert grid[-1] == 8.0 and np.all(np.diff(grid) > 0)
    (tmp_path / "uniform.json").write_text('{"mesh": {"n_nodes": 256, "grading": 1.0}}')
    code = cli.main(
        ["profile", "--config", str(tmp_path / "uniform.json"), "--out", str(tmp_path / "out")]
    )
    assert code == 0


def test_potential_coefficient_center_limit(profile13):
    expected = 4.0 * math.pi / (3.0 * profile13.K**profile13.alpha)
    assert ps.potential_coefficient(profile13, 0.0) == pytest.approx(expected, rel=1e-14)
    assert profile13.phi[0] == pytest.approx(expected, rel=1e-12)


def test_potential_coefficient_identity(profile13):
    # quadrature route agrees with -(1+alpha) w_r / r at the nodes
    idx = np.linspace(4, profile13.n_nodes - 4, 12).astype(int)
    for j in idx:
        r = float(profile13.grid[j])
        quad_phi = ps.potential_coefficient(profile13, r)
        assert abs(quad_phi - profile13.phi[j]) <= 1e-6 * profile13.phi[j]


def test_potential_monotone_bounded(profile13):
    phi = profile13.phi
    assert np.all(phi > 0)
    assert np.all(np.diff(phi) <= 1e-14)
    assert phi.max() == phi[0]


def test_potential_out_of_domain(profile13):
    with pytest.raises(OutOfDomain):
        ps.potential_coefficient(profile13, 1.5 * profile13.R)


def _quad_potential_coefficient(profile, r):
    """Phi(r) by adaptive quad of (4 pi / K^alpha) w^alpha s^2 / r^3: a
    slow reference for the Gauss-Legendre route on the solver's steps."""
    pref = 4.0 * math.pi / profile.K**profile.alpha

    def integrand(s):
        return max(profile.enthalpy(s)[0][0], 0.0) ** profile.alpha * s * s

    val, _ = quad(integrand, 0.0, min(r, profile.R), limit=200)
    return pref * val / r**3


@functools.cache
def _nested_quad_reference(gamma):
    """_nested_quad_direct_energy at one gamma; the ODE solve, and so the
    energy, does not depend on the mesh size."""
    return _nested_quad_direct_energy(ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256))


def _nested_quad_direct_energy(profile):
    """The direct energy route with the enclosed mass integrated again,
    by quad, at every point of the field integral: a slow reference."""
    alpha, R, gamma = profile.alpha, profile.R, profile.gamma
    Ka = profile.K**alpha

    def w(s):
        return max(profile.enthalpy(s)[0][0], 0.0)

    p_int, _ = quad(lambda s: 4.0 * math.pi * s * s * w(s) ** (1.0 + alpha), 0.0, R, limit=200)
    p_int /= Ka

    def mass_inside(rv):
        val, _ = quad(lambda s: w(s) ** alpha * s * s, 0.0, rv, limit=200)
        return 4.0 * math.pi * val / Ka

    M = mass_inside(R)
    field_int, _ = quad(lambda rv: mass_inside(rv) ** 2 / rv**2, 1e-9 * R, R, limit=200)
    return p_int / (gamma - 1.0) - 0.5 * field_int - 0.5 * M**2 / R


@pytest.mark.parametrize("gamma", [1.3, 5 / 3])
def test_equilibrium_energy_matches_nested_quadrature(gamma):
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256)
    ref = _nested_quad_reference(gamma)
    assert abs(ps.equilibrium_energy(prof).direct - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("n_nodes", [256, 1024])
@pytest.mark.parametrize("gamma", [1.25, 1.3, 1.4, 5 / 3, 2.0])
def test_step_quadrature_matches_adaptive_references(gamma, n_nodes):
    # the Gauss-Legendre routes against the adaptive quad ones they replaced
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), n_nodes)
    ref = _nested_quad_reference(gamma)
    assert abs(ps.equilibrium_energy(prof).direct - ref) <= 1e-10 * abs(ref)
    radii = prof.grid[np.linspace(8, prof.n_nodes - 8, 9).astype(int)]
    phi = ps.potential_coefficient(prof, radii)
    phi_ref = np.array([_quad_potential_coefficient(prof, float(r)) for r in radii])
    assert np.all(np.abs(phi - phi_ref) <= 1e-10 * phi_ref)


def test_potential_coefficient_on_an_array_equals_scalar_calls(profile13):
    radii = np.array([0.0, 1e-4, profile13.series_radius, 0.5, 3.0, profile13.R])
    phi = ps.potential_coefficient(profile13, radii)
    assert phi.shape == radii.shape
    assert phi.tolist() == [ps.potential_coefficient(profile13, float(r)) for r in radii]
    block = ps.potential_coefficient(profile13, radii.reshape(2, 3))
    assert np.array_equal(block, phi.reshape(2, 3))
    with pytest.raises(OutOfDomain):
        ps.potential_coefficient(profile13, np.array([1.0, 1.5 * profile13.R]))


def test_integral_diagnostics_read_the_enthalpy_once(profile13, monkeypatch):
    # each identity is one vector pass: no per-radius enthalpy callbacks
    calls = []
    enthalpy = ps.LaneEmdenProfile.enthalpy

    def counted(self, r):
        calls.append(np.size(r))
        return enthalpy(self, r)

    monkeypatch.setattr(ps.LaneEmdenProfile, "enthalpy", counted)
    ps.equilibrium_energy(profile13)
    assert len(calls) <= 2
    calls.clear()
    ps.potential_coefficient(profile13, profile13.grid[8:-8:100])
    assert len(calls) == 1


@pytest.mark.parametrize("gamma", [1.25, 1.3, 1.4, 5 / 3])
def test_equilibrium_energy_identity_to_1e9(gamma):
    # far inside criterion 13's 1e-4: both routes are resolved to ~1e-11
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256)
    assert ps.equilibrium_energy(prof).rel_diff <= 1e-9


@pytest.mark.parametrize(
    "gamma,sign", [(1.25, 1), (1.3, 1), (1.4, -1), (5 / 3, -1)]
)
def test_equilibrium_energy_sign_and_identity(gamma, sign):
    prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 256)
    ee = ps.equilibrium_energy(prof)
    assert ee.rel_diff <= 1e-4
    assert math.copysign(1.0, ee.pressure_formula) == sign
    assert math.copysign(1.0, ee.direct) == sign


@pytest.mark.parametrize("gamma", [1.25, 1.3, 1.32, 2.0])
def test_vacuum_exponent(gamma, profile13, profile2):
    if gamma == 1.3:
        prof = profile13
    elif gamma == 2.0:
        prof = profile2
    else:
        prof = ps.solve_lane_emden(ps.PolytropeConfig(gamma=gamma), 1024)
    p = ps.vacuum_exponent(prof)
    assert 0.99 <= p <= 1.01


def test_vacuum_exponent_converges_under_refinement(profile13, profile13_2048):
    # the fit window follows the finer boundary mesh, so the curvature
    # bias shrinks and the slope approaches one
    p1 = ps.vacuum_exponent(profile13)
    p2 = ps.vacuum_exponent(profile13_2048)
    assert abs(p2 - 1.0) < abs(p1 - 1.0)
    assert abs(p1 - p2) <= 5e-3


def test_vacuum_exponent_resolution_guard(profile13):
    with pytest.raises(InsufficientResolution):
        ps.vacuum_exponent(profile13, min_nodes=9999, max_decades=1)


def test_enthalpy_closed_form_off_grid(profile2):
    rs = np.linspace(0.05, 0.95, 20) * profile2.R
    w, wr = profile2.enthalpy(rs)
    assert np.abs(w - np.sin(rs) / rs).max() <= 1e-10
    exact_wr = (rs * np.cos(rs) - np.sin(rs)) / rs**2
    assert np.abs(wr - exact_wr).max() <= 1e-10


def test_mass_against_quadrature(profile13):
    # mass stored through Phi(R) R^3; oracle integrates the density directly
    alpha, Ka = profile13.alpha, profile13.K**profile13.alpha

    def integrand(s):
        return max(profile13.enthalpy(s)[0][0], 0.0) ** alpha * s * s

    oracle = 4.0 * math.pi / Ka * quad(integrand, 0.0, profile13.R, limit=200)[0]
    assert profile13.mass == pytest.approx(oracle, rel=1e-8)
