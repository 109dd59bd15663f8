"""Weighted norms, the instant/nonlinear energy hierarchy, growth-rate
fits, escape times, and Hardy-inequality property checks.

Norm conventions on a profile grid (gt = (1+alpha)/alpha):

    |f|_X(a)^2 = int w^a r^4 f^2 dr           (nodal trapezoid weights)
    |f|_Y(a)^2 = gt int w^(a+1) r^4 f_r^2 dr  (half-node fluxes between
                                               interior nodes)

With a = alpha these are the X / Y norms entering the growing-mode
normalization (1+mu0)|phi0|_X^2 + |phi0|_Y^2 = 1.  Both read the
profile's Discretization, whose flux coefficients and mass weights also
make up the pencil, so the discrete energies and the eigenproblem share
one geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._spline import NotAKnot, integrals
from .errors import ExponentOutOfRange, UnsupportedOrder, WindowTooSmall
from .evolution import (
    PerturbationState,
    SimConfig,
    accel_time_derivative,
    cell_jacobian_minus_one,
    smallness_monitor,
)
from .polytrope import _GAUSS_U, _GAUSS_W, Discretization, LaneEmdenProfile, trapezoid_weights

MAX_ENERGY_ORDER = 2
# Samples growth_fit needs in its window [3 delta, theta0/3].
MIN_FIT_SAMPLES = 32
# Halving panels hardy_trace_check sums over: down to s = 2^-100.
TRACE_PANELS = 100


def weighted_norm_X(f: np.ndarray, profile: LaneEmdenProfile, a: float) -> float:
    """|f|_X(a); for negative exponents the degenerate endpoint node is
    excluded (truncated quadrature at the last resolved node).  At
    a = alpha the weights are the Discretization's xweight."""
    disc = profile.discretization
    f = np.asarray(f, dtype=float)
    if a == disc.alpha:
        weight = disc.xweight
    elif a >= 0:
        weight = disc.w**a * disc.r**4 * disc.quad_w
    else:
        weight = np.zeros_like(disc.w)
        pos = disc.w > 0
        weight[pos] = disc.w[pos] ** a * disc.r[pos] ** 4 * disc.quad_w[pos]
    return float(_norm_X_rows(f, weight))


def weighted_norm_Y(f: np.ndarray, profile: LaneEmdenProfile, a: float) -> float:
    """|f|_Y(a) over the flux cells between interior nodes.  At a = alpha
    the cell weights are the Discretization's yweight."""
    disc = profile.discretization
    f = np.asarray(f, dtype=float)
    N = disc.N
    if a == disc.alpha:
        gcell = disc.yweight
    else:
        gcell = disc.w_half[1 : N - 1] ** (a + 1.0) * disc.rm[1 : N - 1] ** 4
    return float(_norm_Y_rows(f, disc, gcell))


def _norm_X_rows(f: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """|f|_X with the given nodal weights, over the trailing axis."""
    return np.sqrt(np.sum(weight * f * f, axis=-1))


def _norm_Y_rows(f: np.ndarray, disc: Discretization, gcell: np.ndarray) -> np.ndarray:
    """|f|_Y with the given cell weights, over the trailing axis."""
    N = disc.N
    h = disc.h[1 : N - 1]
    df = (f[..., 2:N] - f[..., 1 : N - 1]) / h
    return np.sqrt(disc.gt * np.sum(gcell * df * df * h, axis=-1))


def zero_norm(
    zeta: np.ndarray, zeta_t: np.ndarray, profile: LaneEmdenProfile
) -> float:
    """|(zeta, zeta_t)|_0: the square root of the zeroth-order energy,
    |zeta|_X^2 + |zeta_t|_X^2 + |zeta|_Y^2."""
    (norm,) = zero_norm_rows(zeta, zeta_t, profile.discretization)
    return norm


def zero_norm_rows(zeta: np.ndarray, zeta_t: np.ndarray, disc: Discretization) -> list:
    """zero_norm over the trailing axis, as a list of Python floats (one
    for a 1-D state).  The norms are squared as Python floats, whose pow
    can differ from numpy's x * x in the last bit."""
    x = _norm_X_rows(zeta, disc.xweight)
    xt = _norm_X_rows(zeta_t, disc.xweight)
    y = _norm_Y_rows(zeta, disc, disc.yweight)
    return [
        math.sqrt(a**2 + b**2 + c**2)
        for a, b, c in zip(*(np.atleast_1d(v).tolist() for v in (x, xt, y)))
    ]


def _derivative_chain(values: np.ndarray, points: np.ndarray, k: int):
    """k successive half-node differencings; returns (values, points)."""
    v, p = values, points
    for _ in range(k):
        v = np.diff(v) / np.diff(p)
        p = 0.5 * (p[:-1] + p[1:])
    return v, p


def _staggered_X(
    f: np.ndarray, profile: LaneEmdenProfile, k: int, exponent: float
) -> float:
    """int w^exponent r^4 (d_r^k f)^2 dr on the k-times staggered grid,
    for k >= 1."""
    v, p = _derivative_chain(f, profile.grid, k)
    wv, _ = profile.enthalpy(np.clip(p, 0.0, profile.R))
    wv = np.clip(wv, 0.0, None)
    return float(np.sum(wv**exponent * p**4 * trapezoid_weights(p) * v * v))


@dataclass(frozen=True)
class EnergyReport:
    """Instant energies at one time t, the state's.

    E0 = |zeta_t|_X^2 + |zeta|_Y^2 + |zeta|_X^2; Ej[j] for j >= 1 are the
    temporal energies |d_t^j zeta_t|_X^2 + |d_t^j zeta|_Y^2; Ejk[j][k]
    carry one extra power of w per spatial derivative.  frakE holds the
    nonlinear energies built on varphi = (1+zeta)^2 zeta_t.
    """

    E0: float
    Ej: list
    Ejk: list
    frakE: list
    theta_measure: dict
    t: float


def _time_ladder(state: PerturbationState, profile: LaneEmdenProfile, jmax: int):
    """[zeta, zeta_t, zeta_tt, zeta_ttt][: jmax + 2] by analytic chain rule."""
    fields = [state.zeta, state.zeta_t]
    if jmax >= 1:
        ztt, zttt = accel_time_derivative(state, profile)
        fields.append(ztt)
        if jmax >= 2:
            fields.append(zttt)
    return fields


def instant_energy(
    state: PerturbationState, profile: LaneEmdenProfile, jmax: int = 2
) -> EnergyReport:
    """Temporal and mixed instant energies up to order jmax (<= 2).

    Higher temporal orders would need either deeper analytic chain rules
    or stored trajectories; they are outside the implemented ceiling.
    """
    if jmax > MAX_ENERGY_ORDER:
        raise UnsupportedOrder(f"jmax={jmax} above implemented ceiling {MAX_ENERGY_ORDER}")
    a = profile.alpha
    gt = (1.0 + a) / a
    fields = _time_ladder(state, profile, jmax)

    E0 = (
        weighted_norm_X(state.zeta_t, profile, a) ** 2
        + weighted_norm_Y(state.zeta, profile, a) ** 2
        + weighted_norm_X(state.zeta, profile, a) ** 2
    )
    Ej = []
    Ejk = []
    for j in range(1, jmax + 1):
        Ej.append(
            weighted_norm_X(fields[j + 1], profile, a) ** 2
            + weighted_norm_Y(fields[j], profile, a) ** 2
        )
        # k = 0 is E^j itself, shared code path so the identity is exact
        row = [Ej[-1]]
        for k in range(1, j + 1):
            xpart = _staggered_X(fields[j - k + 1], profile, k, a + k)
            ypart = gt * _staggered_X(fields[j - k], profile, k + 1, 1.0 + a + k)
            row.append(xpart + ypart)
        Ejk.append(row)

    frakE = _nonlinear_energy(state, profile, fields, jmax) if jmax >= 1 else []

    ztt = fields[2] if jmax >= 1 else None
    theta = smallness_monitor(state, profile, SimConfig(), zeta_tt=ztt)
    return EnergyReport(
        E0=float(E0),
        Ej=[float(e) for e in Ej],
        Ejk=[[float(x) for x in row] for row in Ejk],
        frakE=[float(e) for e in frakE],
        theta_measure={
            "sup_zeta": theta.sup_zeta,
            "sup_zeta_r": theta.sup_zeta_r,
            "sup_zeta_t": theta.sup_zeta_t,
            "sup_w12_zeta_tt": theta.sup_w12_zeta_tt,
        },
        t=state.t,
    )


def _nonlinear_energy(
    state: PerturbationState, profile: LaneEmdenProfile, fields: list, imax: int
) -> list:
    """Nonlinear energies frakE^i for 1 <= i <= imax (<= 2), from the time
    ladder fields of state (at least imax + 2 of them), built on the
    momentum variable varphi = (1+zeta)^2 zeta_t:

        frakE^i = int w^alpha r^4 |d_t^(i-1) varphi_t|^2 / (1+zeta)^4 dr
                + gt int w^(1+alpha) J^(-(1+2 alpha)/alpha)
                      (1/r^2) |(r^3 d_t^(i-1) varphi)_r|^2 dr.

    The 1/r^2 factor is absorbed by the conservative derivative, which is
    regular at the origin by parity.
    """
    disc = profile.discretization
    a = disc.alpha
    z, zt = state.zeta, state.zeta_t
    jm1 = cell_jacobian_minus_one(z, disc)
    jfac = np.exp(-(1.0 + 2.0 * a) / a * np.log1p(jm1))

    ztt = fields[2]
    zttt = fields[3] if imax >= 2 else None

    varphi = (1.0 + z) ** 2 * zt
    varphi_t = (1.0 + z) ** 2 * ztt + 2.0 * (1.0 + z) * zt * zt
    levels = [(varphi_t, varphi)]
    if imax >= 2:
        varphi_tt = (
            (1.0 + z) ** 2 * zttt + 4.0 * (1.0 + z) * zt * ztt + 2.0 * zt**3
        )
        levels.append((varphi_tt, varphi_t))

    out = []
    for dt_phi, phi_i in levels[:imax]:
        t1 = float(np.sum(disc.xweight * dt_phi * dt_phi / (1.0 + z) ** 4))
        dc = disc.conservative_derivative(phi_i)
        t2 = float(disc.gt * np.sum(disc.w_half_1a * jfac * dc * dc * disc.d3 / 3.0))
        out.append(t1 + t2)
    return out


@dataclass(frozen=True)
class EnergyGapReport:
    """Decomposition of frakE^1 - E^1.

    The small-amplitude limit of the gap is the positive quadratic cross
    term gt * [ |zeta_t|_Yhat^2 - |zeta_t|_Y^2 ], equal (by parts) to
    3 gt int Phi w^alpha r^4 zeta_t^2 dr: it is second order in amplitude,
    the same order as the energies themselves.  Only the reduced gap,
    with that cross term removed, vanishes linearly with amplitude.
    """

    frak1: float
    E1: float
    E0: float
    cross_term: float
    cross_term_ibp: float
    gap_raw: float
    gap_reduced: float


def energy_gap_report(
    state: PerturbationState, profile: LaneEmdenProfile
) -> EnergyGapReport:
    disc = profile.discretization
    rep = instant_energy(state, profile, jmax=1)
    frak1 = rep.frakE[0]
    E1 = rep.Ej[0]
    zt = state.zeta_t
    dc = disc.conservative_derivative(zt)
    yhat2 = float(disc.gt * np.sum(disc.w_half_1a * dc * dc * disc.d3 / 3.0))
    y2 = weighted_norm_Y(zt, profile, profile.alpha) ** 2
    cross = yhat2 - y2
    cross_ibp = float(3.0 * disc.gt * np.sum(disc.xweight * disc.phi * zt * zt))
    denom = rep.E0 + E1
    return EnergyGapReport(
        frak1=frak1,
        E1=E1,
        E0=rep.E0,
        cross_term=cross,
        cross_term_ibp=cross_ibp,
        gap_raw=abs(frak1 - E1) / denom,
        gap_reduced=abs(frak1 - E1 - cross) / denom,
    )


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth rate of ln sqrt(E0) and escape diagnostics.

    escape_time is the first crossing of theta0 by sqrt(E0);
    escape_time_double the crossing of 2*theta0, the quantity the linear
    prediction (1/rate) ln(2 theta0 / delta) targets.
    """

    rate: float
    window: tuple
    r_squared: float
    escape_time: float | None
    escape_time_double: float | None
    predicted_escape: float | None


def _first_crossing(t: np.ndarray, amp: np.ndarray, level: float) -> float | None:
    above = amp >= level
    if not above.any():
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(t[0])
    # interpolate in ln amp, exact for exponential growth
    la, lb = math.log(amp[i - 1]), math.log(amp[i])
    frac = (math.log(level) - la) / (lb - la)
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def growth_fit(record, delta: float, theta0: float) -> GrowthFit:
    """Fit the growth rate on the window amplitude in [3 delta, theta0/3].

    record must expose times, E0 arrays and (optionally) mu0 of the
    underlying linear mode for the escape prediction.
    """
    t = np.asarray(record.times, dtype=float)
    amp = np.sqrt(np.asarray(record.E0, dtype=float))
    mask = (amp > 3.0 * delta) & (amp < theta0 / 3.0)
    if mask.sum() < MIN_FIT_SAMPLES:
        raise WindowTooSmall(
            f"only {int(mask.sum())} samples in the fit window [3 delta, theta0/3]"
        )
    tw, yw = t[mask], np.log(amp[mask])
    slope, intercept = np.polyfit(tw, yw, 1)
    resid = yw - (slope * tw + intercept)
    ss_tot = float(np.sum((yw - yw.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0

    mu0 = getattr(record, "mu0", None)
    predicted = (
        math.log(2.0 * theta0 / delta) / math.sqrt(mu0)
        if mu0 is not None and mu0 > 0
        else None
    )
    return GrowthFit(
        rate=float(slope),
        window=(float(tw[0]), float(tw[-1])),
        r_squared=float(r2),
        escape_time=_first_crossing(t, amp, theta0),
        escape_time_double=_first_crossing(t, amp, 2.0 * theta0),
        predicted_escape=predicted,
    )


def duhamel_remainder(nonlinear, mode, delta: float) -> dict:
    """|zeta_nl - zeta_lin|_0 against the squared linear envelope.

    zeta_lin is the linear approximate solution
    delta e^(rate t) (phi0, rate phi0) of the growing mode the nonlinear
    record started from, at each snapshot time; at t = 0 it is
    mode_initial_state's data, bit for bit, so the remainder there is 0.
    Returns arrays t, remainder and ratio = remainder/(delta e^(rate t))^2;
    the quadratic envelope makes the ratio bounded and delta-independent.
    """
    rate = mode.rate
    ts = np.asarray(nonlinear.snapshot_times)
    amp = delta * np.exp(rate * ts)
    z, zt = (np.array(rows) for rows in zip(*nonlinear.snapshots))
    a = amp[:, None]
    disc = nonlinear.profile.discretization
    rem = np.array(zero_norm_rows(z - a * mode.phi0, zt - (a * rate) * mode.phi0, disc))
    return {"t": ts, "remainder": rem, "ratio": rem / amp**2, "rate": rate}


# ---------------------------------------------------------------------------
# Hardy-inequality property checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardyReport:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.lhs == 0.0:
            return 0.0
        return self.lhs / self.rhs


def _hardy_reports(v: np.ndarray, lhs: np.ndarray, rhs: np.ndarray):
    """One HardyReport per row of v, (0, 0) for a zero row; a single
    report for a 1-D v."""
    reps = [
        HardyReport(float(lo), float(hi)) if np.any(row != 0.0) else HardyReport(0.0, 0.0)
        for row, lo, hi in zip(np.atleast_2d(v), lhs, rhs)
    ]
    return reps if v.ndim == 2 else reps[0]


def hardy_check_origin(
    v: np.ndarray, profile: LaneEmdenProfile, v_r: np.ndarray | None = None
):
    """Origin-localized inequality with cutoff c = R/4:

        int_0^c r^2 v^2  <=  C ( int_0^2c r^4 v_r^2 + int_c^2c r^4 v^2 ).

    Reports both sides.  Each integral is that of the not-a-knot cubic
    through the integrand's samples on the profile grid (polystar._spline),
    and v_r defaults to that cubic's derivative of v at the nodes.  A
    (K, N+1) block v gives one report per row, each the one-row report.
    """
    r = profile.grid
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    spline = NotAKnot(r)
    v_r = spline.slopes(rows) if v_r is None else np.atleast_2d(v_r)
    c = profile.R / 4.0
    lhs = integrals(r**2 * rows * rows, spline.weights(0.0, c))
    rhs = integrals(r**4 * v_r * v_r, spline.weights(0.0, 2 * c)) + integrals(
        r**4 * rows * rows, spline.weights(c, 2 * c)
    )
    return _hardy_reports(v, lhs, rhs)


def _smooth_step(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    out = np.zeros_like(s)
    inner = (s > 0) & (s < 1)
    si = s[inner]
    a = np.exp(-1.0 / si)
    b = np.exp(-1.0 / (1.0 - si))
    out[inner] = a / (a + b)
    out[s >= 1] = 1.0
    return out


def hardy_check_boundary(
    v: np.ndarray,
    profile: LaneEmdenProfile,
    a: float,
    v_r: np.ndarray | None = None,
):
    """Boundary-localized inequality for weight exponent a > 1:

        int w^(a-2) (psi v)^2  <=  C ( int w^a (psi v_r)^2 + int w^a (psi v)^2 )

    with the cutoff psi supported in [R-2c, R], c = R/8.  v_r defaults to
    the derivative at the nodes of the not-a-knot cubic through v on the
    whole grid.  The integrals stop at the last node with w > 0, since
    w^(a-2) is singular at R where a < 2: each is that of the not-a-knot
    cubic through the integrand's samples on the nodes up to that one,
    over [R-2c, that node], the same resolution cut for every mesh built
    from one grading.  v is one row or a block of rows, as in
    hardy_check_origin."""
    if a <= 1.0:
        raise ExponentOutOfRange("boundary variant requires exponent a > 1")
    r = profile.grid
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    v_r = NotAKnot(r).slopes(rows) if v_r is None else np.atleast_2d(v_r)
    c = profile.R / 8.0
    pos = profile.w > 0.0
    r, w, rows, v_r = r[pos], profile.w[pos], rows[:, pos], v_r[:, pos]
    psi = _smooth_step((r - (profile.R - 2 * c)) / c)
    q = NotAKnot(r).weights(profile.R - 2 * c, r[-1])
    lhs = integrals(w ** (a - 2.0) * (psi * rows) ** 2, q)
    rhs = integrals(w**a * (psi * v_r) ** 2, q) + integrals(w**a * (psi * rows) ** 2, q)
    return _hardy_reports(v, lhs, rhs)


def hardy_trace_check(g, k: float, g_prime) -> HardyReport:
    """Unit-interval variant for k < 1, where g has a trace at 0:

        int_0^1 s^(k-2) (g - g(0))^2 ds  <=  C int_0^1 s^k g'^2 ds.

    g and g_prime are callables on Python floats.  Both sides are sums of
    the 8-point Gauss-Legendre rule on the halving panels
    [2^-(j+1), 2^-j], j < TRACE_PANELS, so no integrand is evaluated at
    s = 0, where each has only integrable behaviour.  Cutting at
    2^-TRACE_PANELS drops 2^(-TRACE_PANELS (b+1)) / (b+1) of an integrand
    that behaves like s^b near 0.
    """
    if k >= 1.0:
        raise ExponentOutOfRange("trace variant requires exponent k < 1")
    a = 0.5 ** np.arange(1.0, TRACE_PANELS + 1.0)[:, None]
    nodes = list(zip((a + a * _GAUSS_U).ravel().tolist(), (a * _GAUSS_W).ravel().tolist()))
    g0 = g(0.0)
    lhs = math.fsum(wt * s ** (k - 2.0) * (g(s) - g0) ** 2 for s, wt in nodes)
    rhs = math.fsum(wt * s**k * g_prime(s) ** 2 for s, wt in nodes)
    if abs(lhs) < 1e-300:
        return HardyReport(0.0, 0.0)
    return HardyReport(lhs, rhs)
