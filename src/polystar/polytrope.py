"""Equilibrium enthalpy profiles of self-gravitating polytropes.

For a polytropic gas p = K rho^gamma the static, spherically symmetric
equilibrium enthalpy w = K rho^(gamma-1) solves

    w'' + (2/r) w' + c w^alpha = 0,   w(0) = 1,  w'(0) = 0,

with alpha = 1/(gamma-1) and c = 4*pi / ((1+alpha) K^alpha).  For
6/5 < gamma < 2 the solution vanishes at a finite radius R where it is
linear in (R - r): the density behaves like (R-r)^alpha, the hallmark
of a physical vacuum boundary.

Integration starts from the origin Taylor series

    w = 1 - (c/6) r^2 + (alpha c^2 / 120) r^4 + ...

to sidestep the removable 2/r singularity, runs the adaptive
Dormand-Prince 8(5,3) pair with dense output, and locates R as the
root of the dense w by Brent's method.  The integrator is _dop853, a
port of the path scipy.integrate.solve_ivp takes for this solve, so
this module imports numpy alone.  The default entropy constant K is
chosen so that c = 1, which makes the equation the textbook
dimensionless form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _dop853
from .errors import (
    ConfigError,
    InsufficientResolution,
    NonMonotone,
    NoVacuumRadius,
    OutOfDomain,
    UnsupportedOrder,
)

_MAX_SERIES_ORDER = 8

# fewest mesh nodes the composite grid and the solver accept
MIN_NODES = 64

# smallest relative ODE tolerance: scipy's DOP853 raised smaller ones to it
MIN_REL_TOL = 100 * np.finfo(float).eps

# The absolute radius at which solve_lane_emden's rough pass leaves the
# origin series, and the smallest Lane-Emden length c^(-1/2) accepted, a
# thousand times it.  R is at least pi such lengths (gamma 2), so the
# start lies deep inside every star accepted.
ROUGH_START = 1e-6
MIN_LENGTH = 1e3 * ROUGH_START

# Gauss-Legendre rule on [0, 1], placed on every integrator step: exact to
# degree 15, and the DOP853 dense output is a degree-7 polynomial per step
_GAUSS_U, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_U, _GAUSS_W = (1.0 + _GAUSS_U) / 2.0, _GAUSS_W / 2.0


def check_gamma(gamma: float, where: str = "gamma") -> None:
    """The compact-support branch: 6/5 < gamma <= 2."""
    if not 1.2 < gamma <= 2.0:
        raise ConfigError(f"{where}={gamma} outside the compact-support range (6/5, 2]")


@dataclass(frozen=True)
class PolytropeConfig:
    """Physical and solver parameters for one equilibrium solve.

    K = None selects (4*pi/(1+alpha))^(1/alpha), the entropy constant at
    which the Lane-Emden coefficient c equals one exactly; the field
    itself stays None so the configuration serializes as given.
    """

    gamma: float = 1.3
    K: float | None = None
    ode_rel_tol: float = 1e-12
    ode_abs_tol: float = 1e-14
    series_radius: float | None = None
    r_max: float = 500.0

    def __post_init__(self):
        check_gamma(self.gamma)
        if self.K is not None and not self.K > 0:
            raise ConfigError("entropy constant K must be positive")
        try:
            c = self.c_frak
        except (OverflowError, ZeroDivisionError):
            c = math.nan
        if not (math.isfinite(c) and c > 0):
            raise ConfigError(
                f"K={self.K} at gamma={self.gamma}: K^alpha leaves the float range"
            )
        if c > MIN_LENGTH**-2:
            # K at which c = MIN_LENGTH^(-2)
            k_min = (4.0 * math.pi * MIN_LENGTH**2 / (1.0 + self.alpha)) ** (self.gamma - 1.0)
            raise ConfigError(
                f"K={self.K} at gamma={self.gamma}: the star's Lane-Emden length "
                f"c^(-1/2) = {c**-0.5:.3g} is below {MIN_LENGTH:g}, where the profile "
                f"solve starts at r = {ROUGH_START:g}; K must be at least {k_min:.6g}"
            )
        if not (math.isfinite(self.ode_rel_tol) and self.ode_rel_tol >= MIN_REL_TOL):
            raise ConfigError(f"ode_rel_tol must be finite and >= 100 eps = {MIN_REL_TOL:.3g}")
        if not (math.isfinite(self.ode_abs_tol) and self.ode_abs_tol >= 0):
            raise ConfigError("ode_abs_tol must be finite and non-negative")
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ConfigError("r_max must be finite and positive")
        if self.series_radius is not None and not (
            math.isfinite(self.series_radius) and self.series_radius > 0
        ):
            raise ConfigError("series_radius must be finite and positive")

    @property
    def alpha(self) -> float:
        return 1.0 / (self.gamma - 1.0)

    @property
    def entropy_constant(self) -> float:
        if self.K is None:
            return (4.0 * math.pi / (1.0 + self.alpha)) ** (1.0 / self.alpha)
        return self.K

    @property
    def c_frak(self) -> float:
        return 4.0 * math.pi / ((1.0 + self.alpha) * self.entropy_constant**self.alpha)


def origin_series(config: PolytropeConfig, order: int) -> np.ndarray:
    """Taylor coefficients of w at r = 0 up to the requested order.

    Coefficients follow from matching powers in the equation: with
    w = sum a_k r^k and b_k the coefficients of w^alpha,

        a_{k+2} = -c b_k / ((k+2)(k+3)),

    where b is produced by the power recurrence for (1 + u)^alpha.
    All odd coefficients vanish identically.
    """
    if order < 0 or order > _MAX_SERIES_ORDER:
        raise UnsupportedOrder(f"series order {order} not in [0, {_MAX_SERIES_ORDER}]")
    alpha, c = config.alpha, config.c_frak
    a = [1.0, 0.0]
    b = [1.0]
    for k in range(_MAX_SERIES_ORDER - 1):
        if k > 0:
            # b_k of w^alpha via the power recurrence (a_0 = 1)
            s = 0.0
            for j in range(1, k + 1):
                s += ((alpha + 1.0) * j / k - 1.0) * a[j] * b[k - j]
            b.append(s)
        a.append(-c * b[k] / ((k + 2.0) * (k + 3.0)))
    return np.asarray(a[: order + 1])


@dataclass(frozen=True, eq=False)
class LaneEmdenProfile:
    """Equilibrium enthalpy on a composite radial grid.

    grid runs from 0 to the vacuum radius R; w and w_r are sampled from
    the integrator's dense output (series below series_radius).  phi is
    the positive potential coefficient

        Phi(r) = (1/r^3) * integral_0^r (4 pi / K^alpha) w^alpha s^2 ds
               = -(1+alpha) w_r / r,

    stored through the closed-form identity so that downstream operators
    can rely on it exactly.  mass is the total mass Phi(R) * R^3.
    """

    gamma: float
    alpha: float
    K: float
    c_frak: float
    R: float
    grid: np.ndarray
    w: np.ndarray
    w_r: np.ndarray
    phi: np.ndarray
    mass: float
    series_radius: float
    _series: np.ndarray = field(repr=False)
    _dseries: np.ndarray = field(repr=False)
    _dense: object = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.grid.size

    def enthalpy(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(w, w_r) at arbitrary radii in [0, R], series + dense output."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0) or np.any(r > self.R * (1 + 1e-12)):
            raise OutOfDomain("radius outside [0, R]")
        return _series_or_dense(r, self.series_radius, self._series, self._dseries, self._dense)

    @cached_property
    def discretization(self) -> Discretization:
        """The grid quantities shared by every operator on this profile,
        built on first use; dataclasses.replace starts a fresh one."""
        return Discretization.from_profile(self)


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on increasing nodes."""
    w = np.empty_like(points)
    w[0] = (points[1] - points[0]) / 2.0
    w[-1] = (points[-1] - points[-2]) / 2.0
    w[1:-1] = (points[2:] - points[:-2]) / 2.0
    return w


@dataclass(frozen=True, eq=False)
class Discretization:
    """Everything the discrete operators need that depends on the profile
    alone: one geometry for the weighted norms X and Y, the energies, the
    spectral pencil, and the linear and nonlinear accelerations.

    Node arrays run over j = 0..N, half-node arrays over the N cells
    [r_j, r_{j+1}], and interior arrays over j = 1..N-1.
    """

    alpha: float
    gt: float                     # (1 + alpha) / alpha
    N: int
    r: np.ndarray                 # nodes
    h: np.ndarray                 # cell widths
    rm: np.ndarray                # half-node radii
    w: np.ndarray                 # nodal w, clipped at zero
    w_half: np.ndarray            # half-node w, clipped at zero
    w_half_1a: np.ndarray         # w_half^(1+alpha)
    phi: np.ndarray               # nodal potential coefficient
    r3: np.ndarray                # r^3
    r3_third: np.ndarray          # r^3 / 3
    d3: np.ndarray                # [r^3] across each cell
    three_over_d3: np.ndarray     # 3 / [r^3]
    quad_w: np.ndarray            # nodal trapezoid weights
    dr_interior: np.ndarray       # interior trapezoid weights
    xweight: np.ndarray           # w^alpha r^4 quad_w: the X-norm weights
    yweight: np.ndarray           # (w_half^(1+alpha) rm^4)[1:N-1]: the Y-norm cell weights
    inv_wr: np.ndarray            # interior 1 / (w^alpha r)
    inv_dr_wr: np.ndarray         # interior 1 / (dr w^alpha r), dr the trapezoid weight
    dloc: np.ndarray              # nodal CFL lengths
    mass: np.ndarray              # interior w^alpha r^4 dr: the pencil's mass
    stiffness_diag: np.ndarray    # pencil diagonal, interior
    stiffness_off: np.ndarray     # minus the flux gt (w^(1+alpha) r^4)_{j+1/2} / h_j
    origin_coef: float            # even extrapolation factor, see extrapolate_endpoints

    @classmethod
    def from_profile(cls, profile: LaneEmdenProfile) -> Discretization:
        alpha = profile.alpha
        gt = (1.0 + alpha) / alpha
        r = profile.grid
        N = r.size - 1
        h = np.diff(r)
        rm = 0.5 * (r[:-1] + r[1:])
        w_half = np.clip(profile.enthalpy(rm)[0], 0.0, None)
        w_half_1a = w_half ** (1.0 + alpha)
        r3 = r**3
        d3 = np.diff(r3)
        wr = profile.w[1:N] ** alpha * r[1:N]
        w = np.clip(profile.w, 0.0, None)
        quad_w = trapezoid_weights(r)
        xweight = w**alpha * r**4 * quad_w
        yweight = w_half_1a[1 : N - 1] * rm[1 : N - 1] ** 4
        mass = xweight[1:N]
        dloc = np.empty(N + 1)
        dloc[0] = h[0]
        dloc[-1] = h[-1]
        dloc[1:N] = np.minimum(h[:-1], h[1:])
        # flux-form stiffness: interior cells j = 1 .. N-2 couple interior
        # neighbours; the degenerate outer fluxes are omitted
        flux = gt * yweight / h[1 : N - 1]
        diag = np.zeros(N - 1)
        diag[:-1] += flux
        diag[1:] += flux
        diag -= (4.0 - 3.0 * gt) * profile.phi[1:N] * mass
        return cls(
            alpha=alpha, gt=gt, N=N, r=r, h=h, rm=rm, w=w,
            w_half=w_half, w_half_1a=w_half_1a, phi=profile.phi,
            r3=r3, r3_third=r3 / 3.0, d3=d3, three_over_d3=3.0 / d3,
            quad_w=quad_w, dr_interior=quad_w[1:N], xweight=xweight, yweight=yweight,
            inv_wr=1.0 / wr, inv_dr_wr=1.0 / (quad_w[1:N] * wr),
            dloc=dloc, mass=mass, stiffness_diag=diag, stiffness_off=-flux,
            origin_coef=(0.0 - r[1] ** 2) / (r[2] ** 2 - r[1] ** 2),
        )

    @cached_property
    def flat(self) -> FlatRows:
        """This grid as the one row of a FlatRows, built on first use."""
        return FlatRows.build([self])

    def extrapolate_endpoints(self, v: np.ndarray) -> None:
        """Set the endpoint values of a nodal array from its interior, in
        place: even (quadratic in r^2) through the first two interior nodes
        at the origin, linear through the last two at the vacuum radius."""
        h = self.h
        v[0] = v[1] + (v[2] - v[1]) * self.origin_coef
        v[-1] = v[-2] + (v[-2] - v[-3]) / h[-2] * h[-1]

    def conservative_derivative(self, g: np.ndarray) -> np.ndarray:
        """(r^3 g)_r / r^2 at the half nodes as 3 [r^3 g] / [r^3], over the
        trailing axis."""
        p = self.r3 * g
        out = p[..., 1:] - p[..., :-1]
        out *= 3.0
        out /= self.d3
        return out

    def apply_stiffness(self, phi: np.ndarray) -> np.ndarray:
        """S phi on the interior nodes, over the trailing axis; S represents -L."""
        out = self.stiffness_diag * phi
        out[..., :-1] += self.stiffness_off * phi[..., 1:]
        out[..., 1:] += self.stiffness_off * phi[..., :-1]
        return out

    def bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """u^T S v on the interior nodes through a manifestly symmetric
        expression: swapping u and v permutes only commutative additions,
        so the value is bitwise identical."""
        return float(
            np.sum(self.stiffness_diag * (u * v))
            + np.sum(self.stiffness_off * (u[:-1] * v[1:] + u[1:] * v[:-1]))
        )


@dataclass(frozen=True, eq=False)
class FlatRows:
    """The nonlinear acceleration coefficients of B rows laid end to end,
    row b on its own Discretization (one profile's grid; every row has
    the same N), so that the kernel can treat a C-contiguous (B, N+1)
    block as one flat vector of M = B(N+1) nodes and run each stencil
    operation as one contiguous call whatever B is.  Constant factors
    are merged into one coefficient per operation, computed here once.

    Flat node k is node k mod (N+1) of row k // (N+1); flat cell k joins
    flat nodes k and k+1.  The B-1 cells that join one row's vacuum node
    to the next row's origin, and the row ends among the flat interior
    nodes 1..M-2, are junk: no real entry reads them, and the kernel
    overwrites the junk nodes with each row's endpoint values.  The pads
    keep junk harmless: three_over_d3 is NaN across a join, so junk
    J - 1 is NaN (never <= -1, skipped by fmin) and stays NaN downstream
    without a floating-point warning; the weights and flux_coef are 0 at
    the row ends and joins.

    scratch is the kernel's working vector, allocated once here, and the
    regions the kernel reads and writes are views of it prepared here
    too, so that a call derives no array from it: the kernel reads
    nothing from scratch that the same call did not write.  views(zeta,
    out) prepares the views of one pair of zeta and acceleration blocks.
    """

    N: int
    r3: np.ndarray           # (M,) r^3
    r3_third: np.ndarray     # (M,) r^3 / 3
    three_over_d3: np.ndarray  # (M-1,) 3 / [r^3] across each flat cell
    exponent: np.ndarray     # (2M-2,) [-4 at nodes 1..M-1 | -gt at the cells]
    weight: np.ndarray       # (2M-2,) [-Phi at nodes 1..M-1 | w_half^(1+alpha) at the cells]
    flux_coef: np.ndarray    # (M-2,) -1 / (dr w^alpha r) at flat nodes 1..M-2
    ends: list               # per row (k, k + N, origin_coef, gt, h_N, r_N, phi_N):
                             # its flat origin and vacuum nodes, and Python floats
    scratch: np.ndarray      # (2M,) [zeta | J - 1 of the M-1 cells | one spare slot]
    nodes: np.ndarray        # scratch[:M], zeta
    cells: np.ndarray        # scratch[M:2M-1], J - 1, then the pressure flux
    checked: np.ndarray      # scratch[:2M-1], what the collapse checks read
    powered: np.ndarray      # scratch[1:2M-1], [nodes 1..M-1 | cells], raised in one pass
    source: np.ndarray       # scratch[1:M-1], the interior source, then (1+zeta)^2
    flux_hi: np.ndarray      # cells[1:]
    flux_lo: np.ndarray      # cells[:-1]

    @classmethod
    def build(cls, discs: list) -> FlatRows:
        """Row b on discs[b]; a grid shared by several rows is listed once
        per row."""
        N = discs[0].N
        M = len(discs) * (N + 1)

        def lay(values, start: int, n: int, pad) -> np.ndarray:
            """values(d) at nodes start..start+n-1 of each row on d, pad
            elsewhere, as one flat (M,) vector."""
            out = np.full((len(discs), N + 1), pad)
            for row, d in zip(out, discs):
                row[start : start + n] = values(d)
            return out.reshape(-1)

        cells = lay(lambda d: d.w_half_1a, 0, N, 0.0)[: M - 1]
        scratch = np.empty(2 * M)
        return cls(
            N=N,
            r3=lay(lambda d: d.r3, 0, N + 1, 0.0),
            r3_third=lay(lambda d: d.r3_third, 0, N + 1, 0.0),
            three_over_d3=lay(lambda d: d.three_over_d3, 0, N, np.nan)[: M - 1],
            exponent=np.concatenate(
                [np.full(M - 1, -4.0), lay(lambda d: -d.gt, 0, N, 0.0)[: M - 1]]
            ),
            weight=np.concatenate([lay(lambda d: -d.phi[1:N], 1, N - 1, 0.0)[1:], cells]),
            flux_coef=lay(lambda d: -d.inv_dr_wr, 1, N - 1, 0.0)[1 : M - 1],
            ends=[
                (k, k + N, *map(float, (d.origin_coef, d.gt, d.h[-1], d.r[-1], d.phi[-1])))
                for k, d in zip(range(0, M, N + 1), discs)
            ],
            scratch=scratch,
            nodes=scratch[:M],
            cells=scratch[M : 2 * M - 1],
            checked=scratch[: 2 * M - 1],
            powered=scratch[1 : 2 * M - 1],
            source=scratch[1 : M - 1],
            flux_hi=scratch[M + 1 : 2 * M - 1],
            flux_lo=scratch[M : 2 * M - 2],
        )

    def views(self, zeta: np.ndarray, out: np.ndarray) -> FlatViews:
        """The views the kernel reads and writes of zeta rows and of out,
        a C-contiguous array of zeta's shape that receives their
        acceleration."""
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        zf, af = zeta.reshape(-1), out.reshape(-1)
        M = zf.size
        return FlatViews(zeta, out, zf, af, (af[1:], af[:-1]), af[1 : M - 1], zf[1 : M - 1])


@dataclass(frozen=True, eq=False)
class FlatViews:
    """FlatRows.views: one pair of zeta and acceleration blocks, their
    flat vectors, and the slices of those that the kernel reads and
    writes, built once for a pair that is evaluated many times."""

    zeta: np.ndarray
    out: np.ndarray
    zeta_flat: np.ndarray    # zeta.reshape(-1)
    out_flat: np.ndarray     # out.reshape(-1), which holds r^3 u until the interior overwrites it
    shifted: tuple           # (out_flat[1:], out_flat[:-1])
    interior: np.ndarray     # out_flat[1:M-1]
    zeta_interior: np.ndarray  # zeta_flat[1:M-1]


def _composite_grid(R: float, n_nodes: int, grading: float) -> np.ndarray:
    """Uniform on [0, 0.9R], then geometrically shrinking cells to R.

    grading is the ratio of the last to the first boundary-region cell
    width; smaller values cluster harder toward the vacuum.
    """
    n_g = min(max(64, n_nodes // 4), n_nodes - 16)
    n_u = n_nodes - n_g
    if n_g < 8 or n_u < 8:
        raise ValueError("n_nodes too small for the composite mesh")
    body = np.linspace(0.0, 0.9 * R, n_u, endpoint=False)
    rho = grading ** (1.0 / (n_g - 1))
    # rho 1 (grading 1, or one whose root rounds to 1): uniform cells, where
    # the geometric sum below would divide 0 by 0
    h0 = 0.1 * R / n_g if rho == 1.0 else 0.1 * R * (1.0 - rho) / (1.0 - rho**n_g)
    edge = 0.9 * R + np.concatenate([[0.0], np.cumsum(h0 * rho ** np.arange(n_g))])
    edge[-1] = R
    grid = np.concatenate([body, edge])
    if not np.all(np.diff(grid) > 0):
        raise ValueError("composite grid is not strictly increasing")
    return grid


def _series_or_dense(r: np.ndarray, series_radius: float, coef, dcoef, dense):
    """(w, w_r) at the radii r: the origin series (coefficients coef,
    dcoef) below series_radius, the dense output, clipped at its last
    step's end, from there on."""
    w = np.empty_like(r)
    w_r = np.empty_like(r)
    near = r < series_radius
    if near.any():
        w[near] = np.polynomial.polynomial.polyval(r[near], coef)
        w_r[near] = np.polynomial.polynomial.polyval(r[near], dcoef)
    far = ~near
    if far.any():
        w[far], w_r[far] = dense(np.minimum(r[far], dense.t_max))
    return w, w_r


def _origin_series_pair(config: PolytropeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The origin series of w and of w_r, as polyval coefficients."""
    coef = origin_series(config, _MAX_SERIES_ORDER)
    return coef, np.polynomial.polynomial.polyder(coef)


def _integrate(config: PolytropeConfig, series, r0: float, rtol: float, atol: float, dense: bool):
    """One DOP853 pass from the origin series (coef, dcoef) at r0 to the
    terminal event w = 0; raises NoVacuumRadius when w does not fall to
    zero before r_max."""
    alpha, c = config.alpha, config.c_frak
    coef, dcoef = series
    pv = np.polynomial.polynomial.polyval

    def rhs(r, y):
        w, wr = y
        return (wr, -2.0 / r * wr - c * max(w, 0.0) ** alpha)

    y0 = (pv(r0, coef), pv(r0, dcoef))
    sol = _dop853.solve(rhs, r0, y0, config.r_max, rtol, atol, dense)
    if sol.status != 1:
        raise NoVacuumRadius(
            f"w did not cross zero before r_max={config.r_max} (gamma={config.gamma})"
        )
    return sol


def vacuum_radius(config: PolytropeConfig, series_radius: float) -> float:
    """R alone: solve_lane_emden's production pass at config's tolerances
    from series_radius, without the rough pass, dense output, grid or
    phi.  At the series_radius that solve_lane_emden(config) picks (the
    rough pass does not read config's tolerances, so a profile at other
    tolerances picks the same one), this is solve_lane_emden(config).R
    bit for bit."""
    sol = _integrate(
        config, _origin_series_pair(config), series_radius,
        config.ode_rel_tol, config.ode_abs_tol, dense=False,
    )
    return float(sol.root)


def solve_lane_emden(
    config: PolytropeConfig, n_nodes: int = 1024, grading: float = 0.1
) -> LaneEmdenProfile:
    """Integrate the equilibrium equation and locate the vacuum radius.

    A loose-tolerance pass estimates R to size the series handover
    radius, then the production pass runs at the configured tolerances
    with dense output and a terminal w = 0 event.
    """
    if n_nodes < MIN_NODES:
        raise ValueError(f"n_nodes must be at least {MIN_NODES}")
    alpha, c = config.alpha, config.c_frak
    series = coef, dcoef = _origin_series_pair(config)

    R_est = _integrate(config, series, ROUGH_START, 1e-8, 1e-10, dense=False).root
    series_radius = 1e-3 * R_est if config.series_radius is None else config.series_radius
    if not 0 < series_radius < 0.1 * R_est:
        raise ValueError("series_radius must be small relative to R")

    sol = _integrate(
        config, series, series_radius, config.ode_rel_tol, config.ode_abs_tol, dense=True
    )
    R = float(sol.root)

    grid = _composite_grid(R, n_nodes, grading)
    w, w_r = _series_or_dense(grid, series_radius, coef, dcoef, sol.sol)
    w[0], w_r[0] = 1.0, 0.0
    w[-1] = max(w[-1], 0.0)

    if np.any(w_r[1:] >= 0.0):
        raise NonMonotone("w_r >= 0 detected in the interior")

    phi = np.empty_like(grid)
    phi[0] = (1.0 + alpha) * c / 3.0
    phi[1:] = -(1.0 + alpha) * w_r[1:] / grid[1:]
    mass = float(phi[-1] * R**3)

    return LaneEmdenProfile(
        gamma=config.gamma,
        alpha=alpha,
        K=config.entropy_constant,
        c_frak=c,
        R=R,
        grid=grid,
        w=w,
        w_r=w_r,
        phi=phi,
        mass=mass,
        series_radius=series_radius,
        _series=coef,
        _dseries=dcoef,
        _dense=sol.sol,
    )


def validate_profile(profile: LaneEmdenProfile) -> None:
    """Re-check the structural invariants of a profile; raises on failure."""
    if profile.w[0] != 1.0 or profile.w_r[0] != 0.0:
        raise ValueError("w(0) != 1 or w_r(0) != 0")
    if np.any(profile.w[1:-1] <= 0.0):
        raise ValueError("w not positive on the interior")
    if np.any(profile.w_r[1:] >= 0.0):
        raise NonMonotone("w_r not strictly negative on the interior")
    if abs(profile.w[-1]) > 1e3 * 1e-13:
        raise ValueError("w(R) not zero within tolerance")
    if np.any(profile.phi <= 0.0) or not np.all(np.isfinite(profile.phi)):
        raise ValueError("potential coefficient not finite positive")


def _steps(profile: LaneEmdenProfile) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of [0, series_radius] and of each integrator step."""
    edges = np.concatenate([[0.0], profile._dense.ts])
    return edges[:-1], edges[1:]


def _gauss_rule(profile: LaneEmdenProfile, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Legendre nodes s and weights on every interval [lo, hi] (one
    rule per entry, on a new trailing axis), and w clipped at zero at
    every node, read in one enthalpy call."""
    width = (hi - lo)[..., None]
    s = lo[..., None] + width * _GAUSS_U
    w = profile.enthalpy(s.ravel())[0].reshape(s.shape)
    return s, width * _GAUSS_W, np.clip(w, 0.0, None)


def potential_coefficient(profile: LaneEmdenProfile, r):
    """Phi(r) = (4 pi / K^alpha) integral_0^r w^alpha s^2 ds / r^3 at one
    radius (a float) or at an array of radii (an array of that shape).

    The integral is a Gauss-Legendre sum over the integrator's steps,
    clipped at each r, with one enthalpy call for all radii.  At r = 0
    the series limit 4 pi / (3 K^alpha) applies.  The route is
    independent of the stored closed-form samples and agrees with
    -(1+alpha) w_r / r to quadrature accuracy.
    """
    rs = np.asarray(r, dtype=float)
    if np.any(rs < 0) or np.any(rs > profile.R * (1 + 1e-12)):
        raise OutOfDomain(f"r={r} outside [0, {profile.R}]")
    pref = 4.0 * math.pi / profile.K**profile.alpha
    out = np.full(rs.shape, pref / 3.0)
    pos = rs > 0.0
    cut = np.minimum(rs[pos], profile.R)[:, None]
    a, b = _steps(profile)
    s, wt, w = _gauss_rule(profile, np.minimum(a, cut), np.minimum(b, cut))
    out[pos] = pref * np.sum(wt * w**profile.alpha * s * s, axis=(1, 2)) / rs[pos] ** 3
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EquilibriumEnergy:
    direct: float
    pressure_formula: float
    internal: float  # int p dx / (gamma - 1)

    @property
    def rel_diff(self) -> float:
        """|direct - pressure_formula| relative to |pressure_formula|, or to
        the internal energy where pressure_formula is 0 (gamma = 4/3)."""
        scale = abs(self.pressure_formula) or abs(self.internal)
        return abs(self.direct - self.pressure_formula) / scale


def equilibrium_energy(profile: LaneEmdenProfile) -> EquilibriumEnergy:
    """Total energy of the equilibrium computed two independent ways.

    direct: internal energy integral minus the full-space field energy
    (1/8 pi) * integral |grad Phi_grav|^2, with |grad Phi_grav| = m(r)/r^2
    and the exterior tail M^2/(2R) added in closed form.  Every integral
    is a Gauss-Legendre sum over the integrator's steps (_steps).  The
    enclosed mass m at each node of a step is the mass of the whole steps
    before it plus a sub-rule from the step's start to the node, so one
    enthalpy call serves p, m and the field integral of m^2/r^2.

    pressure_formula: ((4-3 gamma)/(gamma-1)) * integral p dx, the
    virial reduction valid for equilibria.  Positive below gamma = 4/3,
    negative above.

    The routes share only the pressure integral; nothing in the direct
    route uses the virial identity.
    """
    alpha, R, gamma = profile.alpha, profile.R, profile.gamma
    four_pi_Ka = 4.0 * math.pi / profile.K**alpha
    a, b = _steps(profile)
    # column 0: each whole step; column 1 + j: the step's start to its node j
    ends = np.concatenate([b[:, None], a[:, None] + (b - a)[:, None] * _GAUSS_U], axis=1)
    s, wt, w = _gauss_rule(profile, np.broadcast_to(a[:, None], ends.shape), ends)
    p_int = four_pi_Ka * np.sum(wt[:, 0] * s[:, 0] ** 2 * w[:, 0] ** (1.0 + alpha))
    dm = four_pi_Ka * np.sum(wt * s * s * w**alpha, axis=-1)
    m = (np.cumsum(dm[:, 0]) - dm[:, 0])[:, None] + dm[:, 1:]
    M = dm[:, 0].sum()
    grav = -0.5 * np.sum(wt[:, 0] * m * m / s[:, 0] ** 2) - 0.5 * M**2 / R

    internal = p_int / (gamma - 1.0)
    formula = (4.0 - 3.0 * gamma) / (gamma - 1.0) * p_int
    return EquilibriumEnergy(direct=internal + grav, pressure_formula=formula, internal=internal)


def vacuum_exponent(
    profile: LaneEmdenProfile, min_nodes: int = 16, max_decades: int = 2
) -> float:
    """Fitted slope of log w against log (R - r) near the vacuum radius.

    The window starts at the last resolved node and is widened decade by
    decade (up to max_decades) until it holds min_nodes points; the
    physical vacuum condition makes the slope one.
    """
    d = profile.R - profile.grid
    ok = (d > 0) & (profile.w > 1e3 * 1e-13)
    if not ok.any():
        raise InsufficientResolution("no resolved nodes near the boundary")
    d_min = d[ok].min()
    window = None
    for decades in range(1, max_decades + 1):
        cand = ok & (d <= 10.0**decades * d_min)
        if cand.sum() >= min_nodes:
            window = cand
            break
    if window is None:
        raise InsufficientResolution(
            f"fewer than {min_nodes} nodes within {max_decades} decades of the boundary"
        )
    slope, _ = np.polyfit(np.log(d[window]), np.log(profile.w[window]), 1)
    return float(slope)


def substitution_residual(profile: LaneEmdenProfile, n_samples: int = 512) -> float:
    """Max residual |w_rr + (2/r) w_r + c w^alpha| at off-node radii.

    w_rr comes from a fine central difference of the dense-output w_r,
    so the check never uses the equation it measures.
    """
    rs = np.linspace(profile.series_radius * 2, profile.R * (1 - 1e-6), n_samples)
    h = 1e-6 * profile.R
    rs = rs[(rs - h > 0) & (rs + h < profile.R)]
    _, wr_plus = profile.enthalpy(rs + h)
    _, wr_minus = profile.enthalpy(rs - h)
    w, wr = profile.enthalpy(rs)
    w_rr = (wr_plus - wr_minus) / (2.0 * h)
    res = w_rr + 2.0 / rs * wr + profile.c_frak * np.clip(w, 0.0, None) ** profile.alpha
    return float(np.abs(res).max())
