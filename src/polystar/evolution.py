"""Nonlinear radial Lagrangian dynamics of the perturbation zeta.

The flow map is xi(t, r) = 1 + zeta(t, r); with J = xi^2 (xi + xi_r r)
the exact-Jacobian form of the momentum equation is

    w^alpha r^4 zeta_tt / (1+zeta)^2
      + r^3 d_r( w^(1+alpha) [J^(-gt) - 1] )
      + [(1+zeta)^(-4) - 1] w^alpha r^4 Phi(r) = 0,      gt = (1+alpha)/alpha.

The pressure flux is differenced at half nodes with the conservative
Jacobian

    J_{j+1/2} = 1 + 3 [r^3 u]_j^{j+1} / [r^3]_j^{j+1},
    u = zeta + zeta^2 + zeta^3/3,

which is exact for spatially constant zeta and cancellation-free at small
amplitude.  The semi-discrete system does not conserve the discrete
energy H (conserved_energy) exactly.  check's conservation_drift does
not depend on dt: 2.99910e-8 at sim.dt_cfl 0.4 and at 0.1 (gamma 1.3,
N 1024), and 5.7e-6 at gamma 2, N 256.  Two defects cause it: H's
internal energy takes a 4-term series below |J - 1| = 1e-2 where the
force uses expm1/log1p, and the vacuum node moves by its limit equation
although zeta_N enters H through the last cell (ROADMAP open item 1).
The equilibrium zeta == 0 gives exactly zero acceleration.

Endpoints carry no mass weight.  The origin node is slaved to an even
(quadratic in r^2) extrapolation of the interior acceleration; the
vacuum node obeys the closed-form limit

    zeta_tt(R) = (1+zeta)^2 Phi(R) [J^(-gt) - (1+zeta)^(-4)],

the finite free-boundary acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StatePastVacuumCollapse
from .polytrope import Discretization, FlatRows, LaneEmdenProfile

_EPS_FLOOR = 1e-14  # used only inside the dt formula


@dataclass(frozen=True)
class SimConfig:
    """Time-integration parameters.

    linear (step under linear_accel) and dt (the frozen step) belong to
    one run and are set by the caller, never by the configuration document.

    The default dt_cfl 0.6 puts omega_max dt, the pencil's largest
    frequency times the CFL dt at the equilibrium, at 1.41-1.43, half of
    RK4's stability limit 2 sqrt(2).  It is the largest default at which
    RK4 stepped at the default dt keeps its measured order: the global
    order of test_rk4_global_order reads 3.71 at 0.6 and 3.41 at 0.7
    against its bound of 3.5.  Accuracy asks for no smaller step: at
    every dt_cfl from 0.4 to 0.95 the fitted growth rate and the escape
    time are within 1e-6 relative of those at 0.1, and check's
    conservation drift does not depend on dt.
    """

    dt_cfl: float = 0.6
    t_end: float = 200.0
    scheme: str = "rk4"
    record_every: int = 1
    theta1: float = 0.1
    linear: bool = False
    dt: float | None = None
    snapshot_every: int = 16

    def __post_init__(self):
        if not 0.0 < self.dt_cfl < 1.0:
            raise ConfigError("sim.dt_cfl must lie in (0, 1)")
        if not self.t_end > 0.0:
            raise ConfigError("sim.t_end must be positive")
        if not self.theta1 > 0.0:
            raise ConfigError("sim.theta1 must be positive")
        if self.scheme != "rk4":
            raise ConfigError(f"sim.scheme {self.scheme!r} unsupported (only 'rk4')")
        if self.record_every < 1:
            raise ConfigError("sim.record_every must be >= 1")
        if self.snapshot_every < 0:
            raise ConfigError("sim.snapshot_every must be >= 0")


@dataclass(frozen=True, eq=False)
class PerturbationState:
    """(zeta, zeta_t) samples on the full profile grid at time t."""

    t: float
    zeta: np.ndarray
    zeta_t: np.ndarray

    def __post_init__(self):
        if self.zeta.shape != self.zeta_t.shape:
            raise ValueError("zeta and zeta_t must share a grid")


def _radial_derivative(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Radial derivative over the trailing axis of z: central in the
    interior, even at the origin, one-sided at the vacuum radius."""
    out = np.empty_like(z)
    out[..., 0] = 0.0
    out[..., 1:-1] = (z[..., 2:] - z[..., :-2]) / (r[2:] - r[:-2])
    out[..., -1] = (z[..., -1] - z[..., -2]) / (r[-1] - r[-2])
    return out


def cell_jacobian_minus_one(
    zeta: np.ndarray, disc: Discretization | FlatRows, out: np.ndarray | None = None
) -> np.ndarray:
    """Conservative J - 1 at half nodes, exact for constant zeta; over the
    trailing axis, so a (K, N+1) block gives K rows.  With disc a
    FlatRows, zeta is a flat block and the result its flat cells.  The
    result goes into out when given."""
    # u = zeta + zeta^2 + zeta^3/3 with one square, in that order
    z2 = zeta * zeta
    u = zeta + z2
    z2 *= zeta
    z2 /= 3.0
    u += z2
    return disc.conservative_derivative(u, out)


def nonlinear_accel(state: PerturbationState, profile: LaneEmdenProfile) -> np.ndarray:
    """zeta_tt on the full grid for the exact-Jacobian equation."""
    return nonlinear_accel_rows(state.zeta, profile.discretization.flat)


def nonlinear_accel_rows(zeta: np.ndarray, flat: FlatRows) -> np.ndarray:
    """nonlinear_accel over the trailing axis: a (B, N+1) block gives B
    rows, each equal to the 1-D value bit for bit.  flat lays out the
    rows' grids, one row each (a 1-D zeta takes a one-row FlatRows).

    The block is one flat vector of B(N+1) nodes, so that each stencil
    operation is one contiguous call whatever B is; the entries across a
    row join are junk that the endpoint pass overwrites.
    Both collapse checks are one reduction over the whole block; when it
    fires, StatePastVacuumCollapse.rows names the rows that failed the
    first check that fails.  The endpoint values are computed row by row
    from Python floats; an overflow there falls back to numpy scalars,
    which give inf as the 1-D form always did."""
    N = flat.N
    zf = zeta.reshape(-1)
    M = zf.size
    # [zeta of every node | J - 1 of the M-1 flat cells | one spare slot]
    buf = np.empty(2 * M)
    buf[:M] = zf
    cells = buf[M : 2 * M - 1]
    cell_jacobian_minus_one(zf, flat, out=cells)
    # zeta <= -1 exactly when 1 + zeta <= 0 (the sum is exact on [-2, -1/2]);
    # fmin skips NaN, which fails no check, and the junk cells are NaN
    if np.fmin.reduce(buf[: 2 * M - 1]) <= -1.0:
        _raise_collapse(zf, buf[M:].reshape(-1, N + 1)[:, :N], N)
    # the interior source [(1+zeta)^(-4) - 1] Phi and the pressure flux
    # w^(1+alpha) (J^(-gt) - 1), cancellation-free, in one pass over
    # [zeta at nodes 1..M-1 | J - 1 of the cells]
    x = buf[1 : 2 * M - 1]
    np.log1p(x, out=x)
    x *= flat.exponent
    np.expm1(x, out=x)
    x *= flat.weight
    source, flux = buf[1 : M - 1], cells
    # interior -(1+zeta)^2 (flux difference + source), each product and
    # sum in the order of that formula, written into the flat interior of a
    a = np.empty(zeta.shape)
    af = a.reshape(-1)
    ai = af[1 : M - 1]
    np.subtract(flux[1:], flux[:-1], out=ai)
    ai /= flat.dr
    ai *= flat.inv_wr
    ai += source
    xi2 = np.add(zf[1 : M - 1], 1.0, out=source)
    np.multiply(xi2, xi2, out=xi2)
    ai *= xi2
    np.negative(ai, out=ai)
    collapsed = []
    k = 0
    for b, scalars in enumerate(flat.edges):
        values = (af.item(k + 1), af.item(k + 2), zf.item(k + N - 1), zf.item(k + N), *scalars)
        try:
            ends = _endpoint_values(*values)
        except OverflowError:
            ends = _endpoint_values(*map(np.float64, values))
        if ends is None:
            collapsed.append(b)
        else:
            af[k], af[k + N] = ends
        k += N + 1
    if collapsed:
        raise StatePastVacuumCollapse("boundary Jacobian J(R) <= 0", rows=collapsed)
    return a


def _endpoint_values(a1, a2, z_prev, z_N, origin_coef, gt, h_N, r_N, phi_N):
    """(zeta_tt at the origin, zeta_tt at the vacuum node) of one row, or
    None when the boundary Jacobian is not positive.

    The origin value is the even extrapolation of extrapolate_endpoints.
    At r = R the finite limit of the momentum equation replaces it:
    zeta_tt(R) = (1+zeta)^2 Phi(R) [J^(-gt) - (1+zeta)^(-4)]."""
    xi = 1.0 + z_N
    JN = xi**2 * (xi + (z_N - z_prev) / h_N * r_N)
    if JN <= 0.0:
        return None
    return a1 + (a2 - a1) * origin_coef, xi**2 * phi_N * (JN ** (-gt) - xi ** (-4))


def _raise_collapse(zf: np.ndarray, jm1: np.ndarray, N: int):
    """Raise the collapse of the flat nodes zf and the (B, N) cells jm1,
    naming the rows that fail its first failing check."""
    for message, failed in (
        ("1 + zeta <= 0: flow map interpenetrates", (1.0 + zf <= 0.0).reshape(-1, N + 1)),
        ("J <= 0: orientation lost", jm1 <= -1.0),
    ):
        rows = np.flatnonzero(failed.any(axis=1)).tolist()
        if rows:
            raise StatePastVacuumCollapse(message, rows=rows)


def accel_time_derivative(
    state: PerturbationState, profile: LaneEmdenProfile
) -> tuple[np.ndarray, np.ndarray]:
    """(zeta_tt, zeta_ttt) by analytic chain rule through J.

    With A + B = -zeta_tt/(1+zeta)^2 the time derivative reduces to
    zeta_ttt = 2 zeta_t zeta_tt/(1+zeta) - (1+zeta)^2 (dA + dB) where
    dA differences the flux derivative dF = -gt w^(1+alpha) J^(-gt-1) dJ,
    dJ = 3 [r^3 varphi]' / [r^3]', and dB = -4 (1+zeta)^(-5) zeta_t Phi.
    """
    disc = profile.discretization
    z, zt = state.zeta, state.zeta_t
    N = disc.N
    jm1 = cell_jacobian_minus_one(z, disc)
    ztt = nonlinear_accel(state, profile)
    phi_v = (1.0 + z) ** 2 * zt
    dJ = disc.conservative_derivative(phi_v)
    dflux = (
        -disc.gt
        * disc.w_half_1a
        * np.exp(-(disc.gt + 1.0) * np.log1p(jm1))
        * dJ
    )
    zttt = np.empty_like(z)
    zi, zti = z[1:N], zt[1:N]
    dA = (dflux[1:] - dflux[:-1]) / disc.dr_interior * disc.inv_wr
    dB = -4.0 * (1.0 + zi) ** (-5) * zti * disc.phi[1:N]
    zttt[1:N] = 2.0 * zti * ztt[1:N] / (1.0 + zi) - (1.0 + zi) ** 2 * (dA + dB)
    disc.extrapolate_endpoints(zttt)
    return ztt, zttt


def linear_accel(state: PerturbationState, profile: LaneEmdenProfile) -> np.ndarray:
    """zeta_tt = L zeta / (w^alpha r^4) with the identical discrete L as
    the spectral pencil, so the discrete growing mode is exactly its
    eigenvector.  Endpoint values by the same extrapolations."""
    disc = profile.discretization
    N = disc.N
    a = np.empty(state.zeta.shape)
    a[1:N] = -disc.apply_stiffness(state.zeta[1:N]) / disc.mass
    disc.extrapolate_endpoints(a)
    return a


def cfl_dt(state: PerturbationState, profile: LaneEmdenProfile, config: SimConfig) -> float:
    """dt from the local signal speed sqrt(gt w J^(-(1+alpha)/alpha) / xi^2).

    J is the conservative cell Jacobian the dynamics uses.  Each node
    takes the smaller J of its two cells, the faster signal; the end
    nodes take their one cell.  At the equilibrium J is exactly 1."""
    disc = profile.discretization
    jm1 = np.pad(cell_jacobian_minus_one(state.zeta, disc), 1, mode="edge")
    J = np.clip(1.0 + np.minimum(jm1[:-1], jm1[1:]), 1e-12, None)
    c2 = (
        disc.gt
        * disc.w
        * J ** (-(1.0 + disc.alpha) / disc.alpha)
        / (1.0 + state.zeta) ** 2
        + _EPS_FLOOR
    )
    return config.dt_cfl * float(np.min(disc.dloc / np.sqrt(c2)))


def step(
    state: PerturbationState, profile: LaneEmdenProfile, config: SimConfig
) -> PerturbationState:
    """One classical RK4 step of the first-order system (zeta, zeta_t)."""
    accel = linear_accel if config.linear else nonlinear_accel
    dt = config.dt if config.dt is not None else cfl_dt(state, profile, config)
    t, zt = state.t, state.zeta_t
    zeta, zeta_t = step_rows(
        state.zeta, zt, dt, lambda z: accel(PerturbationState(t, z, zt), profile)
    )
    return PerturbationState(t=t + dt, zeta=zeta, zeta_t=zeta_t)


def step_rows(
    zeta: np.ndarray,
    zeta_t: np.ndarray,
    dt,
    accel,
    k1: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """step over the trailing axis: (zeta, zeta_t) after one RK4 step of
    every row.  dt is a float, or one step per row as an array that
    broadcasts against the rows (a full array of their shape costs least);
    accel maps a block of zeta rows to its acceleration; k1, when given,
    is accel(zeta).

    The stage inputs and the sums go into buffers allocated here; zeta,
    zeta_t, k1 and the arrays accel returns are only read, never written
    (k1 may be a caller's buffer, and accel's result may be k1).  Each sum
    keeps the order of the classical form: zt + half*k1v is half*k1v,
    then += zt."""
    z, zt = zeta, zeta_t
    half = 0.5 * dt
    sixth = dt / 6.0
    # accelerations read zeta alone, so the stages need no zeta_t
    k1v = accel(z) if k1 is None else k1
    kz = np.multiply(half, k1v)  # k2z = zt + half*k1v
    kz += zt
    y = np.multiply(half, zt)
    y += z
    k2v = accel(y)
    zsum = np.multiply(2.0, kz)  # zt + 2 k2z + 2 k3z + k4z
    zsum += zt
    vsum = np.multiply(2.0, k2v)  # k1v + 2 k2v + 2 k3v + k4v
    vsum += k1v
    y = np.multiply(half, kz)
    y += z
    np.multiply(half, k2v, out=kz)  # k3z
    kz += zt
    k3v = accel(y)
    twice = np.multiply(2.0, kz)
    zsum += twice
    np.multiply(2.0, k3v, out=twice)
    vsum += twice
    y = np.multiply(dt, kz)
    y += z
    np.multiply(dt, k3v, out=kz)  # k4z
    kz += zt
    vsum += accel(y)
    zsum += kz
    zsum *= sixth
    zsum += z
    vsum *= sixth
    vsum += zt
    return zsum, vsum


def _pressure_energy_density(x: np.ndarray, alpha: float) -> np.ndarray:
    """alpha ((1+x)^(-1/alpha) - 1) + x, stable for small x.

    The direct form cancels catastrophically near x = 0; below 1e-2 the
    binomial series (error < 1e-9 relative at the cutoff) is used.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-2
    xs = x[small]
    ia = 1.0 / alpha
    out[small] = (
        (1.0 + ia)
        * xs
        * xs
        / 2.0
        * (
            1.0
            - (ia + 2.0) * xs / 3.0
            + (ia + 2.0) * (ia + 3.0) * xs * xs / 12.0
            - (ia + 2.0) * (ia + 3.0) * (ia + 4.0) * xs**3 / 60.0
        )
    )
    xl = x[~small]
    out[~small] = alpha * np.expm1(-np.log1p(xl) / alpha) + xl
    return out


def _gravity_energy_density(z: np.ndarray) -> np.ndarray:
    """G(zeta) = 4/3 - (1+zeta)^(-1) - (1+zeta)^3/3 in factored form,
    exact and cancellation-free: -zeta^2 (2 + 4 zeta/3 + zeta^2/3)/(1+zeta)."""
    return -z * z * (2.0 + (4.0 / 3.0) * z + z * z / 3.0) / (1.0 + z)


def conserved_energy(state: PerturbationState, profile: LaneEmdenProfile) -> float:
    """Discrete invariant of the semi-discrete system:

        H = 1/2 int w^alpha r^4 zeta_t^2
          + int w^(1+alpha) [alpha r^2 (J^(-1/alpha)-1) + (r^3 u)_r] dr
          + int w^alpha r^4 Phi G(zeta) dr,    u = zeta + zeta^2 + zeta^3/3,

    evaluated with the same half-node quantities the dynamics uses.  dH/dt
    does not vanish along semi-discrete solutions: the series cut-off of
    the internal energy and the vacuum node leave a drift that does not
    depend on dt (module docstring; ROADMAP open item 1).  For
    growing-mode initial data H is itself third order in the amplitude:
    the mode is the zero-energy direction.
    """
    return float(energy_rows(state.zeta, state.zeta_t, profile.discretization))


def energy_rows(zeta: np.ndarray, zeta_t: np.ndarray, disc: Discretization) -> np.ndarray:
    """conserved_energy over the trailing axis: one H per row of a
    (K, N+1) block, each equal to the 1-D value bit for bit."""
    jm1 = cell_jacobian_minus_one(zeta, disc)
    kinetic = 0.5 * np.sum(disc.xweight * zeta_t * zeta_t, axis=-1)
    internal = np.sum(
        disc.w_half_1a * _pressure_energy_density(jm1, disc.alpha) * disc.d3 / 3.0, axis=-1
    )
    potential = np.sum(disc.xweight * disc.phi * _gravity_energy_density(zeta), axis=-1)
    return kinetic + internal + potential


@dataclass(frozen=True)
class SmallnessReport:
    sup_zeta: float
    sup_zeta_r: float
    sup_zeta_t: float
    sup_w12_zeta_tt: float
    exceeded: bool


def smallness_monitor(
    state: PerturbationState,
    profile: LaneEmdenProfile,
    config: SimConfig,
    zeta_tt: np.ndarray | None = None,
) -> SmallnessReport:
    """Sup-norm bundle controlling the weighted-energy estimates:
    |zeta|, |zeta_r|, |zeta_t| and |w^(1/2) zeta_tt| (via the nonlinear
    acceleration, or zeta_tt when the caller has it), with the exceeded
    flag against theta1."""
    if zeta_tt is None:
        zeta_tt = nonlinear_accel(state, profile)
    *sups, exceeded = smallness_rows(
        state.zeta, state.zeta_t, zeta_tt, profile.discretization, config.theta1
    )
    return SmallnessReport(*map(float, sups), exceeded=bool(exceeded))


def smallness_rows(
    zeta: np.ndarray,
    zeta_t: np.ndarray,
    zeta_tt: np.ndarray,
    disc: Discretization,
    theta1: float,
) -> tuple:
    """smallness_monitor over the trailing axis: (sup_zeta, sup_zeta_r,
    sup_zeta_t, sup_w12_zeta_tt, exceeded), one entry per row."""
    sups = (
        np.abs(zeta).max(axis=-1),
        np.abs(_radial_derivative(zeta, disc.r)).max(axis=-1),
        np.abs(zeta_t).max(axis=-1),
        np.abs(np.sqrt(disc.w) * zeta_tt).max(axis=-1),
    )
    exceeded = (sups[0] > theta1) | (sups[1] > theta1) | (sups[2] > theta1) | (sups[3] > theta1)
    return (*sups, exceeded)


def mode_initial_state(mode, delta: float) -> PerturbationState:
    """Growing-mode initial data (zeta, zeta_t) = delta (phi0, sqrt(mu0) phi0)."""
    return PerturbationState(
        t=0.0, zeta=delta * mode.phi0.copy(), zeta_t=delta * mode.rate * mode.phi0.copy()
    )


def equilibrium_state(profile: LaneEmdenProfile) -> PerturbationState:
    return PerturbationState(
        t=0.0,
        zeta=np.zeros(profile.n_nodes),
        zeta_t=np.zeros(profile.n_nodes),
    )
