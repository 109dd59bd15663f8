"""Self-adjoint pencil for the linearized radial dynamics and its
largest eigenpair.

The linearization of the Lagrangian perturbation equation around the
equilibrium reads w^alpha r^4 zeta_tt = L zeta with

    L phi = gt [w^(1+alpha) r^4 phi']' - (4 - 3 gt) [w^(1+alpha)]' r^3 phi,
    gt = (1+alpha)/alpha.

L is discretized in flux form on the profile grid: off-diagonal entries
come from half-node flux coefficients gt * (w^(1+alpha) r^4)_{j+1/2} / h,
the zeroth-order term enters the diagonal through the equilibrium
identity [w^(1+alpha)]' = -r w^alpha Phi(r).  The weights w^(1+alpha) r^4
vanish at both endpoints, so no boundary rows are needed: the first and
last interior rows simply omit the degenerate outer fluxes.

The pencil is the profile's polytrope.Discretization: S is its
stiffness_diag and stiffness_off, M its mass, the same arrays the
weighted norms, the energies and the linear dynamics read.

The generalized problem  (-S) phi = mu M phi  with the diagonal mass
M = w^alpha r^4 dr is reduced by the M^(-1/2) scaling to a standard
symmetric tridiagonal problem.  Its two largest eigenvalues come from
Sturm sequences and the top eigenvector from inverse iteration, in the
package's own solver (polystar._tridiag), deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._tridiag import top_eigenpair
from .energetics import _norm_X_rows, _norm_Y_rows, weighted_norm_X, weighted_norm_Y
from .errors import ConvergenceFailure, ZeroVector
from .polytrope import Discretization, LaneEmdenProfile

_NEAR_DEGENERATE_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class GrowingMode:
    """Largest eigenpair of the pencil, normalized so that
    (1 + mu0) |phi0|_X^2 + |phi0|_Y^2 = 1 and phi0(0) > 0."""

    mu0: float
    rate: float
    phi0: np.ndarray              # on the full grid, endpoints extrapolated
    residual: float
    norm_X: float
    norm_Y: float
    near_degenerate: bool
    gap: float


def assemble_pencil(profile: LaneEmdenProfile) -> Discretization:
    """The pencil (S, M): the profile's Discretization, whose flux-form
    stiffness is symmetric by construction, never symmetrized, and whose
    mass weights are the X-norm weights of the interior nodes."""
    return profile.discretization


def rayleigh_quotient(disc: Discretization, phi: np.ndarray) -> float:
    """Q(phi)/I(phi) for a trial vector on the interior nodes.

    Evaluated through the pencil's flux sums, which coincides with the
    matrix quotient phi^T (-S) phi / phi^T M phi.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (disc.N - 1,):
        raise ValueError("trial vector must live on the interior nodes")
    if not np.any(phi != 0.0):
        raise ZeroVector("trial vector is identically zero")
    num = -float(phi @ disc.apply_stiffness(phi))
    den = float(np.sum(disc.mass * phi * phi))
    return num / den


def largest_eigenpair(disc: Discretization, eig_tol: float = 1e-8) -> GrowingMode:
    """Largest eigenvalue of (-S) phi = mu M phi and its eigenvector.

    M^(-1/2) scaling keeps the problem symmetric tridiagonal; the top two
    eigenvalues are requested so a near-degenerate pair can be flagged
    instead of silently trusted.
    """
    root = np.sqrt(disc.mass)
    scale = 1.0 / root
    d = -disc.stiffness_diag * scale * scale
    e = -disc.stiffness_off * scale[:-1] * scale[1:]
    # the trial modes phi = 1 and phi = r^2, scaled: their Ritz values
    # start the searches for mu0 and mu1
    mu0, mu1, vec = top_eigenpair(d, e, np.stack([root, root * disc.r[1:-1] ** 2]))
    gap = mu0 - mu1

    interior = vec * scale
    # endpoint values are a reporting convenience: both carry zero weight
    # in every norm
    phi0 = np.empty(disc.N + 1)
    phi0[1:-1] = interior
    disc.extrapolate_endpoints(phi0)
    if phi0[0] < 0:
        phi0 = -phi0
        interior = -interior

    # the norms as weighted_norm_X/Y return them, Python floats, then
    # squared: the squared sums themselves differ in the last bits
    nx2 = float(_norm_X_rows(phi0, disc.xweight)) ** 2
    ny2 = float(_norm_Y_rows(phi0, disc, disc.yweight)) ** 2
    s = 1.0 / np.sqrt((1.0 + mu0) * nx2 + ny2)
    phi0 = phi0 * s
    interior = interior * s

    resid_rows = -disc.apply_stiffness(interior) - mu0 * disc.mass * interior
    residual = float(np.abs(resid_rows / disc.dr_interior).max())
    res_scale = float(
        (disc.mass / disc.dr_interior).max()
        * np.abs(interior).max()
        * (1.0 + abs(mu0))
    )
    if residual > eig_tol * res_scale:
        raise ConvergenceFailure(
            f"eigen residual {residual:.3e} exceeds {eig_tol:.1e} * scale {res_scale:.3e}"
        )

    return GrowingMode(
        mu0=mu0,
        rate=float(np.sqrt(max(mu0, 0.0))),
        phi0=phi0,
        residual=residual,
        norm_X=float(np.sqrt(nx2) * s),
        norm_Y=float(np.sqrt(ny2) * s),
        near_degenerate=gap < _NEAR_DEGENERATE_GAP,
        gap=gap,
    )


def mode_regularity_report(mode: GrowingMode, profile: LaneEmdenProfile) -> dict:
    """Regularity diagnostics of the eigenfunction.

    Reports the origin slope from a quadratic fit through the first
    interior nodes, the weighted integrals with beta powers of w removed
    (finite for 0 <= beta <= floor(alpha)), and the near-boundary
    integrals with weight w^(z-2) for z slightly above one.
    """
    r = profile.grid
    phi0 = mode.phi0
    nfit = 6
    coef = np.polyfit(r[1 : nfit + 1], phi0[1 : nfit + 1], 2)
    origin_slope = float(coef[1])

    betas = list(range(int(np.floor(profile.alpha)) + 1))
    beta_integrals = {}
    for beta in betas:
        ix = weighted_norm_X(phi0, profile, profile.alpha - beta) ** 2
        iy = weighted_norm_Y(phi0, profile, profile.alpha - beta) ** 2
        beta_integrals[beta] = {"value": ix, "derivative": iy}

    z_integrals = {
        z: weighted_norm_X(phi0, profile, z - 2.0) ** 2 for z in (1.1, 1.5, 2.0)
    }

    return {
        "origin_slope": origin_slope,
        "beta_integrals": beta_integrals,
        "z_integrals": z_integrals,
        "near_degenerate": mode.near_degenerate,
        "gap": mode.gap,
    }
