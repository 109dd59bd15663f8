"""The top of the spectrum of a symmetric tridiagonal matrix.

`top_eigenpair` returns the two largest eigenvalues of T = tridiag(e, d, e)
and a unit eigenvector of the largest.  It runs in Python floats plus a
few numpy vector operations, so its result is the same on every run.

Eigenvalues.  One Sturm pass at a shift x forms the pivots q_i of the
LDL^T factorization of T - x I (Barth, Martin and Wilkinson 1967).  The
number of positive pivots is the number of eigenvalues above x.  Since
det(T - x I) = prod q_i, the same pass carries the sums

    G(x) = sum_j 1/(x - lambda_j),   H(x) = sum_j 1/(x - lambda_j)^2,

through the recurrences of q_i'/q_i and q_i''/q_i.  From them Laguerre's
step moves x towards the nearest eigenvalue on the side it is asked for,
never past it, and converges cubically, since every root of det(T - x I)
is real.  The counts keep a bracket round the wanted eigenvalue, and
bisection takes over where a step would leave it or converges slowly.
Each search starts at a Ritz value of the caller's two trial vectors and
stops at a step below eps ||T||, the absolute tolerance of LAPACK's
dstebz by default.

Eigenvector.  Two inverse-iteration solves with T - sigma I at
sigma = mu0 + eps ||T||, started from the first trial vector.  That
matrix is negative definite, so LDL^T needs no pivoting.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure

_EPS = float(np.finfo(float).eps)
_SAFMIN = float(np.finfo(float).tiny)
# Bisection alone reaches eps ||T|| from the Gershgorin bracket in about
# 55 passes; the slowest search seen (gamma 1.203, N = 4096) took 41.  A
# search still open after 200 has failed.
_MAX_PASSES = 200
_SOLVES = 2


def top_eigenpair(d: np.ndarray, e: np.ndarray, trials: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(mu0, mu1, v): the two largest eigenvalues of tridiag(e, d, e),
    mu0 >= mu1, and a unit eigenvector v of mu0.

    `trials` holds two linearly independent vectors; the Ritz values of T
    on their span start the searches for mu0 and mu1, and the first, which
    must not be orthogonal to v, starts the inverse iteration.  Needs
    d.size >= 2.
    """
    ae = np.abs(e)
    radius = np.zeros(d.size)
    radius[:-1] += ae
    radius[1:] += ae
    lower = float((d - radius).min())
    upper = float((d + radius).max())
    tol = _EPS * max(abs(lower), abs(upper))
    dl = d.tolist()
    e2 = (e * e).tolist()
    pivmin = _SAFMIN * max(1.0, max(e2))  # dstebz's smallest pivot
    theta0, theta1 = _ritz_values(d, e, trials)
    mu0 = _kth_largest(dl, e2, pivmin, tol, 0, lower, upper, theta0)
    mu1 = _kth_largest(dl, e2, pivmin, tol, 1, lower, mu0, theta1)
    return mu0, mu1, _inverse_iteration(d, e, e2, mu0 + tol, tol, trials[0])


def _matvec(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = d * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    return y


def _ritz_values(d: np.ndarray, e: np.ndarray, trials: np.ndarray) -> tuple[float, float]:
    """The Ritz values of T on the span of the two trial vectors, largest
    first.  By Cauchy interlacing they are at most mu0 and mu1."""
    q0 = trials[0] / np.linalg.norm(trials[0])
    q1 = trials[1] - (q0 @ trials[1]) * q0
    q1 /= np.linalg.norm(q1)
    t1 = _matvec(d, e, q1)
    a, b, c = float(q0 @ _matvec(d, e, q0)), float(q0 @ t1), float(q1 @ t1)
    mid, half = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    return mid + half, mid - half


def _sturm(d: list, e2: list, x: float, pivmin: float) -> tuple[int, float, float]:
    """(eigenvalues above x, G(x), H(x)) from one pass over the pivots
    q_i = d_i - x - e_{i-1}^2 / q_{i-1}.

    u = q_i'/q_i and w = q_i''/q_i (derivatives in x) follow the pivots;
    G = sum u and H = sum (u^2 - w).  A pivot within pivmin of zero is
    set to -pivmin, as dstebz does.
    """
    q = d[0] - x
    if -pivmin < q < pivmin:
        q = -pivmin
    count = 1 if q > 0.0 else 0
    u = -1.0 / q
    w = 0.0
    g = u
    h = u * u
    for a, b in zip(d[1:], e2):
        r = b / q
        q = a - x - r
        if q > -pivmin:
            if q < pivmin:
                q = -pivmin
            else:
                count += 1
        s = r / q
        w = s * (w - 2.0 * u * u)
        u = s * u - 1.0 / q
        g += u
        h += u * u - w
    return count, g, h


def _kth_largest(
    d: list, e2: list, pivmin: float, tol: float, k: int, lo: float, hi: float, x: float
) -> float:
    """The eigenvalue with k eigenvalues above it, given that more than k
    lie above lo and at most k above hi; the search starts at x.

    Laguerre's step goes down from a shift with exactly k eigenvalues
    above it, and up from one with k + 1.  As in Numerical Recipes'
    rtsafe, a step that leaves the bracket or is not at most half the
    move before it gives way to bisection, so a slow, linear approach to
    a cluster of eigenvalues (gamma near 6/5) still halves something on
    every pass.
    """
    n = len(d)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    last = hi - lo
    for _ in range(_MAX_PASSES):
        count, g, h = _sturm(d, e2, x, pivmin)
        if count > k:
            lo = x
        else:
            hi = x
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        step = math.inf
        if count in (k, k + 1):
            root = math.sqrt(max((n - 1) * (n * h - g * g), 0.0))
            denom = g + root if count == k else g - root
            if denom:
                step = -n / denom
                if abs(step) <= tol:
                    return min(max(x + step, lo), hi)
        if lo < x + step < hi and abs(step) <= 0.5 * last:
            x += step
            last = abs(step)
        else:
            x = 0.5 * (lo + hi)
            last = 0.5 * (hi - lo)
    raise ConvergenceFailure(f"eigenvalue search did not converge in {_MAX_PASSES} Sturm passes")


def _inverse_iteration(
    d: np.ndarray, e: np.ndarray, e2: list, sigma: float, tol: float, x: np.ndarray
) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue, which lies just below
    sigma: _SOLVES solves of (T - sigma I) y = x, each normalized.

    Every pivot of T - sigma I is negative in exact arithmetic; one that
    rounding lifts above -tol is set to -tol, which changes T by at most
    tol = eps ||T||.
    """
    dx = (d - sigma).tolist()
    q = min(dx[0], -tol)
    pivots = [q]
    for a, b in zip(dx[1:], e2):
        q = min(a - b / q, -tol)
        pivots.append(q)
    p = np.array(pivots)
    # T - sigma I = L diag(p) L^T, L unit lower bidiagonal with L[i+1, i] = m_i
    m = (e / p[:-1]).tolist()
    m_rev = m[::-1]
    for _ in range(_SOLVES):
        b = x.tolist()
        y = b[0]
        ys = [y]
        for mi, bi in zip(m, b[1:]):
            y = bi - mi * y
            ys.append(y)
        z = (np.array(ys) / p).tolist()
        y = z[-1]
        ys = [y]
        for mi, zi in zip(m_rev, z[-2::-1]):
            y = zi - mi * y
            ys.append(y)
        x = np.array(ys[::-1])
        x /= np.linalg.norm(x)
    return x
