"""Not-a-knot cubic splines on a fixed grid (de Boor, A Practical Guide
to Splines, ch. IV), the spline scipy's CubicSpline builds by default.

On cell i, [x_i, x_i+1] of width h_i, the spline is the cubic Hermite
interpolant of the samples y_i, y_i+1 and the knot slopes s_i, s_i+1.
The slopes solve a tridiagonal system A s = B y: continuity of the
second derivative at the interior knots, and of the third derivative at
x_1 and x_n-1 (the not-a-knot ends).  `NotAKnot` factors A once, without
pivoting, in Python floats.

Slopes.  `slopes` solves for the knot slopes of every row of a block in
one sweep over the knots whose right-hand sides are numpy columns.  The
slopes are the spline's derivative at the knots.

Integrals.  An integral over [a, b] is linear in the samples: it is
p.y + g.s, where p and g integrate the Hermite basis over each cell
clipped to [a, b].  With s = A^-1 B y it is q.y, q = p + B^T A^-T g.
`weights` forms q with one transposed solve, so each row's integral is
one dot product.  Every operation on a row is elementwise or that one
dot product, so a block gives each row the doubles its one-row call
gives, provided each row is dotted on its own (`integrals`).
"""

from __future__ import annotations

import numpy as np


class NotAKnot:
    """The not-a-knot slope system on increasing knots x, at least 4."""

    def __init__(self, x: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.h = np.diff(self.x)
        h = self.h.tolist()
        n = len(h)
        self.d0 = float(self.x[2] - self.x[0])
        self.dn = float(self.x[-1] - self.x[-3])
        diag = [h[1]] + [2.0 * (h[i - 1] + h[i]) for i in range(1, n)] + [h[-2]]
        lower = h[1:] + [self.dn]  # row i >= 1, column i - 1
        # A = L U: L unit lower bidiagonal (subdiagonal m), U upper
        # bidiagonal (diagonal piv, superdiagonal upper, that of A)
        self.upper = [self.d0] + h[:-1]
        self.m, self.piv = [0.0], [diag[0]]
        for i in range(1, n + 1):
            mi = lower[i - 1] / self.piv[-1]
            self.m.append(mi)
            self.piv.append(diag[i] - mi * self.upper[i - 1])

    def slopes(self, y: np.ndarray) -> np.ndarray:
        """Knot slopes of the splines through the rows of y, shaped as y."""
        y = np.asarray(y, dtype=float)
        h, d0, dn = self.h, self.d0, self.dn
        dl = np.diff(np.atleast_2d(y), axis=-1) / h
        b = np.empty((h.size + 1, dl.shape[0]))
        b[0] = ((h[0] + 2.0 * d0) * h[1] * dl[:, 0] + h[0] ** 2 * dl[:, 1]) / d0
        b[1:-1] = (3.0 * (h[1:] * dl[:, :-1] + h[:-1] * dl[:, 1:])).T
        b[-1] = (h[-1] ** 2 * dl[:, -2] + (2.0 * dn + h[-1]) * h[-2] * dl[:, -1]) / dn
        for i in range(1, b.shape[0]):
            b[i] -= self.m[i] * b[i - 1]
        b[-1] /= self.piv[-1]
        for i in range(b.shape[0] - 2, -1, -1):
            b[i] = (b[i] - self.upper[i] * b[i + 1]) / self.piv[i]
        return b.T.reshape(y.shape)

    def weights(self, a: float, b: float) -> np.ndarray:
        """q with q.y the integral over [a, b] (inside [x_0, x_n]) of the
        spline through y."""
        x, h = self.x, self.h
        t0 = np.clip((a - x[:-1]) / h, 0.0, 1.0)
        t1 = np.clip((b - x[:-1]) / h, 0.0, 1.0)

        def basis(t):  # integrals over [0, t] of the four Hermite cubics
            t2, t3, t4 = t * t, t**3, t**4
            return t4 / 2 - t3 + t, t3 - t4 / 2, t4 / 4 - 2 * t3 / 3 + t2 / 2, t4 / 4 - t3 / 3

        v0, v1, s0, s1 = (hi - lo for hi, lo in zip(basis(t1), basis(t0)))
        q = np.zeros(x.size)
        q[:-1] += h * v0
        q[1:] += h * v1
        g = np.zeros(x.size)
        g[:-1] += h * h * s0
        g[1:] += h * h * s1
        # A^T z = g: U^T w = g forward, then L^T z = w backward
        z = g.tolist()
        z[0] /= self.piv[0]
        for i in range(1, len(z)):
            z[i] = (z[i] - self.upper[i - 1] * z[i - 1]) / self.piv[i]
        for i in range(len(z) - 2, -1, -1):
            z[i] -= self.m[i + 1] * z[i + 1]
        z = np.array(z)
        # B^T z: B y = C dl with dl = diff(y) / h, so B^T z = D^T (C^T z)
        u = np.zeros(h.size)
        u[1:] += 3.0 * h[:-1] * z[1:-1]
        u[:-1] += 3.0 * h[1:] * z[1:-1]
        u[0] += (h[0] + 2.0 * self.d0) * h[1] / self.d0 * z[0]
        u[1] += h[0] ** 2 / self.d0 * z[0]
        u[-2] += h[-1] ** 2 / self.dn * z[-1]
        u[-1] += (2.0 * self.dn + h[-1]) * h[-2] / self.dn * z[-1]
        u /= h
        q[1:] += u
        q[:-1] -= u
        return q


def integrals(y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q.row for each row of y, one dot product per contiguous row."""
    return np.array([row @ q for row in np.ascontiguousarray(np.atleast_2d(y))])
