"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark shares a small host with other tenants, whose load changes
how fast the same code runs by up to 1.7x over tens of minutes.  Timing
this kernel next to the workload, and scaling the workload's times by the
ratio, takes that out.  The kernel does the kind of work the workloads do:
an explicit time loop of small numpy operations, bound by dispatch in the
interpreter, and formatting floats to text, as the emitters do.  It uses
neither polystar nor anything a change to polystar can touch.

Do not change it: a change to the kernel changes every scaled time.
"""

from __future__ import annotations

import time

import numpy as np

NODES = 257
STEPS = 200
FORMATTED = 12000

# Mean seconds of one call of kernel_s on a 2-core Intel Xeon at 2.1 GHz
# (Python 3.11.7, numpy 2.4.6); the mean of 200 calls ranged from 0.033 s
# to 0.055 s as the host's load changed.  It sets only the scale: scaled
# times are the times at this speed.
REFERENCE_S = 0.05


def _accel(z: np.ndarray, r3: np.ndarray, d3: np.ndarray, w: np.ndarray) -> np.ndarray:
    u = z + z * z + z**3 / 3.0
    jm1 = 3.0 * np.diff(r3 * u) / d3
    flux = w * np.expm1(-1.3 * np.log1p(jm1))
    a = np.zeros_like(z)
    a[1:-1] = -((1.0 + z[1:-1]) ** 2) * np.diff(flux) + np.expm1(-4.0 * np.log1p(z[1:-1]))
    return a


def kernel_s() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    r = np.linspace(0.0, 1.0, NODES)
    r3 = r**3
    d3 = np.diff(r3)
    w = 1.0 - 0.5 * (r[1:] + r[:-1]) ** 2 + 1e-3
    z = 1e-3 * np.sin(np.pi * r)
    zt = np.zeros(NODES)
    dt = 1e-4
    for _ in range(STEPS):
        k1 = _accel(z, r3, d3, w)
        k2 = _accel(z + 0.5 * dt * zt, r3, d3, w)
        k3 = _accel(z + 0.5 * dt * zt + 0.25 * dt * dt * k1, r3, d3, w)
        k4 = _accel(z + dt * zt + 0.5 * dt * dt * k2, r3, d3, w)
        z = z + dt * zt + dt * dt / 6.0 * (k1 + k2 + k3)
        zt = zt + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    text = ",".join(f"{v:.17g}" for v in np.resize(z, FORMATTED))
    if not np.isfinite(z).all() or len(text) < FORMATTED:
        raise ArithmeticError("reference kernel diverged")
    return time.perf_counter() - t0
