"""Count the numpy calls inside the time loop's acceleration and step kernels.

    PYTHONPATH=src python3 scripts/count_kernel_calls.py [--nodes N]
    PYTHONPATH=src python3 scripts/count_kernel_calls.py --workloads [--seed S]

For B = 1, 2 and 3 rows, it counts the two batched kernels as the
batched time loop (experiments.evolve_batch) calls them: through the
loop's own experiments._Batch of B runs, on the profiles of the first B
of the gammas 1.25, 1.3 and 1.32, each at dt 1e-3, one row included.
The nonlinear_accel_rows row is one acceleration of the state's zeta
rows into its acceleration rows (_Batch.accel); the step_rows row is
one RK4 step with four accelerations (_Batch.step: evolution.step_rows
into the spare block, then the new zeta's acceleration into that
block).  The runs' initial data, and so the state and spare blocks, and
the FlatRows scratch, Stages and chunk buffers (the batch is built while
counting, and that is not counted), are in an ndarray subclass whose
__array_ufunc__ and __array_function__ count, and every array the
kernels derive from them or allocate with np.empty or np.zeros stays in
that subclass.  It prints, per kernel and B:

    calls    numpy ufunc calls (reductions included), array functions
             (np.empty_like, ...) and np.empty / np.zeros
    new      arrays those calls allocate
    strided  operands with more than one row that are not C-contiguous,
             each costing numpy's strided iterator set-up
    views    arrays the kernels derive from the counted buffers by
             slicing or reshaping (counted in __array_finalize__; a ufunc
             result written into out is not one), each a Python object
             numpy builds on the call

Indexing, item access and assignment into slices are not counted as
calls.  The perfbench tracer times named Python functions and cannot see
inside a kernel; this is the layer below it.

--workloads runs the perfbench ladder, sweep and check workloads once
each at --seed (perfbench/workloads.py: its config, the CLI in-process
and its gate), with evolution.step_rows and
evolution.nonlinear_accel_rows wrapped by module attribute, and prints,
per workload:

    steps        step_rows calls (RK4 steps of the whole block)
    row_steps    rows those calls stepped, one per member and step
    accel_calls  nonlinear_accel_rows calls
    accel_rows   rows those calls evaluated
    failed       operations the workload's gate failed

These counts do not depend on the host.  Run either mode against two
source trees (PYTHONPATH picks the tree) and compare the tables.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import os
import sys
import tempfile

import numpy as np

GAMMAS = (1.25, 1.3, 1.32)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL_COLUMNS = ("calls", "new", "strided", "views")
WORKLOAD_NAMES = ("ladder", "sweep", "check")
WORKLOAD_COLUMNS = ("steps", "row_steps", "accel_calls", "accel_rows", "failed")


class Counted(np.ndarray):
    """An ndarray that counts the numpy calls made on it while counting."""

    counts = None  # a Counter while counting, else None

    def __array_finalize__(self, obj):
        # a view derived from a counted array; _wrap's views of plain
        # results are not
        if Counted.counts is not None and isinstance(obj, Counted):
            Counted.counts["views"] += 1

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        args = [_plain(x) for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(_plain(o) for o in out)
        if "where" in kwargs:
            kwargs["where"] = _plain(kwargs["where"])
        result = getattr(ufunc, method)(*args, **kwargs)
        if Counted.counts is not None:
            _count(args + list(kwargs.get("out", ())), new=out is None and _owns(result))
        if out is not None:
            return out[0] if len(out) == 1 else out
        return _wrap(result)

    def __array_function__(self, func, types, args, kwargs):
        args, kwargs = _plain(args), _plain(kwargs)
        result = func(*args, **kwargs)
        if Counted.counts is not None:
            _count(_arrays(args) + _arrays(list(kwargs.values())), new=_owns(result))
        return _wrap(result)


def _plain(x):
    """x with every Counted replaced by a plain ndarray view."""
    if isinstance(x, Counted):
        return x.view(np.ndarray)
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(v) for v in x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def _arrays(values) -> list:
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append(v)
        elif isinstance(v, (list, tuple)):
            out += _arrays(v)
    return out


def _owns(result) -> bool:
    return isinstance(result, np.ndarray) and result.ndim > 0 and result.base is None


def _wrap(result):
    return result.view(Counted) if isinstance(result, np.ndarray) and result.ndim else result


def _count(operands: list, new: bool) -> None:
    counts = Counted.counts
    counts["calls"] += 1
    counts["new"] += int(new)
    counts["strided"] += sum(
        isinstance(x, np.ndarray) and x.ndim > 1 and x.shape[0] > 1 and not x.flags.c_contiguous
        for x in operands
    )


@contextlib.contextmanager
def counting():
    """Count into a fresh Counter; np.empty and np.zeros, which take no
    array to dispatch on, count and return Counted arrays meanwhile."""
    real = {name: getattr(np, name) for name in ("empty", "zeros")}

    def allocator(make):
        def allocate(*args, **kwargs):
            Counted.counts["calls"] += 1
            Counted.counts["new"] += 1
            return make(*args, **kwargs).view(Counted)

        return allocate

    Counted.counts = collections.Counter()
    for name, make in real.items():
        setattr(np, name, allocator(make))
    try:
        yield Counted.counts
    finally:
        for name, make in real.items():
            setattr(np, name, make)
        Counted.counts = None


def measure(n_nodes: int) -> list:
    """(kernel, B, calls, new, strided, views) rows."""
    from polystar import evolution, experiments, polytrope
    from polystar.config import ExperimentConfig

    cfg = ExperimentConfig()
    profiles = [
        polytrope.solve_lane_emden(polytrope.PolytropeConfig(gamma=g), n_nodes) for g in GAMMAS
    ]
    r = profiles[0].grid / profiles[0].R
    rows = []
    for B in (1, 2, 3):
        members = []
        for b, profile in enumerate(profiles[:B]):
            z = (1e-4 * (b + 1) * (1.0 - r * r)).view(Counted)
            initial = evolution.PerturbationState(0.0, z, 0.5 * z)
            members.append(experiments.Member(profile, initial, 0.0, dt=1e-3))
        with counting():
            runs = [experiments._Run(m, cfg) for m in members]
            batch = experiments._Batch(runs, [m.initial for m in members], cfg.sim)
        kernels = (
            ("nonlinear_accel_rows", lambda batch=batch: batch.accel(batch.current.accel)),
            ("step_rows", batch.step),
        )
        for name, run in kernels:
            with counting() as counts:
                run()
            rows.append((name, B, *(counts[c] for c in KERNEL_COLUMNS)))
    return rows


def _rows(zeta) -> int:
    return 1 if zeta.ndim == 1 else len(zeta)


@contextlib.contextmanager
def counting_kernels():
    """Count into a fresh Counter the calls and rows of the two batched
    kernels, wrapped as attributes of polystar.evolution, where the time
    loop looks them up."""
    from polystar import evolution

    real_step, real_accel = evolution.step_rows, evolution.nonlinear_accel_rows
    counts = collections.Counter()

    def step_rows(state, *args, **kwargs):
        counts["steps"] += 1
        counts["row_steps"] += _rows(state[0])
        return real_step(state, *args, **kwargs)

    def nonlinear_accel_rows(zeta, *args, **kwargs):
        counts["accel_calls"] += 1
        counts["accel_rows"] += _rows(zeta)
        return real_accel(zeta, *args, **kwargs)

    evolution.step_rows, evolution.nonlinear_accel_rows = step_rows, nonlinear_accel_rows
    try:
        yield counts
    finally:
        evolution.step_rows, evolution.nonlinear_accel_rows = real_step, real_accel


def measure_workloads(seed: int = 0, names=WORKLOAD_NAMES) -> dict:
    """workload name -> Counter of steps, row_steps, accel_calls,
    accel_rows and failed, from one gated repeat of each workload."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench import workloads

    out = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as work_dir, counting_kernels() as counts:
            outcome = workloads.run_repeat(workload, workload.make_config(seed), work_dir)
        counts["failed"] = outcome.failed
        out[name] = counts
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, default=256, help="mesh.n_nodes (default 256)")
    ap.add_argument(
        "--workloads", action="store_true", help="count the kernels of the perfbench workloads"
    )
    ap.add_argument("--seed", type=int, default=0, help="perfbench workload seed (default 0)")
    args = ap.parse_args(argv)
    if args.workloads:
        print(f"{'workload':<10}" + "".join(f"{c:>13}" for c in WORKLOAD_COLUMNS))
        for name, counts in measure_workloads(args.seed).items():
            print(f"{name:<10}" + "".join(f"{counts[c]:>13}" for c in WORKLOAD_COLUMNS))
        return 0
    print(f"{'kernel':<22}{'B':>3}" + "".join(f"{c:>9}" for c in KERNEL_COLUMNS))
    for name, B, *counts in measure(args.nodes):
        print(f"{name:<22}{B:>3}" + "".join(f"{c:>9}" for c in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
