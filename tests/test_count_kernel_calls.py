"""scripts/count_kernel_calls.py on a small mesh."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "count_kernel_calls.py")
spec = importlib.util.spec_from_file_location("count_kernel_calls", SCRIPT)
count_kernel_calls = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_kernel_calls)


def test_flat_kernels_make_the_same_contiguous_calls_at_every_batch_size(capsys):
    rows = count_kernel_calls.measure(64)
    assert [(name, B) for name, B, *_ in rows] == [
        (name, B)
        for B in (1, 2, 3)
        for name in ("nonlinear_accel_rows", "step_rows")
    ]
    for name in ("nonlinear_accel_rows", "step_rows"):
        counts = {B: tuple(values) for kernel, B, *values in rows if kernel == name}
        assert counts[1][0] > 0
        # one contiguous call per operation whatever B is
        assert counts[1] == counts[2] == counts[3]
        assert counts[3][2] == 0
    # on the batch path's own buffers neither an acceleration nor a step
    # with four of them allocates an array
    calls, new, _, _ = next(
        values for kernel, B, *values in rows if kernel == "nonlinear_accel_rows"
    )
    assert calls <= 20 and new == 0
    calls, new, _, _ = next(values for kernel, B, *values in rows if kernel == "step_rows")
    assert calls <= 92 and new == 0
    # nor derives a view: the time loop prepares them once per block layout
    assert {B: values[3] for kernel, B, *values in rows} == {1: 0, 2: 0, 3: 0}
    # the counter sees a strided operand and a derived view, and leaves
    # numpy as it found it
    with count_kernel_calls.counting() as counts:
        block = count_kernel_calls.np.zeros((2, 5))
        tail = block[:, 1:]
        tail *= 2.0
    assert counts == {"calls": 2, "new": 1, "strided": 2, "views": 1}
    assert not isinstance(count_kernel_calls.np.zeros(3), count_kernel_calls.Counted)
    assert count_kernel_calls.main(["--nodes", "64"]) == 0
    assert "nonlinear_accel_rows" in capsys.readouterr().out


def test_workload_counts_see_the_batched_time_loop(capsys):
    from polystar import evolution

    kernels = (evolution.step_rows, evolution.nonlinear_accel_rows)
    counts = count_kernel_calls.measure_workloads(names=("ladder", "check"))
    assert list(counts) == ["ladder", "check"]
    for name, c in counts.items():
        assert c["failed"] == 0, name
        # the ladder's two deltas and check's two runs march as one block
        assert 0 < c["steps"] < c["row_steps"], name
        # three stages per step, and at most one more stage and a sample
        assert 3 * c["steps"] < c["accel_calls"] <= 5 * c["steps"], name
        assert 3 * c["row_steps"] < c["accel_rows"] <= 5 * c["row_steps"], name
    # each step evaluates the acceleration of the state it reaches, the
    # next step's k1: four accelerations a step, and the first sample's
    ladder = counts["ladder"]
    assert ladder["accel_calls"] == 4 * ladder["steps"] + 1
    assert ladder["accel_rows"] == 4 * ladder["row_steps"] + 2
    assert (evolution.step_rows, evolution.nonlinear_accel_rows) == kernels
    assert count_kernel_calls.main(["--workloads"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["workload", *count_kernel_calls.WORKLOAD_COLUMNS]
    assert [line.split()[0] for line in out[1:]] == list(count_kernel_calls.WORKLOAD_NAMES)
