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
        assert counts[1][0] > 0 and counts[1][1] > 0
        # one contiguous call per operation whatever B is
        assert counts[1] == counts[2] == counts[3]
        assert counts[3][2] == 0
    # the counter sees a strided operand, and leaves numpy as it found it
    with count_kernel_calls.counting() as counts:
        block = count_kernel_calls.np.zeros((2, 5))
        block[:, 1:] *= 2.0
    assert counts == {"calls": 2, "new": 1, "strided": 2}
    assert not isinstance(count_kernel_calls.np.zeros(3), count_kernel_calls.Counted)
    assert count_kernel_calls.main(["--nodes", "64"]) == 0
    assert "nonlinear_accel_rows" in capsys.readouterr().out
