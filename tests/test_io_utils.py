"""Emission helpers: a CSV file is its header and the fmt join of each
row, byte for byte, whatever the row values are."""

import math

import numpy as np
import pytest

from polystar.errors import NonFiniteOutput
from polystar.io_utils import csv_template, fmt, write_csv, write_json

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e22, 1e16, 1e-5, 0.1,
    1.0 / 3.0, -123456789.125, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]  # fmt: skip


def _fmt_join(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(map(fmt, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _random_floats(n):
    """Doubles from random bit patterns (every exponent, subnormals, NaN
    payloads and infinities included)."""
    bits = np.random.default_rng(20240802).integers(0, 2**64, n, dtype=np.uint64)
    return bits.view(np.float64).tolist()


CASES = {
    "edge_floats": [tuple(EDGE_FLOATS[i : i + 3]) for i in range(0, len(EDGE_FLOATS), 3)],
    "random_floats": list(zip(*[iter(_random_floats(3 * 257))] * 3)),
    "one_column": [(x,) for x in EDGE_FLOATS],
    "mixed": [(1.25, 3, True), (False, "escaped", -0.0), (math.nan, 7, "a b")],
    "numpy_scalars": [(np.float64(0.1), np.float64(-0.0), 2.5), (np.int64(4), 1e22, math.inf)],
    "ragged": [(0.5, 1.5), (2.5,), (3.5, 4.5, 5.5)],
    "empty": [],
}


@pytest.mark.parametrize("case", CASES)
def test_write_csv_bytes_are_the_fmt_join(tmp_path, case):
    rows = CASES[case]
    header = ["a", "b", "c"]
    path = tmp_path / "out.csv"
    write_csv(str(path), header, iter(rows))  # emitters pass iterators
    assert path.read_bytes() == _fmt_join(header, rows)


def test_write_csv_template_bytes_are_the_generic_paths(tmp_path):
    # one template for several files of a run: the shared leading column,
    # formatted once, and each file's columns give the generic path's bytes
    rng = np.random.default_rng(7)
    n = 40
    first = np.linspace(0.0, 3.0, n).tolist()
    special = [-0.0, 0.0, 1e-300, -1e-300, 2.0, -7.0, 1e22, 0.1]
    header = ["r", "zeta", "zeta_t"]
    template = csv_template(header, first)
    for k in range(3):
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(2)]
        columns[k % 2][: len(special)] = special
        columns[1 - k % 2][-3:] = [float(k), -float(k), k * 1e-300]
        columns = [c.tolist() for c in columns]
        write_csv(str(tmp_path / f"template_{k}.csv"), header, columns, template=template)
        write_csv(str(tmp_path / f"generic_{k}.csv"), header, zip(first, *columns))
        text = (tmp_path / f"template_{k}.csv").read_bytes()
        assert text == (tmp_path / f"generic_{k}.csv").read_bytes()
        assert text == _fmt_join(header, zip(first, *columns))


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=["nan", "inf", "-inf", "numpy_nan"]
)
def test_write_json_refuses_non_finite_values(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(NonFiniteOutput, match=r"out\.json: checks\[1\]\.value is not finite"):
        write_json(str(path), {"checks": [{"value": 1.0}, {"value": value}], "n": 3})
    assert not path.exists()
