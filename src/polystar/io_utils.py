"""Deterministic, atomic CSV/JSON emission.

Floats are printed with 17 significant digits (full double round trip);
files are written to a temporary sibling and renamed into place.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain

from .errors import NonFiniteOutput


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, bool):
        return str(int(x))
    return str(x)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_template(header: list, first: list) -> str:
    """The text of the CSV files with header whose leading column is
    first (floats) and whose other columns are floats: one %-template of
    those columns' values by row, so that the files of a run that share
    header and first format them once (write_csv's template).  The names
    in header hold no %."""
    rest = ",%.17g" * (len(header) - 1) + "\n"
    return ",".join(header) + "\n" + "".join(fmt(x) + rest for x in first)


def write_csv(path: str, header: list, rows, template: str | None = None) -> None:
    """Write the header line and one line per row.  With template, the
    csv_template(header, first) of a shared leading column first, rows
    are the file's other columns (lists of floats), and the file has the
    bytes of the rows zip(first, *rows)."""
    if template is not None:
        _atomic_write(path, template % tuple(chain.from_iterable(zip(*rows))))
        return
    rows = list(rows)
    values = list(chain.from_iterable(rows))
    width = len(rows[0]) if rows else 0
    if set(map(type, values)) == {float} and all(len(row) == width for row in rows):
        # every value a float: one % over a repeated line template, the
        # text fmt gives
        body = (",".join(["%.17g"] * width) + "\n") * len(rows) % tuple(values)
    else:
        body = "".join(",".join(map(fmt, row)) + "\n" for row in rows)
    _atomic_write(path, ",".join(header) + "\n" + body)


def write_json(path: str, obj: dict) -> None:
    """Write obj as JSON; NaN and infinities, which JSON has no literal
    for, raise NonFiniteOutput naming the first such key."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        key = _nonfinite_key(obj)
        raise NonFiniteOutput(f"{os.path.basename(path)}: {key} is not finite") from None
    _atomic_write(path, text + "\n")


def _nonfinite_key(obj, key: str = "") -> str | None:
    """The path (a.b[2].c) of the first non-finite float in obj, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    if isinstance(obj, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_nonfinite_key(v, k) for k, v in items)), None)
