"""Deterministic, atomic CSV/JSON emission.

Floats are printed with 17 significant digits (full double round trip);
files are written to a temporary sibling and renamed into place.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain


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


def write_csv(path: str, header: list, rows) -> None:
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
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")
