"""Largest relative changes between two output trees of output_digests.py.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are the OUT_DIRs of two `output_digests.py`
runs (say, of a parent commit and of a change that moves output bits).
A snapshot file pairs with the other tree's snapshot of the same
directory, tag and time, when both trees' sibling `[tag_]run.json` list
those times in `snapshot_times`; every other file pairs with the file of
the same name.  Prints the files found in one tree only (for snapshots,
the times found on one side only, with their count and range), then one
block per pair whose bytes differ:

    CSV    the largest relative change of each numeric column, and how
           many cells of each other column changed, over the rows of
           equal sample time when the file has a t column (the times
           found on one side only are listed, with their count and
           range), else over the rows of equal index;
    JSON   the largest relative change of each numeric leaf (a number,
           or a list of numbers of unchanged length), the lengths of a
           list of numbers whose length changed and how many of its
           values are found on one side only, and every other leaf that
           changed, with its two values.

A relative change is |b - a| / max(|a|, |b|): 0 for equal values (two
NaNs included), inf when only one side is NaN.  Last comes the same
listing by file pattern (a snapshot's five-digit index read as *), each
entry the largest over the pattern's differing files.  Exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import numpy as np


def rel_change(a, b) -> float:
    """Largest |b - a| / max(|a|, |b|) over paired values."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.abs(b - a) / np.maximum(np.abs(a), np.abs(b))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    r = np.where(same, 0.0, np.where(np.isnan(r), np.inf, r))
    return float(r.max())


def files_of(root: str) -> set:
    return {
        os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names
    }


def _floats(cells: list):
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _one_side_notes(what: str, ta: list, tb: list) -> dict:
    """'<what> only in parent|change' -> the count and range of the times
    present on that side only."""
    notes = {}
    for side, times, other in (("parent", ta, set(tb)), ("change", tb, set(ta))):
        only = [t for t in times if t not in other]
        if only:
            notes[f"{what} only in {side}"] = (
                f"{len(only)} of {len(times)}, t {min(only):.6g} to {max(only):.6g}"
            )
    return notes


def _pair_on_t(body_a: list, body_b: list, k: int):
    """The rows of both bodies at each sample time (column k) present on
    both sides, in the parent's order, and a note on the times present on
    one side only; None when a time does not parse as a number."""
    ta, tb = _floats([row[k] for row in body_a]), _floats([row[k] for row in body_b])
    if ta is None or tb is None:
        return None
    by_b = dict(zip(tb, body_b))
    pairs = [(row, by_b[t]) for t, row in zip(ta, body_a) if t in by_b]
    return pairs, _one_side_notes("rows", ta, tb)


def compare_csv(pa: str, pb: str) -> dict:
    """column -> largest relative change (numeric) or changed-cell count
    (text).  Rows pair on the sample time when there is a t column (the
    times present on one side only are listed first), else by index, with
    'rows' when the row counts differ."""
    with open(pa, newline="") as fh:
        ra = list(csv.reader(fh))
    with open(pb, newline="") as fh:
        rb = list(csv.reader(fh))
    out = {}
    if ra[:1] != rb[:1]:
        out["header"] = f"{ra[:1]} -> {rb[:1]}"
        return out
    header = ra[0] if ra else []
    body_a, body_b = ra[1:], rb[1:]
    paired = _pair_on_t(body_a, body_b, header.index("t")) if "t" in header else None
    if paired is None:
        if len(body_a) != len(body_b):
            out["rows"] = f"{len(body_a)} -> {len(body_b)}"
        pairs = list(zip(body_a, body_b))
    else:
        pairs, notes = paired
        out.update(notes)
    n = len(pairs)
    for k, name in enumerate(header):
        ca = [a[k] for a, _ in pairs]
        cb = [b[k] for _, b in pairs]
        fa, fb = _floats(ca), _floats(cb)
        if fa is not None and fb is not None:
            out[name] = rel_change(fa, fb)
        else:
            out[name] = f"{sum(x != y for x, y in zip(ca, cb))} of {n} cells changed"
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numeric(x) -> bool:
    """A number, or a non-empty list of numbers (one leaf, such as
    snapshot_times)."""
    return _is_number(x) or (isinstance(x, list) and x != [] and all(map(_is_number, x)))


def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list) and not _numeric(obj):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def compare_json(pa: str, pb: str) -> dict:
    """leaf path -> largest relative change (numeric on both sides), the
    counts of a list of numbers whose length changed, or 'old -> new'
    (anything else that changed)."""
    with open(pa) as fh:
        la = dict(_leaves(json.load(fh)))
    with open(pb) as fh:
        lb = dict(_leaves(json.load(fh)))
    out = {}
    for path in sorted(set(la) | set(lb)):
        a, b = la.get(path, "<absent>"), lb.get(path, "<absent>")
        if _numeric(a) and _numeric(b) and np.shape(a) == np.shape(b):
            change = rel_change(a, b)
            if change:
                out[path] = change
        elif isinstance(a, list) and isinstance(b, list) and _numeric(a) and _numeric(b):
            only_a, only_b = len(set(a) - set(b)), len(set(b) - set(a))
            out[path] = (
                f"{len(a)} -> {len(b)} values, {only_a} only in parent, {only_b} only in change"
            )
        elif a != b:
            out[path] = f"{a!r} -> {b!r}"
    return out


def pattern(rel: str) -> str:
    """The file's pattern: a snapshot index read as *."""
    return re.sub(r"\d{5}", "*", rel)


SNAPSHOT = re.compile(r"(?:(.+)_)?snapshot_(\d{5})\.csv")


def snapshot_times(root: str, files: set) -> dict:
    """rel -> (pattern, t) of each snapshot file whose time its sibling
    [tag_]run.json lists in snapshot_times."""
    runs, out = {}, {}
    for rel in files:
        d, name = os.path.split(rel)
        m = SNAPSHOT.fullmatch(name)
        if not m:
            continue
        run = os.path.join(d, f"{m[1]}_run.json" if m[1] else "run.json")
        if run not in runs:
            try:
                with open(os.path.join(root, run)) as fh:
                    runs[run] = json.load(fh).get("snapshot_times")
            except (OSError, ValueError, AttributeError):
                runs[run] = None
        times, i = runs[run], int(m[2])
        if isinstance(times, list) and i < len(times):
            out[rel] = (pattern(rel), times[i])
    return out


def pairs_of(parent: str, change: str, fa: set, fb: set):
    """Sorted (parent file, change file) pairs: snapshots on their pattern
    and time where both trees time that pattern's files, every other file
    on its name.  Also, per such pattern, notes on the times of one side
    only, and the files of each tree that pair on time."""
    sa, sb = snapshot_times(parent, fa), snapshot_times(change, fb)
    timed = {p for p, _ in sa.values()} & {p for p, _ in sb.values()}
    sa = {rel: key for rel, key in sa.items() if key[0] in timed}
    sb = {rel: key for rel, key in sb.items() if key[0] in timed}
    by_b = {key: rel for rel, key in sb.items()}
    pairs = [(rel, by_b[key]) for rel, key in sa.items() if key in by_b]
    pairs += [(rel, rel) for rel in (fa - set(sa)) & (fb - set(sb))]
    notes = {}
    for pat in sorted(timed):
        ta = sorted(t for p, t in sa.values() if p == pat)
        tb = sorted(t for p, t in sb.values() if p == pat)
        for key, note in _one_side_notes("snapshots", ta, tb).items():
            notes[f"{key}  {pat}"] = note
    return sorted(pairs), notes, set(sa), set(sb)


def _show(value) -> str:
    return f"{value:.3g}" if isinstance(value, float) else str(value)


def _merge(into: dict, changes: dict) -> None:
    for key, value in changes.items():
        old = into.get(key)
        if isinstance(value, float) and isinstance(old, float):
            into[key] = max(old, value)
        elif old is None or isinstance(value, float):
            into[key] = value


def compare(parent: str, change: str, out=sys.stdout) -> int:
    fa, fb = files_of(parent), files_of(change)
    pairs, notes, timed_a, timed_b = pairs_of(parent, change, fa, fb)
    missing = fa - {a for a, _ in pairs}
    extra = fb - {b for _, b in pairs}
    # a timed snapshot of one side only shows in its pattern's note
    for rel in sorted(missing - timed_a):
        print(f"missing {rel}", file=out)
    for rel in sorted(extra - timed_b):
        print(f"extra   {rel}", file=out)
    for key, note in notes.items():
        print(f"{key}  {note}", file=out)
    groups, same = {}, 0
    for ra, rb in pairs:
        pa, pb = os.path.join(parent, ra), os.path.join(change, rb)
        with open(pa, "rb") as ha, open(pb, "rb") as hb:
            if ha.read() == hb.read():
                same += 1
                continue
        if ra.endswith(".csv"):
            changes = compare_csv(pa, pb)
        elif ra.endswith(".json"):
            changes = compare_json(pa, pb)
        else:
            changes = {"bytes": "differ"}
        print(f"differs {ra}" if ra == rb else f"differs {ra} -> {rb}", file=out)
        for key, value in changes.items():
            print(f"    {key}  {_show(value)}", file=out)
        count, merged = groups.setdefault(pattern(ra), [0, {}])
        groups[pattern(ra)][0] = count + 1
        _merge(merged, changes)
    differ = sum(count for count, _ in groups.values())
    print(
        f"# {len(pairs)} common files: {same} identical, {differ} differ; "
        f"{len(missing)} missing, {len(extra)} extra",
        file=out,
    )
    for pat in sorted(groups):
        count, merged = groups[pat]
        print(f"pattern {pat}  ({count} differ)", file=out)
        for key, value in merged.items():
            print(f"    {key}  {_show(value)}", file=out)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    args = ap.parse_args(argv)
    for d in (args.parent_dir, args.change_dir):
        if not os.path.isdir(d):
            ap.error(f"{d} is not a directory")
    return compare(args.parent_dir, args.change_dir)


if __name__ == "__main__":
    sys.exit(main())
