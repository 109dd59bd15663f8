"""scripts/compare_outputs.py on two small output trees."""

import importlib.util
import io
import json
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_outputs.py")
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _tree(root, files: dict) -> str:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_compare_outputs_lists_files_and_largest_changes(tmp_path):
    run = {"config_hash": "aa", "dt": 0.5, "status": "escaped", "times": [1.0, 2.0]}
    parent = _tree(
        tmp_path / "parent",
        {
            "same.json": "{}\n",
            "gone.csv": "x\n1\n",
            "run/series.csv": "t,E0,status\n0,4,ok\n1,8,ok\n",
            "run/snapshot_00001.csv": "r,zeta\n0,1\n",
            "run/snapshot_00002.csv": "r,zeta\n0,1\n",
            "run/run.json": json.dumps(run),
        },
    )
    run.update(config_hash="bb", dt=0.5000005, times=[1.0, 2.2])
    change = _tree(
        tmp_path / "change",
        {
            "same.json": "{}\n",
            "new.csv": "x\n1\n",
            "run/series.csv": "t,E0,status\n0,4,ok\n1,10,no\n",
            "run/snapshot_00001.csv": "r,zeta\n0,1.5\n",
            "run/snapshot_00002.csv": "r,zeta\n0,0.5\n",
            "run/run.json": json.dumps(run),
        },
    )
    out = io.StringIO()
    assert compare_outputs.compare(parent, change, out=out) == 0
    lines = out.getvalue().splitlines()
    assert "missing gone.csv" in lines
    assert "extra   new.csv" in lines
    assert "# 5 common files: 1 identical, 4 differ; 1 missing, 1 extra" in lines
    block = lines[lines.index("differs run/series.csv") + 1 :][:3]
    assert block == ["    t  0", "    E0  0.2", "    status  1 of 2 cells changed"]
    block = lines[lines.index("differs run/run.json") + 1 :][:3]
    assert block == ["    config_hash  'aa' -> 'bb'", "    dt  1e-06", "    times  0.0909"]
    # the two snapshots fold into one pattern, with the larger change
    block = lines[lines.index("pattern run/snapshot_*.csv  (2 differ)") + 1 :][:2]
    assert block == ["    r  0", "    zeta  0.5"]


def test_compare_outputs_pairs_series_rows_on_t(tmp_path):
    # a shifted sample grid: rows pair on equal t, the times found on one
    # side only are listed, and a file without t still pairs by index
    parent = _tree(
        tmp_path / "parent",
        {
            "series.csv": "t,E0\n0,1\n0.5,2\n1,4\n1.5,8\n",
            "snapshot_00000.csv": "r,zeta\n0,1\n1,2\n",
        },
    )
    change = _tree(
        tmp_path / "change",
        {
            "series.csv": "t,E0\n0,1\n1,4.4\n2,16\n3,32\n",
            "snapshot_00000.csv": "r,zeta\n0,1\n1,2.5\n2,3\n",
        },
    )
    out = io.StringIO()
    assert compare_outputs.compare(parent, change, out=out) == 0
    lines = out.getvalue().splitlines()
    block = lines[lines.index("differs series.csv") + 1 :][:4]
    assert block == [
        "    rows only in parent  2 of 4, t 0.5 to 1.5",
        "    rows only in change  2 of 4, t 2 to 3",
        "    t  0",
        "    E0  0.0909",
    ]
    block = lines[lines.index("differs snapshot_00000.csv") + 1 :][:3]
    assert block == ["    rows  2 -> 3", "    r  0", "    zeta  0.2"]


def test_compare_outputs_pairs_snapshots_on_their_time(tmp_path):
    # every other snapshot of the parent, renumbered: each pairs with the
    # parent's file at its time, and the parent's other times are noted
    times = [0.0, 0.5, 1.0, 1.5]
    snap = [f"r,zeta\n0,{t}\n" for t in times]
    parent = _tree(
        tmp_path / "parent",
        {
            "ladder/d1_run.json": json.dumps({"snapshot_times": times}),
            **{f"ladder/d1_snapshot_{i:05d}.csv": text for i, text in enumerate(snap)},
        },
    )
    change = _tree(
        tmp_path / "change",
        {
            "ladder/d1_run.json": json.dumps({"snapshot_times": times[::2]}),
            **{f"ladder/d1_snapshot_{i:05d}.csv": text for i, text in enumerate(snap[::2])},
        },
    )
    out = io.StringIO()
    assert compare_outputs.compare(parent, change, out=out) == 0
    change_of_times = "    snapshot_times  4 -> 2 values, 2 only in parent, 0 only in change"
    assert out.getvalue().splitlines() == [
        "snapshots only in parent  ladder/d1_snapshot_*.csv  2 of 4, t 0.5 to 1.5",
        "differs ladder/d1_run.json",
        change_of_times,
        "# 3 common files: 2 identical, 1 differ; 2 missing, 0 extra",
        "pattern ladder/d1_run.json  (1 differ)",
        change_of_times,
    ]
