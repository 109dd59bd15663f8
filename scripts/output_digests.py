"""sha256 digests of the files a fixed set of polystar commands emits.

    PYTHONPATH=src python3 scripts/output_digests.py OUT_DIR [--seed N]

Runs, in-process through `polystar.cli.main`, each of these commands
into its own subdirectory of OUT_DIR (named as below), which must be new
or empty:

    profile        profile, the default config
    mode           mode, the default config
    check          check, the default battery
    evolve         evolve, {"sim": {"t_end": 2.0}}
    evolve_every3  evolve, {"sim": {"t_end": 2.0, "record_every": 3,
                   "snapshot_every": 4}}: unrecorded steps between samples
    evolve_snap0   evolve, {"sim": {"t_end": 2.0, "snapshot_every": 0}}:
                   no snapshot after t = 0, so energies.json shows that the
                   report does not follow the snapshot cadence
    instability    instability, the benchmark's ladder config
                   (perfbench.workloads)
    sweep          sweep, the benchmark's sweep config

and prints one `sha256  path` line per emitted file (paths relative to
OUT_DIR, sorted), after one `# exit CODE  NAME` line per command.
Output files are byte-identical for a fixed config, so two source trees
that should give the same numbers give the same listing: run the script
against each (PYTHONPATH picks the tree) and `diff` the two listings.
--seed moves the ladder and sweep inputs as the benchmark's seed does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench import workloads  # noqa: E402


def commands(seed: int) -> list:
    """(subdirectory, subcommand, config document or None) of every run."""
    every3 = {"sim": {"t_end": 2.0, "record_every": 3, "snapshot_every": 4}}
    return [
        ("profile", "profile", None),
        ("mode", "mode", None),
        ("check", "check", None),
        ("evolve", "evolve", {"sim": {"t_end": 2.0}}),
        ("evolve_every3", "evolve", every3),
        ("evolve_snap0", "evolve", {"sim": {"t_end": 2.0, "snapshot_every": 0}}),
        ("instability", "instability", workloads.ladder_config(seed)),
        ("sweep", "sweep", workloads.sweep_config(seed)),
    ]


def run(name: str, command: str, config: dict | None, out_dir: str) -> int:
    from polystar.cli import main

    argv = [command, "--out", os.path.join(out_dir, name)]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        return main(argv)


def digests(out_dir: str) -> list:
    lines = []
    for dirpath, _, files in os.walk(out_dir):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out_dir)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    if os.listdir(args.out_dir):
        ap.error(f"{args.out_dir} is not empty")
    for name, command, config in commands(args.seed):
        print(f"# exit {run(name, command, config, args.out_dir)}  {name}")
    print("\n".join(digests(args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
