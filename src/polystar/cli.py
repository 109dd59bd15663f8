"""Batch front end.

Subcommands: profile, mode, evolve, instability, sweep, check.  A JSON
config document drives everything; a handful of flags override the most
common keys.  Exit codes: 0 success, 2 config error, 3 numerical
failure, 4 check-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import experiments
from .config import ExperimentConfig, config_hash, delta_tag, load_config
from .energetics import instant_energy as energetics_report
from .errors import ConfigError, PolystarError
from .evolution import mode_initial_state


# Flag -> (config section, field, type), applied in this order.
_OVERRIDES = {
    "gamma": ("polytrope", "gamma", float),
    "delta": ("experiment", "delta", float),
    "nodes": ("mesh", "n_nodes", int),
    "seed": ("experiment", "seed", int),
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polystar",
        description="Lane-Emden equilibria, growing modes, and nonlinear "
        "instability runs for self-gravitating polytropes.",
    )
    ap.add_argument("command", choices=["profile", "mode", "evolve", "instability", "sweep", "check"])
    ap.add_argument("--config", help="JSON configuration file")
    ap.add_argument("--out", help="output directory (default: $POLYSTAR_OUT or ./out)")
    for flag, (section, name, kind) in _OVERRIDES.items():
        ap.add_argument(f"--{flag}", type=kind, help=f"override {section}.{name}")
    return ap


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    for flag, (section, name, _) in _OVERRIDES.items():
        value = getattr(args, flag)
        if value is not None:
            part = dataclasses.replace(getattr(cfg, section), **{name: value})
            cfg = dataclasses.replace(cfg, **{section: part})
    out_dir = args.out or os.environ.get("POLYSTAR_OUT") or cfg.output_dir
    return dataclasses.replace(cfg, output_dir=out_dir)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = cfg.output_dir
    try:
        if args.command == "profile":
            profile = experiments.build_profile(cfg)
            experiments.emit_profile(profile, cfg, out)
            print(f"profile gamma={profile.gamma} R={profile.R:.12g} -> {out}")

        elif args.command == "mode":
            profile = experiments.build_profile(cfg)
            mode = experiments.build_mode(profile, cfg.eig.eig_tol)
            experiments.emit_mode(mode, profile, cfg, out)
            print(f"mode gamma={profile.gamma} mu0={mode.mu0:.12g} rate={mode.rate:.12g} -> {out}")

        elif args.command == "evolve":
            profile = experiments.build_profile(cfg)
            mode = experiments.build_mode(profile, cfg.eig.eig_tol)
            initial = mode_initial_state(mode, cfg.experiment.delta)
            record = experiments.evolve_run(profile, initial, cfg, mu0=mode.mu0)
            experiments.emit_run(record, cfg, out)
            # the energies of the state the run ended on
            report = energetics_report(record.final, profile, cfg.experiment.jmax)
            experiments.emit_energy_report(report, cfg, out)
            print(f"evolve status={record.status} samples={len(record.times)} -> {out}")

        elif args.command == "instability":
            deltas = (args.delta,) if args.delta is not None else cfg.experiment.deltas
            results = []
            for result in experiments.instability_ladder(cfg, deltas):
                delta = result["delta"]
                tag = delta_tag(delta)
                experiments.emit_run(result["record"], cfg, out, tag=tag)
                experiments.emit_fit(result["fit"], cfg, out, tag=tag)
                if "remainder" in result:
                    experiments.emit_remainder(result["remainder"], out, tag=tag)
                results.append(result)
                fit = result["fit"]
                print(
                    f"delta={delta:.0e} status={result['record'].status} "
                    f"rate={fit.rate:.6g} escape={fit.escape_time} "
                    f"escape_2theta={fit.escape_time_double} predicted={fit.predicted_escape}"
                )
            experiments.emit_instability_summary(results, cfg, out)
            print(f"instability ladder ({len(results)} runs) -> {out}")

        elif args.command == "sweep":
            rows = experiments.sweep(cfg)
            experiments.emit_sweep(rows, cfg, out)
            for row in rows:
                print(f"gamma={row['gamma']:.6g} mu0={row['mu0']:.6g} status={row['status']}")

        elif args.command == "check":
            report = experiments.check(cfg)
            experiments.emit_check(report, cfg, out)
            for c in report["checks"]:
                print(f"[{c['status']:>7}] {c['name']}")
            if not report["all_mandatory_pass"]:
                return 4
            print(f"all checks pass (config {config_hash(cfg)})")

    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PolystarError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
