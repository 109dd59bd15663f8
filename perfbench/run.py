"""polystar benchmark driver.

    python3 perfbench/run.py --workload ladder|sweep|check|all --seed N \
        --seconds S --trace 0|1

Run from the repository root.  One process runs one workload through
`polystar.cli.main`, repeat after repeat (a closed loop with one client),
each repeat into a fresh temporary directory that is deleted afterwards.

--trace 0 repeats the workload for --seconds (at least once; a repeat
starts only if it should end in time) and reports the end-to-end
metrics: the median wall time of a repeat, the median set-up time of six
fresh interpreters, and the peak resident memory of this process.  Both
times are scaled to a fixed host speed by the reference kernel
(reference.py), timed between the repeats; the raw times are reported
beside them.  --trace 1 runs one untraced repeat and one repeat with
every wrapped function recorded as a span, and reports the per-module
table.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Outputs are gated (see workloads.py); counters and the sha256 digest of
the output directory must agree between repeats and with earlier runs of
the same workload, seed, config and source tree, which are kept in
.perfbench_work/counters.json.  Full results, spans and the environment
are written under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 6
# Reference-kernel samples before each repeat and around the set-up
# probes; their mean gauges the host speed over the run.
REF_SAMPLES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, ROOT)
from perfbench import reference, spans, workloads  # noqa: E402

# Time from a fresh interpreter's `import polystar` through build_profile
# and build_mode of the workload's first member.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import polystar
from polystar import experiments
t1 = time.perf_counter()
cfg = polystar.load_config(sys.argv[1])
gamma = None if sys.argv[2] == "none" else float(sys.argv[2])
experiments.build_mode(experiments.build_profile(cfg, gamma=gamma), cfg.eig.eig_tol)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_hash() -> str:
    h = hashlib.sha256()
    for root, _, names in sorted(os.walk(os.path.join(SRC, "polystar"))):
        for n in sorted(names):
            if n.endswith(".py"):
                path = os.path.join(root, n)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def filesystem(path: str) -> str:
    """Type of the filesystem holding path, from /proc/self/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "output_fs": filesystem(WORK),
        "source_hash": source_hash(),
    }


def setup_times(workload, config: dict, n: int) -> list[dict]:
    """Run the set-up probe n times in fresh interpreters, one after another."""
    gamma = workloads.first_member_gamma(workload.name, config)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        for _ in range(n):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, path, "none" if gamma is None else repr(gamma)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def repeat(workload, config: dict) -> workloads.Outcome:
    work_dir = tempfile.mkdtemp(dir=WORK)
    try:
        return workloads.run_repeat(workload, config, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def compare_counters(repeats: list, key: str, problems: list) -> dict:
    """Counters must be equal across repeats and across invocations of the
    same source tree, workload, seed and generated config."""
    merged: dict = {}
    for o in repeats:
        for name, value in o.counters.items():
            if name in merged and merged[name] != value:
                problems.append(f"counter {name} differs between repeats: {merged[name]} vs {value}")
            merged.setdefault(name, value)
    path = os.path.join(WORK, "counters.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    before = known.get(key, {})
    for name, value in merged.items():
        if name in before and before[name] != value:
            problems.append(f"counter {name} differs from an earlier run: {before[name]} vs {value}")
    known[key] = {**before, **merged}
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return merged


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "polystar")):
        print(f"polystar sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import polystar

    import_s = time.perf_counter() - t0
    if not os.path.abspath(polystar.__file__).startswith(SRC + os.sep):
        print(f"polystar imported from {polystar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    config = workload.make_config(args.seed)
    env = environment()
    problems: list = []
    setups = ref_s = None

    if args.trace:
        untraced = repeat(workload, config)
        tracer = spans.Tracer()
        with tracer:
            traced = repeat(workload, config)
        traced.counters["steps"] = sum(s.name == "evolution.step" for s in tracer.spans)
        traced.counters["accel_calls"] = sum(
            s.name in ("evolution.nonlinear_accel", "evolution.linear_accel") for s in tracer.spans
        )
        writes = sum(s.name.startswith("io_utils.write_") for s in tracer.spans)
        if writes != traced.counters["files"]:
            problems.append(f"{writes} io_utils writes but {traced.counters['files']} files")
        repeats = [untraced, traced]
    else:
        # Half the set-up probes before the repeats and half after, so that
        # their median spans the run rather than one moment of it.
        ref_s = [reference.kernel_s() for _ in range(REF_SAMPLES)]
        setups = setup_times(workload, config, SETUP_PROBES // 2)
        repeats = []
        start = time.perf_counter()
        # Start a repeat only if one of median length still fits in --seconds.
        while not repeats or (
            time.perf_counter() - start + statistics.median([o.wall_s for o in repeats]) <= args.seconds
        ):
            ref_s += [reference.kernel_s() for _ in range(REF_SAMPLES)]
            repeats.append(repeat(workload, config))
        setups += setup_times(workload, config, SETUP_PROBES - SETUP_PROBES // 2)
        ref_s += [reference.kernel_s() for _ in range(REF_SAMPLES)]

    inputs = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    key = f"{env['source_hash']}/{args.workload}/{args.seed}/{inputs}"
    counters = compare_counters(repeats, key, problems)
    for o in repeats:
        problems += o.problems
    attempted = sum(o.attempted for o in repeats)
    failed = sum(o.failed for o in repeats)
    timed = repeats[:1] if args.trace else repeats  # never a traced repeat
    metrics = workload_metrics(timed, attempted, failed, setups, ref_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workload.why,
        "config": config,
        "environment": env,
        "repeats": len(repeats),
        "repeat_wall_s": [o.wall_s for o in timed],
        "counters": counters,
        "problems": problems,
        "metrics": metrics,
    }
    if args.trace:
        table = spans.per_layer(
            tracer.spans,
            traced_wall_s=traced.wall_s,
            untraced_wall_s=untraced.wall_s,
            import_s=import_s,
            files=traced.counters["files"],
            nbytes=traced.counters["bytes"],
        )
        report["per_layer"] = table
        tracer.write(os.path.join(WORK, "results", f"spans-{args.workload}-seed{args.seed}.csv.gz"))
        result = {name: {"value": table[name], "unit": unit} for name, unit in per_layer_units().items()}
    else:
        report["setup_probes"] = setups
        report["reference_s"] = ref_s
        result = {name: {"value": metrics[name][0], "unit": unit} for name, unit in end_to_end_units().items()}

    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)

    print_report(report)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def workload_metrics(timed: list, attempted: int, failed: int, setups: list | None, ref_s: list | None) -> dict:
    """Every end-to-end metric of the workload: name -> (value, unit).

    raw_wall_s is the median untraced repeat.  The load of other tenants
    of the host shifts for minutes at a time and slows a whole run by up to
    1.4x, so wall_s and setup_s are the raw medians scaled by REFERENCE_S
    over the mean reference-kernel sample of the run: the times the run
    would have taken at the reference host speed.  Over ten 30 s runs of
    each workload on a 2-core host, this cut the quartile distance of the
    wall time from 10-20 % of its median to 4-10 %.
    """
    first = timed[0]
    raw_wall = statistics.median([o.wall_s for o in timed])
    speed = 1.0 if ref_s is None else reference.REFERENCE_S / statistics.fmean(ref_s)
    wall = raw_wall * speed
    m = {
        "wall_s": (wall, "s"),
        "raw_wall_s": (raw_wall, "s"),
        "fail_ratio": (failed / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if ref_s is not None:
        m["reference_mean_s"] = (statistics.fmean(ref_s), "s")
    if setups is not None:
        raw_setup = statistics.median([p["setup_s"] for p in setups])
        m["setup_s"] = (raw_setup * speed, "s")
        m["raw_setup_s"] = (raw_setup, "s")
    if first.rate_rel_err is not None:
        m["sim_tu_per_s"] = (first.sim_tu / wall, "1/s")
        m["rate_rel_err"] = (first.rate_rel_err, "1")
        m["escape_rel_err"] = (first.escape_rel_err, "1")
    if first.drift_rel is not None:
        m["drift_rel"] = (first.drift_rel, "1")
    return m


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end_units() -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}


def per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed {report['seed']}: {report['why']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# config {json.dumps(report['config'])}")
    print(f"# {report['repeats']} repeats, wall_s " + " ".join(f"{w:.3f}" for w in report["repeat_wall_s"]))
    for name, (value, unit) in sorted(report["metrics"].items()):
        print(f"{report['workload']:>7} {name:<16} {value:>14.6g} {unit}")
    print("# counters " + " ".join(f"{k}={v}" for k, v in sorted(report["counters"].items())))
    if "per_layer" in report:
        table = report["per_layer"]
        print(f"# {'function':<40} {'calls':>8} {'s':>10} {'self_s':>10}")
        for name in sorted(spans.SPAN_NAMES, key=lambda n: -table[f"{n}.self_s"]):
            if table[f"{name}.calls"]:
                print(f"# {name:<40} {table[name + '.calls']:>8} {table[name + '.s']:>10.4f} {table[name + '.self_s']:>10.4f}")
        for name in spans.DERIVED:
            print(f"# {name:<40} {table[name]:.6g}")
    for p in report["problems"]:
        print(f"# FAIL {p}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS and OpenMP to one thread before numpy is imported; the
    # set-up probes and `all`'s children inherit it.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
