"""Tests of the benchmark's own machinery: span arithmetic, wrapper
installation and removal, metric names, and the workload seeds."""

from __future__ import annotations

import json
import math
import os
import sys
import types

import pytest

from perfbench import run, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_time_on_synthetic_span_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a.child", 2.0, 3.0, 1, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] counts once
        S("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        S("other_root", 20.0, 21.5, -1, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.5])


def test_per_layer_table_on_synthetic_spans():
    S = spans.Span
    tree = [
        S("experiments.evolve_run", 0.0, 10.0, -1, 0),
        S("evolution.step", 0.0, 4.0, 0, 0),
        S("evolution.nonlinear_accel", 0.0, 1.0, 1, 0),
        S("evolution.nonlinear_accel", 1.0, 3.0, 1, 0),
        S("evolution.smallness_monitor", 4.0, 6.0, 0, 0),
        S("evolution.nonlinear_accel", 4.0, 5.0, 4, 0),
        S("energetics.zero_norm", 6.0, 7.0, 0, 0),
    ]
    t = spans.per_layer(tree, traced_wall_s=11.0, untraced_wall_s=10.0, import_s=0.5, files=2, nbytes=9)
    assert t["evolution.nonlinear_accel.calls"] == 3
    assert t["evolution.step.self_s"] == pytest.approx(1.0)
    assert t["experiments.evolve_run.self_s"] == pytest.approx(3.0)
    assert t["evolution.accel_per_step"] == pytest.approx(3.0)
    # (monitor 2 + zero_norm 1 + evolve_run self 3) / evolve_run 10
    assert t["experiments.record_share"] == pytest.approx(0.6)
    assert t["trace_unaccounted_s"] == pytest.approx(1.0)
    assert t["trace_overhead"] == pytest.approx(0.1)
    assert t["evolution.nonlinear_accel.us_p50"] == pytest.approx(1e6)


def test_wrappers_see_every_caller_and_are_removed():
    import polystar
    from polystar import cli, config, energetics, evolution, experiments, polytrope  # noqa: F401

    def bindings():
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if name == "polystar" or name.startswith("polystar.")
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType)
        }

    before = bindings()
    tracer = spans.Tracer()
    with tracer:
        assert energetics.smallness_monitor is not before[("polystar.evolution", "smallness_monitor")]
        assert energetics.smallness_monitor is evolution.smallness_monitor
        assert polystar.step is evolution.step
        experiments.config_hash(config.ExperimentConfig())
        profile = polytrope.solve_lane_emden(polytrope.PolytropeConfig(gamma=1.3), n_nodes=64)
        state = evolution.equilibrium_state(profile)
        evolution.step(state, profile, evolution.SimConfig(dt=1e-3))
    assert bindings() == before
    names = [s.name for s in tracer.spans]
    assert names.count("evolution.step") == 1
    assert names.count("evolution.nonlinear_accel") == 4
    assert names.count("evolution.cell_jacobian_minus_one") == 4
    assert "config.config_hash" in names and "polytrope.solve_lane_emden" in names
    step = names.index("evolution.step")
    assert all(s.parent == step for s in tracer.spans if s.name == "evolution.nonlinear_accel")


def test_metric_names_match_benchmark_json():
    spec = _spec()
    per_layer = {m["name"] for m in spec["per_layer"]}
    table = spans.per_layer([], traced_wall_s=1.0, untraced_wall_s=1.0, import_s=0.1, files=0, nbytes=0)
    assert set(table) == per_layer

    outcome = workloads.Outcome(wall_s=2.0, rate_rel_err=1e-3, escape_rel_err=1e-3, sim_tu=4.0)
    metrics = run.workload_metrics([outcome], attempted=2, failed=0, setups=[{"setup_s": 0.5}], ref_s=[0.1])
    for m in spec["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]
    # times are scaled to the reference host speed: here 0.1 s per kernel call
    assert metrics["wall_s"][0] == pytest.approx(2.0 * run.reference.REFERENCE_S / 0.1)
    assert metrics["setup_s"][0] == pytest.approx(0.5 * run.reference.REFERENCE_S / 0.1)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_seed_moves_inputs_within_their_ranges():
    assert workloads.ladder_config(0)["experiment"]["deltas"] == [1e-3, 1e-4]
    assert workloads.sweep_config(0)["experiment"]["gammas"][:3] == [1.25, 1.3, 1.32]
    assert workloads.check_config(0) == {"experiment": {"kind": "check", "seed": workloads.CHECK_SEED}}
    shift = None
    for seed in range(1, 20):
        d1, d2 = workloads.ladder_config(seed)["experiment"]["deltas"]
        assert 1e-4 < d1 <= 1e-3 and 1e-5 < d2 <= 1e-4
        total = math.log10(1e-3 / d1) + math.log10(1e-4 / d2)
        shift = total if shift is None else shift
        assert total == pytest.approx(shift)
        gammas = workloads.sweep_config(seed)["experiment"]["gammas"]
        assert all(1.25 <= g <= 1.32 for g in gammas[:3])
        assert abs(workloads.check_config(seed)["polytrope"]["gamma"] - 1.3) <= workloads.GAMMA_SHIFT
        assert workloads.ladder_config(seed) == workloads.ladder_config(seed)
    assert workloads.ladder_config(1) != workloads.ladder_config(2)
