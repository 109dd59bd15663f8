"""Shared session fixtures: profiles, modes, and the expensive runs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import polystar as ps
from polystar.config import ExperimentConfig, ExperimentSection, MeshSection


def make_config(n_nodes=1024, gamma=1.3, **exp_kwargs) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg = dataclasses.replace(
        cfg,
        polytrope=dataclasses.replace(cfg.polytrope, gamma=gamma),
        mesh=MeshSection(n_nodes=n_nodes),
    )
    if exp_kwargs:
        cfg = dataclasses.replace(
            cfg, experiment=dataclasses.replace(ExperimentSection(), **exp_kwargs)
        )
    return cfg


@pytest.fixture(scope="session")
def profile13():
    return ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 1024)


@pytest.fixture(scope="session")
def mode13(profile13):
    disc = ps.assemble_pencil(profile13)
    return disc, ps.largest_eigenpair(disc)


@pytest.fixture(scope="session")
def profile13_2048():
    return ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 2048)


@pytest.fixture(scope="session")
def mode13_2048(profile13_2048):
    disc = ps.assemble_pencil(profile13_2048)
    return disc, ps.largest_eigenpair(disc)


@pytest.fixture(scope="session")
def profile13_512():
    return ps.solve_lane_emden(ps.PolytropeConfig(gamma=1.3), 512)


@pytest.fixture(scope="session")
def mode13_512(profile13_512):
    disc = ps.assemble_pencil(profile13_512)
    return disc, ps.largest_eigenpair(disc)


@pytest.fixture(scope="session")
def profile2():
    return ps.solve_lane_emden(ps.PolytropeConfig(gamma=2.0), 1024)


@pytest.fixture(scope="session")
def insta13():
    """Nonlinear growing-mode runs at the default mesh for the delta ladder,
    marched as one batch (each equals its solo run: see
    test_instability_ladder_equals_solo_runs)."""
    import time

    t0 = time.perf_counter()
    cfg = make_config(kind="instability", deltas=(1e-3, 1e-4, 1e-5))
    out = {res["delta"]: res for res in ps.instability_ladder(cfg)}
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def duhamel_pairs():
    """Nonlinear growing-mode runs on the doubled mesh for the remainder
    study, marched as one batch; each remainder compares its run with the
    closed-form linear solution delta e^(rate t) phi0."""
    cfg = make_config(n_nodes=2048, kind="instability", deltas=(1e-3, 1e-4))
    return {res["delta"]: res for res in ps.instability_ladder(cfg)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240802)


def smooth_trials(rng, r, n, degree=6, amplitude=1.0):
    """Seeded smooth trial functions on a radial grid."""
    x = 2.0 * r / r[-1] - 1.0
    decay = 0.5 ** np.arange(degree + 1)
    coeffs = rng.standard_normal((n, degree + 1)) * decay
    return amplitude * np.polynomial.chebyshev.chebval(x, coeffs.T)
