"""Experiment configuration: one JSON document, strictly validated.

Unknown keys are rejected everywhere; reproducibility beats convenience.
The canonical serialization (sorted keys, no whitespace) is hashed and
embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError

SCHEMA_VERSION = 1

_KINDS = ("profile", "mode", "evolve", "instability", "sweep", "check")


@dataclass(frozen=True)
class PolytropeSection:
    gamma: float = 1.3
    K: float | None = None
    ode_rel_tol: float = 1e-12
    ode_abs_tol: float = 1e-14
    series_radius: float | None = None
    r_max: float = 500.0


@dataclass(frozen=True)
class MeshSection:
    n_nodes: int = 1024
    grading: float = 0.1


@dataclass(frozen=True)
class EigSection:
    eig_tol: float = 1e-8


@dataclass(frozen=True)
class SimSection:
    dt_cfl: float = 0.4
    t_end: float = 200.0
    scheme: str = "rk4"
    record_every: int = 1
    theta1: float = 0.1
    amplitude_floor: float = 1e-4
    snapshot_every: int = 16


@dataclass(frozen=True)
class ExperimentSection:
    kind: str = "check"
    deltas: tuple = (1e-3, 1e-4, 1e-5)
    gammas: tuple = (1.25, 1.3, 1.32)
    theta0: float = 1e-2
    jmax: int = 2
    seed: int = 20240802
    delta: float = 1e-4
    pair_linear: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    polytrope: PolytropeSection = field(default_factory=PolytropeSection)
    mesh: MeshSection = field(default_factory=MeshSection)
    eig: EigSection = field(default_factory=EigSection)
    sim: SimSection = field(default_factory=SimSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    output_dir: str = "out"

    def validate(self) -> None:
        p, e = self.polytrope, self.experiment
        if not 1.2 < p.gamma <= 2.0:
            raise ConfigError(f"gamma={p.gamma} outside (6/5, 2]")
        if self.mesh.n_nodes < 32:
            raise ConfigError("mesh.n_nodes must be >= 32")
        if not 0.0 < self.mesh.grading <= 1.0:
            raise ConfigError("mesh.grading must lie in (0, 1]")
        if self.eig.eig_tol <= 0:
            raise ConfigError("eig.eig_tol must be positive")
        if e.kind not in _KINDS:
            raise ConfigError(f"experiment.kind must be one of {_KINDS}")
        if any(d <= 0 for d in e.deltas):
            raise ConfigError("deltas must be strictly positive")
        if list(e.deltas) != sorted(e.deltas, reverse=True):
            raise ConfigError("deltas must be sorted descending")
        if any(not 1.2 < g <= 2.0 for g in e.gammas):
            raise ConfigError("gammas must lie within (6/5, 2]")
        if e.theta0 <= 0:
            raise ConfigError("theta0 must be positive")
        if e.delta <= 0:
            raise ConfigError("delta must be positive")
        if not 0.0 < self.sim.dt_cfl < 1.0:
            raise ConfigError("sim.dt_cfl must lie in (0, 1)")
        if self.sim.record_every < 1:
            raise ConfigError("sim.record_every must be >= 1")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Accepted JSON values per field annotation.  Ints pass as floats and are
# kept as given, so a valid config hashes as before; bools are no numbers.
_TYPE_CHECKS = {
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "tuple": lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
}


def _build_section(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    coerced = {}
    for name, value in data.items():
        if not _TYPE_CHECKS[types[name]](value):
            raise ConfigError(f"{where}.{name} has the wrong type: {value!r}")
        coerced[name] = tuple(value) if isinstance(value, list) else value
    return cls(**coerced)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    data = dict(data)
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    allowed = {"polytrope", "mesh", "eig", "sim", "experiment", "output_dir"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if not isinstance(data.get("output_dir", "out"), str):
        raise ConfigError("output_dir must be a string")
    cfg = ExperimentConfig(
        polytrope=_build_section(PolytropeSection, data.get("polytrope", {}), "polytrope"),
        mesh=_build_section(MeshSection, data.get("mesh", {}), "mesh"),
        eig=_build_section(EigSection, data.get("eig", {}), "eig"),
        sim=_build_section(SimSection, data.get("sim", {}), "sim"),
        experiment=_build_section(ExperimentSection, data.get("experiment", {}), "experiment"),
        output_dir=data.get("output_dir", "out"),
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    out["schema_version"] = SCHEMA_VERSION
    return out


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the experiment content; where the output lands is not part
    of the experiment's identity."""
    payload = config_to_dict(cfg)
    payload.pop("output_dir", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
