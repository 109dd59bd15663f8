"""Experiment configuration: one JSON document, strictly validated.

The polytrope and sim sections are the solver's own PolytropeConfig and
SimConfig; every section checks its values when it is built, so an
invalid configuration cannot exist.  Unknown keys are rejected
everywhere; reproducibility beats convenience.
The canonical serialization (sorted keys, no whitespace) is hashed and
embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .energetics import MAX_ENERGY_ORDER
from .errors import ConfigError
from .evolution import SimConfig
from .polytrope import MIN_NODES, PolytropeConfig, check_gamma

SCHEMA_VERSION = 1

_KINDS = ("profile", "mode", "evolve", "instability", "sweep", "check")

# SimConfig fields that are not document keys: a step under linear_accel
# and the step, which only the 1-D evolution.step reads, set by its caller.
# No other section has fields of these names.
RUN_ONLY_SIM_FIELDS = ("linear", "dt")


def _is_number(value) -> bool:
    """An int or float that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _type_problem(value) -> str:
    """What is wrong with a value that fails its field's type check."""
    items = value if isinstance(value, list) else [value]
    if any(isinstance(v, int) and not isinstance(v, bool) and not _is_number(v) for v in items):
        return ("holds a value" if items is value else "is") + " out of the float range"
    return "has the wrong type"


def _shown(value, limit: int = 40) -> str:
    """repr(value), cut to limit characters."""
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _positive(value) -> bool:
    """A finite number above zero; checked again on build because the CLI
    overrides do not pass the JSON type checks."""
    return _is_number(value) and value > 0


def delta_tag(delta: float) -> str:
    """The prefix of an instability run's output files: each delta of a
    ladder needs its own."""
    return f"delta{delta:.0e}"


@dataclass(frozen=True)
class MeshSection:
    n_nodes: int = 1024
    grading: float = 0.1

    def __post_init__(self):
        if self.n_nodes < MIN_NODES:
            raise ConfigError(f"mesh.n_nodes must be >= {MIN_NODES}")
        if not 0.0 < self.grading <= 1.0:
            raise ConfigError("mesh.grading must lie in (0, 1]")


@dataclass(frozen=True)
class EigSection:
    eig_tol: float = 1e-8

    def __post_init__(self):
        if not self.eig_tol > 0:
            raise ConfigError("eig.eig_tol must be positive")


@dataclass(frozen=True)
class ExperimentSection:
    kind: str = "check"
    deltas: tuple = (1e-3, 1e-4, 1e-5)
    gammas: tuple = (1.25, 1.3, 1.32)
    theta0: float = 1e-2
    jmax: int = 2
    seed: int = 20240802
    delta: float = 1e-4

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"experiment.kind must be one of {_KINDS}")
        for name in ("deltas", "gammas"):
            if not getattr(self, name):
                raise ConfigError(f"experiment.{name} must not be empty")
        if not all(_positive(d) for d in self.deltas):
            raise ConfigError("deltas must be finite and strictly positive")
        if list(self.deltas) != sorted(self.deltas, reverse=True):
            raise ConfigError("deltas must be sorted descending")
        tags = [delta_tag(d) for d in self.deltas]
        if len(set(tags)) < len(tags):
            raise ConfigError(f"deltas must differ in their output tags, got {tags}")
        for g in self.gammas:
            check_gamma(g, "experiment.gammas")
        if not _positive(self.theta0):
            raise ConfigError("theta0 must be finite and positive")
        if not _positive(self.delta):
            raise ConfigError("delta must be finite and positive")
        if not 0 <= self.jmax <= MAX_ENERGY_ORDER:
            raise ConfigError(f"experiment.jmax must lie in [0, {MAX_ENERGY_ORDER}]")
        if self.seed < 0:
            raise ConfigError("experiment.seed must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    polytrope: PolytropeConfig = field(default_factory=PolytropeConfig)
    mesh: MeshSection = field(default_factory=MeshSection)
    eig: EigSection = field(default_factory=EigSection)
    sim: SimConfig = field(default_factory=SimConfig)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    output_dir: str = "out"

    def __post_init__(self):
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")


# Accepted JSON values per field annotation.  Ints pass as floats and are
# kept as given, so a valid config hashes as before; bools are no numbers,
# and neither are the NaN and Infinity literals json.load accepts.
_TYPE_CHECKS = {
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple": lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
}


def _build_section(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    types = {f.name: f.type for f in fields(cls) if f.name not in RUN_ONLY_SIM_FIELDS}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    coerced = {}
    for name, value in data.items():
        if not _TYPE_CHECKS[types[name]](value):
            raise ConfigError(f"{where}.{name} {_type_problem(value)}: {_shown(value)}")
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
    return ExperimentConfig(
        polytrope=_build_section(PolytropeConfig, data.get("polytrope", {}), "polytrope"),
        mesh=_build_section(MeshSection, data.get("mesh", {}), "mesh"),
        eig=_build_section(EigSection, data.get("eig", {}), "eig"),
        sim=_build_section(SimConfig, data.get("sim", {}), "sim"),
        experiment=_build_section(ExperimentSection, data.get("experiment", {}), "experiment"),
        output_dir=data.get("output_dir", "out"),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    for name in RUN_ONLY_SIM_FIELDS:
        del out["sim"][name]
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
