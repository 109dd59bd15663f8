"""Numerical laboratory for the radial instability of self-gravitating
polytropes: Lane-Emden equilibria, the largest growing mode of the
linearized dynamics, nonlinear free-boundary evolution, and the weighted
energy bookkeeping connecting them."""

from .config import ExperimentConfig, config_from_dict, config_hash, load_config
from .energetics import (
    EnergyReport,
    GrowthFit,
    duhamel_remainder,
    energy_gap_report,
    growth_fit,
    hardy_check_boundary,
    hardy_check_origin,
    hardy_trace_check,
    instant_energy,
    weighted_norm_X,
    weighted_norm_Y,
    zero_norm,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    ExponentOutOfRange,
    InsufficientResolution,
    NonFiniteOutput,
    NonMonotone,
    NoVacuumRadius,
    OutOfDomain,
    PolystarError,
    RateUnavailable,
    StatePastVacuumCollapse,
    UnsupportedOrder,
    WindowTooSmall,
    ZeroVector,
)
from .evolution import (
    PerturbationState,
    SimConfig,
    cfl_dt,
    conserved_energy,
    equilibrium_state,
    linear_accel,
    mode_initial_state,
    nonlinear_accel,
    smallness_monitor,
    step,
)
from .experiments import (
    Member,
    RunRecord,
    build_mode,
    build_profile,
    check,
    evolve_batch,
    evolve_run,
    instability_ladder,
    run_instability_experiment,
    sweep,
)
from .polytrope import (
    LaneEmdenProfile,
    PolytropeConfig,
    equilibrium_energy,
    origin_series,
    potential_coefficient,
    solve_lane_emden,
    substitution_residual,
    vacuum_exponent,
)
from .spectral import (
    GrowingMode,
    assemble_pencil,
    largest_eigenpair,
    mode_regularity_report,
    rayleigh_quotient,
)

__version__ = "0.1.0"
