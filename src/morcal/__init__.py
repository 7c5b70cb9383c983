"""Non-intrusive model-order reduction with adjoint-based operator calibration.

The package reduces a 1D heated-reactor model through proper orthogonal
decomposition, samples its temperature nonlinearity with discrete empirical
interpolation, infers reduced operators by regularised regression on
snapshot derivatives, and then refines those operators by minimising the
time-stepped trajectory mismatch with gradients from the discrete adjoint.
"""

from morcal.calibrate import (
    CalibrationProblem,
    ConvergenceReport,
    OptimizerConfig,
    adjoint_gradient,
    build_calibration_problem,
    calibrate,
    forward_rollout,
    objective,
    theta,
)
from morcal.config import PipelineConfig, load_pipeline_config, parse_config_file
from morcal.deim import (
    DeimOperators,
    arrhenius_jacobian,
    build_deim_operators,
    deim_points,
    nonlinearity_basis,
    nonlinearity_snapshots,
    reduced_arrhenius,
)
from morcal.errors import ConfigError, DataError, MorcalError, NumericError
from morcal.fom import (
    ControlSignal,
    FomConfig,
    FomTrajectory,
    arrhenius_source,
    fom_integrate,
    fom_rhs,
)
from morcal.opinf import (
    OpinfConfig,
    RomOperators,
    assemble_regression,
    quadratic_size,
    solve_opinf,
    sym_kron,
    sym_kron_jacobian,
)
from morcal.pod import (
    PodBasis,
    compute_pod,
    lift,
    load_basis,
    project,
    reconstruction_error_curve,
    save_basis,
)
from morcal.rom import (
    ErrorReport,
    RomModel,
    field_statistics,
    load_reference_fixture,
    load_rom,
    rom_vs_projected_error,
    save_rom,
    simulate_rom,
    state_statistics,
    switch_off_window,
)
from morcal.snapshots import (
    ScalingSpec,
    SnapshotSet,
    apply_scaling,
    assemble_snapshots,
    concat_snapshot_sets,
    estimate_derivatives,
    fit_scaling,
    invert_scaling,
    load_snapshots,
    save_snapshots,
    split_trajectories,
    to_trajectories,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationProblem",
    "ConfigError",
    "ControlSignal",
    "ConvergenceReport",
    "DataError",
    "DeimOperators",
    "ErrorReport",
    "FomConfig",
    "FomTrajectory",
    "MorcalError",
    "NumericError",
    "OpinfConfig",
    "OptimizerConfig",
    "PipelineConfig",
    "PodBasis",
    "RomModel",
    "RomOperators",
    "ScalingSpec",
    "SnapshotSet",
    "adjoint_gradient",
    "apply_scaling",
    "arrhenius_jacobian",
    "arrhenius_source",
    "assemble_regression",
    "assemble_snapshots",
    "build_calibration_problem",
    "build_deim_operators",
    "calibrate",
    "compute_pod",
    "concat_snapshot_sets",
    "deim_points",
    "estimate_derivatives",
    "fit_scaling",
    "fom_integrate",
    "fom_rhs",
    "forward_rollout",
    "invert_scaling",
    "lift",
    "load_reference_fixture",
    "load_basis",
    "load_pipeline_config",
    "load_rom",
    "load_snapshots",
    "nonlinearity_basis",
    "nonlinearity_snapshots",
    "objective",
    "parse_config_file",
    "project",
    "quadratic_size",
    "reconstruction_error_curve",
    "reduced_arrhenius",
    "rom_vs_projected_error",
    "save_basis",
    "save_rom",
    "save_snapshots",
    "simulate_rom",
    "solve_opinf",
    "split_trajectories",
    "state_statistics",
    "switch_off_window",
    "sym_kron",
    "sym_kron_jacobian",
    "theta",
    "to_trajectories",
]
