"""Non-intrusive model-order reduction with trajectory-fit operator calibration.

The package reduces a 1D heated-reactor model through proper orthogonal
decomposition, samples its temperature nonlinearity with discrete empirical
interpolation, infers reduced operators by regularised regression on
snapshot derivatives, and then refines those operators by minimising the
time-stepped trajectory mismatch with Levenberg-Marquardt.
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
)
from morcal.config import PipelineConfig, load_pipeline_config, parse_config_file
from morcal.deim import (
    DeimOperators,
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
    arrhenius_source,
    fom_integrate,
    fom_rhs,
)
from morcal.opinf import RomOperators, assemble_regression, solve_opinf
from morcal.pod import (
    PodBasis,
    compute_pod,
    project,
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
    concat_snapshot_sets,
    fit_scaling,
    load_snapshots,
    save_snapshots,
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
    "MorcalError",
    "NumericError",
    "OptimizerConfig",
    "PipelineConfig",
    "PodBasis",
    "RomModel",
    "RomOperators",
    "ScalingSpec",
    "SnapshotSet",
    "adjoint_gradient",
    "apply_scaling",
    "arrhenius_source",
    "assemble_regression",
    "build_calibration_problem",
    "build_deim_operators",
    "calibrate",
    "compute_pod",
    "concat_snapshot_sets",
    "deim_points",
    "fit_scaling",
    "fom_integrate",
    "fom_rhs",
    "forward_rollout",
    "load_reference_fixture",
    "load_pipeline_config",
    "load_rom",
    "load_snapshots",
    "nonlinearity_basis",
    "nonlinearity_snapshots",
    "objective",
    "parse_config_file",
    "project",
    "reduced_arrhenius",
    "rom_vs_projected_error",
    "save_basis",
    "save_rom",
    "save_snapshots",
    "simulate_rom",
    "solve_opinf",
    "state_statistics",
    "switch_off_window",
]
