"""Flat key=value configuration files with environment overrides.

One file configures the whole pipeline: the physical scenario, the heating
schedule, the training and validation heat loads, and the reduction and
calibration settings.  Every key can be overridden through an environment
variable named MORCAL_<KEY_IN_UPPER_CASE>.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from morcal.calibrate import OptimizerConfig
from morcal.errors import ConfigError
from morcal.fom import ControlSignal, FomConfig

__all__ = [
    "PipelineConfig",
    "parse_config_file",
    "load_pipeline_config",
    "ENV_PREFIX",
]

ENV_PREFIX = "MORCAL_"


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored."""
    values = {}
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected 'key = value', found {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}, line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}, line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def apply_env_overrides(values: dict) -> dict:
    out = dict(values)
    for name, value in os.environ.items():
        if name.startswith(ENV_PREFIX) and len(name) > len(ENV_PREFIX):
            out[name[len(ENV_PREFIX):].lower()] = value
    return out


class _Reader:
    """Typed access to the raw string map with uniform error messages."""

    def __init__(self, values: dict, source: str):
        self.values = values
        self.source = source
        self.used = set()

    def _raw(self, key, default):
        self.used.add(key)
        if key in self.values:
            return self.values[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return default

    def get_float(self, key, default=None):
        raw = self._raw(key, default)
        if isinstance(raw, float) or raw is None:
            return raw
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} must be a number, got {raw!r}") from None

    def get_int(self, key, default=None):
        raw = self._raw(key, default)
        if isinstance(raw, int) or raw is None:
            return raw
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} must be an integer, got {raw!r}") from None

    def get_floats(self, key, default=None):
        raw = self._raw(key, default)
        if raw is None or isinstance(raw, tuple):
            return raw
        try:
            return tuple(float(tok) for tok in str(raw).replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} must list numbers, got {raw!r}") from None

    def get_str(self, key, default=None):
        return self._raw(key, default)

    def warn_unknown(self):
        unknown = set(self.values) - self.used
        if unknown:
            names = ", ".join(sorted(unknown))
            raise ConfigError(f"{self.source}: unknown configuration keys: {names}")


_REQUIRED = object()


@dataclass
class PipelineConfig:
    """Everything the CLI needs: scenario, schedule, reduction, calibration."""

    fom: FomConfig
    heat_times: tuple
    heat_values: tuple
    save_every: int
    train_loads: tuple
    validation_loads: tuple
    pod_rank: int
    deim_rank: int
    tikhonov_lambda: float
    optimizer: OptimizerConfig
    output_dir: str
    snapshot_dir: str | None
    source: str = field(default="<config>", repr=False)

    def __post_init__(self):
        if not self.train_loads:
            raise ConfigError("train_loads must not be empty")
        if not self.validation_loads:
            raise ConfigError("validation_loads must not be empty")
        if set(self.train_loads) & set(self.validation_loads):
            raise ConfigError("train_loads and validation_loads must be disjoint")
        if self.pod_rank < 1 or self.deim_rank < 1:
            raise ConfigError("pod_rank and deim_rank must be positive")
        if self.tikhonov_lambda < 0.0:
            raise ConfigError("tikhonov_lambda must be nonnegative")
        if self.save_every < 1:
            raise ConfigError("save_every must be a positive integer")

    def control_signal(self, load: float) -> ControlSignal:
        """Heating schedule scaled by one case's heat load."""
        return ControlSignal(
            heat_times=np.asarray(self.heat_times, dtype=float),
            heat_values=load * np.asarray(self.heat_values, dtype=float),
        )

    def snapshot_path(self, load: float) -> str:
        base = self.snapshot_dir if self.snapshot_dir else os.path.join(self.output_dir, "snapshots")
        return os.path.join(base, f"snapshots_R{load:g}.txt")


def load_pipeline_config(path=None, output_override=None) -> PipelineConfig:
    """Build a PipelineConfig from a file (default: the bundled scenario)."""
    if path is None:
        from importlib import resources

        ref = resources.files("morcal").joinpath("data/reactor.cfg")
        with resources.as_file(ref) as bundled:
            values = parse_config_file(bundled)
        source = "bundled reactor scenario"
    else:
        values = parse_config_file(path)
        source = str(path)
    values = apply_env_overrides(values)
    rd = _Reader(values, source)

    grid_points = rd.get_int("grid_points", 200)
    domain_length = rd.get_float("domain_length", 1.0)
    span = rd.get_floats("solid_span", (0.25, 0.75))
    if len(span) != 2 or not 0.0 <= span[0] < span[1] <= 1.0:
        raise ConfigError(f"{source}: solid_span must be two fractions with 0 <= a < b <= 1")
    x = np.linspace(0.0, 1.0, grid_points)
    mask = ((x >= span[0]) & (x < span[1])).astype(float)

    fom = FomConfig(
        grid_points=grid_points,
        domain_length=domain_length,
        coolant_velocity=rd.get_float("coolant_velocity", 0.01),
        rho_cp_coolant=rd.get_float("rho_cp_coolant", 723.0 * 2590.0),
        rho_cp_solid=rd.get_float("rho_cp_solid", 3062.0 * 2000.0),
        conductivity_coolant=rd.get_float("conductivity_coolant", 0.132),
        conductivity_solid=rd.get_float("conductivity_solid", 0.2),
        exchange_coefficient=rd.get_float("exchange_coefficient", 3.0e4),
        arrhenius_prefactor=rd.get_float("arrhenius_prefactor", 5000.0),
        arrhenius_exponent=rd.get_float("arrhenius_exponent", 1500.0),
        inflow_temperature=rd.get_float("inflow_temperature", 533.15),
        initial_temperature=rd.get_float("initial_temperature", 533.15),
        dt=rd.get_float("dt", 0.15),
        t_end=rd.get_float("t_end", 3000.0),
        solid_mask=mask,
    )
    fom.validate()

    heat_times = rd.get_floats("heat_times", (0.0, 1500.0))
    heat_values = rd.get_floats("heat_values", (1.0, 0.0))
    if len(heat_times) != len(heat_values):
        raise ConfigError(f"{source}: heat_times and heat_values must have equal length")

    optimizer = OptimizerConfig(
        max_iterations=rd.get_int("max_iterations", 500),
        gradient_tolerance=rd.get_float("gradient_tolerance", 1e-8),
    )

    output_dir = rd.get_str("output_dir", "morcal_out")
    if output_override is not None:
        output_dir = output_override

    cfg = PipelineConfig(
        fom=fom,
        heat_times=heat_times,
        heat_values=heat_values,
        save_every=rd.get_int("save_every", 100),
        train_loads=rd.get_floats("train_loads", (0.5, 1.0, 1.5)),
        validation_loads=rd.get_floats("validation_loads", (0.75, 1.25)),
        pod_rank=rd.get_int("pod_rank", 8),
        deim_rank=rd.get_int("deim_rank", 8),
        tikhonov_lambda=rd.get_float("tikhonov_lambda", 1.0),
        optimizer=optimizer,
        output_dir=output_dir,
        snapshot_dir=rd.get_str("snapshot_dir", None),
        source=source,
    )
    rd.warn_unknown()
    return cfg
