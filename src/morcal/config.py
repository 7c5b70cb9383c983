"""Flat key=value configuration files with environment overrides.

One file configures the whole pipeline: the physical scenario, the heating
schedule, the training and validation heat loads, and the reduction and
calibration settings.  Every key can be overridden through an environment
variable named MORCAL_<KEY_IN_UPPER_CASE>.

``PipelineConfig`` derives its ``cases`` once, training loads first: each
``Case`` is a name, a scaled heating schedule, a role and a snapshot file,
and ``generate``, ``train`` and ``evaluate`` all work from that one list.

The keys and their defaults are declared once, as the fields of FomConfig,
OptimizerConfig and PipelineConfig; the loader reads each field's key and
converts its text by the type of the field's default.  Every key is such a
field, ``solid_span`` included: ``FomConfig`` derives the solid region's
mask and rows from it.
"""

import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from morcal.calibrate import OptimizerConfig
from morcal.errors import ConfigError
from morcal.fom import ControlSignal, FomConfig

__all__ = [
    "Case",
    "PipelineConfig",
    "parse_config_file",
    "load_pipeline_config",
]

ENV_PREFIX = "MORCAL_"


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored."""
    values = {}
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def _number(text: str) -> float:
    """float(text), refusing nan and the infinities with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# How a key's text is converted, by the type of its default, and what the
# error says it must be; any other default (None or a string) keeps the text.
_PARSERS = {int: (int, "be an integer"), float: (_number, "be a number"),
            tuple: (lambda text: tuple(map(_number, text.replace(",", " ").split())),
                    "list numbers")}


class _Reader:
    """Typed access to the raw string map; remembers which keys were read."""

    def __init__(self, values: dict):
        self.values = values
        self.used = set()

    def get(self, key, default):
        """The key's text converted by the type of ``default``, or ``default`` if absent."""
        self.used.add(key)
        if key not in self.values:
            return default
        raw = self.values[key]
        parse, expected = _PARSERS.get(type(default), (str, "be text"))
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} must {expected}, got {raw!r}") from None

    def reject_unknown(self):
        unknown = set(self.values) - self.used
        if unknown:
            raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")


def _read_fields(rd: _Reader, cls) -> dict:
    """Every defaulted field of dataclass ``cls``, read as a key with its default."""
    return {f.name: rd.get(f.name, f.default) for f in fields(cls) if f.default is not MISSING}


@dataclass(frozen=True)
class Case:
    """One heat load's name, scaled schedule, role (training or validation) and snapshot file."""

    name: str
    signal: ControlSignal
    role: str
    path: str


@dataclass
class PipelineConfig:
    """Everything the CLI needs; each defaulted field is a key, and ``cases`` derives from them."""

    fom: FomConfig
    optimizer: OptimizerConfig
    heat_times: tuple = (0.0, 1500.0)
    heat_values: tuple = (1.0, 0.0)
    save_every: int = 100
    train_loads: tuple = (0.5, 1.0, 1.5)
    validation_loads: tuple = (0.75, 1.25)
    pod_rank: int = 8
    deim_rank: int = 8
    tikhonov_lambda: float = 1.0
    output_dir: str = "morcal_out"
    snapshot_dir: str | None = None
    cases: list = field(init=False)

    def __post_init__(self):
        if not self.train_loads:
            raise ConfigError("train_loads must not be empty")
        if not self.validation_loads:
            raise ConfigError("validation_loads must not be empty")
        base = self.snapshot_dir or os.path.join(self.output_dir, "snapshots")
        loads = [*self.train_loads, *self.validation_loads]
        roles = ["training"] * len(self.train_loads) + ["validation"] * len(self.validation_loads)
        self.cases = [  # each ControlSignal refuses a malformed schedule or a negative heat load
            Case(f"R{load:g}",
                 ControlSignal(self.heat_times, load * np.asarray(self.heat_values, dtype=float)),
                 role, os.path.join(base, f"snapshots_R{load:g}.txt"))
            for load, role in zip(loads, roles)]
        names = [case.name for case in self.cases]
        shared = [f"{load!r} ({name})" for load, name in zip(loads, names)
                  if names.count(name) > 1]
        if shared:
            raise ConfigError(f"heat loads {', '.join(shared)} share a case name and snapshot "
                              "file; train and validation loads must name distinct cases")
        if self.pod_rank < 1 or self.deim_rank < 1:
            raise ConfigError("pod_rank and deim_rank must be positive")
        if self.tikhonov_lambda < 0.0:
            raise ConfigError("tikhonov_lambda must be nonnegative")
        if self.save_every < 1:
            raise ConfigError("save_every must be a positive integer")


def load_pipeline_config(path=None, output_override=None) -> PipelineConfig:
    """Build a PipelineConfig from a file (default: the bundled scenario), naming it in errors."""
    if path is None:
        from importlib import resources

        ref = resources.files("morcal").joinpath("data/reactor.cfg")
        with resources.as_file(ref) as bundled:
            values = parse_config_file(bundled)
        source = "bundled reactor scenario"
    else:
        values = parse_config_file(path)
        source = str(path)
    rd = _Reader(apply_env_overrides(values))
    try:
        fom = FomConfig(**_read_fields(rd, FomConfig))
        fom.validate()
        optimizer = OptimizerConfig(**_read_fields(rd, OptimizerConfig))
        pipeline = _read_fields(rd, PipelineConfig)
        if output_override is not None:
            pipeline["output_dir"] = output_override
        cfg = PipelineConfig(fom=fom, optimizer=optimizer, **pipeline)
        rd.reject_unknown()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return cfg
