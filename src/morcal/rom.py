"""Reduced-order model container, evaluation, and persistence.

A RomModel bundles the fitted operators, the sampled source operators, the
basis with its scaling, and the rollout step size.  Simulation and error
evaluation run the calibration rollout kernel, so that a stored model and a
candidate during calibration are rolled out by exactly the same code.
"""

from dataclasses import dataclass, field

import numpy as np

from morcal.calibrate import _batches, _fold, _forward
from morcal.calibrate import forward_rollout as _forward_rollout
from morcal.deim import DeimOperators
from morcal.errors import DataError
from morcal.opinf import RomOperators
from morcal.pod import PodBasis
from morcal.snapshots import ScalingSpec, apply_scaling
from morcal.textio import (
    TextReader,
    fmt_fields,
    fmt_float,
    fmt_row,
    parse_fields,
    parse_float,
    parse_int,
    parse_list,
    write_rows,
)

__all__ = [
    "RomModel",
    "ErrorReport",
    "simulate_rom",
    "rom_vs_projected_error",
    "state_statistics",
    "field_statistics",
    "switch_off_window",
    "save_rom",
    "load_rom",
    "load_reference_fixture",
]

ROM_FORMAT_VERSION = 1

# Sections of format version 1 for operators this model does not have: a
# quadratic operator on the state and an input operator.  They are written
# empty, and a file that fills one is refused.
UNSUPPORTED_OPERATORS = ("H", "B")

# Number of steps flagged around a heat-load discontinuity: the step at the
# discontinuity plus two on each side.
SWITCH_OFF_HALFWIDTH = 2


@dataclass
class RomModel:
    """Everything needed to roll out and lift a reduced model."""

    operators: RomOperators
    deim: DeimOperators
    basis: PodBasis | None
    dt: float

    def __post_init__(self):
        if self.dt <= 0.0:
            raise DataError("dt must be positive")
        if self.deim.r != self.operators.r:
            raise DataError("deim operators and reduced operators disagree on r")
        if self.basis is not None and self.basis.r != self.operators.r:
            raise DataError("basis and reduced operators disagree on r")

    @property
    def r(self) -> int:
        return self.operators.r


@dataclass
class ErrorReport:
    """Per-step relative mean-squared error of one trajectory rollout."""

    times: np.ndarray  # (k+1,)
    step_errors: np.ndarray  # (k+1,) |s~_j - s_j|^2 / |s_j|^2
    switch_off: np.ndarray  # (k+1,) bool, True inside the excluded window
    mean_error: float  # mean over steps outside the switch-off window
    mean_error_all: float  # mean over every step
    rollout: np.ndarray  # (r, k+1) the reduced rollout the errors were measured on

    def __post_init__(self):
        if not (self.times.shape == self.step_errors.shape == self.switch_off.shape):
            raise DataError("error report arrays must share one length")


def simulate_rom(model: RomModel, s0: np.ndarray, controls: np.ndarray, k: int) -> np.ndarray:
    """Roll the model out for k steps from s0; identical to forward_rollout."""
    return _forward_rollout(model.operators, model.deim, s0, controls, model.dt, k)


def switch_off_window(heat_loads: np.ndarray) -> np.ndarray:
    """Boolean flags marking steps near a heat-load discontinuity.

    A discontinuity between columns c-1 and c flags columns
    c-SWITCH_OFF_HALFWIDTH through c+SWITCH_OFF_HALFWIDTH, a five-step window.
    """
    heat = np.asarray(heat_loads, dtype=float)
    flags = np.zeros(heat.shape[0], dtype=bool)
    changes = np.nonzero(np.diff(heat) != 0.0)[0] + 1
    for c in changes:
        lo = max(0, c - SWITCH_OFF_HALFWIDTH)
        hi = min(flags.size, c + SWITCH_OFF_HALFWIDTH + 1)
        flags[lo:hi] = True
    return flags


def rom_vs_projected_error(model: RomModel, cases, names=None) -> list:
    """Relative mean-squared rollout errors against projected truth, one report per case.

    ``cases`` holds SnapshotSets in physical units of one trajectory each, of
    at least two snapshots at the model's step size; another set is refused
    with a DataError, prefixed with its entry of ``names`` if given.  The
    cases of each length are rolled out as one state stack, each column from
    its case's projected initial state and driven by its heat loads.  Steps
    inside the switch-off window are left out of a report's mean_error.
    """
    if model.basis is None:
        raise DataError("error evaluation needs a model with basis and scaling")
    projected = []
    for i, snapshots in enumerate(cases):
        try:
            if snapshots.l != 1:
                raise DataError(f"error evaluation needs one trajectory per snapshot set, "
                                f"found {snapshots.l}")
            scaled = apply_scaling(snapshots, model.basis.scaling)
            if snapshots.m < 2:
                raise DataError("trajectory must contain at least two snapshots")
            if not np.isclose(snapshots.dt, model.dt, rtol=1e-9, atol=1e-12):
                raise DataError("trajectory spacing does not match the model step size")
        except DataError as exc:
            if names is None:
                raise
            raise DataError(f"{names[i]}: {exc}") from None
        projected.append(model.basis.basis.T @ scaled)

    folded = _fold(model.operators, model.deim, model.dt)
    reports = [None] * len(projected)
    for batch in _batches(projected, [snapshots.controls for snapshots in cases]):
        states = _forward(folded, batch.data[0], batch.heat).states  # (k + 1, r, L)
        num = np.sum((states - batch.data) ** 2, axis=1)
        den = np.maximum(np.sum(batch.data ** 2, axis=1), 1e-300)
        errors = np.ascontiguousarray((num / den).T)  # (L, k + 1)
        for col, i in enumerate(batch.members):
            flags = switch_off_window(cases[i].controls)
            outside = errors[col][~flags]
            reports[i] = ErrorReport(
                times=np.arange(cases[i].m) * cases[i].dt,
                step_errors=errors[col],
                switch_off=flags,
                mean_error=float(np.mean(outside)) if outside.size else float("nan"),
                mean_error_all=float(np.mean(errors[col])),
                rollout=states[:, :, col].T.copy(),
            )
    return reports


def state_statistics(states: np.ndarray, fields, solid_rows: np.ndarray) -> dict:
    """Per-column (min, mean, max) of each field block of physical states.

    ``states`` is (n, k+1) and ``fields`` its (name, start, end) blocks.
    Returns a dict mapping field name to a (k+1, 3) array.  A field block
    that holds any of ``solid_rows`` (``FomConfig.solid_rows``) is summarised
    over those rows only.
    """
    out = {}
    for name, start, end in fields:
        rows = solid_rows[(solid_rows >= start) & (solid_rows < end)]
        block = states[rows, :] if rows.size else states[start:end, :]
        out[name] = np.column_stack(
            [np.min(block, axis=0), np.mean(block, axis=0), np.max(block, axis=0)]
        )
    return out


def field_statistics(model: RomModel, reduced_trajectory: np.ndarray,
                     solid_rows: np.ndarray) -> dict:
    """state_statistics of a reduced rollout lifted to the physical grid."""
    if model.basis is None:
        raise DataError("field statistics need a model with basis and scaling")
    reduced = np.asarray(reduced_trajectory, dtype=float)
    lifted = model.basis.scaling.unscale_array(model.basis.basis @ reduced)
    return state_statistics(lifted, model.basis.scaling.fields, solid_rows)


def _write_matrix(fh, name, matrix, scale=1.0):
    fh.write(f"[{name}]\n")
    if matrix is None:
        fh.write("rows=0 cols=0 scale=1\n")
        return
    matrix = np.asarray(matrix, dtype=float)
    fh.write(f"rows={matrix.shape[0]} cols={matrix.shape[1]} scale={fmt_float(scale)}\n")
    write_rows(fh, matrix)


def _read_matrix(rd: TextReader, name):
    line = rd.next_line(f"'[{name}]' header").strip()
    if line != f"[{name}]":
        raise rd.error(f"expected section '[{name}]', found {line!r}")
    header = rd.next_line("matrix header").strip()
    fields = [token.partition("=") for token in header.split()]
    if [key + eq for key, eq, _ in fields] != ["rows=", "cols=", "scale="]:
        raise rd.error(f"matrix header must be 'rows=R cols=C scale=S', found {header!r}")
    (_, _, rows), (_, _, cols), (_, _, scale) = fields
    rows = parse_int(rows, rd, "rows")
    cols = parse_int(cols, rd, "cols")
    scale = parse_float(scale, rd, "scale")
    if rows == 0 or cols == 0:
        return None
    return rd.read_rows(rows, cols, f"{name} row") * scale


def save_rom(model: RomModel, path, include_basis: bool = True) -> None:
    """Write the model to a sectioned text file.

    The basis and scaling sections are optional so that compact operator
    exports stay small; a model saved without them can be rolled out but
    not lifted back to the full grid.
    """
    ops = model.operators
    with open(path, "w") as fh:
        fh.write("[meta]\n")
        fh.write(f"version={ROM_FORMAT_VERSION}\n")
        fh.write(f"r={ops.r}\n")
        fh.write(f"s={model.deim.s}\n")
        fh.write("p=0\n")  # no input operator; kept for format version 1
        fh.write(f"dt={fmt_float(model.dt)}\n")
        _write_matrix(fh, "A", ops.a)
        for name in UNSUPPORTED_OPERATORS:
            _write_matrix(fh, name, None)
        _write_matrix(fh, "P1", model.deim.p1)
        _write_matrix(fh, "P2", model.deim.p2)
        fh.write("[deim]\n")
        fh.write(f"arrhenius_prefactor={fmt_float(model.deim.arrhenius_prefactor)}\n")
        fh.write(f"arrhenius_exponent={fmt_float(model.deim.arrhenius_exponent)}\n")
        fh.write("indices=" + ",".join(str(int(i)) for i in model.deim.indices) + "\n")
        fh.write("unscale_scale=" + fmt_row(model.deim.unscale_scale) + "\n")
        fh.write("unscale_shift=" + fmt_row(model.deim.unscale_shift) + "\n")
        if include_basis and model.basis is not None:
            scaling = model.basis.scaling
            fh.write("[scaling]\n")
            fh.write(f"fields={fmt_fields(scaling.fields)}\n")
            fh.write("shift=" + fmt_row(scaling.shift) + "\n")
            fh.write("scale=" + fmt_row(scaling.scale) + "\n")
            _write_matrix(fh, "basis", model.basis.basis)
            fh.write("[singular_values]\n")
            fh.write(fmt_row(model.basis.singular_values) + "\n")


def load_rom(path) -> RomModel:
    """Read a model written by save_rom (or a compatible fixture file).

    Every DataError names the file: the reader's carry the line, and those
    the model's containers raise on its values are prefixed with the path.
    """
    with TextReader(path) as rd:
        if rd.next_line("'[meta]' header").strip() != "[meta]":
            raise rd.error("expected '[meta]' section")
        version = parse_int(rd.expect_kv("version"), rd, "version")
        if version != ROM_FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported format version {version} (expected {ROM_FORMAT_VERSION})"
            )
        r = parse_int(rd.expect_kv("r"), rd, "r")
        s = parse_int(rd.expect_kv("s"), rd, "s")
        parse_int(rd.expect_kv("p"), rd, "p")  # input count; no input operator is read
        dt = parse_float(rd.expect_kv("dt"), rd, "dt")

        a = _read_matrix(rd, "A")
        for name in UNSUPPORTED_OPERATORS:
            if _read_matrix(rd, name) is not None:
                raise DataError(f"{path}: operator [{name}] is not supported; it must be empty")
        p1 = _read_matrix(rd, "P1")
        p2 = _read_matrix(rd, "P2")
        if a is None or a.shape != (r, r):
            raise DataError(f"{path}: linear operator must be {r} x {r}")

        if rd.next_line("'[deim]' header").strip() != "[deim]":
            raise rd.error("expected '[deim]' section")
        prefactor = parse_float(rd.expect_kv("arrhenius_prefactor"), rd, "arrhenius_prefactor")
        exponent = parse_float(rd.expect_kv("arrhenius_exponent"), rd, "arrhenius_exponent")
        indices = np.array(parse_list(rd.expect_kv("indices"), rd, "indices", parse_int, ","),
                           dtype=int)
        unscale_scale = parse_list(rd.expect_kv("unscale_scale"), rd, "unscale_scale")
        unscale_shift = parse_list(rd.expect_kv("unscale_shift"), rd, "unscale_shift")
        if p1 is None or p2 is None:
            raise DataError(f"{path}: a model needs its sampled source; [P1] and [P2] "
                            "must not be empty")
        if p1.shape != (r, s) or p2.shape != (s, r):
            raise DataError(f"{path}: P1/P2 shapes disagree with the meta section")

        fields = None
        if not rd.at_end() and rd.peek().strip() == "[scaling]":
            rd.next_line("'[scaling]' header")
            fields = parse_fields(rd.expect_kv("fields"), rd)
            shift = parse_list(rd.expect_kv("shift"), rd, "shift")
            scale = parse_list(rd.expect_kv("scale"), rd, "scale")
            basis_matrix = _read_matrix(rd, "basis")
            if basis_matrix is None or basis_matrix.shape[1] != r:
                raise DataError(f"{path}: basis section must hold an n x {r} matrix")
            if rd.next_line("'[singular_values]' header").strip() != "[singular_values]":
                raise rd.error("expected '[singular_values]' section")
            singular_values = parse_list(rd.next_line("singular values"), rd, "singular values")

    try:
        deim_ops = DeimOperators(
            indices=indices,
            p1=p1,
            p2=p2,
            arrhenius_prefactor=prefactor,
            arrhenius_exponent=exponent,
            unscale_scale=np.array(unscale_scale) if unscale_scale else np.ones(s),
            unscale_shift=np.array(unscale_shift) if unscale_shift else np.zeros(s),
        )
        basis = None
        if fields is not None:
            basis = PodBasis(basis=basis_matrix, singular_values=np.array(singular_values),
                             scaling=ScalingSpec(fields=fields, shift=shift, scale=scale))
        return RomModel(operators=RomOperators(a=a), deim=deim_ops, basis=basis, dt=dt)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_reference_fixture() -> RomModel:
    """Load the bundled reference-operator fixture (stored scale factors applied)."""
    from importlib import resources

    ref = resources.files("morcal").joinpath("data/reference_rom.txt")
    with resources.as_file(ref) as path:
        return load_rom(path)
