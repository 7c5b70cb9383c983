"""Snapshot assembly, scaling, derivative estimation, and snapshot files.

A snapshot set stacks one or more trajectories column-wise into an n x m
matrix, keeping trajectory boundaries, per-column controls, and the field
layout of the state vector.  Scaling standardises each field block by its
mean and standard deviation; derivative columns are divided by the scale
only, since shifting does not change a time derivative.
"""

from dataclasses import dataclass, field

import numpy as np

from morcal.errors import ConfigError, DataError
from morcal.fom import FomTrajectory
from morcal.textio import (
    TextReader,
    fmt_float,
    fmt_row,
    parse_fields,
    parse_float,
    parse_int,
    parse_list,
)

__all__ = [
    "ScalingSpec",
    "SnapshotSet",
    "assemble_snapshots",
    "split_trajectories",
    "concat_snapshot_sets",
    "to_trajectories",
    "fit_scaling",
    "apply_scaling",
    "invert_scaling",
    "estimate_derivatives",
    "save_snapshots",
    "load_snapshots",
]

SCALE_FLOOR = 1e-12


def _check_fields(fields, n):
    if not fields:
        raise DataError("field list must not be empty")
    pos = 0
    names = set()
    for name, start, end in fields:
        if name in names:
            raise DataError(f"duplicate field name {name!r}")
        names.add(name)
        if start != pos or end <= start:
            raise DataError("field ranges must partition the state contiguously")
        pos = end
    if pos != n:
        raise DataError(f"field ranges cover {pos} rows, state has {n}")


@dataclass
class ScalingSpec:
    """Per-field affine standardisation x -> (x - shift) / scale."""

    fields: list  # (name, start, end) per block
    shift: np.ndarray  # one value per field
    scale: np.ndarray  # one value per field, strictly positive

    def __post_init__(self):
        self.shift = np.atleast_1d(np.asarray(self.shift, dtype=float))
        self.scale = np.atleast_1d(np.asarray(self.scale, dtype=float))
        if len(self.fields) != self.shift.size or len(self.fields) != self.scale.size:
            raise DataError("one shift and one scale per field required")
        _check_fields(self.fields, self.n)
        if np.any(self.scale <= 0.0):
            raise DataError("scales must be strictly positive")

    @property
    def n(self) -> int:
        return self.fields[-1][2]

    def _rows(self, values) -> np.ndarray:
        out = np.empty(self.n)
        for (name, start, end), v in zip(self.fields, values):
            out[start:end] = v
        return out

    @property
    def row_shift(self) -> np.ndarray:
        return self._rows(self.shift)

    @property
    def row_scale(self) -> np.ndarray:
        return self._rows(self.scale)

    def scale_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x - self.row_shift.reshape(-1, *([1] * (x.ndim - 1)))) / self.row_scale.reshape(
            -1, *([1] * (x.ndim - 1))
        )

    def unscale_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x * self.row_scale.reshape(-1, *([1] * (x.ndim - 1))) + self.row_shift.reshape(
            -1, *([1] * (x.ndim - 1))
        )

    def scale_derivative_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return d / self.row_scale.reshape(-1, *([1] * (d.ndim - 1)))

    def unscale_derivative_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return d * self.row_scale.reshape(-1, *([1] * (d.ndim - 1)))


@dataclass
class SnapshotSet:
    """Column-stacked trajectories with controls and optional derivatives."""

    data: np.ndarray  # (n, m)
    trajectory_offsets: np.ndarray  # (l+1,) column offsets, first 0, last m
    times: list  # per-trajectory time vectors
    controls: np.ndarray  # (m, 2) rows (R, v_I_dot)
    fields: list  # (name, start, end)
    derivatives: np.ndarray | None = None
    scaling: ScalingSpec | None = field(default=None, repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.trajectory_offsets = np.asarray(self.trajectory_offsets, dtype=int)
        n, m = self.data.shape
        _check_fields(self.fields, n)
        off = self.trajectory_offsets
        if off[0] != 0 or off[-1] != m or np.any(np.diff(off) <= 0):
            raise DataError("trajectory offsets must increase from 0 to the column count")
        if len(self.times) != off.size - 1:
            raise DataError("one time vector per trajectory required")
        for t, count in zip(self.times, np.diff(off)):
            if np.asarray(t).shape != (count,):
                raise DataError("time vector length must match the trajectory column count")
        if self.controls.shape != (m, 2):
            raise DataError("controls must have shape (m, 2)")
        if self.derivatives is not None:
            self.derivatives = np.asarray(self.derivatives, dtype=float)
            if self.derivatives.shape != self.data.shape:
                raise DataError("derivatives must match the snapshot matrix shape")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    @property
    def l(self) -> int:
        return self.trajectory_offsets.size - 1

    def trajectory_slices(self):
        off = self.trajectory_offsets
        return [slice(int(off[i]), int(off[i + 1])) for i in range(self.l)]


def assemble_snapshots(trajectories) -> SnapshotSet:
    """Stack FomTrajectory objects column-wise into one SnapshotSet."""
    if not trajectories:
        raise DataError("no trajectories given")
    first = trajectories[0]
    for traj in trajectories:
        if not isinstance(traj, FomTrajectory):
            raise DataError("assemble_snapshots expects FomTrajectory objects")
        if traj.n != first.n or traj.fields != first.fields:
            raise DataError("trajectories disagree on state layout")
        if (traj.derivatives is None) != (first.derivatives is None):
            raise DataError("cannot mix trajectories with and without derivatives")
    counts = [t.times.size for t in trajectories]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return SnapshotSet(
        data=np.hstack([t.states for t in trajectories]),
        trajectory_offsets=offsets,
        times=[np.asarray(t.times, dtype=float) for t in trajectories],
        controls=np.vstack([t.controls for t in trajectories]),
        fields=list(first.fields),
        derivatives=None
        if first.derivatives is None
        else np.hstack([t.derivatives for t in trajectories]),
    )


def to_trajectories(snapshots: SnapshotSet):
    """View a snapshot set as one FomTrajectory per trajectory."""
    out = []
    for i, sl in enumerate(snapshots.trajectory_slices()):
        out.append(
            FomTrajectory(
                times=np.asarray(snapshots.times[i], dtype=float),
                states=snapshots.data[:, sl],
                derivatives=None if snapshots.derivatives is None else snapshots.derivatives[:, sl],
                controls=snapshots.controls[sl, :],
                fields=list(snapshots.fields),
            )
        )
    return out


def split_trajectories(snapshots: SnapshotSet):
    """Split a multi-trajectory set into single-trajectory sets."""
    out = []
    for i, sl in enumerate(snapshots.trajectory_slices()):
        out.append(
            SnapshotSet(
                data=snapshots.data[:, sl],
                trajectory_offsets=np.array([0, sl.stop - sl.start]),
                times=[snapshots.times[i]],
                controls=snapshots.controls[sl, :],
                fields=list(snapshots.fields),
                derivatives=None if snapshots.derivatives is None else snapshots.derivatives[:, sl],
                scaling=snapshots.scaling,
            )
        )
    return out


def concat_snapshot_sets(sets) -> SnapshotSet:
    """Concatenate snapshot sets that share layout and scaling state."""
    if not sets:
        raise DataError("no snapshot sets given")
    first = sets[0]
    for s in sets:
        if s.fields != first.fields:
            raise DataError("snapshot sets disagree on field layout")
        if (s.scaling is None) != (first.scaling is None):
            raise DataError("cannot mix scaled and unscaled snapshot sets")
        if (s.derivatives is None) != (first.derivatives is None):
            raise DataError("cannot mix sets with and without derivatives")
    counts = np.concatenate([np.diff(s.trajectory_offsets) for s in sets])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    times = [t for s in sets for t in s.times]
    return SnapshotSet(
        data=np.hstack([s.data for s in sets]),
        trajectory_offsets=offsets,
        times=times,
        controls=np.vstack([s.controls for s in sets]),
        fields=list(first.fields),
        derivatives=None
        if first.derivatives is None
        else np.hstack([s.derivatives for s in sets]),
        scaling=first.scaling,
    )


def fit_scaling(snapshots: SnapshotSet) -> ScalingSpec:
    """Mean/std standardisation per field block, fitted on all columns.

    The standard deviation is floored at 1e-12 so constant blocks map to
    zero instead of dividing by zero.
    """
    shift = []
    scale = []
    for name, start, end in snapshots.fields:
        block = snapshots.data[start:end, :]
        shift.append(float(np.mean(block)))
        scale.append(max(float(np.std(block)), SCALE_FLOOR))
    return ScalingSpec(fields=list(snapshots.fields), shift=np.array(shift), scale=np.array(scale))


def apply_scaling(snapshots: SnapshotSet, spec: ScalingSpec) -> SnapshotSet:
    """Return a new set with standardised data (derivatives divided by scale)."""
    if snapshots.scaling is not None:
        raise DataError("snapshot set is already scaled")
    if spec.fields != snapshots.fields:
        raise DataError("scaling spec does not match the snapshot field layout")
    return SnapshotSet(
        data=spec.scale_array(snapshots.data),
        trajectory_offsets=snapshots.trajectory_offsets.copy(),
        times=[t.copy() for t in snapshots.times],
        controls=snapshots.controls.copy(),
        fields=list(snapshots.fields),
        derivatives=None
        if snapshots.derivatives is None
        else spec.scale_derivative_array(snapshots.derivatives),
        scaling=spec,
    )


def invert_scaling(snapshots: SnapshotSet, spec: ScalingSpec | None = None) -> SnapshotSet:
    """Undo apply_scaling; spec defaults to the one recorded on the set."""
    spec = spec if spec is not None else snapshots.scaling
    if spec is None:
        raise DataError("snapshot set carries no scaling spec to invert")
    return SnapshotSet(
        data=spec.unscale_array(snapshots.data),
        trajectory_offsets=snapshots.trajectory_offsets.copy(),
        times=[t.copy() for t in snapshots.times],
        controls=snapshots.controls.copy(),
        fields=list(snapshots.fields),
        derivatives=None
        if snapshots.derivatives is None
        else spec.unscale_derivative_array(snapshots.derivatives),
        scaling=None,
    )


def estimate_derivatives(snapshots: SnapshotSet) -> np.ndarray:
    """Finite-difference time derivatives, second order, per trajectory.

    Central differences at interior columns and one-sided three-point
    stencils at the trajectory ends; exact for polynomials up to degree 2.
    Requires at least three columns per trajectory and uniform spacing.
    """
    out = np.empty_like(snapshots.data)
    for sl, times in zip(snapshots.trajectory_slices(), snapshots.times):
        k = sl.stop - sl.start
        if k < 3:
            raise DataError("derivative estimation needs at least 3 columns per trajectory")
        steps = np.diff(times)
        dt = steps[0]
        if dt <= 0.0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
            raise DataError("derivative estimation requires uniform time spacing")
        x = snapshots.data[:, sl]
        d = np.empty_like(x)
        d[:, 1:-1] = (x[:, 2:] - x[:, :-2]) / (2.0 * dt)
        d[:, 0] = (-3.0 * x[:, 0] + 4.0 * x[:, 1] - x[:, 2]) / (2.0 * dt)
        d[:, -1] = (3.0 * x[:, -1] - 4.0 * x[:, -2] + x[:, -3]) / (2.0 * dt)
        out[:, sl] = d
    return out


def _uniform_dt(snapshots: SnapshotSet) -> float:
    dts = []
    for times in snapshots.times:
        steps = np.diff(times)
        if steps.size == 0:
            continue
        if np.any(steps <= 0.0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise DataError("snapshot file format requires uniform time spacing")
        dts.append(float(steps[0]))
    if not dts:
        raise DataError("cannot determine snapshot spacing from single-column trajectories")
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise DataError("all trajectories must share one snapshot spacing")
    return dts[0]


def save_snapshots(snapshots: SnapshotSet, path) -> None:
    """Write the set to a plain-text snapshot file (full precision)."""
    dt = _uniform_dt(snapshots)
    off = ",".join(str(int(v)) for v in snapshots.trajectory_offsets)
    fields = ",".join(f"{name}:{start}:{end}" for name, start, end in snapshots.fields)
    has_der = 1 if snapshots.derivatives is not None else 0
    with open(path, "w") as fh:
        fh.write(f"n={snapshots.n}\n")
        fh.write(f"m={snapshots.m}\n")
        fh.write(f"l={snapshots.l}\n")
        fh.write(f"offsets={off}\n")
        fh.write(f"dt={fmt_float(dt)}\n")
        fh.write(f"fields={fields}\n")
        fh.write(f"has_derivatives={has_der}\n")
        fh.write("data\n")
        for j in range(snapshots.m):
            fh.write(fmt_row(snapshots.data[:, j]) + "\n")
        if has_der:
            fh.write("derivatives\n")
            for j in range(snapshots.m):
                fh.write(fmt_row(snapshots.derivatives[:, j]) + "\n")
        fh.write("controls\n")
        for j in range(snapshots.m):
            fh.write(fmt_row(snapshots.controls[j, :]) + "\n")


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot file written by save_snapshots."""
    with TextReader(path) as rd:
        n = parse_int(rd.expect_kv("n"), rd, "n")
        m = parse_int(rd.expect_kv("m"), rd, "m")
        l = parse_int(rd.expect_kv("l"), rd, "l")
        offsets = np.array(parse_list(rd.expect_kv("offsets"), rd, "offsets", parse_int, ","),
                           dtype=int)
        dt = parse_float(rd.expect_kv("dt"), rd, "dt")
        fields = parse_fields(rd.expect_kv("fields"), rd)
        has_der = parse_int(rd.expect_kv("has_derivatives"), rd, "has_derivatives")
        if has_der not in (0, 1):
            raise rd.error("has_derivatives must be 0 or 1")
        if offsets.size != l + 1:
            raise rd.error("offsets length must be l+1")
        if dt <= 0.0:
            raise rd.error("dt must be positive")

        if rd.next_line("'data' marker").strip() != "data":
            raise rd.error("expected 'data' section")
        # Rows on disk are snapshot columns; keep the (n, m) matrix C-contiguous.
        data = np.ascontiguousarray(rd.read_rows(m, n, "data row").T)
        derivatives = None
        if has_der:
            if rd.next_line("'derivatives' marker").strip() != "derivatives":
                raise rd.error("expected 'derivatives' section")
            derivatives = np.ascontiguousarray(rd.read_rows(m, n, "derivative row").T)
        if rd.next_line("'controls' marker").strip() != "controls":
            raise rd.error("expected 'controls' section")
        controls = rd.read_rows(m, 2, "control row")

        times = [np.arange(int(c)) * dt for c in np.diff(offsets)]
        return SnapshotSet(
            data=data,
            trajectory_offsets=offsets,
            times=times,
            controls=controls,
            fields=fields,
            derivatives=derivatives,
        )
