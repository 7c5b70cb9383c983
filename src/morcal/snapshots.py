"""The snapshot container, its scaling, and snapshot files.

A snapshot set stacks one or more trajectories column-wise into an n x m
matrix, keeping trajectory boundaries, the heat load of each column, the
field layout of the state vector, and the spacing ``dt`` that all its
trajectories share, always in physical units.  The full-order model refuses
``t_end < save_every*dt``, so each trajectory it writes holds at least two
snapshots.  Scaling standardises each field block by its mean and standard
deviation; derivative columns are divided by the scale only, since shifting
does not change a time derivative.  The basis carries the ScalingSpec.

A snapshot file is plain text.  Next to it, ``save_snapshots`` writes a
binary mirror (the text's name plus ``.bin``) holding the same numbers, and
``load_snapshots`` reads them from the mirror instead of parsing the text
when the mirror is whole and was written with the text as it is now.  The
mirror is a checked cache of the text, not a second format: its layout is
known to this module only, and without it the text is parsed as always.
"""

import io
import logging
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from morcal.errors import DataError
from morcal.textio import (
    TextReader,
    fmt_fields,
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
    "concat_snapshot_sets",
    "fit_scaling",
    "apply_scaling",
    "save_snapshots",
    "load_snapshots",
]

SCALE_FLOOR = 1e-12

logger = logging.getLogger(__name__)

# The binary mirror of a snapshot file: the magic line; the text's byte size
# and CRC-32, and the CRC-32 of each payload block; then the payload, the
# blocks data (n x m), derivatives (n x m, absent in a file without them)
# and controls (m) as little-endian float64 in C order.
_MIRROR_SUFFIX = ".bin"
_MIRROR_MAGIC = b"morcal snapshot mirror 1\n"
_MIRROR_HEAD = struct.Struct("<QIIII")
_MIRROR_DTYPE = np.dtype("<f8")


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


@dataclass
class SnapshotSet:
    """Column-stacked trajectories with controls and optional derivatives."""

    data: np.ndarray  # (n, m)
    trajectory_offsets: np.ndarray  # (l+1,) column offsets, first 0, last m
    dt: float  # time between consecutive snapshots of every trajectory
    controls: np.ndarray  # (m,) heat load R per column
    fields: list  # (name, start, end)
    derivatives: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.trajectory_offsets = np.asarray(self.trajectory_offsets, dtype=int)
        n, m = self.data.shape
        _check_fields(self.fields, n)
        off = self.trajectory_offsets
        if off[0] != 0 or off[-1] != m or np.any(np.diff(off) <= 0):
            raise DataError("trajectory offsets must increase from 0 to the column count")
        if not self.dt > 0.0:
            raise DataError("snapshot spacing dt must be positive")
        if self.controls.shape != (m,):
            raise DataError("controls must hold one heat load per column")
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


def concat_snapshot_sets(sets) -> SnapshotSet:
    """Concatenate snapshot sets that share field layout and snapshot spacing."""
    if not sets:
        raise DataError("no snapshot sets given")
    first = sets[0]
    for s in sets:
        if s.fields != first.fields:
            raise DataError("snapshot sets disagree on field layout")
        if (s.derivatives is None) != (first.derivatives is None):
            raise DataError("cannot mix sets with and without derivatives")
        if not np.isclose(s.dt, first.dt, rtol=1e-9, atol=1e-12):
            raise DataError("all trajectories must share one snapshot spacing")
    counts = np.concatenate([np.diff(s.trajectory_offsets) for s in sets])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return SnapshotSet(
        data=np.hstack([s.data for s in sets]),
        trajectory_offsets=offsets,
        dt=first.dt,
        controls=np.concatenate([s.controls for s in sets]),
        fields=list(first.fields),
        derivatives=None
        if first.derivatives is None
        else np.hstack([s.derivatives for s in sets]),
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


def apply_scaling(snapshots: SnapshotSet, spec: ScalingSpec) -> np.ndarray:
    """The set's states standardised by ``spec``, as a new (n, m) array."""
    if spec.fields != snapshots.fields:
        raise DataError("scaling spec does not match the snapshot field layout")
    return spec.scale_array(snapshots.data)


class _ChecksumFile(io.FileIO):
    """A file opened for writing that keeps the byte size and CRC-32 of what it wrote."""

    size = 0
    crc = 0

    def write(self, b):
        written = super().write(b)
        if written:
            self.crc = zlib.crc32(memoryview(b)[:written], self.crc)
            self.size += written
        return written


def save_snapshots(snapshots: SnapshotSet, path) -> None:
    """Write the set to a plain-text snapshot file (full precision) and its mirror.

    The mirror (``path`` plus ``.bin``) records the text's byte size and
    CRC-32, taken as the text is written, so a later change to the text
    makes the mirror stale.  A set holding a non-finite number gets no
    mirror: the text reader refuses such a file, so only its text may answer.
    """
    off = ",".join(str(int(v)) for v in snapshots.trajectory_offsets)
    has_der = 1 if snapshots.derivatives is not None else 0
    raw = _ChecksumFile(path, "w")
    with io.TextIOWrapper(io.BufferedWriter(raw)) as fh:
        fh.write(f"n={snapshots.n}\n")
        fh.write(f"m={snapshots.m}\n")
        fh.write(f"l={snapshots.l}\n")
        fh.write(f"offsets={off}\n")
        fh.write(f"dt={fmt_float(snapshots.dt)}\n")
        fh.write(f"fields={fmt_fields(snapshots.fields)}\n")
        fh.write(f"has_derivatives={has_der}\n")
        fh.write("data\n")
        for j in range(snapshots.m):
            fh.write(fmt_row(snapshots.data[:, j]) + "\n")
        if has_der:
            fh.write("derivatives\n")
            for j in range(snapshots.m):
                fh.write(fmt_row(snapshots.derivatives[:, j]) + "\n")
        fh.write("controls\n")
        for load in snapshots.controls:
            fh.write(fmt_float(load) + "\n")
    derivs = snapshots.derivatives if has_der else np.empty(0)  # no bytes, CRC-32 0
    blocks = [np.ascontiguousarray(b, dtype=_MIRROR_DTYPE)
              for b in (snapshots.data, derivs, snapshots.controls)]
    if all(np.isfinite(b).all() for b in blocks):
        with open(str(path) + _MIRROR_SUFFIX, "wb") as fh:
            fh.write(_MIRROR_MAGIC + _MIRROR_HEAD.pack(raw.size, raw.crc, *map(zlib.crc32, blocks)))
            for b in blocks:
                fh.write(memoryview(b).cast("B"))


def _file_crc(path) -> int:
    """The CRC-32 of a file, read in chunks small enough to leave peak memory as it is."""
    crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            crc = zlib.crc32(chunk, crc)
    return crc


def _mirror_blocks(fh, path, n, m, has_der, derivatives):
    """The (data, derivatives, controls) in the open mirror ``fh`` of text file ``path``.

    Returns them and None, or None and what is wrong with the mirror: it
    was not written with the text as it is now (``"stale"``), or it is not
    whole (``"damaged"``): its length is not the one the header's sizes
    imply, or a block read does not match its CRC-32.  The derivative block
    is read only if ``derivatives`` asks for it.
    """
    head = fh.read(len(_MIRROR_MAGIC) + _MIRROR_HEAD.size)
    if len(head) != len(_MIRROR_MAGIC) + _MIRROR_HEAD.size or not head.startswith(_MIRROR_MAGIC):
        return None, "damaged"
    text_size, text_crc, *crcs = _MIRROR_HEAD.unpack_from(head, len(_MIRROR_MAGIC))
    if os.path.getsize(path) != text_size:
        return None, "stale"
    counts = [n * m, n * m * has_der, m]
    if min(n, m) < 0 or os.fstat(fh.fileno()).st_size != len(head) + 8 * sum(counts):
        return None, "damaged"
    if _file_crc(path) != text_crc:
        return None, "stale"
    blocks = []
    for count, crc, wanted in zip(counts, crcs, (True, derivatives and has_der, True)):
        if not wanted:
            fh.seek(8 * count, os.SEEK_CUR)
            blocks.append(None)
            continue
        block = np.empty(count, dtype=_MIRROR_DTYPE)
        if fh.readinto(block) != block.nbytes or zlib.crc32(block) != crc:
            return None, "damaged"
        blocks.append(block.astype(float, copy=False))
    data, derivs, controls = blocks
    return (data.reshape(n, m), None if derivs is None else derivs.reshape(n, m), controls), None


def _read_mirror(path, n, m, has_der, derivatives):
    """The (data, derivatives, controls) of snapshot file ``path`` from its mirror, or None.

    None means that the text must be parsed: there is no mirror, or it is
    stale or damaged (see ``_mirror_blocks``).  One DEBUG record on this
    module's logger says which of the two serves the file, and why.
    """
    try:
        with open(str(path) + _MIRROR_SUFFIX, "rb") as fh:
            blocks, why = _mirror_blocks(fh, path, n, m, has_der, derivatives)
    except FileNotFoundError:
        blocks, why = None, "no"
    except OSError:
        blocks, why = None, "damaged"
    if blocks is None:
        logger.debug("%s: read from the text, %s mirror", path, why)
    else:
        logger.debug("%s: read from the mirror", path)
    return blocks


def load_snapshots(path, derivatives=True) -> SnapshotSet:
    """Read a snapshot file written by save_snapshots; every DataError names the file.

    The header is always parsed from the text.  The numbers come from the
    file's mirror when it matches the text (see ``save_snapshots``), else
    from the text; both give the same arrays, bit for bit.  A text without
    a mirror, from another writer say, is parsed as always, and nothing is
    written.  With ``derivatives=False`` the returned set has no
    derivatives and their numbers are not read; on the text path the
    derivative section's marker and line count are still checked, and
    everything else is read and checked as in a full load.
    """
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

        mirrored = _read_mirror(path, n, m, has_der, derivatives)
        if mirrored is not None:
            data, derivs, controls = mirrored
        else:
            data, derivs, controls = _read_body(rd, n, m, has_der, derivatives)

    try:
        return SnapshotSet(
            data=data,
            trajectory_offsets=offsets,
            dt=dt,
            controls=controls,
            fields=fields,
            derivatives=derivs,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_body(rd, n, m, has_der, derivatives):
    """The data, derivatives (or None) and controls sections of a snapshot text."""
    if rd.next_line("'data' marker").strip() != "data":
        raise rd.error("expected 'data' section")
    # Rows on disk are snapshot columns; keep the (n, m) matrix C-contiguous.
    data = np.ascontiguousarray(rd.read_rows(m, n, "data row").T)
    derivs = None
    if has_der:
        if rd.next_line("'derivatives' marker").strip() != "derivatives":
            raise rd.error("expected 'derivatives' section")
        if derivatives:
            derivs = np.ascontiguousarray(rd.read_rows(m, n, "derivative row").T)
        else:
            rd.skip_rows(m, "derivative row")
    if rd.next_line("'controls' marker").strip() != "controls":
        raise rd.error("expected 'controls' section")
    controls = rd.read_rows(m, 1, "control row")[:, 0]
    return data, derivs, controls
