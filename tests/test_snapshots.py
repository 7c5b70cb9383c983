"""The snapshot container, scaling, the text format and its binary mirror."""

import logging
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from morcal.errors import DataError
from morcal.fom import ControlSignal, fom_integrate
from morcal.snapshots import (
    SCALE_FLOOR,
    ScalingSpec,
    SnapshotSet,
    apply_scaling,
    concat_snapshot_sets,
    fit_scaling,
    load_snapshots,
    save_snapshots,
)

MIRROR_LOG = "morcal.snapshots"


def _mirror(path):
    """The binary mirror that save_snapshots writes beside snapshot text ``path``."""
    return Path(f"{path}.bin")


FIELDS = [("T_c", 0, 3), ("T_s", 3, 6)]


def _toy_set(m=5, l=1, seed=7, dt=2.0):
    rng = np.random.default_rng(seed)
    data = 500.0 + 40.0 * rng.standard_normal((6, m * l))
    offsets = np.arange(l + 1) * m
    controls = np.ones(m * l)
    return SnapshotSet(
        data=data,
        trajectory_offsets=offsets,
        dt=dt,
        controls=controls,
        fields=list(FIELDS),
    )


def _derivatives(s):
    """Numbers for a derivative section of ``s``, which generate's files carry."""
    return np.random.default_rng(11).standard_normal(s.data.shape)


def test_assemble_from_fom_trajectories(small_cfg, step_signal):
    traj = fom_integrate(small_cfg, [step_signal], save_every=40)[0]
    assert traj.l == 1 and traj.fields == small_cfg.fields()
    assert np.array_equal(traj.trajectory_offsets, [0, traj.m])
    combined = concat_snapshot_sets([traj, traj])
    assert combined.l == 2
    assert combined.m == 2 * traj.m
    assert np.array_equal(combined.data[:, : traj.m], traj.data)
    back = combined.trajectory_slices()
    assert len(back) == 2
    assert np.array_equal(combined.data[:, back[1]], traj.data)
    assert np.array_equal(combined.controls[back[1]], traj.controls)
    # controls given as a list become a float array, as the data do
    listed = SnapshotSet(data=traj.data[:, :3], trajectory_offsets=[0, 3], dt=traj.dt,
                         controls=[1.0, 1.0, 1.0], fields=traj.fields)
    assert listed.controls.dtype == float and np.array_equal(listed.controls, np.ones(3))
    with pytest.raises(DataError, match="one heat load per column"):
        SnapshotSet(data=traj.data[:, :3], trajectory_offsets=[0, 3], dt=traj.dt,
                    controls=[1.0, 1.0], fields=traj.fields)


def test_snapshot_set_refuses_a_spacing_that_is_not_positive():
    for dt in (0.0, -2.0, float("nan")):
        with pytest.raises(DataError, match="spacing"):
            _toy_set(dt=dt)


def test_concat_refuses_sets_with_different_spacing():
    # a spacing within rounding of the first set's joins it, and the first one is kept
    assert concat_snapshot_sets([_toy_set(), _toy_set(dt=2.0 * (1.0 + 1e-12))]).dt == 2.0
    with pytest.raises(DataError, match="one snapshot spacing"):
        concat_snapshot_sets([_toy_set(), _toy_set(dt=2.0 * (1.0 + 1e-6))])


def test_split_and_concat_round_trip(small_cfg, step_signal):
    signals = [step_signal,
               ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([0.5])),
               ControlSignal(heat_times=np.array([0.0, 60.0]), heat_values=np.array([0.0, 1.5]))]
    parts = fom_integrate(small_cfg, signals, save_every=40)
    assert len(parts) == 3
    rebuilt = concat_snapshot_sets(parts)
    assert np.array_equal(rebuilt.trajectory_offsets, np.arange(4) * parts[0].m)
    for part, sl in zip(parts, rebuilt.trajectory_slices()):
        assert np.array_equal(rebuilt.data[:, sl], part.data)
        assert np.array_equal(rebuilt.controls[sl], part.controls)
        assert rebuilt.dt == part.dt


def test_fit_scaling_matches_block_statistics():
    s = _toy_set(m=50)
    spec = fit_scaling(s)
    for i, (_, start, end) in enumerate(FIELDS):
        block = s.data[start:end, :]
        assert np.isclose(spec.shift[i], block.mean())
        assert np.isclose(spec.scale[i], block.std())


def test_fit_scaling_floors_constant_blocks():
    s = _toy_set(m=6)
    s.data[3:6, :] = 7.0
    spec = fit_scaling(s)
    assert spec.scale[1] == SCALE_FLOOR


def test_apply_and_invert_scaling_round_trip():
    s = _toy_set(m=12)
    spec = fit_scaling(s)
    scaled = apply_scaling(s, spec)
    assert scaled.shape == s.data.shape
    # scaled blocks are standardized
    for _, start, end in FIELDS:
        block = scaled[start:end, :]
        assert abs(block.mean()) < 1e-12
        assert np.isclose(block.std(), 1.0)
    # derivatives are divided by the scale only, never shifted
    raw = _derivatives(s)
    derivatives = spec.scale_derivative_array(raw)
    assert np.allclose(derivatives, raw / spec.row_scale[:, None], rtol=1e-14)
    assert np.allclose(spec.unscale_array(scaled), s.data, rtol=1e-13)
    assert np.allclose(derivatives * spec.row_scale[:, None], raw, rtol=1e-13)


def test_save_load_round_trip(tmp_path):
    s = _toy_set(m=7, l=2)
    path = tmp_path / "snaps.txt"
    save_snapshots(s, path, derivatives=_derivatives(s))
    loaded = load_snapshots(path)
    assert loaded.n == s.n and loaded.m == s.m and loaded.l == s.l
    assert np.array_equal(loaded.data, s.data)
    assert np.array_equal(loaded.controls, s.controls)
    assert loaded.fields == s.fields
    assert loaded.dt == s.dt
    # a second save of the loaded set reproduces the file byte for byte
    path2 = tmp_path / "snaps2.txt"
    save_snapshots(loaded, path2, derivatives=_derivatives(s))
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_without_derivatives(tmp_path):
    s = _toy_set(m=4)
    path = tmp_path / "bare.txt"
    save_snapshots(s, path)
    lines = path.read_text().splitlines()
    assert "has_derivatives=0" in lines and "derivatives" not in lines
    assert len(lines) == 9 + 2 * s.m  # header, data and controls sections
    _assert_same_set(load_snapshots(path), s)


@pytest.mark.parametrize("mirrored", [True, False])
def test_load_without_derivatives_matches_the_full_load(tmp_path, mirrored):
    """A file without the derivative section loads to the same set as one with it,
    from the mirror and from the text."""
    s = _toy_set(m=7, l=2)
    full, bare = tmp_path / "full.txt", tmp_path / "bare.txt"
    save_snapshots(s, full, derivatives=_derivatives(s))
    save_snapshots(s, bare)
    assert "has_derivatives=1" in full.read_text() and "has_derivatives=0" in bare.read_text()
    if not mirrored:
        for path in (full, bare):
            _mirror(path).unlink()
    _assert_same_set(load_snapshots(full), load_snapshots(bare))


def test_load_without_derivatives_still_counts_their_lines(tmp_path):
    path = tmp_path / "snaps.txt"
    s = _toy_set(m=4)
    save_snapshots(s, path, derivatives=_derivatives(s))
    lines = path.read_text().splitlines()
    marker = lines.index("derivatives")
    short = tmp_path / "short.txt"
    short.write_text("\n".join(lines[:marker + 3]) + "\n")  # two of four derivative rows
    shutil.copyfile(_mirror(path), _mirror(short))  # the mirror of the whole file is stale
    with pytest.raises(DataError, match=f"short.txt, line {marker + 4}: unexpected end of file "
                                        "while reading derivative row 2$"):
        load_snapshots(short)


def test_load_rejects_truncated_file(tmp_path):
    s = _toy_set(m=4)
    path = tmp_path / "snaps.txt"
    save_snapshots(s, path, derivatives=_derivatives(s))
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-2]) + "\n")  # its mirror stays, stale
    with pytest.raises(DataError, match="unexpected end of file while reading control row 2$"):
        load_snapshots(path)


def _awkward_set():
    """A toy set holding values whose text is hard to round-trip: -0, subnormals, extremes."""
    s = _toy_set(m=7, l=2)
    s.data[0, :7] = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
                     1.0 / 3.0, -1e-300]
    s.controls[:] = np.linspace(0.0, 1.5, s.m)
    return s


def _served_by(caplog, path):
    """The DEBUG record of the last load of ``path``: which of mirror and text served it."""
    records = [r.getMessage() for r in caplog.records
               if r.name == MIRROR_LOG and r.getMessage().startswith(f"{path}: ")]
    return records[-1][len(f"{path}: "):]


def _assert_same_set(a, b):
    for name in ("data", "controls", "trajectory_offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.flags.c_contiguous and y.flags.c_contiguous, name
        assert x.tobytes() == y.tobytes(), name
    assert a.dt == b.dt and a.fields == b.fields


@pytest.mark.parametrize("with_derivatives", [True, False])
@pytest.mark.parametrize("fortran_order", [True, False])
def test_mirror_and_text_give_the_same_set_bit_for_bit(tmp_path, caplog, with_derivatives,
                                                       fortran_order):
    """The same set, whether the file has a derivative section or not, and whether
    the saved data are stored row- or column-major."""
    caplog.set_level(logging.DEBUG, logger=MIRROR_LOG)
    s = _awkward_set()
    if fortran_order:
        s.data = np.asfortranarray(s.data)
    path, text_only = tmp_path / "snaps.txt", tmp_path / "text.txt"
    save_snapshots(s, path, derivatives=_derivatives(s) if with_derivatives else None)
    shutil.copyfile(path, text_only)
    served = load_snapshots(path)
    assert _served_by(caplog, path) == "read from the mirror"
    parsed = load_snapshots(text_only)
    assert _served_by(caplog, text_only) == "read from the text, no mirror"
    _assert_same_set(served, parsed)
    assert np.array_equal(served.data, s.data) and np.signbit(served.data[0, 0])
    assert np.array_equal(served.controls, s.controls)


def test_a_same_length_edit_of_the_text_is_what_loads(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger=MIRROR_LOG)
    path = tmp_path / "snaps.txt"
    save_snapshots(_toy_set(m=4), path)
    lines = path.read_text().splitlines()
    row = lines.index("data") + 2  # data row 1, snapshot column 1
    first, rest = lines[row].split(" ", 1)
    edited = first[:-1] + ("1" if first[-1] != "1" else "2")
    lines[row] = f"{edited} {rest}"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_snapshots(path)
    assert _served_by(caplog, path) == "read from the text, stale mirror"
    assert loaded.data[0, 1] == float(edited)


def _truncate(path, other):
    _mirror(path).write_bytes(_mirror(path).read_bytes()[:-8])


def _append(path, other):
    _mirror(path).write_bytes(_mirror(path).read_bytes() + bytes(8))


def _flip_byte(path, offset):
    data = bytearray(_mirror(path).read_bytes())
    data[offset] ^= 0x01
    _mirror(path).write_bytes(bytes(data))


def _flip_payload_byte(path, other):
    _flip_byte(path, 60)  # in the data block, which starts after the 41-byte head


def _flip_magic_byte(path, other):
    _flip_byte(path, 0)


def _remove(path, other):
    _mirror(path).unlink()


def _copy_other(path, other):
    shutil.copyfile(_mirror(other), _mirror(path))


def _make_a_folder(path, other):
    _mirror(path).unlink()
    _mirror(path).mkdir()


@pytest.mark.parametrize("spoil, why", [
    (_truncate, "damaged"),
    (_append, "damaged"),
    (_flip_payload_byte, "damaged"),
    (_flip_magic_byte, "damaged"),
    (_remove, "no"),
    (_copy_other, "stale"),
    (_make_a_folder, "damaged"),
])
def test_a_spoiled_mirror_falls_back_to_the_text(tmp_path, caplog, spoil, why):
    caplog.set_level(logging.DEBUG, logger=MIRROR_LOG)
    path, other = tmp_path / "snaps.txt", tmp_path / "other.txt"
    save_snapshots(_toy_set(m=7, l=1, seed=7), path)
    save_snapshots(_toy_set(m=7, l=1, seed=8), other)  # same sizes, other numbers
    expected = load_snapshots(path)
    spoil(path, other)
    loaded = load_snapshots(path)
    assert _served_by(caplog, path) == f"read from the text, {why} mirror"
    _assert_same_set(loaded, expected)


def test_a_mirror_of_the_earlier_layout_counts_as_damaged(tmp_path, caplog):
    """A whole mirror of the layout with a derivative block, written with the text as
    it is, is not read: the text is."""
    caplog.set_level(logging.DEBUG, logger=MIRROR_LOG)
    path = tmp_path / "snaps.txt"
    s = _toy_set(m=7)
    derivatives = _derivatives(s)
    save_snapshots(s, path, derivatives=derivatives)
    text = path.read_bytes()
    blocks = [np.ascontiguousarray(b, dtype="<f8") for b in (s.data, derivatives, s.controls)]
    _mirror(path).write_bytes(
        b"morcal snapshot mirror 1\n"
        + struct.pack("<QIIII", len(text), zlib.crc32(text), *map(zlib.crc32, blocks))
        + b"".join(b.tobytes() for b in blocks))
    _assert_same_set(load_snapshots(path), s)
    assert _served_by(caplog, path) == "read from the text, damaged mirror"


def test_load_writes_no_file(tmp_path):
    path = tmp_path / "snaps.txt"
    save_snapshots(_toy_set(m=4), path)
    bare = tmp_path / "bare.txt"
    shutil.copyfile(path, bare)

    def listing():
        return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in tmp_path.iterdir()}

    before = listing()
    load_snapshots(path)
    load_snapshots(bare)
    assert listing() == before
    _flip_payload_byte(path, None)
    before = listing()
    load_snapshots(path)
    assert listing() == before


def test_a_non_finite_set_gets_no_mirror(tmp_path):
    """The text reader refuses a non-finite number; a mirror must not serve it instead."""
    s = _toy_set(m=4)
    s.data[2, 1] = np.inf
    path = tmp_path / "snaps.txt"
    save_snapshots(s, path)
    assert not _mirror(path).exists()
    with pytest.raises(DataError, match="line 10: non-finite number in data row 1"):
        load_snapshots(path)


def test_scaling_spec_validation():
    with pytest.raises(DataError):
        ScalingSpec(fields=list(FIELDS), shift=np.zeros(2), scale=np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        ScalingSpec(fields=list(FIELDS), shift=np.zeros(3), scale=np.ones(2))
