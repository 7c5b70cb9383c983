"""The snapshot container, scaling, and the text format."""

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

FIELDS = [("T_c", 0, 3), ("T_s", 3, 6)]


def _toy_set(m=5, l=1, with_derivatives=True, seed=7, dt=2.0):
    rng = np.random.default_rng(seed)
    data = 500.0 + 40.0 * rng.standard_normal((6, m * l))
    offsets = np.arange(l + 1) * m
    controls = np.ones(m * l)
    derivatives = rng.standard_normal((6, m * l)) if with_derivatives else None
    return SnapshotSet(
        data=data,
        trajectory_offsets=offsets,
        dt=dt,
        controls=controls,
        fields=list(FIELDS),
        derivatives=derivatives,
    )


def test_assemble_from_fom_trajectories(small_cfg, step_signal):
    traj = fom_integrate(small_cfg, [step_signal], save_every=40)[0]
    assert traj.l == 1 and traj.fields == small_cfg.fields()
    assert np.array_equal(traj.trajectory_offsets, [0, traj.m])
    combined = concat_snapshot_sets([traj, traj])
    assert combined.l == 2
    assert combined.m == 2 * traj.m
    assert np.array_equal(combined.data[:, : traj.m], traj.data)
    assert combined.derivatives is not None
    back = combined.trajectory_slices()
    assert len(back) == 2
    assert np.array_equal(combined.data[:, back[1]], traj.data)
    assert np.array_equal(combined.controls[back[1]], traj.controls)


def test_assemble_rejects_mixed_derivative_presence(small_cfg, step_signal):
    traj, bare = fom_integrate(small_cfg, [step_signal, step_signal], save_every=40)
    bare.derivatives = None
    with pytest.raises(DataError):
        concat_snapshot_sets([traj, bare])


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
        assert np.array_equal(rebuilt.derivatives[:, sl], part.derivatives)
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
    derivatives = spec.scale_derivative_array(s.derivatives)
    assert np.allclose(derivatives, s.derivatives / spec.row_scale[:, None], rtol=1e-14)
    assert np.allclose(spec.unscale_array(scaled), s.data, rtol=1e-13)
    assert np.allclose(derivatives * spec.row_scale[:, None], s.derivatives, rtol=1e-13)


def test_save_load_round_trip(tmp_path):
    s = _toy_set(m=7, l=2)
    path = tmp_path / "snaps.txt"
    save_snapshots(s, path)
    loaded = load_snapshots(path)
    assert loaded.n == s.n and loaded.m == s.m and loaded.l == s.l
    assert np.array_equal(loaded.data, s.data)
    assert np.array_equal(loaded.derivatives, s.derivatives)
    assert np.array_equal(loaded.controls, s.controls)
    assert loaded.fields == s.fields
    assert loaded.dt == s.dt
    # a second save of the loaded set reproduces the file byte for byte
    path2 = tmp_path / "snaps2.txt"
    save_snapshots(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_without_derivatives(tmp_path):
    s = _toy_set(m=4, with_derivatives=False)
    path = tmp_path / "bare.txt"
    save_snapshots(s, path)
    loaded = load_snapshots(path)
    assert loaded.derivatives is None


@pytest.mark.parametrize("with_derivatives", [True, False])
def test_load_without_derivatives_matches_the_full_load(tmp_path, with_derivatives):
    path = tmp_path / "snaps.txt"
    save_snapshots(_toy_set(m=7, l=2, with_derivatives=with_derivatives), path)
    full = load_snapshots(path)
    bare = load_snapshots(path, derivatives=False)
    assert bare.derivatives is None
    for name in ("data", "controls", "trajectory_offsets"):
        a, b = getattr(full, name), getattr(bare, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert bare.dt == full.dt and bare.fields == full.fields


def test_load_without_derivatives_still_counts_their_lines(tmp_path):
    path = tmp_path / "snaps.txt"
    save_snapshots(_toy_set(m=4), path)
    lines = path.read_text().splitlines()
    marker = lines.index("derivatives")
    short = tmp_path / "short.txt"
    short.write_text("\n".join(lines[:marker + 3]) + "\n")  # two of four derivative rows
    with pytest.raises(DataError, match=f"short.txt, line {marker + 4}: unexpected end of file "
                                        "while reading derivative row 2$"):
        load_snapshots(short, derivatives=False)


def test_load_rejects_truncated_file(tmp_path):
    s = _toy_set(m=4)
    path = tmp_path / "snaps.txt"
    save_snapshots(s, path)
    text = path.read_text().splitlines()
    (tmp_path / "bad.txt").write_text("\n".join(text[:-2]) + "\n")
    with pytest.raises(DataError):
        load_snapshots(tmp_path / "bad.txt")


def test_scaling_spec_validation():
    with pytest.raises(DataError):
        ScalingSpec(fields=list(FIELDS), shift=np.zeros(2), scale=np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        ScalingSpec(fields=list(FIELDS), shift=np.zeros(3), scale=np.ones(2))
