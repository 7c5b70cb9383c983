"""Model container, error reporting, persistence, and the bundled fixture."""

import numpy as np
import pytest

from morcal.deim import DeimOperators
from morcal.errors import DataError
from morcal.fom import FomConfig, fom_integrate
from morcal.opinf import RomOperators
from morcal.pod import compute_pod
from morcal.rom import (
    RomModel,
    load_reference_fixture,
    load_rom,
    rom_vs_projected_error,
    save_rom,
    simulate_rom,
    switch_off_window,
    field_statistics,
)
from morcal.snapshots import apply_scaling, fit_scaling
from oracles import no_source, unit_scaling


def test_switch_off_window_flags_steps_around_discontinuities():
    loads = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    flags = switch_off_window(loads)
    want = np.zeros(10, dtype=bool)
    want[2:7] = True  # two steps either side of the change at index 4
    assert np.array_equal(flags, want)


def test_switch_off_window_constant_load_flags_nothing():
    assert not switch_off_window(np.ones(20)).any()


def test_switch_off_window_near_the_edges():
    loads = np.array([1.0, 0.0, 0.0])
    flags = switch_off_window(loads)
    assert flags.all()  # window clipped to the array


def _static_model(r=3):
    """Zero dynamics: the rollout stays at the initial reduced state."""
    return RomModel(
        operators=RomOperators(a=np.zeros((r, r))),
        deim=no_source(r),
        basis=None,
        dt=1.0,
    )


def test_simulate_rom_wraps_rollout():
    model = _static_model()
    out = simulate_rom(model, np.array([1.0, 2.0, 3.0]), np.zeros(5), 5)
    assert out.shape == (3, 6)
    assert np.all(out == out[:, :1])


def _trained_model(include_window=False):
    cfg = FomConfig(
        grid_points=24,
        rho_cp_coolant=1.0e6,
        rho_cp_solid=2.0e6,
        arrhenius_prefactor=3.0e4,
        dt=0.5,
        t_end=150.0,
    )
    from morcal.fom import ControlSignal

    times = np.array([0.0, 75.0]) if include_window else np.array([0.0])
    values = np.array([1.0, 0.0]) if include_window else np.array([1.0])
    signal = ControlSignal(heat_times=times, heat_values=values)
    traj = fom_integrate(cfg, [signal], save_every=25)[0]
    scaling = fit_scaling(traj)
    scaled = apply_scaling(traj, scaling)
    basis = compute_pod(scaled, 4, scaling=scaling)
    model = RomModel(
        operators=RomOperators(a=np.zeros((4, 4))),
        deim=no_source(4),
        basis=basis,
        dt=traj.dt,
    )
    return model, traj, cfg


def test_error_report_zero_for_exact_reproduction():
    """A frozen state reproduces a constant trajectory with zero error."""
    model, traj, _ = _trained_model()
    constant = traj
    constant.data = np.tile(traj.data[:, :1], (1, traj.data.shape[1]))
    constant.derivatives = None
    report = rom_vs_projected_error(model, constant)
    assert report.step_errors.shape == (traj.m,)
    assert np.all(report.step_errors < 1e-28)
    assert report.mean_error < 1e-28


def test_error_report_refuses_a_trajectory_at_another_spacing():
    model, traj, _ = _trained_model()
    traj.dt = model.dt * (1.0 + 1e-6)
    with pytest.raises(DataError, match="spacing does not match"):
        rom_vs_projected_error(model, traj)


def test_error_report_refuses_a_trajectory_of_another_field_layout():
    model, traj, _ = _trained_model()
    traj.fields = [("T", 0, traj.n)]
    with pytest.raises(DataError, match="field layout"):
        rom_vs_projected_error(model, traj)


def test_error_report_excludes_switch_off_window():
    model, traj, _ = _trained_model(include_window=True)
    report = rom_vs_projected_error(model, traj)
    assert report.switch_off.any()
    assert not report.switch_off.all()
    outside = report.step_errors[~report.switch_off]
    assert np.isclose(report.mean_error, outside.mean(), rtol=1e-12)
    assert np.isclose(report.mean_error_all, report.step_errors.mean(), rtol=1e-12)


def test_field_statistics_solid_mask_restriction():
    model, traj, cfg = _trained_model()
    scaled = model.basis.scaling.scale_array(traj.data)
    reduced = model.basis.basis.T @ scaled
    stats = field_statistics(model, reduced, cfg.solid_rows)
    assert set(stats) == {"T_c", "T_s"}
    assert stats["T_c"].shape == (reduced.shape[1], 3)
    # min <= mean <= max at every step
    for block in stats.values():
        assert np.all(block[:, 0] <= block[:, 1] + 1e-12)
        assert np.all(block[:, 1] <= block[:, 2] + 1e-12)
    # the solid statistics ignore rows without solid material: lifting the
    # projected data reproduces roughly inflow temperature elsewhere, so the
    # restricted minimum is at least the unrestricted one
    lifted = model.basis.scaling.unscale_array(model.basis.basis @ reduced)
    npts = cfg.grid_points
    solid = cfg.solid_mask > 0.0
    want_min = lifted[npts:, :][solid, :].min(axis=0)
    assert np.allclose(stats["T_s"][:, 0], want_min, rtol=1e-12)


def _full_model(rng):
    r, s = 3, 2
    ops = RomOperators(a=rng.standard_normal((r, r)))
    deim = DeimOperators(
        indices=np.array([4, 9]),
        p1=rng.standard_normal((r, s)),
        p2=rng.standard_normal((s, r)),
        arrhenius_prefactor=5000.0,
        arrhenius_exponent=1500.0,
        unscale_scale=np.array([3.0, 4.0]),
        unscale_shift=np.array([500.0, 510.0]),
    )
    return RomModel(operators=ops, deim=deim, basis=None, dt=0.25)


def test_save_load_round_trip_without_basis(tmp_path, rng):
    model = _full_model(rng)
    path = tmp_path / "rom.txt"
    save_rom(model, path)
    loaded = load_rom(path)
    assert np.array_equal(loaded.operators.a, model.operators.a)
    assert np.array_equal(loaded.deim.p1, model.deim.p1)
    assert np.array_equal(loaded.deim.p2, model.deim.p2)
    assert np.array_equal(loaded.deim.indices, model.deim.indices)
    assert np.array_equal(loaded.deim.unscale_shift, model.deim.unscale_shift)
    assert loaded.dt == model.dt
    assert loaded.basis is None


def test_save_load_round_trip_with_basis(tmp_path):
    model, _, _ = _trained_model()
    path = tmp_path / "rom.txt"
    save_rom(model, path)
    loaded = load_rom(path)
    assert loaded.basis is not None
    assert np.array_equal(loaded.basis.basis, model.basis.basis)
    assert np.array_equal(loaded.basis.singular_values, model.basis.singular_values)
    assert loaded.basis.scaling.fields == model.basis.scaling.fields
    assert np.array_equal(loaded.basis.scaling.shift, model.basis.scaling.shift)
    # compact export drops the basis
    compact = tmp_path / "compact.txt"
    save_rom(model, compact, include_basis=False)
    assert load_rom(compact).basis is None


def test_load_rejects_future_format_version(tmp_path, rng):
    model = _full_model(rng)
    path = tmp_path / "rom.txt"
    save_rom(model, path)
    text = path.read_text().replace("version=1", "version=99", 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(DataError):
        load_rom(bad)


def test_reference_fixture_loads_with_stored_entries():
    model = load_reference_fixture()
    ops = model.operators
    assert ops.a.shape == (8, 8)
    assert model.deim.p1.shape == (8, 8)
    assert model.deim.p2.shape == (8, 8)
    assert abs(ops.a[0, 0] - (-3.3e-6)) < 1e-15
    assert abs(model.deim.p1[0, 0] - (-0.840)) < 1e-12
    assert abs(model.deim.p1[1, 2] - 29.940) < 1e-12
    assert abs(model.deim.p2[0, 0] - (-0.00588)) < 1e-12
    assert model.deim.arrhenius_prefactor == 5000.0
    assert model.deim.arrhenius_exponent == 1500.0


def test_model_consistency_checks(rng):
    ops = RomOperators(a=np.zeros((3, 3)))
    basis_mat = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    from morcal.pod import PodBasis

    basis = PodBasis(basis=basis_mat, singular_values=np.ones(4), scaling=unit_scaling(10))
    with pytest.raises(DataError):
        RomModel(operators=ops, deim=no_source(3), basis=basis, dt=1.0)  # r mismatch
    with pytest.raises(DataError):
        RomModel(operators=ops, deim=no_source(3), basis=None, dt=0.0)
