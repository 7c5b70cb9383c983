"""Sample-point selection, sampled source operators, and their jacobian."""

import numpy as np
import pytest

from morcal.deim import (
    DeimOperators,
    build_deim_operators,
    deim_points,
    nonlinearity_basis,
    nonlinearity_snapshots,
    reduced_arrhenius,
)
from morcal.errors import DataError, NumericError
from morcal.fom import FomConfig, fom_integrate
from morcal.pod import compute_pod
from morcal.snapshots import ScalingSpec, apply_scaling, fit_scaling
from oracles import arrhenius_jacobian


def _greedy_points_oracle(u_n):
    """Straightforward greedy selection, written without shortcuts."""
    n, s = u_n.shape
    picked = [int(np.argmax(np.abs(u_n[:, 0])))]
    for j in range(1, s):
        sel = u_n[picked, :j]
        coef = np.linalg.solve(sel, u_n[picked, j])
        residual = u_n[:, j] - u_n[:, :j] @ coef
        picked.append(int(np.argmax(np.abs(residual))))
    return np.array(picked)


def test_deim_points_match_greedy_oracle(rng):
    x = rng.standard_normal((40, 25))
    u, _, _ = np.linalg.svd(x, full_matrices=False)
    for s in (1, 3, 8):
        got = deim_points(u[:, :s])
        want = _greedy_points_oracle(u[:, :s])
        assert np.array_equal(got, want), f"s={s}: {got} vs {want}"


def test_deim_points_are_distinct(rng):
    x = rng.standard_normal((30, 10))
    u, _, _ = np.linalg.svd(x, full_matrices=False)
    idx = deim_points(u)
    assert len(set(idx.tolist())) == idx.size


def test_interpolation_is_exact_on_the_nonlinearity_span(rng):
    """The sampled operator reproduces U^T (gain * f) exactly for f in span(U_N)."""
    n, r, s = 36, 5, 7
    # A unit heat capacity makes the gain 1 on the solid rows and 0 elsewhere.
    cfg = FomConfig(grid_points=n // 2, rho_cp_solid=1.0)
    rows = cfg.solid_rows
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    u_n = np.linalg.qr(rng.standard_normal((rows.size, s)))[0]
    points = deim_points(u_n)
    from morcal.pod import PodBasis

    unit = ScalingSpec(fields=[("T_c", 0, n // 2), ("T_s", n // 2, n)], shift=[0.0, 0.0],
                       scale=[1.0, 1.0])
    basis = PodBasis(basis=u, singular_values=np.ones(r), scaling=unit)
    gain = np.zeros(n)
    gain[n // 2 + np.flatnonzero(cfg.solid_mask)] = 1.0
    ops = build_deim_operators(basis, u_n, points, cfg)
    for _ in range(4):
        f = np.zeros(n)
        f[rows] = u_n @ rng.standard_normal(s)
        assert np.allclose(ops.p1 @ f[ops.indices], u.T @ (gain * f), rtol=1e-10, atol=1e-12)


def test_sample_temperatures_affine_map(rng):
    r, s = 4, 3
    ops = DeimOperators(
        indices=np.arange(s),
        p1=rng.standard_normal((r, s)),
        p2=rng.standard_normal((s, r)),
        arrhenius_prefactor=5000.0,
        arrhenius_exponent=1500.0,
        unscale_scale=np.array([2.0, 3.0, 4.0]),
        unscale_shift=np.array([10.0, 20.0, 30.0]),
    )
    y = rng.standard_normal(r)
    want = ops.unscale_scale * (ops.p2 @ y) + ops.unscale_shift
    assert np.allclose(ops.sample_temperatures(y), want, rtol=1e-14)
    batch = rng.standard_normal((r, 6))
    got = ops.sample_temperatures(batch)
    assert got.shape == (s, 6)
    assert np.allclose(got[:, 2], ops.unscale_scale * (ops.p2 @ batch[:, 2]) + ops.unscale_shift)


def _simple_ops(rng, r=3, s=4):
    return DeimOperators(
        indices=np.arange(s),
        p1=rng.standard_normal((r, s)),
        p2=0.01 * rng.standard_normal((s, r)),
        arrhenius_prefactor=5000.0,
        arrhenius_exponent=1500.0,
        unscale_scale=np.full(s, 50.0),
        unscale_shift=np.full(s, 533.15),
    )


def test_reduced_arrhenius_formula(rng):
    ops = _simple_ops(rng)
    y = rng.standard_normal(3)
    t = ops.sample_temperatures(y)
    want = 1.7 * 5000.0 * (ops.p1 @ np.exp(1500.0 / t))
    assert np.allclose(reduced_arrhenius(ops, y, 1.7), want, rtol=1e-13)


def test_reduced_arrhenius_guards_low_temperature(rng):
    ops = _simple_ops(rng)
    ops.unscale_shift = np.full(4, -1000.0)
    with pytest.raises(NumericError):
        reduced_arrhenius(ops, np.zeros(3), 1.0)


def test_arrhenius_jacobian_matches_finite_differences(rng):
    ops = _simple_ops(rng)
    y = 0.1 * rng.standard_normal(3)
    load = 1.3
    jac = arrhenius_jacobian(ops, y, load)
    assert jac.shape == (3, 3)
    fd = np.empty((3, 3))
    for i in range(3):
        h = 1e-6
        e = np.zeros(3)
        e[i] = h
        fd[:, i] = (
            reduced_arrhenius(ops, y + e, load) - reduced_arrhenius(ops, y - e, load)
        ) / (2.0 * h)
    assert np.linalg.norm(jac - fd) < 1e-6 * np.linalg.norm(jac)


def _small_snapshot_set():
    cfg = FomConfig(
        grid_points=24,
        rho_cp_coolant=1.0e6,
        rho_cp_solid=2.0e6,
        arrhenius_prefactor=3.0e4,
        dt=0.5,
        t_end=150.0,
    )
    return cfg, fom_integrate(cfg, [_unit_signal()], save_every=25)[0]


def _unit_signal():
    from morcal.fom import ControlSignal

    return ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([1.0]))


def test_nonlinearity_snapshots_shape_and_support():
    """The source block holds the solid rows only, where it follows the source law."""
    cfg, snaps = _small_snapshot_set()
    source = nonlinearity_snapshots(snaps, cfg)
    npts = cfg.grid_points
    solid = cfg.solid_mask > 0.0
    assert source.shape == (np.count_nonzero(solid), snaps.m)
    ts = snaps.data[npts:, :][solid, :]
    want = cfg.arrhenius_prefactor * np.exp(cfg.arrhenius_exponent / ts)
    want = want * snaps.controls[None, :]
    assert np.allclose(source, want, rtol=1e-13)


def test_build_operators_fold_in_gain_and_scaling(rng):
    """p1 applied to raw samples equals the projected, gain-weighted source."""
    cfg, snaps = _small_snapshot_set()
    scaling = fit_scaling(snaps)
    scaled = apply_scaling(snaps, scaling)
    basis = compute_pod(scaled, 4, scaling=scaling)
    source = nonlinearity_snapshots(snaps, cfg)
    u_n, _ = nonlinearity_basis(source, 4)
    points = deim_points(u_n)
    gain = np.zeros(cfg.n)
    solid_rows = cfg.grid_points + np.flatnonzero(cfg.solid_mask)
    gain[solid_rows] = 1.0 / (cfg.rho_cp_solid * scaling.row_scale[solid_rows])
    ops = build_deim_operators(basis, u_n, points, cfg)
    f = np.zeros(cfg.n)
    f[solid_rows] = u_n @ rng.standard_normal(4)
    want = basis.basis.T @ (gain * f)
    assert np.allclose(ops.p1 @ f[ops.indices], want, rtol=1e-8, atol=1e-10)
    # unscale map reproduces the physical temperatures at the sample rows
    col = scaled[:, 3]
    t_samples = ops.sample_temperatures(basis.basis.T @ col)
    full = scaling.unscale_array(basis.basis @ (basis.basis.T @ col))
    assert np.allclose(t_samples, full[ops.indices], rtol=1e-12)


def test_operator_indices_are_the_solid_rows_the_full_state_greedy_picks():
    """Points chosen in the solid block map to solid rows, the ones a zero-padded basis gives."""
    cfg, snaps = _small_snapshot_set()
    scaling = fit_scaling(snaps)
    basis = compute_pod(apply_scaling(snaps, scaling), 4, scaling=scaling)
    u_n, _ = nonlinearity_basis(nonlinearity_snapshots(snaps, cfg), 6)
    ops = build_deim_operators(basis, u_n, deim_points(u_n), cfg)
    assert np.all(np.isin(ops.indices, cfg.solid_rows))
    padded = np.zeros((cfg.n, u_n.shape[1]))
    padded[cfg.solid_rows] = u_n
    assert np.array_equal(ops.indices, deim_points(padded))


def test_deim_points_rejects_rank_deficient_basis():
    u = np.zeros((10, 2))
    u[0, 0] = 1.0
    u[0, 1] = 1.0  # second column needs a fresh row but has none
    with pytest.raises(NumericError):
        deim_points(u)


def test_operator_shape_validation(rng):
    with pytest.raises(DataError):
        DeimOperators(
            indices=np.arange(3),
            p1=rng.standard_normal((4, 3)),
            p2=rng.standard_normal((2, 4)),  # wrong s
            arrhenius_prefactor=1.0,
            arrhenius_exponent=1.0,
            unscale_scale=np.ones(3),
            unscale_shift=np.zeros(3),
        )
