"""Basis computation against a direct SVD oracle, and projection."""

import numpy as np
import pytest

from morcal.errors import ConfigError, DataError, NumericError
from morcal.pod import PodBasis, compute_pod, project
from oracles import unit_scaling


def test_basis_is_orthonormal_with_descending_spectrum(rng):
    x = rng.standard_normal((24, 15))
    basis = compute_pod(x, 6, unit_scaling(24))
    assert basis.basis.shape == (24, 6)
    assert np.allclose(basis.basis.T @ basis.basis, np.eye(6), atol=1e-12)
    assert np.all(np.diff(basis.singular_values) <= 1e-12)
    assert basis.singular_values.size == 15


def test_basis_sign_convention(rng):
    x = rng.standard_normal((18, 9))
    basis = compute_pod(x, 5, unit_scaling(18))
    for j in range(5):
        col = basis.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_truncated_basis_is_best_in_frobenius_norm(rng):
    """Optimal low-rank property: residual energy equals the tail spectrum."""
    x = rng.standard_normal((30, 22))
    u_full, sv, vt = np.linalg.svd(x, full_matrices=False)
    for r in (1, 4, 9):
        basis = compute_pod(x, r, unit_scaling(30))
        residual = x - basis.basis @ (basis.basis.T @ x)
        want = np.sqrt(np.sum(sv[r:] ** 2))
        assert np.isclose(np.linalg.norm(residual), want, rtol=1e-10, atol=1e-12)


def test_project_and_lift_are_mutually_consistent(rng):
    """project inverts the lift y -> U y onto the basis span."""
    x = rng.standard_normal((20, 12))
    basis = compute_pod(x, 4, unit_scaling(20))
    y = rng.standard_normal(4)
    assert np.allclose(project(basis, basis.basis @ y), y, atol=1e-12)
    batch = rng.standard_normal((4, 7))
    assert np.allclose(project(basis, basis.basis @ batch), batch, atol=1e-12)


def test_exact_reconstruction_at_full_rank(rng):
    x = rng.standard_normal((10, 6))
    basis = compute_pod(x, 6, unit_scaling(10))
    assert np.allclose(basis.basis @ project(basis, x), x, atol=1e-10)


def test_compute_pod_rejects_bad_rank(rng):
    x = rng.standard_normal((10, 6))
    with pytest.raises(ConfigError):
        compute_pod(x, 0, unit_scaling(10))
    with pytest.raises(ConfigError):
        compute_pod(x, 7, unit_scaling(10))


def test_project_shape_check(rng):
    basis = compute_pod(rng.standard_normal((10, 6)), 3, unit_scaling(10))
    with pytest.raises(DataError):
        project(basis, np.zeros(9))


def test_podbasis_rejects_non_orthonormal():
    bad = np.ones((5, 2))
    with pytest.raises(NumericError):
        PodBasis(basis=bad, singular_values=np.array([2.0, 1.0]), scaling=unit_scaling(5))

