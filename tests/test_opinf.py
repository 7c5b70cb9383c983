"""Quadratic feature map, regression assembly, and the ridge solver."""

import numpy as np
import pytest

from morcal.errors import ConfigError, DataError, NumericError
from morcal.opinf import (
    RomOperators,
    assemble_regression,
    quadratic_size,
    solve_opinf,
    sym_kron,
)
from oracles import sym_kron_jacobian


def test_quadratic_size_values():
    assert [quadratic_size(r) for r in (1, 2, 3, 4, 8)] == [1, 3, 6, 10, 36]


def test_sym_kron_ordering_r2():
    out = sym_kron(np.array([2.0, 5.0]))
    assert np.array_equal(out, np.array([4.0, 10.0, 25.0]))


def test_sym_kron_ordering_r3():
    x, y, z = 2.0, 3.0, 7.0
    out = sym_kron(np.array([x, y, z]))
    want = np.array([x * x, x * y, x * z, y * y, y * z, z * z])
    assert np.array_equal(out, want)


def test_sym_kron_batched_matches_columnwise(rng):
    batch = rng.standard_normal((4, 9))
    out = sym_kron(batch)
    assert out.shape == (10, 9)
    for j in range(9):
        assert np.allclose(out[:, j], sym_kron(batch[:, j]), rtol=1e-15)


def test_sym_kron_jacobian_matches_finite_differences(rng):
    s = rng.standard_normal(5)
    jac = sym_kron_jacobian(s)
    assert jac.shape == (quadratic_size(5), 5)
    h = 1e-7
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd = (sym_kron(s + e) - sym_kron(s - e)) / (2.0 * h)
        assert np.allclose(jac[:, i], fd, rtol=1e-6, atol=1e-8)


def test_single_parameter_ridge_closed_form():
    """min (x - 1)^2 + x^2 has the solution x = 1/2."""
    design = np.array([[1.0]])
    target = np.array([[1.0]])
    ops = solve_opinf(design, target, 1.0)
    assert np.isclose(ops.a[0, 0], 0.5, rtol=1e-12)
    assert ops.h is None


def test_zero_regularisation_reproduces_least_squares(rng):
    m, r = 40, 3
    states = rng.standard_normal((r, m))
    a_true = rng.standard_normal((r, r))
    derivs = a_true @ states
    design, target = assemble_regression(states, derivs, np.zeros(m), None, False)
    ops = solve_opinf(design, target, 0.0)
    assert np.allclose(ops.a, a_true, rtol=1e-10, atol=1e-12)


def test_exact_recovery_of_all_blocks(rng):
    """Noise-free data generated by known operators is recovered exactly."""
    r, m = 4, 120
    q = quadratic_size(r)
    a_true = rng.standard_normal((r, r))
    h_true = 0.3 * rng.standard_normal((r, q))
    states = rng.standard_normal((r, m))
    derivs = a_true @ states + h_true @ sym_kron(states)
    design, target = assemble_regression(states, derivs, np.ones(m), None, True)
    ops = solve_opinf(design, target, 0.0)
    assert np.allclose(ops.a, a_true, rtol=1e-8, atol=1e-10)
    assert np.allclose(ops.h, h_true, rtol=1e-8, atol=1e-10)


def test_regularisation_shrinks_coefficients(rng):
    m, r = 30, 3
    states = rng.standard_normal((r, m))
    derivs = rng.standard_normal((r, m))
    design, target = assemble_regression(states, derivs, np.zeros(m), None, False)
    loose = solve_opinf(design, target, 1e-8)
    tight = solve_opinf(design, target, 1e4)
    assert np.linalg.norm(tight.a) < 1e-2 * np.linalg.norm(loose.a)


def test_source_term_is_subtracted_from_target(rng):
    from morcal.deim import DeimOperators, reduced_arrhenius

    r, s, m = 3, 2, 10
    ops = DeimOperators(
        indices=np.arange(s),
        p1=rng.standard_normal((r, s)),
        p2=0.01 * rng.standard_normal((s, r)),
        arrhenius_prefactor=5000.0,
        arrhenius_exponent=1500.0,
        unscale_scale=np.full(s, 40.0),
        unscale_shift=np.full(s, 533.15),
    )
    states = 0.1 * rng.standard_normal((r, m))
    derivs = rng.standard_normal((r, m))
    controls = rng.uniform(0.5, 1.5, m)
    _, target_with = assemble_regression(states, derivs, controls, ops, False)
    _, target_without = assemble_regression(states, derivs, controls, None, False)
    source = reduced_arrhenius(ops, states, controls)
    assert np.allclose(target_without - target_with, source.T, rtol=1e-12)


def test_missing_derivatives_is_a_data_error(rng):
    with pytest.raises(DataError):
        assemble_regression(rng.standard_normal((3, 5)), None, np.zeros(5), None, True)


def test_rank_deficient_without_regularisation_raises(rng):
    states = np.zeros((3, 12))
    states[0, :] = rng.standard_normal(12)  # two silent directions
    design, target = assemble_regression(states, np.zeros((3, 12)), np.zeros(12), None, False)
    with pytest.raises(NumericError):
        solve_opinf(design, target, 0.0)


def test_layout_inference_without_config(rng):
    """The block layout is read from the design's column count."""
    r, m = 3, 25
    states = rng.standard_normal((r, m))
    derivs = rng.standard_normal((r, m))
    for quadratic in (True, False):
        design, target = assemble_regression(states, derivs, np.ones(m), None, quadratic)
        ops = solve_opinf(design, target, 0.5)
        assert ops.a.shape == (r, r)
        assert (ops.h is not None) == quadratic
        if quadratic:
            assert ops.h.shape == (r, quadratic_size(r))
    # one column more than the quadratic layout was the input block: refused
    with pytest.raises(DataError):
        solve_opinf(np.hstack([design, np.ones((m, 1))]), target, 0.5)
    with pytest.raises(DataError):
        assemble_regression(states, derivs, np.ones((m, 2)), None, True)


def test_operator_container_validation(rng):
    with pytest.raises(DataError):
        RomOperators(a=rng.standard_normal((3, 2)), h=None)
    with pytest.raises(DataError):
        RomOperators(a=np.full((2, 2), np.nan), h=None)
    with pytest.raises(DataError):
        RomOperators(a=np.eye(3), h=rng.standard_normal((3, 5)))
