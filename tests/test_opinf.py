"""Regression assembly and the ridge solver."""

import numpy as np
import pytest

from morcal.errors import ConfigError, DataError, NumericError
from morcal.opinf import RomOperators, assemble_regression, solve_opinf
from oracles import no_source


def test_single_parameter_ridge_closed_form():
    """min (x - 1)^2 + x^2 has the solution x = 1/2."""
    design = np.array([[1.0]])
    target = np.array([[1.0]])
    ops = solve_opinf(design, target, 1.0)
    assert np.isclose(ops.a[0, 0], 0.5, rtol=1e-12)


def test_zero_regularisation_reproduces_least_squares(rng):
    m, r = 40, 3
    states = rng.standard_normal((r, m))
    a_true = rng.standard_normal((r, r))
    derivs = a_true @ states
    design, target = assemble_regression(states, derivs, np.zeros(m), no_source(r))
    ops = solve_opinf(design, target, 0.0)
    assert np.allclose(ops.a, a_true, rtol=1e-10, atol=1e-12)


def test_regularisation_shrinks_coefficients(rng):
    m, r = 30, 3
    states = rng.standard_normal((r, m))
    derivs = rng.standard_normal((r, m))
    design, target = assemble_regression(states, derivs, np.zeros(m), no_source(r))
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
    _, target_with = assemble_regression(states, derivs, controls, ops)
    _, target_without = assemble_regression(states, derivs, controls, no_source(r))
    source = reduced_arrhenius(ops, states, controls)
    assert np.allclose(target_without - target_with, source.T, rtol=1e-12)


def test_missing_derivatives_is_a_data_error(rng):
    with pytest.raises(DataError):
        assemble_regression(rng.standard_normal((3, 5)), None, np.zeros(5), no_source(3))


def test_rank_deficient_without_regularisation_raises(rng):
    states = np.zeros((3, 12))
    states[0, :] = rng.standard_normal(12)  # two silent directions
    design, target = assemble_regression(states, np.zeros((3, 12)), np.zeros(12), no_source(3))
    with pytest.raises(NumericError):
        solve_opinf(design, target, 0.0)


def test_design_with_more_or_fewer_than_r_columns_is_refused(rng):
    """The design holds one column per reduced coordinate, nothing else."""
    r, m = 3, 25
    states = rng.standard_normal((r, m))
    derivs = rng.standard_normal((r, m))
    design, target = assemble_regression(states, derivs, np.ones(m), no_source(r))
    assert design.shape == (m, r)
    assert solve_opinf(design, target, 0.5).a.shape == (r, r)
    for cols in (design[:, :-1], np.hstack([design, design[:, :1] ** 2])):
        with pytest.raises(DataError):
            solve_opinf(cols, target, 0.5)
    with pytest.raises(DataError):
        assemble_regression(states, derivs, np.ones((m, 2)), no_source(r))


def test_operator_container_validation(rng):
    with pytest.raises(DataError):
        RomOperators(a=rng.standard_normal((3, 2)))
    with pytest.raises(DataError):
        RomOperators(a=np.full((2, 2), np.nan))
