"""Rollout, objective, adjoint gradient, tangent sweep, and the Levenberg-Marquardt loop."""

import importlib
import logging
import math

import numpy as np
import pytest

from morcal.calibrate import (
    CalibrationProblem,
    OptimizerConfig,
    adjoint_gradient,
    calibrate,
    forward_rollout,
    objective,
)
from morcal.deim import DeimOperators
from morcal.errors import ConfigError, DataError, NumericError
from morcal.opinf import RomOperators
from oracles import arrhenius_jacobian, no_source, theta

# The module itself: the package attribute ``morcal.calibrate`` is the function.
calibrate_mod = importlib.import_module("morcal.calibrate")

# Hand-stepped mismatch for a = 0.5, dt = 0.1, s0 = 1, targets (1, 1.2, 1.1):
# states 1.05 and 1.1025, squared errors 0.0225 and 0.00000625.
HAND_OBJECTIVE = 0.022506249999999974


def _linear_ops(a):
    return RomOperators(a=np.atleast_2d(np.asarray(a, dtype=float)))


def _deim_ops(rng, r, s=3):
    # prefactor chosen so the source stays O(1) on reduced states of O(1);
    # exp(1500 / 533.15) is about 16.7
    return DeimOperators(
        indices=np.arange(s),
        p1=0.1 * rng.standard_normal((r, s)),
        p2=0.01 * rng.standard_normal((s, r)),
        arrhenius_prefactor=1.0,
        arrhenius_exponent=1500.0,
        unscale_scale=np.full(s, 40.0),
        unscale_shift=np.full(s, 533.15),
    )


def test_rollout_matches_geometric_closed_form():
    alpha, dt, k = -0.3, 0.05, 10
    out = forward_rollout(_linear_ops([[alpha]]), no_source(1), np.array([2.0]), np.zeros(k), dt, k)
    assert out.shape == (1, k + 1)
    want = 2.0 * (1.0 + dt * alpha) ** np.arange(k + 1)
    assert np.allclose(out[0, :], want, rtol=1e-13)


def test_rollout_without_source_is_the_linear_euler_step(rng):
    """no_source adds exactly zero: each step is (I + dt a) s, bit for bit."""
    r, dt, k = 3, 0.05, 12
    ops = _random_ops(rng, r)
    s = rng.standard_normal(r)
    want = [s]
    for _ in range(k):
        want.append((np.eye(r) + dt * ops.a) @ want[-1])
    out = forward_rollout(ops, no_source(r), s, rng.uniform(0.5, 1.5, k), dt, k)
    assert np.array_equal(out, np.column_stack(want))


def test_rollout_uses_left_endpoint_controls(rng):
    """Heat load j drives the step from state j to state j+1."""
    r = 2
    ops = RomOperators(a=np.zeros((r, r)))
    # A zero exponent makes the sampled source R * p1, whatever the state.
    deim = DeimOperators(
        indices=np.arange(1),
        p1=np.array([[1.0], [0.0]]),
        p2=np.zeros((1, r)),
        arrhenius_prefactor=1.0,
        arrhenius_exponent=0.0,
        unscale_scale=np.ones(1),
        unscale_shift=np.full(1, 533.15),
    )
    controls = np.zeros(3)
    controls[0] = 5.0  # only the first step sees this load
    out = forward_rollout(ops, deim, np.zeros(r), controls, 0.1, 3)
    assert np.allclose(out[:, 1], [0.5, 0.0])
    assert np.allclose(out[:, 3], [0.5, 0.0])


def test_rollout_aborts_on_blowup():
    ops = _linear_ops([[1e8]])
    with pytest.raises(NumericError) as err:
        forward_rollout(ops, no_source(1), np.array([1e300]), np.zeros(5), 1.0, 5)
    assert "step" in str(err.value)


def test_theta_assembles_all_terms(rng):
    r = 3
    ops = RomOperators(a=rng.standard_normal((r, r)))
    deim = _deim_ops(rng, r)
    s = 0.1 * rng.standard_normal(r)
    load = 1.2
    from morcal.deim import reduced_arrhenius

    want = ops.a @ s + reduced_arrhenius(deim, s, load)
    assert np.allclose(theta(ops, deim, s, load), want, rtol=1e-13)


def test_objective_hand_computed_value():
    problem = CalibrationProblem(
        reduced_trajectories=[np.array([[1.0, 1.2, 1.1]])],
        controls=[np.zeros(3)],
        dt=0.1,
        deim=no_source(1),
    )
    got = objective(_linear_ops([[0.5]]), problem)
    assert math.isclose(got, HAND_OBJECTIVE, rel_tol=1e-14)


def test_objective_is_infinite_when_rollout_fails():
    problem = CalibrationProblem(
        reduced_trajectories=[np.array([[1e300, 1.0, 1.0]])],
        controls=[np.zeros(3)],
        dt=1.0,
        deim=no_source(1),
    )
    assert objective(_linear_ops([[1e8]]), problem) == math.inf


def _random_problem(rng, r=3, k=40, l=2, with_deim=True):
    deim = _deim_ops(rng, r) if with_deim else no_source(r)
    trajectories = []
    controls = []
    for _ in range(l):
        trajectories.append(0.2 * rng.standard_normal((r, k + 1)))
        controls.append(rng.uniform(0.5, 1.5, k + 1))
    return CalibrationProblem(
        reduced_trajectories=trajectories,
        controls=controls,
        dt=0.05,
        deim=deim,
    )


def _random_ops(rng, r=3):
    return RomOperators(a=0.1 * rng.standard_normal((r, r)))


def _fd_gradient(ops, problem):
    """Central differences over every entry of a."""
    g = np.zeros_like(ops.a)
    for idx in np.ndindex(g.shape):
        h = 1e-6 * (1.0 + abs(ops.a[idx]))
        plus = RomOperators(a=ops.a.copy())
        plus.a[idx] += h
        minus = RomOperators(a=ops.a.copy())
        minus.a[idx] -= h
        g[idx] = (objective(plus, problem) - objective(minus, problem)) / (2.0 * h)
    return g


def test_adjoint_gradient_matches_finite_differences(rng):
    problem = _random_problem(rng)
    ops = _random_ops(rng)
    got = adjoint_gradient(ops, problem).a
    want = _fd_gradient(ops, problem)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 1e-5, f"relative gradient mismatch {rel:.3e}"


def test_gradient_doubles_with_duplicated_trajectory(rng):
    problem = _random_problem(rng, l=1)
    ops = _random_ops(rng)
    single = adjoint_gradient(ops, problem).a
    doubled_problem = CalibrationProblem(
        reduced_trajectories=problem.reduced_trajectories * 2,
        controls=problem.controls * 2,
        dt=problem.dt,
        deim=problem.deim,
    )
    doubled = adjoint_gradient(ops, doubled_problem).a
    assert np.allclose(doubled, 2.0 * single, rtol=1e-12)


def _reference_objective_and_gradient(ops, problem):
    """Per-trajectory rollout and adjoint built from theta and its jacobian."""
    dt, deim = problem.dt, problem.deim
    total = 0.0
    grad_a = np.zeros_like(ops.a)
    rollouts = []
    for data, ctrl in zip(problem.reduced_trajectories, problem.controls):
        k = data.shape[1] - 1
        states = [data[:, 0]]
        for j in range(k):
            states.append(states[-1] + dt * theta(ops, deim, states[-1], ctrl[j]))
        rolled = np.column_stack(states)
        rollouts.append(rolled)
        diff = rolled - data
        total += float(np.sum(diff ** 2))
        mu = 2.0 * diff[:, k]
        for j in range(k - 1, -1, -1):
            s = rolled[:, j]
            grad_a += dt * np.outer(mu, s)
            if j > 0:
                jac = ops.a + arrhenius_jacobian(deim, s, ctrl[j])
                mu = 2.0 * diff[:, j] + mu + dt * (jac.T @ mu)
    return total, RomOperators(a=grad_a), rollouts


def test_batched_kernel_matches_per_trajectory_reference_on_ragged_lengths(rng):
    r = 4
    trajectories, controls = [], []
    for k in (40, 25, 40, 12, 25):
        trajectories.append(0.2 * rng.standard_normal((r, k + 1)))
        controls.append(rng.uniform(0.5, 1.5, k + 1))
    problem = CalibrationProblem(
        reduced_trajectories=trajectories, controls=controls, dt=0.05, deim=_deim_ops(rng, r)
    )
    assert [batch.data.shape for batch in problem.batches] == [(41, r, 2), (26, r, 2), (13, r, 1)]
    ops = _random_ops(rng, r=r)
    want_f, want_grad, want_rollouts = _reference_objective_and_gradient(ops, problem)

    assert math.isclose(objective(ops, problem), want_f, rel_tol=1e-12)
    got, want = adjoint_gradient(ops, problem).a, want_grad.a
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    for data, ctrl, want in zip(problem.reduced_trajectories, problem.controls, want_rollouts):
        k = data.shape[1] - 1
        got = forward_rollout(ops, problem.deim, data[:, 0], ctrl, problem.dt, k)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_rollout_guards_name_the_failing_step():
    # Temperatures 8, 4, 2, 1: state 3 fails the range check in step 4.
    deim = DeimOperators(
        indices=np.arange(1),
        p1=np.zeros((1, 1)),
        p2=np.ones((1, 1)),
        arrhenius_prefactor=1.0,
        arrhenius_exponent=1.0,
        unscale_scale=np.ones(1),
        unscale_shift=np.zeros(1),
    )
    with pytest.raises(NumericError, match="temperature .* at rollout step 4 "):
        forward_rollout(_linear_ops([[-1.0]]), deim, np.array([8.0]), np.ones(6), 0.5, 6)
    # States 1e250, 1e300, inf: the third step leaves the finite range.
    with pytest.raises(NumericError, match="non-finite reduced state at rollout step 3$"):
        forward_rollout(_linear_ops([[1e50]]), no_source(1), np.array([1e200]), np.zeros(5), 1.0, 5)


@pytest.fixture
def sweep_counters(monkeypatch):
    """Trajectories swept forward, backward and by tangents, counted around the kernels.

    A forward sweep steps a stack of trajectories, one per column of its
    start state; a gradient sweeps every training trajectory backward once,
    and J^T J with J^T res sweeps every training trajectory's tangents once.
    """
    counts = {"forward": 0, "backward": 0, "tangent": 0}
    forward, gradient = calibrate_mod._forward, calibrate_mod._gradient
    tangent = calibrate_mod._tangent

    def counting_forward(f, s0, heat):
        counts["forward"] += s0.shape[1]
        return forward(f, s0, heat)

    def counting_gradient(ev, problem):
        counts["backward"] += sum(batch.data.shape[2] for batch in problem.batches)
        return gradient(ev, problem)

    def counting_tangent(ev, problem):
        counts["tangent"] += sum(batch.data.shape[2] for batch in problem.batches)
        return tangent(ev, problem)

    monkeypatch.setattr(calibrate_mod, "_forward", counting_forward)
    monkeypatch.setattr(calibrate_mod, "_gradient", counting_gradient)
    monkeypatch.setattr(calibrate_mod, "_tangent", counting_tangent)
    return counts


def test_calibrate_sweeps_forward_once_per_evaluation_and_tangent_once_per_iterate(
    rng, sweep_counters
):
    problem = _random_problem(rng, l=3)
    ops = _random_ops(rng)
    _, report = calibrate(ops, problem, OptimizerConfig(max_iterations=6))
    assert report.iterations == 6 and report.evaluations >= report.iterations + 1
    assert sweep_counters == {
        "forward": 3 * report.evaluations,
        "backward": 0,
        "tangent": 3 * (report.iterations + 1),
    }


def test_gradient_costs_one_forward_one_backward_per_trajectory(rng, sweep_counters):
    problem = _random_problem(rng, l=3)
    ops = _random_ops(rng)
    adjoint_gradient(ops, problem)
    assert sweep_counters == {"forward": 3, "backward": 3, "tangent": 0}


def test_objective_costs_forward_sweeps_only(rng, sweep_counters):
    problem = _random_problem(rng, l=2)
    ops = _random_ops(rng)
    objective(ops, problem)
    assert sweep_counters == {"forward": 2, "backward": 0, "tangent": 0}


def _ragged_problem(rng, r=4):
    """Sampled source and two trajectory lengths, so two batches."""
    trajectories, controls = [], []
    for k in (30, 18, 30):
        trajectories.append(0.2 * rng.standard_normal((r, k + 1)))
        controls.append(rng.uniform(0.5, 1.5, k + 1))
    return CalibrationProblem(
        reduced_trajectories=trajectories, controls=controls, dt=0.05, deim=_deim_ops(rng, r)
    )


def test_tangent_sweep_gradient_equals_adjoint_gradient(rng):
    problem = _ragged_problem(rng)
    assert len(problem.batches) == 2
    ops = _random_ops(rng, r=4)
    _, jtr = calibrate_mod._tangent(calibrate_mod._Evaluation(ops, problem), problem)
    want = adjoint_gradient(ops, problem).a.ravel()
    assert np.linalg.norm(2.0 * jtr - want) <= 1e-12 * np.linalg.norm(want)


def test_tangent_sweep_normal_matrix_matches_finite_difference_jacobian(rng):
    problem = _ragged_problem(rng, r=3)
    ops = _random_ops(rng)

    def residuals(a):
        ev = calibrate_mod._Evaluation(RomOperators(a=a.reshape(3, 3)), problem)
        return np.concatenate([res.ravel() for res in ev.residuals])

    x = ops.a.ravel()
    jac = np.empty((residuals(x).size, x.size))
    for c in range(x.size):
        h = np.zeros_like(x)
        h[c] = 1e-6
        jac[:, c] = (residuals(x + h) - residuals(x - h)) / 2e-6
    jtj, _ = calibrate_mod._tangent(calibrate_mod._Evaluation(ops, problem), problem)
    assert np.allclose(jtj, jtj.T, rtol=0.0, atol=1e-12 * np.abs(jtj).max())
    assert np.linalg.norm(jtj - jac.T @ jac) <= 1e-6 * np.linalg.norm(jtj)


def _self_consistent_problem(rng, r=2, k=30):
    """Data generated by known operators, so the optimum has zero residual."""
    true_ops = RomOperators(a=np.array([[-0.4, 0.2], [0.1, -0.5]]))
    controls = np.ones(k + 1)
    states = forward_rollout(true_ops, no_source(r), np.array([1.0, -0.5]), controls, 0.1, k)
    problem = CalibrationProblem(
        reduced_trajectories=[states],
        controls=[controls],
        dt=0.1,
        deim=no_source(r),
    )
    return true_ops, problem


def test_calibrate_recovers_perturbed_operators(rng):
    true_ops, problem = _self_consistent_problem(rng)
    start = RomOperators(a=true_ops.a + 0.05 * rng.standard_normal(true_ops.a.shape))
    f0 = objective(start, problem)
    fitted, report = calibrate(
        start, problem, OptimizerConfig(max_iterations=400, gradient_tolerance=1e-12)
    )
    f1 = objective(fitted, problem)
    assert f1 < 1e-6 * f0
    assert report.status in ("converged", "max_iterations")


def test_calibrate_stalls_when_the_damped_step_no_longer_moves(rng):
    """A realizable fit with no gradient tolerance: at round-off no step decreases."""
    true_ops, problem = _self_consistent_problem(rng)
    start = RomOperators(a=true_ops.a + 0.05 * rng.standard_normal(true_ops.a.shape))
    fitted, report = calibrate(
        start, problem, OptimizerConfig(max_iterations=400, gradient_tolerance=0.0)
    )
    assert report.status == "stalled"
    assert report.iterations < 400
    assert report.objective_history[-1] < 1e-20 * report.objective_history[0]
    assert np.all(np.diff(report.objective_history) < 0.0)
    assert np.allclose(fitted.a, true_ops.a, rtol=0.0, atol=1e-10)
    # Only rejected candidates raise the damping until the step vanishes.
    assert report.evaluations > report.iterations + 1


def test_calibrate_stops_on_a_small_decrease(rng):
    """Noisy data leave a nonzero minimum that the steps approach ever more slowly."""
    problem = _random_problem(rng, l=3)
    _, report = calibrate(
        _random_ops(rng), problem, OptimizerConfig(max_iterations=400, gradient_tolerance=0.0)
    )
    assert report.status == "small_decrease"
    assert report.iterations < 400
    f = report.objective_history
    assert (f[-2] - f[-1]) < calibrate_mod.SMALL_DECREASE * f[-2]
    assert all(a - b >= calibrate_mod.SMALL_DECREASE * a for a, b in zip(f[:-2], f[1:-1]))


def test_calibrate_keeps_entries_that_move_no_state():
    """A state component that is zero throughout gives zero columns in J."""
    k = 20
    data = np.zeros((2, k + 1))
    data[0] = 0.9 ** np.arange(k + 1)
    problem = CalibrationProblem(
        reduced_trajectories=[data], controls=[np.zeros(k + 1)], dt=1.0, deim=no_source(2)
    )
    start = np.diag([-0.2, -0.3])
    fitted, report = calibrate(_linear_ops(start), problem, OptimizerConfig(max_iterations=50))
    assert report.status == "converged"
    assert abs(fitted.a[0, 0] - (-0.1)) < 1e-10
    assert np.array_equal(fitted.a[:, 1], start[:, 1]) and fitted.a[1, 0] == 0.0


def test_calibrate_logs_diverging_candidates_below_warning(caplog):
    """The first damped steps of this exponential fit overflow the rollout."""
    k = 200
    states = forward_rollout(
        _linear_ops([[0.05]]), no_source(1), np.array([1.0]), np.zeros(k), 1.0, k
    )
    problem = CalibrationProblem(
        reduced_trajectories=[states], controls=[np.zeros(k + 1)], dt=1.0, deim=no_source(1)
    )
    with caplog.at_level(logging.DEBUG, logger="morcal.calibrate"):
        fitted, report = calibrate(
            _linear_ops([[-0.99]]), problem, OptimizerConfig(max_iterations=50)
        )
    failed = [rec for rec in caplog.records if "rollout failed" in rec.getMessage()]
    assert failed and all(rec.levelno == logging.INFO for rec in failed)
    assert not [rec for rec in caplog.records if rec.levelno >= logging.WARNING]
    assert report.dampings[1] > calibrate_mod.INITIAL_DAMPING
    assert abs(fitted.a[0, 0] - 0.05) < 1e-8


def test_calibrate_descends_monotonically(rng):
    problem = _random_problem(rng, r=2, k=20, l=1, with_deim=False)
    ops = _random_ops(rng, r=2)
    _, report = calibrate(ops, problem, OptimizerConfig(max_iterations=30))
    diffs = np.diff(report.objective_history)
    assert np.all(diffs <= 1e-14)


def test_calibrate_stops_immediately_at_a_minimum():
    """Data already generated by the starting operators: gradient is zero."""
    ops = _linear_ops([[-0.2]])
    states = forward_rollout(ops, no_source(1), np.array([1.0]), np.zeros(10), 0.1, 10)
    problem = CalibrationProblem(
        reduced_trajectories=[states],
        controls=[np.zeros(11)],
        dt=0.1,
        deim=no_source(1),
    )
    fitted, report = calibrate(ops, problem, OptimizerConfig(max_iterations=50))
    assert report.status == "converged"
    assert report.iterations == 0
    assert np.array_equal(fitted.a, ops.a)


@pytest.mark.parametrize("offset, status", [(0.0, "converged"), (0.01, "max_iterations")])
def test_calibrate_without_iterations_converges_only_at_a_zero_gradient(offset, status):
    """max_iterations = 0 returns the start; only a zero gradient there is converged."""
    ops = _linear_ops([[-0.2]])
    states = forward_rollout(ops, no_source(1), np.array([1.0]), np.zeros(10), 0.1, 10)
    problem = CalibrationProblem(
        reduced_trajectories=[states + offset],
        controls=[np.zeros(11)],
        dt=0.1,
        deim=no_source(1),
    )
    fitted, report = calibrate(ops, problem, OptimizerConfig(max_iterations=0))
    assert (report.gradient_norms[0] == 0.0) == (offset == 0.0)
    assert report.status == status
    assert report.iterations == 0
    assert np.array_equal(fitted.a, ops.a)


def test_calibrate_rejects_non_finite_start():
    problem = CalibrationProblem(
        reduced_trajectories=[np.array([[1e300, 1.0, 1.0]])],
        controls=[np.zeros(3)],
        dt=1.0,
        deim=no_source(1),
    )
    with pytest.raises(NumericError):
        calibrate(_linear_ops([[1e8]]), problem)


def test_convergence_report_csv(tmp_path):
    report_path = tmp_path / "conv.csv"
    ops = _linear_ops([[-0.2]])
    states = forward_rollout(ops, no_source(1), np.array([1.0]), np.zeros(10), 0.1, 10)
    problem = CalibrationProblem(
        reduced_trajectories=[states + 0.01],
        controls=[np.zeros(11)],
        dt=0.1,
        deim=no_source(1),
    )
    _, report = calibrate(ops, problem, OptimizerConfig(max_iterations=5))
    report.write_csv(report_path)
    lines = report_path.read_text().splitlines()
    assert lines[0] == "iteration,objective,gradient_norm,damping"
    assert len(lines) == len(report.objective_history) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == report.objective_history[0]
    assert float(first[3]) == 0.0
    assert [float(line.split(",")[3]) for line in lines[2:]] == report.dampings[1:]
    assert all(mu > 0.0 for mu in report.dampings[1:])


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(max_iterations=-1)
    with pytest.raises(ConfigError):
        OptimizerConfig(gradient_tolerance=-1.0)


def test_problem_validation():
    with pytest.raises(DataError):
        CalibrationProblem(reduced_trajectories=[], controls=[], dt=1.0, deim=no_source(2))
    with pytest.raises(DataError):
        CalibrationProblem(
            reduced_trajectories=[np.zeros((2, 5))],
            controls=[np.zeros(4)],
            dt=1.0,
            deim=no_source(2),
        )
    with pytest.raises(DataError):
        CalibrationProblem(
            reduced_trajectories=[np.zeros((2, 5))],
            controls=[np.zeros((5, 2))],
            dt=1.0,
            deim=no_source(2),
        )
