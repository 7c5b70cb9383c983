"""Trajectory-fit calibration of reduced operators.

Operator inference matches time derivatives; this module instead minimises
the squared mismatch between explicit Euler rollouts of the reduced model
and the projected training trajectories,

    sum_i sum_j | s~_j^i - s_j^i |^2,   s~_j = s~_{j-1} + dt * f(s~_{j-1}, R_{j-1}),

with f(s, R) = a s + source(s, R), over the entries of the linear operator
a; the sampled source term of the heat load R stays fixed.  This nonlinear
least-squares problem is solved by Levenberg-Marquardt (More 1978; Nocedal
& Wright, Numerical Optimization, ch. 10).  Each iteration solves
(J^T J + mu diag(J^T J)) delta = -J^T res, with J^T J and J^T res summed by
one forward tangent sweep per trajectory stack.  A step is accepted only if
it strictly lowers the objective, and then mu /= DAMPING_FACTOR; otherwise,
a failed rollout included, mu *= DAMPING_FACTOR and the step is solved
again.  The report's status names the rule that ended the run:

- ``converged``: the gradient 2 J^T res is at most ``gradient_tolerance``
  times its initial norm;
- ``small_decrease``: an accepted step gained less than SMALL_DECREASE of
  the objective;
- ``stalled``: the damped step changes no entry of a;
- ``max_iterations``: the iteration budget ran out.

One rollout kernel serves calibration and evaluation alike: the operators
are folded with the step size once per operator set, and trajectories of
equal length are stepped together as the columns of one state stack.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from morcal.deim import MIN_TEMPERATURE, DeimOperators
from morcal.errors import ConfigError, DataError, NumericError
from morcal.opinf import RomOperators
from morcal.pod import PodBasis, project
from morcal.snapshots import SnapshotSet, apply_scaling
from morcal.textio import fmt_float

__all__ = [
    "CalibrationProblem",
    "OptimizerConfig",
    "ConvergenceReport",
    "forward_rollout",
    "objective",
    "adjoint_gradient",
    "calibrate",
    "build_calibration_problem",
]

logger = logging.getLogger(__name__)

INITIAL_DAMPING = 1e-3
DAMPING_FACTOR = 10.0
SMALL_DECREASE = 1e-6


@dataclass
class CalibrationProblem:
    """Reduced training trajectories with heat loads and step size."""

    reduced_trajectories: list  # each (r, k_i + 1)
    controls: list  # each (k_i + 1,) heat load R per state
    dt: float
    deim: DeimOperators = field(repr=False)
    batches: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if not self.reduced_trajectories:
            raise DataError("calibration needs at least one trajectory")
        if len(self.controls) != len(self.reduced_trajectories):
            raise DataError("one control sequence per trajectory required")
        r = np.asarray(self.reduced_trajectories[0]).shape[0]
        for traj, ctrl in zip(self.reduced_trajectories, self.controls):
            traj = np.asarray(traj)
            ctrl = np.asarray(ctrl)
            if traj.ndim != 2 or traj.shape[0] != r or traj.shape[1] < 2:
                raise DataError("each trajectory must be (r, k+1) with k >= 1")
            if ctrl.shape != (traj.shape[1],):
                raise DataError("controls must provide one heat load per state")
        self.batches = _batches(self.reduced_trajectories, self.controls)

    @property
    def r(self) -> int:
        return np.asarray(self.reduced_trajectories[0]).shape[0]


@dataclass
class OptimizerConfig:
    """Levenberg-Marquardt stopping settings."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8  # relative to the initial gradient norm

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be nonnegative")
        if self.gradient_tolerance < 0.0:
            raise ConfigError("gradient_tolerance must be nonnegative")


@dataclass
class ConvergenceReport:
    """Per-iteration optimisation record."""

    status: str
    objective_history: list
    gradient_norms: list
    dampings: list  # the damping mu that produced each accepted step; 0 at the start
    evaluations: int  # objective evaluations, start point and rejected candidates included

    @property
    def iterations(self) -> int:
        return len(self.objective_history) - 1

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iteration,objective,gradient_norm,damping\n")
            for i, (obj, g, mu) in enumerate(
                zip(self.objective_history, self.gradient_norms, self.dampings)
            ):
                fh.write(f"{i},{fmt_float(obj)},{fmt_float(g)},{fmt_float(mu)}\n")


@dataclass
class _Folded:
    """One operator set with the step size folded in.

    An explicit Euler step of a state stack S (one column per trajectory) is

        T = p2f S + shift,   E = exp(exponent / T),
        S <- ad S + p1d (E * R).
    """

    ad: np.ndarray  # I + dt a
    p1d: np.ndarray  # dt prefactor p1
    p2f: np.ndarray  # unscale_scale p2
    shift: np.ndarray  # (s, 1) unscale_shift
    exponent: float


def _fold(ops: RomOperators, deim_ops: DeimOperators, dt: float) -> _Folded:
    return _Folded(
        ad=np.eye(ops.r) + dt * ops.a,
        p1d=(dt * deim_ops.arrhenius_prefactor) * deim_ops.p1,
        p2f=deim_ops.unscale_scale[:, None] * deim_ops.p2,
        shift=deim_ops.unscale_shift[:, None],
        exponent=deim_ops.arrhenius_exponent,
    )


@dataclass
class _Batch:
    """Equal-length trajectories stacked column-wise, step index first."""

    data: np.ndarray  # (k + 1, r, L) reduced training states
    heat: np.ndarray  # (k, L) heat load R driving each step


def _batches(trajectories, controls) -> list:
    """Group trajectories by length; one batch per distinct length, first-seen order."""
    groups: dict = {}
    for traj, ctrl in zip(trajectories, controls):
        traj = np.asarray(traj, dtype=float)
        groups.setdefault(traj.shape[1], []).append((traj, np.asarray(ctrl, dtype=float)))
    out = []
    for members in groups.values():
        k = members[0][0].shape[1] - 1
        out.append(
            _Batch(
                data=np.ascontiguousarray(np.stack([t.T for t, _ in members], axis=2)),
                heat=np.stack([c[:k] for _, c in members], axis=1),
            )
        )
    return out


@dataclass
class _Sweep:
    """A forward sweep of one batch, kept for its tangent or backward sweep."""

    states: np.ndarray  # (k + 1, r, L)
    temperatures: np.ndarray  # (k, s, L) sampled temperatures of states 0..k-1
    sources: np.ndarray  # (k, s, L) exp(exponent / temperatures)


@np.errstate(over="ignore", invalid="ignore")
def _forward(f: _Folded, s0: np.ndarray, heat: np.ndarray) -> _Sweep:
    """Explicit Euler rollout of the state stack s0 (r, L) over len(heat) steps.

    Every step checks the sampled temperatures against MIN_TEMPERATURE and
    the new states for finiteness; either failure raises a NumericError
    naming the step, so an overflow on the way raises no RuntimeWarning.
    """
    k, width = heat.shape
    states = np.empty((k + 1, s0.shape[0], width))
    states[0] = s0
    temperatures = np.empty((k, f.p2f.shape[0], width))
    sources = np.empty_like(temperatures)
    for j in range(k):
        s, nxt = states[j], states[j + 1]
        np.matmul(f.ad, s, out=nxt)
        t = np.matmul(f.p2f, s, out=temperatures[j])
        t += f.shift
        if not t.min() > MIN_TEMPERATURE:
            raise NumericError(
                f"sampled temperature dropped to {float(t.min()):.3g} K at rollout step "
                f"{j + 1} (limit {MIN_TEMPERATURE:g} K); the reduced trajectory left "
                "the trusted range"
            )
        e = np.divide(f.exponent, t, out=sources[j])
        np.exp(e, out=e)
        nxt += f.p1d @ (e * heat[j])
        if not math.isfinite(float(nxt.sum())):
            raise NumericError(f"non-finite reduced state at rollout step {j + 1}")
    return _Sweep(states=states, temperatures=temperatures, sources=sources)


def forward_rollout(
    ops: RomOperators,
    deim_ops: DeimOperators,
    s0: np.ndarray,
    controls: np.ndarray,
    dt: float,
    k: int,
) -> np.ndarray:
    """Explicit Euler rollout over k steps; returns all k+1 states (r, k+1).

    Heat loads are sampled left-continuously: ``controls[j]`` drives the
    step from state j to state j+1.  A non-finite state, or a sampled
    temperature at or below MIN_TEMPERATURE, aborts with a NumericError
    naming the step.
    """
    s0 = np.asarray(s0, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if k < 1:
        raise ConfigError("rollout needs at least one step")
    if controls.ndim != 1 or controls.shape[0] < k:
        raise DataError("controls must hold at least k heat loads")
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    sweep = _forward(_fold(ops, deim_ops, dt), s0[:, None], controls[:k, None])
    return sweep.states[:, :, 0].T.copy()


class _Evaluation:
    """Objective of one operator set, with the forward sweeps it came from."""

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, ops: RomOperators, problem: "CalibrationProblem"):
        self.ops = ops
        self.folded = _fold(ops, problem.deim, problem.dt)
        self.sweeps = [
            _forward(self.folded, batch.data[0], batch.heat)
            for batch in problem.batches
        ]
        self.residuals = [sw.states - b.data for sw, b in zip(self.sweeps, problem.batches)]
        self.value = sum(float(np.sum(res ** 2)) for res in self.residuals)


def objective(ops: RomOperators, problem: CalibrationProblem) -> float:
    """Total squared trajectory mismatch; infinite when a rollout fails."""
    try:
        return _Evaluation(ops, problem).value
    except NumericError as exc:
        logger.warning("rollout failed during objective evaluation: %s", exc)
        return math.inf


def _source_weights(f: _Folded, sweep: _Sweep, heat: np.ndarray) -> np.ndarray:
    """w_j = R_j E_j (-exponent / T_j^2), (k, s, L).

    The sampled source p1d (E_j * R_j) changes by p1d (w_j * (p2f v)) along a
    state change v.
    """
    return sweep.sources * (-f.exponent / sweep.temperatures ** 2) * heat[:, None, :]


def _gradient(ev: _Evaluation, problem: CalibrationProblem) -> RomOperators:
    """One backward (adjoint) sweep per batch over the stored forward sweeps.

    The adjoint recursion runs backwards from the final step:

        mu_k = 2 (s~_k - s_k)
        mu_j = 2 (s~_j - s_j) + (I + dt J(s~_j, R_j))^T mu_{j+1}

    where J is the state Jacobian of f, so (I + dt J)^T mu = ad^T mu +
    p2f^T (w_j * (p1d^T mu)), with the weights w_j of ``_source_weights``.
    The mu_{j+1} are stored, so the gradient is one contraction against the
    states: grad a = dt sum_j mu_{j+1} s~_j^T.
    """
    f, dt = ev.folded, problem.dt
    grad_a = np.zeros_like(ev.ops.a)
    for sweep, res, batch in zip(ev.sweeps, ev.residuals, problem.batches):
        states = sweep.states
        k = states.shape[0] - 1
        twice = 2.0 * res
        weights = _source_weights(f, sweep, batch.heat)
        mus = np.empty((k,) + states.shape[1:])
        mus[k - 1] = twice[k]
        mu = mus[k - 1]
        for j in range(k - 1, 0, -1):
            nxt = np.matmul(f.ad.T, mu, out=mus[j - 1])
            nxt += twice[j]
            nxt += f.p2f.T @ (weights[j] * (f.p1d.T @ mu))
            mu = nxt

        grad_a += dt * np.tensordot(mus, states[:k], axes=([0, 2], [0, 2]))
    return RomOperators(a=grad_a)


def adjoint_gradient(ops: RomOperators, problem: CalibrationProblem) -> RomOperators:
    """Gradient of the calibration objective over the entries of a.

    Costs one forward and one backward sweep per trajectory.
    """
    return _gradient(_Evaluation(ops, problem), problem)


def _tangent(ev: _Evaluation, problem: CalibrationProblem):
    """J^T J and J^T res from one forward tangent sweep per batch; J is never stored.

    D_j = d s~_j / d vec(a) starts at D_0 = 0 and follows the differentiated
    Euler step

        D_{j+1} = ad D_j + p1d (w_j * (p2f D_j)) + dt (s~_j in row p of column (p, q)),

    with the weights w_j of ``_source_weights``.  D_j is held as (r, L, r^2),
    so the r^2 directions ride as extra columns of the state stack, and each
    D_j is contracted with itself and with the residual of step j at once.
    """
    f, dt, r = ev.folded, problem.dt, ev.ops.r
    rows = np.arange(r)
    jtj = np.zeros((r * r, r * r))
    jtr = np.zeros(r * r)
    for sweep, res, batch in zip(ev.sweeps, ev.residuals, problem.batches):
        states = sweep.states
        width = states.shape[2]
        weights = _source_weights(f, sweep, batch.heat)
        d = np.zeros((r, width * r * r))
        for j in range(states.shape[0] - 1):
            t = (f.p2f @ d).reshape(-1, width, r * r) * weights[j][:, :, None]
            d = f.ad @ d
            d += f.p1d @ t.reshape(t.shape[0], -1)
            # entry [p, trajectory, column p * r + q] gains dt s~_j[q, trajectory]
            d.reshape(r, width, r, r)[rows, :, rows] += dt * states[j].T
            jac = d.reshape(r * width, r * r)
            jtj += jac.T @ jac
            jtr += jac.T @ res[j + 1].ravel()
    return jtj, jtr


def calibrate(
    initial: RomOperators,
    problem: CalibrationProblem,
    optimizer: OptimizerConfig | None = None,
):
    """Minimise the trajectory mismatch starting from ``initial``.

    Returns the calibrated operators and a ConvergenceReport.  Accepted
    objective values strictly decrease; a candidate whose rollout fails is
    rejected and logged at INFO.  An infinite initial objective (diverging
    start) is refused with a hint to regularise the start more strongly.
    """
    opt = optimizer if optimizer is not None else OptimizerConfig()
    r = initial.r
    evaluations = 0

    def evaluate(vec):
        """The evaluated candidate, or None when its rollout fails."""
        nonlocal evaluations
        evaluations += 1
        try:
            return _Evaluation(RomOperators(a=vec.reshape(r, r)), problem)
        except NumericError as exc:
            logger.info("candidate rejected, its rollout failed: %s", exc)
            return None

    x = initial.a.flatten()
    current = evaluate(x)
    if current is None or not math.isfinite(current.value):
        raise NumericError(
            "initial operators already diverge on the training horizon; "
            "use a more strongly regularised starting point"
        )
    f = current.value
    jtj, jtr = _tangent(current, problem)
    objective_history = [f]
    gradient_norms = [2.0 * float(np.linalg.norm(jtr))]
    dampings = [0.0]
    damping = INITIAL_DAMPING
    status = "max_iterations"

    for _ in range(opt.max_iterations):
        if gradient_norms[-1] <= opt.gradient_tolerance * gradient_norms[0]:
            break
        # Marquardt's scaling; an entry of a that moves no state keeps unit scale.
        scale = np.diag(jtj)
        scale = np.where(scale > 0.0, scale, 1.0)
        while True:
            candidate = x + np.linalg.solve(jtj + np.diag(damping * scale), -jtr)
            if np.array_equal(candidate, x):
                status = "stalled"
                break
            trial = evaluate(candidate)
            if trial is not None and trial.value < f:
                break
            damping *= DAMPING_FACTOR
        if status == "stalled":
            break

        decrease = (f - trial.value) / f
        x, f = candidate, trial.value
        jtj, jtr = _tangent(trial, problem)
        objective_history.append(f)
        gradient_norms.append(2.0 * float(np.linalg.norm(jtr)))
        dampings.append(damping)
        damping /= DAMPING_FACTOR
        if decrease < SMALL_DECREASE:
            status = "small_decrease"
            break
    if gradient_norms[-1] <= opt.gradient_tolerance * gradient_norms[0]:
        status = "converged"

    report = ConvergenceReport(status, objective_history, gradient_norms, dampings, evaluations)
    return RomOperators(a=x.reshape(r, r)), report


def build_calibration_problem(
    snapshots: SnapshotSet,
    basis: PodBasis,
    deim_ops: DeimOperators,
) -> CalibrationProblem:
    """Standardise a physical snapshot set with the basis's scaling and
    project it onto the basis, one trajectory at a time."""
    states = apply_scaling(snapshots, basis.scaling)
    slices = snapshots.trajectory_slices()
    return CalibrationProblem(
        reduced_trajectories=[project(basis, states[:, sl]) for sl in slices],
        controls=[snapshots.controls[sl] for sl in slices],
        dt=snapshots.dt,
        deim=deim_ops,
    )
