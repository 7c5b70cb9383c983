"""Trajectory-fit calibration of reduced operators with adjoint gradients.

Operator inference matches time derivatives; this module instead minimises
the squared mismatch between explicit Euler rollouts of the reduced model
and the projected training trajectories,

    sum_i sum_j | s~_j^i - s_j^i |^2,   s~_j = s~_{j-1} + dt * f(s~_{j-1}, R_{j-1}),

with f(s, R) = a s + source(s, R), over the entries of the linear operator
a.  The sampled source term of the heat load R stays fixed during
calibration.  Gradients come from one backward (adjoint) sweep per
trajectory, so a full gradient costs one forward plus one backward pass
regardless of the number of operator entries.  The optimiser is a
limited-memory quasi-Newton method with an Armijo backtracking line
search.  Its constants are fixed at the textbook values
(Nocedal & Wright, Numerical Optimization, ch. 3 and sec. 7.2):
HISTORY_SIZE = 10 curvature pairs, a trial step of INITIAL_STEP = 1 (scaled
by the gradient norm on the first iteration), shrunk by LINE_SEARCH_SHRINK =
0.5 at most LINE_SEARCH_MAX_BACKTRACKS = 40 times, and the sufficient
decrease constant ARMIJO_CONSTANT = 1e-4.

One rollout kernel serves calibration and evaluation alike: the operators
are folded with the step size once per operator set, and trajectories of
equal length are stepped together as the columns of one state stack.  A
forward sweep keeps its states and sampled temperatures, so the accepted
line-search candidate needs only its backward sweep.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from morcal.deim import MIN_TEMPERATURE, DeimOperators
from morcal.errors import ConfigError, DataError, NumericError
from morcal.opinf import RomOperators
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

HISTORY_SIZE = 10
INITIAL_STEP = 1.0
LINE_SEARCH_SHRINK = 0.5
LINE_SEARCH_MAX_BACKTRACKS = 40
ARMIJO_CONSTANT = 1e-4


@dataclass
class CalibrationProblem:
    """Reduced training trajectories with heat loads and step size."""

    reduced_trajectories: list  # each (r, k_i + 1)
    controls: list  # each (k_i + 1,) heat load R per state
    dt: float
    deim: DeimOperators | None = field(default=None, repr=False)
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
    """Limited-memory quasi-Newton stopping settings."""

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
    step_lengths: list
    evaluations: int  # objective evaluations, start point and rejected candidates included

    @property
    def iterations(self) -> int:
        return len(self.objective_history) - 1

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iteration,objective,gradient_norm,step_length\n")
            for i, (obj, g, step) in enumerate(
                zip(self.objective_history, self.gradient_norms, self.step_lengths)
            ):
                fh.write(f"{i},{fmt_float(obj)},{fmt_float(g)},{fmt_float(step)}\n")


@dataclass
class _Folded:
    """One operator set with the step size folded in.

    An explicit Euler step of a state stack S (one column per trajectory) is

        T = p2f S + shift,   E = exp(exponent / T),
        S <- ad S + p1d (E * R).
    """

    ad: np.ndarray  # I + dt a
    # The sampled source; all None without sampling operators.
    p1d: np.ndarray | None = None  # dt prefactor p1
    p2f: np.ndarray | None = None  # unscale_scale p2
    shift: np.ndarray | None = None  # (s, 1) unscale_shift
    exponent: float = 0.0


def _fold(ops: RomOperators, deim_ops: DeimOperators | None, dt: float) -> _Folded:
    source = {}
    if deim_ops is not None:
        source = dict(
            p1d=(dt * deim_ops.arrhenius_prefactor) * deim_ops.p1,
            p2f=deim_ops.unscale_scale[:, None] * deim_ops.p2,
            shift=deim_ops.unscale_shift[:, None],
            exponent=deim_ops.arrhenius_exponent,
        )
    return _Folded(ad=np.eye(ops.r) + dt * ops.a, **source)


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
    """A forward sweep of one batch, kept for its backward sweep."""

    states: np.ndarray  # (k + 1, r, L)
    temperatures: np.ndarray | None  # (k, s, L) sampled temperatures of states 0..k-1
    sources: np.ndarray | None  # (k, s, L) exp(exponent / temperatures)


def _forward(f: _Folded, s0: np.ndarray, heat: np.ndarray) -> _Sweep:
    """Explicit Euler rollout of the state stack s0 (r, L) over len(heat) steps.

    Every step checks the sampled temperatures against MIN_TEMPERATURE and
    the new states for finiteness; either failure raises a NumericError
    naming the step.
    """
    k, width = heat.shape
    states = np.empty((k + 1, s0.shape[0], width))
    states[0] = s0
    temperatures = sources = None
    if f.p1d is not None:
        temperatures = np.empty((k, f.p2f.shape[0], width))
        sources = np.empty_like(temperatures)
    for j in range(k):
        s, nxt = states[j], states[j + 1]
        np.matmul(f.ad, s, out=nxt)
        if f.p1d is not None:
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
    deim_ops: DeimOperators | None,
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


def _gradient(ev: _Evaluation, problem: CalibrationProblem) -> RomOperators:
    """One backward (adjoint) sweep per batch over the stored forward sweeps.

    The adjoint recursion runs backwards from the final step:

        mu_k = 2 (s~_k - s_k)
        mu_j = 2 (s~_j - s_j) + (I + dt J(s~_j, R_j))^T mu_{j+1}

    where J is the state Jacobian of f, so (I + dt J)^T mu = ad^T mu +
    p2f^T (w_j * (p1d^T mu)), with w_j = R_j E_j (-exponent / T_j^2) built
    for all steps at once.  The mu_{j+1} are stored, so the gradient is one
    contraction against the states: grad a = dt sum_j mu_{j+1} s~_j^T.
    """
    f, dt = ev.folded, problem.dt
    grad_a = np.zeros_like(ev.ops.a)
    for sweep, res, batch in zip(ev.sweeps, ev.residuals, problem.batches):
        states = sweep.states
        k = states.shape[0] - 1
        twice = 2.0 * res
        weights = None
        if f.p1d is not None:
            weights = sweep.sources * (-f.exponent / sweep.temperatures ** 2)
            weights *= batch.heat[:, None, :]
        mus = np.empty((k,) + states.shape[1:])
        mus[k - 1] = twice[k]
        mu = mus[k - 1]
        for j in range(k - 1, 0, -1):
            nxt = np.matmul(f.ad.T, mu, out=mus[j - 1])
            nxt += twice[j]
            if weights is not None:
                nxt += f.p2f.T @ (weights[j] * (f.p1d.T @ mu))
            mu = nxt

        grad_a += dt * np.tensordot(mus, states[:k], axes=([0, 2], [0, 2]))
    return RomOperators(a=grad_a)


def adjoint_gradient(ops: RomOperators, problem: CalibrationProblem) -> RomOperators:
    """Gradient of the calibration objective over the entries of a.

    Costs one forward and one backward sweep per trajectory.
    """
    return _gradient(_Evaluation(ops, problem), problem)


def calibrate(
    initial: RomOperators,
    problem: CalibrationProblem,
    optimizer: OptimizerConfig | None = None,
):
    """Minimise the trajectory mismatch starting from ``initial``.

    Returns the calibrated operators and a ConvergenceReport.  The accepted
    objective values are non-increasing by construction of the Armijo line
    search.  An infinite initial objective (diverging start) is refused with
    a hint to regularise the starting operators more strongly.
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
            logger.warning("rollout failed during objective evaluation: %s", exc)
            return None

    def gradient(ev):
        return _gradient(ev, problem).a.ravel()

    x = initial.a.flatten()
    current = evaluate(x)
    if current is None or not math.isfinite(current.value):
        raise NumericError(
            "initial operators already diverge on the training horizon; "
            "use a more strongly regularised starting point"
        )
    f, g = current.value, gradient(current)
    gnorm0 = float(np.linalg.norm(g))
    history_s: list = []
    history_y: list = []
    objective_history = [f]
    gradient_norms = [gnorm0]
    step_lengths = [0.0]
    status = "max_iterations"

    for _ in range(opt.max_iterations):
        gnorm = gradient_norms[-1]
        if gnorm <= opt.gradient_tolerance * gnorm0:
            status = "converged"
            break

        direction = _two_loop_direction(g, history_s, history_y)
        descent = float(direction @ g)
        if descent >= 0.0:
            direction = -g
            descent = -gnorm ** 2

        step = INITIAL_STEP
        if not history_s:
            step = INITIAL_STEP / max(1.0, gnorm)
        accepted = None
        for _bt in range(LINE_SEARCH_MAX_BACKTRACKS):
            candidate = x + step * direction
            trial = evaluate(candidate)
            if trial is not None and trial.value <= f + ARMIJO_CONSTANT * step * descent:
                accepted = trial
                break
            step *= LINE_SEARCH_SHRINK
        if accepted is None:
            status = "line_search_failure"
            logger.info("line search stalled at objective %.6e", f)
            break

        f_new, g_new = accepted.value, gradient(accepted)
        s_vec = candidate - x
        y_vec = g_new - g
        curvature = float(s_vec @ y_vec)
        if curvature > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            history_s.append(s_vec)
            history_y.append(y_vec)
            if len(history_s) > HISTORY_SIZE:
                history_s.pop(0)
                history_y.pop(0)

        x, f, g = candidate, f_new, g_new
        objective_history.append(f)
        gradient_norms.append(float(np.linalg.norm(g)))
        step_lengths.append(step)
    if status == "max_iterations" and gradient_norms[-1] <= opt.gradient_tolerance * gnorm0:
        status = "converged"

    report = ConvergenceReport(
        status=status,
        objective_history=objective_history,
        gradient_norms=gradient_norms,
        step_lengths=step_lengths,
        evaluations=evaluations,
    )
    return RomOperators(a=x.reshape(r, r)), report


def _two_loop_direction(g, history_s, history_y):
    """Standard two-loop recursion for the quasi-Newton direction."""
    q = g.copy()
    alphas = []
    rhos = []
    for s_vec, y_vec in zip(reversed(history_s), reversed(history_y)):
        rho = 1.0 / float(y_vec @ s_vec)
        alpha = rho * float(s_vec @ q)
        q -= alpha * y_vec
        alphas.append(alpha)
        rhos.append(rho)
    if history_s:
        s_last, y_last = history_s[-1], history_y[-1]
        gamma = float(s_last @ y_last) / float(y_last @ y_last)
        q *= gamma
    for (s_vec, y_vec), alpha, rho in zip(
        zip(history_s, history_y), reversed(alphas), reversed(rhos)
    ):
        beta = rho * float(y_vec @ q)
        q += s_vec * (alpha - beta)
    return -q


def build_calibration_problem(
    scaled_snapshots,
    basis,
    deim_ops: DeimOperators | None,
) -> CalibrationProblem:
    """Project a scaled snapshot set onto the basis, one trajectory at a time."""
    from morcal.pod import project
    from morcal.snapshots import _uniform_dt

    if scaled_snapshots.scaling is None:
        raise DataError("calibration expects a scaled snapshot set")
    dt = _uniform_dt(scaled_snapshots)
    trajectories = []
    controls = []
    for sl in scaled_snapshots.trajectory_slices():
        trajectories.append(project(basis, scaled_snapshots.data[:, sl]))
        controls.append(scaled_snapshots.controls[sl])
    return CalibrationProblem(
        reduced_trajectories=trajectories,
        controls=controls,
        dt=dt,
        deim=deim_ops,
    )
