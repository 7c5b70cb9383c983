"""Synthetic 1D full-order model of a cooled tubular reactor segment.

Two temperature fields share one uniform grid: a coolant field T_c advected
with constant velocity, and a stationary solid field T_s.  The fields couple
through a volumetric exchange term inside the solid region, and heat is
generated in the solid by an exponential-in-inverse-temperature source
driven by a piecewise-constant heat load R(t).

Discretisation: first-order upwind advection (coolant only), second-order
central diffusion (both fields), explicit Euler in time.  The coolant inlet
is pinned to the inflow temperature; the coolant outlet and both solid ends
use zero-gradient conditions.  Because stepping is explicit Euler, every
saved snapshot comes with an exact right-hand-side evaluation.
"""

from dataclasses import dataclass, field

import numpy as np

from morcal.errors import ConfigError, DataError, NumericError

__all__ = [
    "FomConfig",
    "ControlSignal",
    "FomTrajectory",
    "arrhenius_source",
    "fom_rhs",
    "fom_integrate",
]


@dataclass
class FomConfig:
    """Physical and numerical parameters of the 1D reactor model."""

    grid_points: int = 200  # points per field, state size is 2x this
    domain_length: float = 1.0  # [m]
    coolant_velocity: float = 0.01  # [m/s]
    rho_cp_coolant: float = 723.0 * 2590.0  # [J/(m^3 K)]
    rho_cp_solid: float = 3062.0 * 2000.0  # [J/(m^3 K)]
    conductivity_coolant: float = 0.132  # [W/(m K)]
    conductivity_solid: float = 0.2  # [W/(m K)]
    exchange_coefficient: float = 3.0e4  # [W/(m^3 K)]
    arrhenius_prefactor: float = 5000.0  # [W/m^3] per unit heat load
    arrhenius_exponent: float = 1500.0  # [K]
    inflow_temperature: float = 533.15  # [K]
    initial_temperature: float = 533.15  # [K]
    dt: float = 0.15  # [s]
    t_end: float = 3000.0  # [s]
    # 0/1 indicator per grid point marking where solid material exists;
    # defaults to the middle half of the channel.
    solid_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.solid_mask is None:
            x = np.linspace(0.0, 1.0, self.grid_points) if self.grid_points > 1 else np.zeros(1)
            self.solid_mask = ((x >= 0.25) & (x < 0.75)).astype(float)
        else:
            self.solid_mask = np.asarray(self.solid_mask, dtype=float)

    @property
    def n(self) -> int:
        """State dimension (both fields stacked)."""
        return 2 * self.grid_points

    @property
    def dx(self) -> float:
        return self.domain_length / (self.grid_points - 1)

    def fields(self):
        """Name and index range of each field block in the stacked state."""
        n = self.grid_points
        return [("T_c", 0, n), ("T_s", n, 2 * n)]

    def validate(self):
        if self.grid_points < 3:
            raise ConfigError("grid_points must be at least 3")
        for name in ("domain_length", "rho_cp_coolant", "rho_cp_solid",
                     "arrhenius_exponent", "inflow_temperature",
                     "initial_temperature", "dt", "t_end"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("coolant_velocity", "conductivity_coolant",
                     "conductivity_solid", "exchange_coefficient",
                     "arrhenius_prefactor"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.solid_mask.shape != (self.grid_points,):
            raise ConfigError("solid_mask length must equal grid_points")
        if not np.all(np.isin(self.solid_mask, (0.0, 1.0))):
            raise ConfigError("solid_mask entries must be 0 or 1")

    def stability_limit(self) -> float:
        """Largest admissible explicit Euler step for this configuration."""
        bounds = []
        if self.coolant_velocity > 0.0:
            bounds.append(self.dx / self.coolant_velocity)
        if self.conductivity_coolant > 0.0:
            bounds.append(self.dx ** 2 * self.rho_cp_coolant / (2.0 * self.conductivity_coolant))
        if self.conductivity_solid > 0.0:
            bounds.append(self.dx ** 2 * self.rho_cp_solid / (2.0 * self.conductivity_solid))
        if not bounds:
            return np.inf
        return 0.4 * min(bounds)


@dataclass
class ControlSignal:
    """Piecewise-constant heat load R(t) plus the inflow-rate derivative.

    ``heat_values[i]`` applies on ``[heat_times[i], heat_times[i+1])``; the
    last value extends to infinity.  The coolant flow is constant in this
    model, so the inflow-rate derivative is identically zero.
    """

    heat_times: np.ndarray
    heat_values: np.ndarray

    def __post_init__(self):
        self.heat_times = np.atleast_1d(np.asarray(self.heat_times, dtype=float))
        self.heat_values = np.atleast_1d(np.asarray(self.heat_values, dtype=float))
        if self.heat_times.shape != self.heat_values.shape:
            raise ConfigError("heat_times and heat_values must have equal length")
        if self.heat_times.size == 0:
            raise ConfigError("control signal needs at least one breakpoint")
        if np.any(np.diff(self.heat_times) <= 0.0):
            raise ConfigError("heat_times must be strictly increasing")
        if np.any(self.heat_values < 0.0):
            raise ConfigError("heat load values must be nonnegative")

    def heat_load(self, t):
        """R(t); right-continuous at the breakpoints."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.heat_times, t, side="right") - 1, 0, None)
        return self.heat_values[idx]

    def inflow_rate_derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass
class FomTrajectory:
    """Saved states of one integration, optionally with exact derivatives."""

    times: np.ndarray  # (k,)
    states: np.ndarray  # (n, k)
    derivatives: np.ndarray | None  # (n, k) exact rhs at each saved state
    controls: np.ndarray  # (k, 2) rows (R, v_I_dot) at the saved times
    fields: list

    def __post_init__(self):
        k = self.times.shape[0]
        if self.states.shape[1] != k:
            raise DataError("trajectory arrays are inconsistent")
        if self.derivatives is not None and self.derivatives.shape != self.states.shape:
            raise DataError("derivative array must match the state array shape")
        if self.controls.shape != (k, 2):
            raise DataError("controls must have one (R, v_I_dot) row per saved state")
        if k > 1 and np.any(np.diff(self.times) <= 0.0):
            raise DataError("times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.states.shape[0]


def arrhenius_source(t_solid, heat_load, cfg: FomConfig):
    """Volumetric heat generation R * prefactor * exp(exponent / T).

    The exponential grows as the temperature falls; this inverted sign is a
    deliberate property of the model family reproduced here.  Temperatures
    must be strictly positive.
    """
    t_solid = np.asarray(t_solid, dtype=float)
    if np.any(t_solid <= 0.0):
        raise NumericError("arrhenius_source requires strictly positive temperatures")
    return _arrhenius_source(t_solid, heat_load, cfg)


def _arrhenius_source(t_solid, heat_load, cfg: FomConfig):
    """arrhenius_source without its temperature check, for callers that made it."""
    return heat_load * cfg.arrhenius_prefactor * np.exp(cfg.arrhenius_exponent / t_solid)


def fom_rhs(state, control, cfg: FomConfig):
    """Right-hand side of the semi-discrete model, along the last axis.

    Parameters
    ----------
    state : (2*grid_points,) array, [T_c; T_s] stacked, or an
        (L, 2*grid_points) stack with one such state per row.
    control : pair (R, v_I_dot) applied to every row, or for a stack an
        (L, 2) block with one pair per row; the second entry is unused
        because the coolant velocity is constant.
    cfg : FomConfig.

    Returns
    -------
    Array of the state's shape holding the time derivatives in K/s.  Each
    row is computed with the same floating-point operations as a single
    state, so a stack gives the rows bit for bit.
    """
    state = np.asarray(state, dtype=float)
    if state.ndim not in (1, 2) or state.shape[-1] != cfg.n:
        raise DataError(f"state must have shape ({cfg.n},) or (L, {cfg.n}), got {state.shape}")
    control = np.asarray(control, dtype=float)
    if control.ndim <= 1:
        heat_load = float(control.ravel()[0])
    elif state.ndim == 2 and control.shape == (state.shape[0], 2):
        heat_load = control[:, 0:1]
    else:
        raise DataError(f"control must be a pair or one pair per state row, got {control.shape}")

    npts = cfg.grid_points
    dx = cfg.dx
    tc = state[..., :npts]
    ts = state[..., npts:]
    mask = cfg.solid_mask
    solid = mask > 0.0

    kappa_c = cfg.conductivity_coolant / cfg.rho_cp_coolant  # [m^2/s]
    kappa_s = cfg.conductivity_solid / cfg.rho_cp_solid
    q = cfg.exchange_coefficient

    # Coolant and solid derivatives are written in place into one output.
    out = np.zeros(state.shape)
    dtc = out[..., :npts]
    dts = out[..., npts:]
    # Exchange flux between the phases, only where solid exists.
    flux = q * mask * (ts - tc)

    # Coolant: upwind advection (velocity >= 0, inlet at index 0).
    if cfg.coolant_velocity > 0.0:
        dtc[..., 1:] -= cfg.coolant_velocity * (tc[..., 1:] - tc[..., :-1]) / dx
    # Central diffusion, zero-gradient ghost at the outlet.
    dtc[..., 1:-1] += kappa_c * (tc[..., 2:] - 2.0 * tc[..., 1:-1] + tc[..., :-2]) / dx ** 2
    dtc[..., -1] += kappa_c * (tc[..., -2] - tc[..., -1]) / dx ** 2
    dtc += flux / cfg.rho_cp_coolant
    # Inlet is held at the inflow temperature: pinned node.
    dtc[..., 0] = 0.0

    # Solid: diffusion with zero-gradient ends, exchange, heat source.
    dts[..., 1:-1] += kappa_s * (ts[..., 2:] - 2.0 * ts[..., 1:-1] + ts[..., :-2]) / dx ** 2
    dts[..., 0] += kappa_s * (ts[..., 1] - ts[..., 0]) / dx ** 2
    dts[..., -1] += kappa_s * (ts[..., -2] - ts[..., -1]) / dx ** 2
    dts -= flux / cfg.rho_cp_solid

    solid_t = ts[..., solid]
    if np.any(solid_t <= 0.0):
        raise NumericError("non-positive solid temperature inside the reaction zone")
    dts[..., solid] += _arrhenius_source(solid_t, heat_load, cfg) / cfg.rho_cp_solid

    return out


def _load_error(message, step, cfg, bad_rows, heat):
    """NumericError naming the step, its time and the failing loads."""
    loads = ", ".join(f"{i} (R={heat[i]:g})" for i in np.flatnonzero(bad_rows))
    return NumericError(f"{message} at step {step} (t={step * cfg.dt:g} s) in heat load(s) {loads}")


def fom_integrate(cfg: FomConfig, signal, save_every: int = 1):
    """Integrate the model with explicit Euler and return saved snapshots.

    ``signal`` is one ControlSignal, giving one FomTrajectory, or a sequence
    of them, giving one FomTrajectory per signal.  All signals step together
    as one (L, n) stack, one row per heat load; a single signal is the L = 1
    case.  Saves every ``save_every``-th step starting at t=0, together with
    the exact right-hand side at the saved state and the control values at
    the saved times.  Refuses to run when dt exceeds the advection/diffusion
    stability bound; a non-positive solid temperature or a non-finite state
    aborts the whole stack with a NumericError naming the step and the
    failing heat loads.
    """
    single = isinstance(signal, ControlSignal)
    signals = [signal] if single else list(signal)
    if not signals or not all(isinstance(sig, ControlSignal) for sig in signals):
        raise ConfigError("fom_integrate needs a ControlSignal or a non-empty sequence of them")
    cfg.validate()
    if save_every < 1:
        raise ConfigError("save_every must be a positive integer")
    limit = cfg.stability_limit()
    if cfg.dt > limit:
        raise NumericError(
            f"dt={cfg.dt:g} s exceeds the explicit Euler stability bound "
            f"{limit:g} s for this grid; reduce dt or coarsen the grid"
        )

    n_steps = int(round(cfg.t_end / cfg.dt))
    if n_steps < 1:
        raise ConfigError("t_end must cover at least one step")

    step_times = np.arange(n_steps + 1) * cfg.dt
    n_loads = len(signals)
    # (step, load, control) block: row j is the control of every load at step j.
    controls = np.zeros((n_steps + 1, n_loads, 2))
    for i, sig in enumerate(signals):
        controls[:, i, 0] = sig.heat_load(step_times)
    saved = np.arange(0, n_steps + 1, save_every)
    k = saved.size

    states = np.empty((n_loads, cfg.n, k))
    derivs = np.empty((n_loads, cfg.n, k))

    state = np.full((n_loads, cfg.n), cfg.initial_temperature, dtype=float)
    state[:, 0] = cfg.inflow_temperature  # pinned inlet node
    col = 0
    for j in range(n_steps + 1):
        try:
            rhs = fom_rhs(state, controls[j], cfg)
        except NumericError as exc:
            solid_t = state[:, cfg.grid_points:][:, cfg.solid_mask > 0.0]
            bad = np.any(solid_t <= 0.0, axis=1)
            raise _load_error(str(exc), j, cfg, bad, controls[j, :, 0]) from None
        if col < k and saved[col] == j:
            states[:, :, col] = state
            derivs[:, :, col] = rhs
            col += 1
        if j < n_steps:
            state = state + cfg.dt * rhs
            if not np.all(np.isfinite(state)):
                bad = ~np.all(np.isfinite(state), axis=1)
                raise _load_error("non-finite state", j + 1, cfg, bad, controls[j, :, 0])

    trajectories = [
        FomTrajectory(
            times=step_times[saved],
            states=states[i],
            derivatives=derivs[i],
            controls=controls[saved, i, :],
            fields=cfg.fields(),
        )
        for i in range(n_loads)
    ]
    return trajectories[0] if single else trajectories
