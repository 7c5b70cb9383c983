"""Synthetic 1D full-order model of a cooled tubular reactor segment.

Two temperature fields share one uniform grid: a coolant field T_c advected
with constant velocity, and a stationary solid field T_s.  The fields couple
through a volumetric exchange term inside the solid region, and heat is
generated in the solid by an exponential-in-inverse-temperature source
driven by a piecewise-constant heat load R(t).

Discretisation: first-order upwind advection (coolant only), second-order
central diffusion (both fields), explicit Euler in time.  The coolant inlet
is pinned to the inflow temperature; the coolant outlet and both solid ends
use zero-gradient conditions.

The linear part of one Euler step, ``I + dt*L``, is folded once into a
three-point band per field plus the exchange diagonals that couple the two
fields, so a step is that banded update plus ``dt`` times the source on the
solid rows.  ``fom_rhs`` evaluates the exact right-hand side; the integrator
calls it only at the saved states, which is where snapshots need it.
"""

from dataclasses import dataclass, field

import numpy as np

from morcal.errors import ConfigError, DataError, NumericError
from morcal.snapshots import SnapshotSet

__all__ = [
    "FomConfig",
    "SOLID_SPAN",
    "span_mask",
    "ControlSignal",
    "arrhenius_source",
    "fom_rhs",
    "fom_integrate",
]

_NON_POSITIVE = "non-positive solid temperature inside the reaction zone"

SOLID_SPAN = (0.25, 0.75)  # default solid region (a, b), as fractions of the channel


def span_mask(grid_points: int, span=SOLID_SPAN) -> np.ndarray:
    """0/1 indicator of the grid points at channel fractions x with a <= x < b."""
    if len(span) != 2 or not 0.0 <= span[0] < span[1] <= 1.0:
        raise ConfigError("solid_span must be two fractions with 0 <= a < b <= 1")
    x = np.linspace(0.0, 1.0, max(grid_points, 0))  # validate() refuses grid_points < 3
    return ((x >= span[0]) & (x < span[1])).astype(float)


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
    # 0/1 per grid point, marking where solid material exists; defaults to SOLID_SPAN.
    solid_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.solid_mask is None:
            self.solid_mask = span_mask(self.grid_points)
        self.solid_mask = np.asarray(self.solid_mask, dtype=float)

    @property
    def n(self) -> int:
        """State dimension (both fields stacked)."""
        return 2 * self.grid_points

    @property
    def dx(self) -> float:
        return self.domain_length / (self.grid_points - 1)

    @property
    def solid_rows(self) -> np.ndarray:
        """Rows of the stacked state that hold solid material: where the source acts."""
        return self.grid_points + np.flatnonzero(self.solid_mask > 0.0)

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
    """Piecewise-constant heat load R(t), the only control of the model.

    ``heat_values[i]`` applies on ``[heat_times[i], heat_times[i+1])``; the
    last value extends to infinity.
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
    control : heat load R applied to every row, or for a stack an (L,)
        vector with one load per row.
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
    if control.ndim == 0:
        heat_load = float(control)
    elif state.ndim == 2 and control.shape == (state.shape[0],):
        heat_load = control[:, None]
    else:
        raise DataError(f"control must be a heat load or one per state row, got {control.shape}")

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
        raise NumericError(_NON_POSITIVE)
    dts[..., solid] += _arrhenius_source(solid_t, heat_load, cfg) / cfg.rho_cp_solid

    return out


def _load_error(message, step, cfg, bad_rows, heat):
    """NumericError naming the step, its time and the failing loads."""
    loads = ", ".join(f"{i} (R={heat[i]:g})" for i in np.flatnonzero(bad_rows))
    return NumericError(f"{message} at step {step} (t={step * cfg.dt:g} s) in heat load(s) {loads}")


@dataclass
class _FoldedStep:
    """One explicit Euler step ``x + dt*f(x)`` of an (L, n) stack, folded.

    The linear part of the step, ``I + dt*L``, is a banded matrix with the
    diagonals below, applied alike to every row of the stack; the lower and
    upper ones are zero where they would cross the field boundary.  The
    temperature-driven source is added on the solid rows.
    """

    centre: np.ndarray  # (n,) diagonal
    lower: np.ndarray  # (n - 1,) multiplies x[i-1] in row i
    upper: np.ndarray  # (n - 1,) multiplies x[i+1] in row i
    exchange: np.ndarray  # (2, g) row f multiplies the other field in field f's rows
    solid: np.ndarray  # columns of the solid rows
    source_gain: float  # dt * prefactor / rho_cp_solid
    exponent: float

    def solid_temperatures(self, state, step, cfg, heat):
        """Solid temperatures of ``state``; a non-positive one is a NumericError."""
        solid_t = state[:, self.solid]
        if np.any(solid_t <= 0.0):
            raise _load_error(_NON_POSITIVE, step, cfg, np.any(solid_t <= 0.0, axis=1), heat)
        return solid_t

    def apply(self, state, solid_t, heat):
        """Next (L, n) state; ``heat`` holds the (L,) loads driving the step."""
        out = self.centre * state
        out[:, 1:] += self.lower * state[:, :-1]
        out[:, :-1] += self.upper * state[:, 1:]
        # Each field draws on the other one at the same grid point.
        by_field = (-1,) + self.exchange.shape  # (L, 2, g)
        out_fields = out.reshape(by_field)
        out_fields += self.exchange * state.reshape(by_field)[:, ::-1]
        out[:, self.solid] += (self.source_gain * heat)[:, None] * np.exp(self.exponent / solid_t)
        return out


def _fold_step(cfg: FomConfig) -> _FoldedStep:
    """fom_rhs's discretisation times dt, plus the identity."""
    npts = cfg.grid_points
    dx2 = cfg.dx ** 2
    diffuse_c = cfg.conductivity_coolant / cfg.rho_cp_coolant / dx2
    diffuse_s = cfg.conductivity_solid / cfg.rho_cp_solid / dx2
    # Rates at which each row of one [T_c; T_s] state draws on its left and
    # right neighbours in its own field, and on the same grid point of the
    # other field.  The upwind coolant draws on its left neighbour only.
    left = np.concatenate([np.full(npts, diffuse_c + cfg.coolant_velocity / cfg.dx),
                           np.full(npts, diffuse_s)])
    right = np.concatenate([np.full(npts, diffuse_c), np.full(npts, diffuse_s)])
    exchange = cfg.exchange_coefficient * cfg.solid_mask / np.array(
        [[cfg.rho_cp_coolant], [cfg.rho_cp_solid]])
    # Each field's first point has no left neighbour and its last point no
    # right one (zero-gradient ends); the pinned inlet draws on nothing.
    left[[0, npts]] = 0.0
    right[[0, npts - 1, cfg.n - 1]] = 0.0
    exchange[0, 0] = 0.0
    # A row loses heat at the total rate at which it draws.
    centre = 1.0 - cfg.dt * (left + right + exchange.ravel())
    return _FoldedStep(
        centre=centre,
        lower=cfg.dt * left[1:],
        upper=cfg.dt * right[:-1],
        exchange=cfg.dt * exchange,
        solid=cfg.solid_rows,
        source_gain=cfg.dt * cfg.arrhenius_prefactor / cfg.rho_cp_solid,
        exponent=cfg.arrhenius_exponent,
    )


def fom_integrate(cfg: FomConfig, signals, save_every: int = 1):
    """Integrate the model with explicit Euler and return saved snapshots.

    ``signals`` is a non-empty sequence of ControlSignals; the result holds
    one single-trajectory SnapshotSet per signal, in the same order.  All
    signals step together as one (L, n) stack, one row per heat load, and
    each step is one folded ``(I + dt*L) x + dt*source`` update whose rows
    do not depend on the other loads in the stack.  Saves every
    ``save_every``-th step starting at t=0, together with the exact
    right-hand side at the saved state (``derivatives``, from ``fom_rhs``,
    which runs at saved states only) and the heat load at the saved times
    (``controls``); the sets' spacing is ``save_every * dt``.  Refuses to
    run when dt exceeds the advection/diffusion stability bound, when t_end
    is shorter than one saved step, or when its step count cannot be
    allocated; a non-positive solid temperature or a non-finite state
    aborts the whole stack with a NumericError naming the step and the
    failing heat loads.
    """
    signals = list(signals)
    if not signals or not all(isinstance(sig, ControlSignal) for sig in signals):
        raise ConfigError("fom_integrate needs a non-empty sequence of ControlSignals")
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
    if n_steps < save_every:
        raise ConfigError(f"t_end={cfg.t_end:g} s is shorter than one saved step, "
                          f"save_every={save_every} x dt={cfg.dt:g} s")

    n_loads = len(signals)
    try:
        step_times = np.arange(n_steps + 1) * cfg.dt
        # (step, load) block: row j is the heat load of every load at step j.
        controls = np.column_stack([sig.heat_load(step_times) for sig in signals])
        saved = np.arange(0, n_steps + 1, save_every)
        k = saved.size
        states = np.empty((n_loads, cfg.n, k))
        derivs = np.empty((n_loads, cfg.n, k))
    except (ValueError, MemoryError):  # NumPy's "Maximum allowed size exceeded" is a ValueError
        raise ConfigError(f"t_end={cfg.t_end:g} s / dt={cfg.dt:g} s is {n_steps:.3g} steps, "
                          f"more than can be allocated") from None

    step = _fold_step(cfg)
    state = np.full((n_loads, cfg.n), cfg.initial_temperature, dtype=float)
    state[:, 0] = cfg.inflow_temperature  # pinned inlet node
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps + 1):
            solid_t = step.solid_temperatures(state, j, cfg, controls[j])
            if j % save_every == 0:
                col = j // save_every
                states[:, :, col] = state
                derivs[:, :, col] = fom_rhs(state, controls[j], cfg)
            if j < n_steps:
                state = step.apply(state, solid_t, controls[j])
                if not np.all(np.isfinite(state)):
                    bad = ~np.all(np.isfinite(state), axis=1)
                    raise _load_error("non-finite state", j + 1, cfg, bad, controls[j])

    return [
        SnapshotSet(
            data=states[i],
            trajectory_offsets=np.array([0, k]),
            dt=save_every * cfg.dt,
            controls=controls[saved, i],
            fields=cfg.fields(),
            derivatives=derivs[i],
        )
        for i in range(n_loads)
    ]
