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

One rates object states the discretisation: the rates at which each row
draws on its neighbours and on the other field, applied to differences of
states, plus the source on the solid rows.  It gives the right-hand side
(``fom_rhs``) and, scaled by ``dt``, each Euler step's increment.  The
integrator applies the dt-scaled rates only: a snapshot set holds states
and heat loads, and whoever needs the right-hand side at them computes it
with ``fom_rhs``.

The integrator holds its states state-major, ``(n, L)`` with one column per
heat load.  A step is a fixed sequence of about fifteen NumPy calls on
arrays of a few thousand numbers, so each call's cost is mostly overhead and
traversal.  In this layout every neighbour, field and solid-row slice is
one contiguous block, which makes each call cheaper than on an ``(L, n)``
stack, where each slice is L strided rows.  The arithmetic is the same
element by element in either layout, so the snapshots are the same bits.
"""

from dataclasses import dataclass

import numpy as np

from morcal.errors import ConfigError, DataError, NumericError
from morcal.snapshots import SnapshotSet

__all__ = [
    "FomConfig",
    "ControlSignal",
    "arrhenius_source",
    "fom_rhs",
    "fom_integrate",
]

_NON_POSITIVE = "non-positive solid temperature inside the reaction zone"

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
    solid_span: tuple = (0.25, 0.75)  # solid region [a, b), as fractions of the channel

    @property
    def n(self) -> int:
        """State dimension (both fields stacked)."""
        return 2 * self.grid_points

    @property
    def dx(self) -> float:
        return self.domain_length / (self.grid_points - 1)

    @property
    def solid_mask(self) -> np.ndarray:
        """0/1 per grid point: 1 at the channel fractions x with a <= x < b of solid_span."""
        x = np.linspace(0.0, 1.0, self.grid_points)
        return ((x >= self.solid_span[0]) & (x < self.solid_span[1])).astype(float)

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
        span = self.solid_span
        if len(span) != 2 or not 0.0 <= span[0] < span[1] <= 1.0:
            raise ConfigError("solid_span must be two fractions with 0 <= a < b <= 1")
        try:
            solid = self.solid_mask
        except (ValueError, IndexError, MemoryError):  # NumPy's refusals of a huge linspace
            raise ConfigError(f"grid_points={self.grid_points} is more than can be "
                              "allocated") from None
        if not solid.any():
            raise ConfigError(f"solid_span {span[0]:g}, {span[1]:g} covers none of the "
                              f"{self.grid_points} grid points")

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
    last value extends to infinity.  A run starts at t = 0, so the schedule
    must start there or before: ``heat_times[0] > 0`` is refused.
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
        if self.heat_times[0] > 0.0:
            raise ConfigError(f"heat_times must start at or before t = 0, got "
                              f"{self.heat_times[0]:g}")
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
    return heat_load * cfg.arrhenius_prefactor * np.exp(cfg.arrhenius_exponent / t_solid)


class _Rates:
    """The model's right-hand side times ``scale``, built once from ``cfg``.

    Each row of a [T_c; T_s] state draws on its left and right neighbours in
    its own field and on the same grid point of the other field, at rates
    that are zero across the field boundary, at the zero-gradient ends and
    in the pinned inlet row.  The source acts on the solid rows, which are
    one interval and so one slice.

    States are state-major, ``(n, L)`` with one column per heat load (see
    the module docstring).  Each rate carries a trailing axis of ``width``
    equal columns.  The integrator builds its rates once, at the width of
    its stack, so that no product of a step broadcasts a column across
    them; ``fom_rhs``, called once on a whole snapshot set, builds them at
    width 1 and lets them broadcast, which keeps them small.
    """

    def __init__(self, cfg: FomConfig, scale: float, width: int):
        npts = cfg.grid_points
        dx2 = cfg.dx ** 2
        diffuse_c = cfg.conductivity_coolant / cfg.rho_cp_coolant / dx2
        diffuse_s = cfg.conductivity_solid / cfg.rho_cp_solid / dx2
        # The upwind coolant draws on its left neighbour only.
        left = np.concatenate([np.full(npts, diffuse_c + cfg.coolant_velocity / cfg.dx),
                               np.full(npts, diffuse_s)])
        right = np.concatenate([np.full(npts, diffuse_c), np.full(npts, diffuse_s)])
        mask = cfg.solid_mask
        exchange = cfg.exchange_coefficient * mask / np.array(
            [[cfg.rho_cp_coolant], [cfg.rho_cp_solid]])
        left[[0, npts]] = 0.0
        right[[0, npts - 1, cfg.n - 1]] = 0.0
        exchange[0, 0] = 0.0
        # row i draws on x[i-1] (left), on x[i+1] (right), and row f of the
        # (2, g) field block on the other field (exchange)
        self.left, self.right, self.exchange = (
            np.repeat(scale * rate[..., None], width, axis=-1)
            for rate in (left[1:], right[:-1], exchange))
        solid = npts + np.flatnonzero(mask)
        self.solid = slice(solid[0], solid[-1] + 1)
        self.source_gain = scale * cfg.arrhenius_prefactor / cfg.rho_cp_solid
        self.exponent = cfg.arrhenius_exponent

    def add_to(self, out, state, solid_t, heat):
        """Add the scaled right-hand side at ``state`` to ``out`` and return it.

        ``state`` is state-major ``(n, L)`` and ``out`` a C-contiguous array
        of its shape; ``solid_t`` holds the state's solid rows and ``heat``
        the ``(L,)`` loads or one load for all.  No operation mixes columns.
        """
        d = state[1:] - state[:-1]
        # left * (x[i-1] - x[i]) is -(left * d) bit for bit; the left term
        # goes first, because the order of the additions sets the last bits.
        out[1:] -= self.left * d
        out[:-1] += self.right * d
        by_field = self.exchange.shape[:2] + state.shape[1:]  # (2, g, L)
        fields = state.reshape(by_field)
        out_fields = out.reshape(by_field)  # a view, because out is C-contiguous
        out_fields += self.exchange * (fields[::-1] - fields)
        out[self.solid] += (self.source_gain * heat) * np.exp(self.exponent / solid_t)
        return out


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
        heat_load = control
    else:
        raise DataError(f"control must be a heat load or one per state row, got {control.shape}")
    columns = state.reshape(-1, cfg.n).T  # state-major (n, L) view
    rates = _Rates(cfg, 1.0, 1)
    solid_t = columns[rates.solid]
    if (solid_t <= 0.0).any():
        raise NumericError(_NON_POSITIVE)
    out = rates.add_to(np.zeros(columns.shape), columns, solid_t, heat_load)
    return out.T.reshape(state.shape)


def _load_error(message, step, cfg, bad_rows, heat):
    """NumericError naming the step, its time and the failing loads."""
    loads = ", ".join(f"{i} (R={heat[i]:g})" for i in np.flatnonzero(bad_rows))
    return NumericError(f"{message} at step {step} (t={step * cfg.dt:g} s) in heat load(s) {loads}")


def fom_integrate(cfg: FomConfig, signals, save_every: int = 1):
    """Integrate the model with explicit Euler and return saved snapshots.

    ``signals`` is a non-empty sequence of ControlSignals; the result holds
    one single-trajectory SnapshotSet per signal, in the same order.  All
    signals step together as one state-major (n, L) block, one column per
    heat load, so that each stencil slice is contiguous (see the module
    docstring); each step adds to the state the increment ``dt * f(x)``
    that the rates of ``fom_rhs``, scaled by ``dt``, give, and no column
    depends on the other loads in the stack.  Saves every
    ``save_every``-th step starting at t=0, together with the heat load at
    the saved times (``controls``); the sets' spacing is
    ``save_every * dt``.  The right-hand side at the saved states is
    ``fom_rhs`` of the saved columns and their controls.  Refuses to
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
    except (ValueError, MemoryError):  # NumPy's "Maximum allowed size exceeded" is a ValueError
        raise ConfigError(f"t_end={cfg.t_end:g} s / dt={cfg.dt:g} s is {n_steps:.3g} steps, "
                          f"more than can be allocated") from None

    step = _Rates(cfg, cfg.dt, n_loads)
    state = np.full((cfg.n, n_loads), cfg.initial_temperature, dtype=float)
    state[0] = cfg.inflow_temperature  # pinned inlet node
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps + 1):
            solid_t = state[step.solid]
            if (solid_t <= 0.0).any():
                raise _load_error(_NON_POSITIVE, j, cfg, (solid_t <= 0.0).any(axis=0),
                                  controls[j])
            if j % save_every == 0:
                states[:, :, j // save_every] = state.T
            if j < n_steps:
                state = step.add_to(state.copy(), state, solid_t, controls[j])
                if not np.isfinite(state).all():
                    bad = ~np.isfinite(state).all(axis=0)
                    raise _load_error("non-finite state", j + 1, cfg, bad, controls[j])

    return [
        SnapshotSet(
            data=states[i],
            trajectory_offsets=np.array([0, k]),
            dt=save_every * cfg.dt,
            controls=controls[saved, i],
            fields=cfg.fields(),
        )
        for i in range(n_loads)
    ]
