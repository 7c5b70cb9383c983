"""Full-order model: discretization arithmetic, integration, and guards."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morcal.errors import ConfigError, DataError, NumericError
from morcal.fom import (
    ControlSignal,
    FomConfig,
    _Rates,
    arrhenius_source,
    fom_integrate,
    fom_rhs,
)

# Independently evaluated 5000 * exp(1500 / 533.15).
ARRHENIUS_AT_INFLOW = 83338.03451307402


def test_arrhenius_source_reference_value():
    cfg = FomConfig(grid_points=4)
    value = arrhenius_source(np.array([533.15]), 1.0, cfg)
    assert value.shape == (1,)
    assert math.isclose(value[0], ARRHENIUS_AT_INFLOW, rel_tol=1e-13)


def test_arrhenius_source_scales_linearly_with_load():
    cfg = FomConfig(grid_points=4)
    t = np.array([520.0, 540.0, 560.0])
    one = arrhenius_source(t, 1.0, cfg)
    assert np.allclose(arrhenius_source(t, 2.5, cfg), 2.5 * one, rtol=1e-14)


def test_arrhenius_source_grows_as_temperature_falls():
    cfg = FomConfig(grid_points=4)
    values = arrhenius_source(np.array([500.0, 600.0]), 1.0, cfg)
    assert values[0] > values[1]


def test_arrhenius_source_rejects_nonpositive_temperature():
    cfg = FomConfig(grid_points=4)
    with pytest.raises(NumericError):
        arrhenius_source(np.array([300.0, -1.0]), 1.0, cfg)


def _dense_rhs_oracle(state, heat_load, cfg):
    """Plain-loop rediscretization used to cross-check the vectorized rhs."""
    npts = cfg.grid_points
    dx = cfg.dx
    tc = state[:npts]
    ts = state[npts:]
    out_c = np.zeros(npts)
    out_s = np.zeros(npts)
    for i in range(npts):
        # advection on the coolant, first-order upwind, inlet skipped
        if i >= 1 and cfg.coolant_velocity > 0.0:
            out_c[i] -= cfg.coolant_velocity * (tc[i] - tc[i - 1]) / dx
        # diffusion with zero-gradient ghost nodes
        left_c = tc[i - 1] if i > 0 else tc[i]
        right_c = tc[i + 1] if i < npts - 1 else tc[i]
        if i > 0:
            out_c[i] += (
                cfg.conductivity_coolant
                / cfg.rho_cp_coolant
                * (left_c - 2.0 * tc[i] + right_c)
                / dx**2
            )
        left_s = ts[i - 1] if i > 0 else ts[i]
        right_s = ts[i + 1] if i < npts - 1 else ts[i]
        out_s[i] += (
            cfg.conductivity_solid
            / cfg.rho_cp_solid
            * (left_s - 2.0 * ts[i] + right_s)
            / dx**2
        )
        # exchange between the phases where solid exists
        flux = cfg.exchange_coefficient * cfg.solid_mask[i] * (ts[i] - tc[i])
        out_c[i] += flux / cfg.rho_cp_coolant
        out_s[i] -= flux / cfg.rho_cp_solid
        # temperature-driven source in the solid
        if cfg.solid_mask[i] > 0.0:
            out_s[i] += (
                heat_load
                * cfg.arrhenius_prefactor
                * math.exp(cfg.arrhenius_exponent / ts[i])
                / cfg.rho_cp_solid
            )
    out_c[0] = 0.0
    return np.concatenate([out_c, out_s])


def test_rhs_matches_dense_oracle(rng):
    cfg = FomConfig(grid_points=7, dt=0.01, t_end=1.0)
    state = 533.15 + 30.0 * rng.standard_normal(cfg.n)
    got = fom_rhs(state, 1.3, cfg)
    want = _dense_rhs_oracle(state, 1.3, cfg)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-16)
    # Trajectory states, where neighbouring temperatures are close, too.
    for name, changes in {"default": {}, **_STEPPING_VARIANTS}.items():
        cfg, traj = _stepping_trajectory(changes)
        for j in range(traj.m):
            state, load = traj.data[:, j], traj.controls[j]
            got = fom_rhs(state, load, cfg)
            want = _dense_rhs_oracle(state, load, cfg)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-16), (name, j)


def test_rhs_inlet_node_is_pinned(small_cfg):
    state = 533.15 + np.linspace(0.0, 25.0, small_cfg.n)
    rhs = fom_rhs(state, 1.0, small_cfg)
    assert rhs[0] == 0.0


def test_rhs_source_acts_only_on_solid_rows(small_cfg):
    state = np.full(small_cfg.n, 533.15)
    with_load = fom_rhs(state, 1.0, small_cfg)
    without = fom_rhs(state, 0.0, small_cfg)
    diff = with_load - without
    npts = small_cfg.grid_points
    assert np.all(diff[:npts] == 0.0)
    solid = small_cfg.solid_mask > 0.0
    assert np.all(diff[npts:][solid] > 0.0)
    assert np.all(diff[npts:][~solid] == 0.0)


def test_solid_rows_are_where_the_heat_load_acts():
    cfg = FomConfig(grid_points=12, solid_span=(0.0, 0.4))  # includes grid point 0
    state = 533.15 + np.linspace(0.0, 25.0, cfg.n)
    moved = np.flatnonzero(fom_rhs(state, 1.0, cfg) != fom_rhs(state, 0.0, cfg))
    assert np.array_equal(cfg.solid_rows, moved)
    assert np.array_equal(cfg.solid_rows, [12, 13, 14, 15, 16])


@settings(max_examples=200, deadline=None)
@given(grid_points=st.integers(3, 500),
       span=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted))
def test_solid_rows_are_one_interval(grid_points, span):
    # The step kernel addresses the solid rows as one slice.
    cfg = FomConfig(grid_points=grid_points, solid_span=tuple(span))
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    rows = cfg.solid_rows
    assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))


def test_rhs_rejects_wrong_state_size(small_cfg):
    with pytest.raises(DataError):
        fom_rhs(np.zeros(small_cfg.n + 1), 1.0, small_cfg)


def test_control_signal_is_right_continuous():
    sig = ControlSignal(heat_times=np.array([0.0, 10.0]), heat_values=np.array([1.0, 0.25]))
    assert sig.heat_load(0.0) == 1.0
    assert sig.heat_load(9.999) == 1.0
    assert sig.heat_load(10.0) == 0.25
    assert sig.heat_load(11.0) == 0.25


def test_control_signal_validation():
    with pytest.raises(ConfigError):
        ControlSignal(heat_times=np.array([0.0, 0.0]), heat_values=np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([-1.0]))
    with pytest.raises(ConfigError):  # would leave 0-100 s undefined
        ControlSignal(heat_times=np.array([100.0, 200.0]), heat_values=np.array([1.0, 0.0]))
    early = ControlSignal(heat_times=np.array([-5.0, 100.0]), heat_values=np.array([1.0, 0.0]))
    assert early.heat_load(0.0) == 1.0


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        FomConfig(grid_points=1).validate()
    with pytest.raises(ConfigError):
        FomConfig(grid_points=10, dt=-1.0).validate()
    with pytest.raises(ConfigError):
        FomConfig(grid_points=10, rho_cp_coolant=0.0).validate()
    with pytest.raises(ConfigError, match="solid_span must be two fractions"):
        FomConfig(grid_points=10, solid_span=(0.75, 0.25)).validate()
    with pytest.raises(ConfigError, match="solid_span 0.5, 0.55 covers none of the 10 grid"):
        FomConfig(grid_points=10, solid_span=(0.5, 0.55)).validate()


def test_integrate_refuses_unstable_step(small_cfg, step_signal):
    small_cfg.dt = 10.0 * small_cfg.stability_limit()
    with pytest.raises(NumericError):
        fom_integrate(small_cfg, [step_signal])


def test_integrate_saves_states_controls_and_exact_rhs(small_cfg, step_signal):
    traj = fom_integrate(small_cfg, [step_signal], save_every=40)[0]
    n_steps = round(small_cfg.t_end / small_cfg.dt)
    assert traj.data.shape == (small_cfg.n, n_steps // 40 + 1)
    assert traj.dt == 40 * small_cfg.dt
    times = np.arange(traj.m) * traj.dt
    # controls carry the load that drives the following step
    assert traj.controls.shape == (traj.m,)
    assert np.all(traj.controls[times < 100.0] == 1.0)
    assert np.all(traj.controls[times >= 100.0] == 0.0)
    # the exact rhs at the stored states and controls, from the set
    exact = fom_rhs(traj.data.T, traj.controls, small_cfg).T
    for j in (0, 2, traj.m - 1):
        want = _dense_rhs_oracle(traj.data[:, j], traj.controls[j], small_cfg)
        assert np.allclose(exact[:, j], want, rtol=1e-13, atol=1e-16)


def test_integrate_first_column_is_initial_state(small_cfg, step_signal):
    traj = fom_integrate(small_cfg, [step_signal], save_every=10)[0]
    assert np.all(traj.data[:, 0] == 533.15)
    # the pinned inlet never moves
    assert np.all(traj.data[0, :] == 533.15)


def test_integration_error_halves_with_dt():
    """Explicit Euler is first order: halving dt roughly halves the error."""
    base = FomConfig(
        grid_points=20,
        rho_cp_coolant=1.0e6,
        rho_cp_solid=2.0e6,
        arrhenius_prefactor=3.0e4,
        dt=0.8,
        t_end=120.0,
    )
    signal = ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([1.0]))

    def final_state(dt):
        cfg = FomConfig(**{**base.__dict__, "dt": dt})
        return fom_integrate(cfg, [signal], save_every=round(120.0 / dt))[0].data[:, -1]

    fine = final_state(0.1)
    err_coarse = np.linalg.norm(final_state(0.8) - fine)
    err_half = np.linalg.norm(final_state(0.4) - fine)
    ratio = err_coarse / err_half
    assert 1.8 < ratio < 2.4


def test_integrate_detects_blowup():
    cfg = FomConfig(
        grid_points=10,
        rho_cp_coolant=1.0,
        rho_cp_solid=1.0,
        conductivity_coolant=1e-9,
        conductivity_solid=1e-9,
        exchange_coefficient=0.0,
        arrhenius_prefactor=1e30,
        dt=1.0,
        t_end=50.0,
        initial_temperature=1.0,
        inflow_temperature=1.0,
        coolant_velocity=1e-6,
    )
    signal = ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([1.0]))
    with pytest.raises(NumericError):
        fom_integrate(cfg, [signal])


def _two_schedule_signals():
    """Three different loads on two different heat schedules."""
    return [
        ControlSignal(heat_times=np.array([0.0, 100.0]), heat_values=np.array([1.0, 0.0])),
        ControlSignal(heat_times=np.array([0.0, 100.0]), heat_values=np.array([0.5, 0.0])),
        ControlSignal(heat_times=np.array([0.0, 60.0, 150.0]),
                      heat_values=np.array([1.5, 0.3, 1.0])),
    ]


def test_batched_integrate_equals_one_load_at_a_time(small_cfg):
    signals = _two_schedule_signals()
    batched = fom_integrate(small_cfg, signals, save_every=7)
    assert len(batched) == len(signals)
    for got, signal in zip(batched, signals):
        want = fom_integrate(small_cfg, [signal], save_every=7)[0]
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.controls, want.controls)
        assert got.dt == want.dt
        assert got.fields == want.fields


def test_rhs_on_a_stack_equals_rhs_per_row(small_cfg, rng):
    stack = 533.15 + 30.0 * rng.standard_normal((4, small_cfg.n))
    controls = np.array([0.0, 0.5, 1.0, 2.5])
    got = fom_rhs(stack, controls, small_cfg)
    assert got.shape == stack.shape
    for i in range(stack.shape[0]):
        assert np.array_equal(got[i], fom_rhs(stack[i], controls[i], small_cfg))
    # a single load applies to every row
    shared = fom_rhs(stack, 1.3, small_cfg)
    for i in range(stack.shape[0]):
        assert np.array_equal(shared[i], fom_rhs(stack[i], 1.3, small_cfg))


def test_rhs_rejects_wrongly_shaped_stacks(small_cfg):
    n = small_cfg.n
    with pytest.raises(DataError):
        fom_rhs(np.full((3, n + 1), 533.15), np.zeros(3), small_cfg)
    with pytest.raises(DataError):
        fom_rhs(np.full((2, 3, n), 533.15), 1.0, small_cfg)
    with pytest.raises(DataError):
        fom_rhs(np.full((3, n), 533.15), np.zeros(2), small_cfg)
    with pytest.raises(DataError):
        fom_rhs(np.full(n, 533.15), np.zeros(3), small_cfg)
    # the heat load is the only control: (R, v_I_dot) pairs are refused
    with pytest.raises(DataError):
        fom_rhs(np.full((3, n), 533.15), np.zeros((3, 2)), small_cfg)
    with pytest.raises(DataError):
        fom_rhs(np.full(n, 533.15), (1.0, 0.0), small_cfg)


def test_integrate_rejects_an_empty_signal_list(small_cfg):
    with pytest.raises(ConfigError):
        fom_integrate(small_cfg, [])


def test_blowup_in_one_stacked_load_names_that_load_and_step():
    # exp(1500 / T0) is just below overflow, so only the 1e10 load overflows.
    t0 = 1500.0 / 690.0
    cfg = FomConfig(
        grid_points=10,
        rho_cp_coolant=1.0,
        rho_cp_solid=1.0,
        conductivity_coolant=1e-9,
        conductivity_solid=1e-9,
        exchange_coefficient=0.0,
        arrhenius_prefactor=1.0,
        dt=1.0,
        t_end=5.0,
        initial_temperature=t0,
        inflow_temperature=t0,
        coolant_velocity=1e-6,
    )
    signals = [ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([r]))
               for r in (1.0, 1e10, 0.0)]
    with pytest.raises(NumericError) as info:
        fom_integrate(cfg, signals)
    message = str(info.value)
    assert "non-finite state at step 1 (t=1 s)" in message
    assert message.endswith("heat load(s) 1 (R=1e+10)")


def test_negative_temperature_in_one_stacked_load_names_that_load_and_step():
    # An exchange rate far beyond the explicit bound makes the heated load's
    # solid/coolant gap oscillate and grow until the solid goes negative; the
    # unheated load stays uniform.
    cfg = FomConfig(
        grid_points=10,
        rho_cp_coolant=1.0,
        rho_cp_solid=1.0,
        conductivity_coolant=1e-9,
        conductivity_solid=1e-9,
        exchange_coefficient=3.0,
        arrhenius_prefactor=1e-3,
        dt=1.0,
        t_end=40.0,
        initial_temperature=500.0,
        inflow_temperature=500.0,
        coolant_velocity=1e-6,
    )
    signals = [ControlSignal(heat_times=np.array([0.0]), heat_values=np.array([r]))
               for r in (0.0, 1.0)]
    with pytest.raises(NumericError) as info:
        fom_integrate(cfg, signals)
    message = str(info.value)
    assert message.startswith("non-positive solid temperature")
    assert message.endswith("at step 8 (t=8 s) in heat load(s) 1 (R=1)")


def _stepping_cfg(**changes):
    """A 12-point model whose inlet is colder than the start, so every term acts."""
    values = dict(
        grid_points=12,
        rho_cp_coolant=1.0e6,
        rho_cp_solid=2.0e6,
        arrhenius_prefactor=3.0e4,
        inflow_temperature=520.0,
        initial_temperature=533.15,
        coolant_velocity=0.01,
        dt=0.5,
        t_end=10.0,
    )
    values.update(changes)
    return FomConfig(**values)


_STEPPING_VARIANTS = {
    "solid-at-the-inlet": {"solid_span": (0.0, 0.5)},
    "no-flow": {"coolant_velocity": 0.0},
    "no-conduction": {"conductivity_coolant": 0.0, "conductivity_solid": 0.0},
    "no-exchange": {"exchange_coefficient": 0.0},
}


def _stepping_signal():
    """Load 1, then 0.4 from 4 s."""
    return ControlSignal(heat_times=np.array([0.0, 4.0]), heat_values=np.array([1.0, 0.4]))


def _stepping_trajectory(changes):
    """Every step of 10 s on ``_stepping_cfg(**changes)`` under ``_stepping_signal``."""
    cfg = _stepping_cfg(**changes)
    return cfg, fom_integrate(cfg, [_stepping_signal()], save_every=1)[0]


@pytest.mark.parametrize("changes", list(_STEPPING_VARIANTS.values()),
                         ids=list(_STEPPING_VARIANTS))
def test_each_folded_step_is_one_exact_euler_step(changes):
    cfg, traj = _stepping_trajectory(changes)
    assert traj.data.shape == (cfg.n, 21)
    for j in range(traj.data.shape[1] - 1):
        want = traj.data[:, j] + cfg.dt * fom_rhs(traj.data[:, j], traj.controls[j], cfg)
        assert np.allclose(traj.data[:, j + 1], want, rtol=1e-13, atol=0.0), j
        # fom_rhs and the step share their rates: check both against the oracle.
        oracle = traj.data[:, j] + cfg.dt * _dense_rhs_oracle(traj.data[:, j],
                                                              traj.controls[j], cfg)
        assert np.allclose(traj.data[:, j + 1], oracle, rtol=1e-13, atol=0.0), j
    # the rhs of the whole set is the rhs of each saved column, bit for bit
    exact = fom_rhs(traj.data.T, traj.controls, cfg).T
    for j in range(traj.m):
        assert np.array_equal(exact[:, j], fom_rhs(traj.data[:, j], traj.controls[j], cfg)), j
    assert np.all(traj.data[0] == cfg.inflow_temperature)


def test_only_the_step_rates_run_once_per_step(small_cfg, monkeypatch):
    """The integrator applies only the dt-scaled rates, once per step, to the whole
    stack; it never computes the right-hand side at the saved states."""
    import morcal.fom

    step_gain = small_cfg.dt * small_cfg.arrhenius_prefactor / small_cfg.rho_cp_solid
    calls = []
    add_to = morcal.fom._Rates.add_to

    def counting(rates, out, state, solid_t, heat):
        calls.append((rates.source_gain, rates.left.shape[-1], state.shape))
        return add_to(rates, out, state, solid_t, heat)

    monkeypatch.setattr(morcal.fom._Rates, "add_to", counting)
    sets = fom_integrate(small_cfg, _two_schedule_signals(), save_every=7)
    n_steps = round(small_cfg.t_end / small_cfg.dt)
    assert sets[0].data.shape[1] == n_steps // 7 + 1
    assert calls == [(step_gain, 3, (small_cfg.n, 3))] * n_steps


def _row_major_add_to(rates, out, state, heat):
    """The rates applied to an (L, n) stack, one load per row: the same
    arithmetic in the other layout, which the integrator must match bit for bit."""
    left, right, exchange = rates.left[:, 0], rates.right[:, 0], rates.exchange[..., 0]
    solid_t = state[:, rates.solid]
    out[:, 1:] += left * (state[:, :-1] - state[:, 1:])
    out[:, :-1] += right * (state[:, 1:] - state[:, :-1])
    fields = state.reshape((-1,) + exchange.shape)
    out_fields = out.reshape(fields.shape)
    out_fields += exchange * (fields[:, ::-1] - fields)
    out[:, rates.solid] += (rates.source_gain * heat[:, None]) * np.exp(rates.exponent / solid_t)
    return out


def _row_major_integrate(cfg, signals):
    """States and exact right-hand sides at every step, from the row-major kernel."""
    step, exact = _Rates(cfg, cfg.dt, 1), _Rates(cfg, 1.0, 1)
    n_steps = int(round(cfg.t_end / cfg.dt))
    heat = np.column_stack([sig.heat_load(np.arange(n_steps + 1) * cfg.dt) for sig in signals])
    state = np.full((len(signals), cfg.n), cfg.initial_temperature)
    state[:, 0] = cfg.inflow_temperature
    states, derivs = [], []
    for j in range(n_steps + 1):
        states.append(state)
        derivs.append(_row_major_add_to(exact, np.zeros(state.shape), state, heat[j]))
        state = _row_major_add_to(step, state.copy(), state, heat[j])
    return np.stack(states, axis=-1), np.stack(derivs, axis=-1)


_BIT_CASES = {
    **{name: (_stepping_cfg(**changes), [_stepping_signal()])
       for name, changes in _STEPPING_VARIANTS.items()},
    "stacked": (_stepping_cfg(grid_points=30, t_end=200.0), _two_schedule_signals()),
}


@pytest.mark.parametrize("case", list(_BIT_CASES), ids=list(_BIT_CASES))
def test_integrator_matches_the_row_major_kernel_bit_for_bit(case):
    cfg, signals = _BIT_CASES[case]
    states, derivs = _row_major_integrate(cfg, signals)
    for i, got in enumerate(fom_integrate(cfg, signals, save_every=1)):
        assert np.array_equal(got.data.view(np.int64), states[i].view(np.int64))
        # fom_rhs of a whole saved set, on width-1 rates, gives the kernel's bits
        exact = fom_rhs(got.data.T, got.controls, cfg).T
        assert np.array_equal(exact.view(np.int64), derivs[i].view(np.int64))
        for j in (0, got.m // 2, got.m - 1):
            # relative to the largest term: near equilibrium, rows cancel to round-off
            oracle = _dense_rhs_oracle(got.data[:, j], got.controls[j], cfg)
            assert np.max(np.abs(exact[:, j] - oracle)) <= 1e-13 * np.max(np.abs(oracle)), j
