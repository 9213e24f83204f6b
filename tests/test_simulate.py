import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfbsde import (OpenLoopControl, SimulationError, TimeGrid,
                    simulate_closed_loop, simulate_paths)
from rfbsde.model import ControlSet, ControlModel, example_classical, example_viscosity
from rfbsde.simulate import _DRAW_ROWS, _ahead


def _flat_model():
    return ControlModel(
        name="flat", drift=lambda r, x, u: 0.0 * x, diffusion=lambda r, x, u: 0.0 * x,
        driver=lambda r, x, y, z, u: 0.0 * y, terminal=lambda x: 0.0 * x,
        obstacle=lambda r, x: np.ones_like(np.asarray(x, dtype=float)),
        control_set=ControlSet.interval(0.0, 1.0, 3), horizon=1.0)


def test_zero_dynamics_paths_constant():
    ens = simulate_paths(_flat_model(), 0.0, 0.7, OpenLoopControl.constant(0.0),
                         TimeGrid(0.0, 1.0, 20), 50, seed=1)
    assert np.all(ens.states == 0.7)


def test_classical_mean_matches_growth_ode(classical_model):
    # under zero control the state mean solves m' = m, so E X(1) = e
    ens = simulate_paths(classical_model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                         TimeGrid(0.0, 1.0, 200), 100000, seed=11)
    terminal = ens.states[:, -1]
    se = terminal.std(ddof=1) / math.sqrt(len(terminal))
    assert abs(terminal.mean() - math.e) <= 3 * se + 0.01


def test_viscosity_zero_start_stays_zero(viscosity_model):
    ens = simulate_paths(viscosity_model, 0.0, 0.0, OpenLoopControl.constant(1.0),
                         TimeGrid(0.0, 1.0, 100), 200, seed=2)
    assert np.all(ens.states == 0.0)


def test_seed_determinism(classical_model):
    kw = dict(start_time=0.0, start_state=1.0,
              control=OpenLoopControl.constant(0.5),
              grid=TimeGrid(0.0, 1.0, 50), n_paths=100, seed=42)
    a = simulate_paths(classical_model, **kw)
    b = simulate_paths(classical_model, **kw)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)


def test_closed_loop_equals_open_loop_for_constant_law(classical_model):
    grid = TimeGrid(0.0, 1.0, 64)
    open_loop = simulate_paths(classical_model, 0.0, 1.0,
                               OpenLoopControl.constant(0.25), grid, 128, seed=9)
    closed = simulate_closed_loop(classical_model, lambda t, x: 0.25, 0.0, 1.0,
                                  grid, 128, seed=9)
    assert np.array_equal(open_loop.states, closed.states)
    assert np.array_equal(open_loop.controls, closed.controls)


def test_closed_loop_strong_error_shrinks(classical_model):
    # exact flow under zero control: x * exp((s-t)/2 + B(s)-B(t))
    def rms_error(steps, seed=5):
        grid = TimeGrid(0.0, 1.0, steps)
        ens = simulate_closed_loop(classical_model, lambda t, x: 0.0, 0.0, 1.0,
                                   grid, 2000, seed=seed)
        brownian = np.cumsum(ens.increments, axis=1)
        exact = np.exp(0.5 * grid.nodes[1:] + brownian)
        err = ens.states[:, 1:] - exact
        return float(np.sqrt(np.mean(err[:, -1] ** 2)))

    coarse, fine = rms_error(50), rms_error(200)
    assert fine < 0.5
    assert coarse / fine >= 1.5          # strong order ~1/2: ratio ~ 2


def test_zero_diffusion_euler_first_order(classical_model):
    drifted = ControlModel(
        name="ode", drift=classical_model.drift,
        diffusion=lambda r, x, u: 0.0 * np.asarray(x, dtype=float),
        driver=classical_model.driver, terminal=classical_model.terminal,
        obstacle=classical_model.obstacle,
        control_set=classical_model.control_set, horizon=1.0)

    def err(steps):
        ens = simulate_paths(drifted, 0.0, 1.0, OpenLoopControl.constant(0.0),
                             TimeGrid(0.0, 1.0, steps), 1, seed=0)
        return abs(ens.states[0, -1] - math.e)

    assert err(100) / err(200) >= 1.8     # O(dt)


def test_viscosity_zero_start_all_zero_under_law(viscosity_model):
    ens = simulate_closed_loop(viscosity_model, lambda t, x: 1.0, 0.0, 0.0,
                               TimeGrid(0.0, 1.0, 50), 100, seed=3)
    assert np.all(ens.states == 0.0)


def test_increment_statistics(classical_model):
    grid = TimeGrid(0.0, 1.0, 100)
    ens = simulate_paths(classical_model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                         grid, 20000, seed=17)
    assert abs(ens.increments.mean()) < 3e-4
    assert abs(ens.increments.var() - grid.dt) < 3e-4


def test_increments_are_the_documented_draw(classical_model):
    # one (paths, steps) Philox draw scaled by sqrt(dt), bit for bit, also
    # when the path count is not a multiple of the block the draw is split in
    n_paths, seed = 2 * _DRAW_ROWS + 37, 123
    grid = TimeGrid(0.0, 1.0, 7)
    ens = simulate_paths(classical_model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                         grid, n_paths, seed)
    gen = np.random.Generator(np.random.Philox(key=seed))
    want = gen.standard_normal((n_paths, grid.steps)) * math.sqrt(grid.dt)
    assert np.array_equal(ens.increments, want)


def test_ahead_yields_items_in_order():
    assert list(_ahead(iter(range(50)))) == list(range(50))
    assert list(_ahead([])) == []


def test_ahead_raises_producer_error_in_place():
    def items():
        yield from range(3)
        raise KeyError("third")

    seen = []
    with pytest.raises(KeyError, match="third"):
        for item in _ahead(items()):
            seen.append(item)
    assert seen == [0, 1, 2]


def test_ahead_helper_ends_with_its_caller():
    # checked while the traceback is held, so no garbage collection helps
    baseline = threading.active_count()
    for item in _ahead(range(10)):
        assert threading.active_count() == baseline + 1
        break
    assert threading.active_count() == baseline
    with pytest.raises(ValueError) as info:
        for item in _ahead(range(10)):
            raise ValueError(item)
    assert threading.active_count() == baseline
    assert info.value.args == (0,)


def test_ensemble_columns_contiguous(classical_model):
    grid = TimeGrid(0.0, 1.0, 6)
    for ens in (simulate_paths(classical_model, 0.0, 1.0,
                               OpenLoopControl.constant(0.5), grid, 50, seed=3),
                simulate_closed_loop(classical_model, lambda t, x: 0.5 * (x > 1.0),
                                     0.0, 1.0, grid, 50, seed=3)):
        for arr in (ens.states, ens.increments, ens.controls):
            assert all(arr[:, i].flags.c_contiguous for i in range(arr.shape[1]))


def test_constant_control_is_one_shared_column(classical_model):
    grid = TimeGrid(0.0, 1.0, 6)
    ens = simulate_paths(classical_model, 0.0, 1.0, OpenLoopControl.constant(0.5),
                         grid, 50, seed=3)
    assert ens.controls.shape == (50, grid.steps)
    assert ens.controls.strides[1] == 0
    assert not ens.controls.flags.writeable
    assert np.all(ens.controls == 0.5)


def test_time_control_is_one_shared_row(classical_model):
    grid = TimeGrid(0.0, 1.0, 6)
    calls = []

    def fn(t):
        calls.append(t)
        return 0.5 * t

    control = OpenLoopControl.from_function(fn)
    ens = simulate_paths(classical_model, 0.0, 1.0, control, grid, 50, seed=3)
    assert len(calls) == grid.steps
    assert ens.controls.shape == (50, grid.steps)
    assert ens.controls.strides == (0, 8)
    assert not ens.controls.flags.writeable
    for i, t in enumerate(grid.nodes[:-1]):
        assert np.array_equal(ens.controls[:, i], control.values_at(t, 50))


def test_control_outside_set_rejected(classical_model):
    with pytest.raises(SimulationError):
        simulate_paths(classical_model, 0.0, 1.0, OpenLoopControl.constant(2.0),
                       TimeGrid(0.0, 1.0, 10), 10, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_state_aborts():
    blower = ControlModel(
        name="blow", drift=lambda r, x, u: np.asarray(x, dtype=float) ** 3 * 1e6,
        diffusion=lambda r, x, u: 0.0 * x,
        driver=lambda r, x, y, z, u: 0.0 * y, terminal=lambda x: x,
        obstacle=lambda r, x: np.full_like(np.asarray(x, dtype=float), 1e30),
        control_set=ControlSet.interval(0.0, 1.0, 2), horizon=1.0)
    baseline = threading.active_count()
    with pytest.raises(SimulationError):
        simulate_paths(blower, 0.0, 10.0, OpenLoopControl.constant(0.0),
                       TimeGrid(0.0, 1.0, 200), 4, seed=0)
    assert threading.active_count() == baseline


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       steps=st.integers(min_value=1, max_value=30),
       paths=st.integers(min_value=1, max_value=40))
def test_seed_determinism_property(seed, steps, paths):
    model = example_classical()
    kw = dict(start_time=0.0, start_state=1.0,
              control=OpenLoopControl.constant(0.0),
              grid=TimeGrid(0.0, 1.0, steps), n_paths=paths, seed=seed)
    a = simulate_paths(model, **kw)
    b = simulate_paths(model, **kw)
    assert np.array_equal(a.states, b.states)
