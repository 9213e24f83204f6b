import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from rfbsde import (ConfigError, OpenLoopControl, TimeGrid, cost_functional,
                    evaluate_feedback, extract_feedback)
from rfbsde.hjb import (SpaceTimeGrid, _hamiltonian_grid, _state_control_tables,
                        solve_obstacle_hjb)
from rfbsde.model import ControlModel, ControlSet, example_classical, zero_model
from rfbsde.rbsde import SolverConfig, _node0_estimate
from rfbsde.simulate import simulate_closed_loop
from rfbsde.synthesis import FeedbackLaw, check_law_regularity, simulate_law

E2 = math.exp(2.0)


@pytest.fixture(scope="module")
def classical_law(classical_surface, classical_model):
    return extract_feedback(classical_surface, classical_model)


@pytest.fixture(scope="module")
def viscosity_law(viscosity_surface, viscosity_model):
    return extract_feedback(viscosity_surface, viscosity_model)


@pytest.fixture(scope="module")
def implicit_viscosity_law(viscosity_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=-5.0, x_max=5.0, t_steps=200, x_steps=100)
    return extract_feedback(solve_obstacle_hjb(viscosity_model, grid, scheme="implicit"),
                            viscosity_model)


def test_classical_law_identically_zero(classical_law):
    assert np.all(classical_law.table == 0.0)


def test_u_independent_model_gets_smallest_control(classical_surface):
    m = example_classical()
    u_free = ControlModel(
        name="u-free",
        drift=lambda r, x, u: np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(u, dtype=float))[0] + 0.0,
        diffusion=m.diffusion,
        driver=lambda r, x, y, z, u: np.broadcast_arrays(
            np.asarray(y, dtype=float), np.asarray(u, dtype=float))[0] + 0.0,
        terminal=m.terminal, obstacle=m.obstacle,
        control_set=ControlSet.interval(0.25, 1.0, 4), horizon=1.0)
    law = extract_feedback(classical_surface, u_free)
    assert np.all(law.table == 0.25)


def test_viscosity_law_switches_at_kink(viscosity_law, viscosity_surface):
    (kink,) = viscosity_surface.kink_columns
    assert np.all(viscosity_law.table[:, :kink] == 2.0)
    assert np.all(viscosity_law.table[:, kink + 1:] == 1.0)
    # tie at the kink resolves to the smallest control
    assert np.all(viscosity_law.table[:, kink] == 1.0)


def test_selector_attains_the_infimum(viscosity_surface, viscosity_model):
    law = extract_feedback(viscosity_surface, viscosity_model)
    grid = viscosity_surface.grid
    u_grid = viscosity_model.control_set.points()
    _, wx, wxx = viscosity_surface.expansion_rows(np.arange(grid.t_steps + 1))
    for i in (0, grid.t_steps // 2):
        rows = _hamiltonian_grid(viscosity_model, grid.times[i],
                                 _state_control_tables(viscosity_model, grid.xs),
                                 viscosity_surface.values[i], wx[i], wxx[i])
        chosen = law.table[i]
        idx = np.searchsorted(u_grid, chosen)
        attained = rows[idx, np.arange(rows.shape[1])]
        np.testing.assert_array_equal(attained, rows.min(axis=0))


def test_argmin_invariant_under_driver_shift(classical_surface, classical_model):
    m = classical_model
    shifted = ControlModel(
        name="shifted", drift=m.drift, diffusion=m.diffusion,
        driver=lambda r, x, y, z, u: m.driver(r, x, y, z, u) + 1.0,
        terminal=m.terminal, obstacle=m.obstacle,
        control_set=m.control_set, horizon=1.0)
    a = extract_feedback(classical_surface, m)
    b = extract_feedback(classical_surface, shifted)
    np.testing.assert_array_equal(a.table, b.table)


def test_law_regularity_reports(classical_law, viscosity_law):
    const = FeedbackLaw.constant(0.3, ControlSet.interval(0.0, 1.0, 3))
    rep = check_law_regularity(const)
    assert rep.lipschitz_constant == 0.0 and rep.member

    assert check_law_regularity(classical_law).member
    visc = check_law_regularity(viscosity_law)
    assert not visc.member
    assert visc.worst_jump == 1.0


def test_law_lookup_stays_in_control_set(viscosity_law):
    ts = np.linspace(-0.5, 1.5, 7)
    xs = np.linspace(-10.0, 10.0, 13)
    for t in ts:
        vals = np.atleast_1d(viscosity_law(t, xs))
        assert viscosity_law.control_set.contains(vals)
        assert set(np.unique(vals)) <= {1.0, 2.0}


def test_evaluate_zero_model_law():
    model = zero_model()
    law = FeedbackLaw.constant(0.5, model.control_set)
    est = evaluate_feedback(model, law, 0.0, 0.0, TimeGrid(0.0, 1.0, 20),
                            50, seed=1)
    assert est.value == 0.0


def test_evaluate_classical_extracted_law(classical_model, classical_law):
    est = evaluate_feedback(classical_model, classical_law, 0.0, 1.0,
                            TimeGrid(0.0, 1.0, 100), 20000, seed=3)
    assert abs(est.value - E2) <= 3 * est.stderr + 0.05


def test_evaluate_viscosity_constant_law_zero(viscosity_model):
    law = FeedbackLaw.constant(1.0, viscosity_model.control_set)
    est = evaluate_feedback(viscosity_model, law, 0.0, 0.0,
                            TimeGrid(0.0, 1.0, 50), 200, seed=2)
    assert est.value == 0.0 and est.stderr == 0.0


def test_constant_law_runs_as_open_loop_constant(viscosity_model, viscosity_law):
    # a constant law outside the control set is projected onto it; its paths
    # are the closed loop's bit for bit, from one shared control column
    grid = TimeGrid(0.0, 1.0, 20)
    for law in (FeedbackLaw.constant(5.0, viscosity_model.control_set), viscosity_law):
        ens = simulate_law(viscosity_model, law, 0.0, 0.5, grid, 300, 3)
        ref = simulate_closed_loop(viscosity_model, law, 0.0, 0.5, grid, 300, 3)
        assert np.array_equal(ens.states, ref.states)
        assert np.array_equal(ens.controls, ref.controls)
        assert (ens.controls.strides[1] == 0) == (law.table is None)


def test_single_valued_table_runs_as_constant(classical_model, classical_law):
    # example-classical's extracted law is 0 at every node: it runs as the
    # constant 0, from one shared control column, and costs what the
    # closed loop costs, diagnostics included
    grid = TimeGrid(0.0, 1.0, 50)
    ens = simulate_law(classical_model, classical_law, 0.0, 1.0, grid, 2000, 5)
    assert ens.controls.strides == (8, 0)
    est = evaluate_feedback(classical_model, classical_law, 0.0, 1.0, grid, 2000, seed=5)
    ref = _node0_estimate(classical_model, simulate_closed_loop(
        classical_model, classical_law, 0.0, 1.0, grid, 2000, 5), SolverConfig())
    assert (est.value, est.stderr, est.diagnostics) == \
        (ref.value, ref.stderr, ref.diagnostics)


def test_evaluate_refuses_irregular_law(viscosity_model, viscosity_law):
    with pytest.raises(ConfigError):
        evaluate_feedback(viscosity_model, viscosity_law, 0.0, 0.5,
                          TimeGrid(0.0, 1.0, 20), 50, seed=1)
    est = evaluate_feedback(viscosity_model, viscosity_law, 0.0, 0.5,
                            TimeGrid(0.0, 1.0, 20), 50, seed=1,
                            allow_irregular=True)
    assert math.isfinite(est.value)


def test_closed_loop_cost_holds_no_solution_tables(viscosity_model,
                                                  implicit_viscosity_law):
    # the cost is folded from the backward stream as its nodes arrive:
    # besides the ensemble it keeps no table, and nothing after return
    n_paths, steps = 4000, 50
    grid = TimeGrid(0.0, 1.0, steps)
    # a small run first, so lazy imports and caches are not counted
    evaluate_feedback(viscosity_model, implicit_viscosity_law, 0.0, 0.5, grid, 50,
                      seed=11, allow_irregular=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = evaluate_feedback(viscosity_model, implicit_viscosity_law, 0.0, 0.5,
                                grid, n_paths, seed=11, allow_irregular=True)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    table = n_paths * (steps + 1) * 8
    assert est.solution is None
    assert peak < 3.9 * table
    assert held < 0.1 * table


def test_closed_loop_cost_pinned(viscosity_model, implicit_viscosity_law):
    # sha256 of repr((value, stderr)), pinned while the estimate still stored
    # the reflected solution: folding the stream must not move a bit.
    # Re-pinned when the fold took the stream's order: the stderr moved one
    # ulp (0.018214975929567563 -> ...567), the value not at all
    est = evaluate_feedback(viscosity_model, implicit_viscosity_law, 0.0, 0.5,
                            TimeGrid(0.0, 1.0, 50), 4000, seed=11, allow_irregular=True)
    assert hashlib.sha256(repr((est.value, est.stderr)).encode()).hexdigest() == \
        "0a2b203ff5d84ff9fc49b3e65dd49083b4c66af0a2567bceff47deb10dd69a1d"


def test_feedback_beats_open_loop_battery(classical_model, classical_law):
    grid = TimeGrid(0.0, 1.0, 50)
    fb = evaluate_feedback(classical_model, classical_law, 0.0, 1.0, grid,
                           5000, seed=9)
    for k, u in enumerate((0.0, 0.5, 1.0)):
        est = cost_functional(classical_model, 0.0, 1.0,
                              OpenLoopControl.constant(u), grid, 5000,
                              seed=10 + k)
        assert fb.value <= est.value + 3 * (est.stderr + fb.stderr) + 0.05
