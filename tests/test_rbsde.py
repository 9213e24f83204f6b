import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfbsde import (BackwardSolverError, OpenLoopControl, TimeGrid,
                    cost_functional, solve_penalized, solve_reflected,
                    tree_oracle)
from rfbsde.model import (ControlModel, ControlSet, example_classical,
                          example_viscosity, random_lipschitz_model, zero_model)
from rfbsde import rbsde
from rfbsde.rbsde import SolverConfig, _ConditionalExpectation
from rfbsde.simulate import simulate_paths

E2 = math.exp(2.0)


def linear_inert_model():
    """Zero dynamics, unit terminal, value-proportional driver, inert barrier."""
    return ControlModel(
        name="linear-inert",
        drift=lambda r, x, u: 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda r, x, u: 0.0 * np.asarray(x, dtype=float),
        driver=lambda r, x, y, z, u: np.asarray(y, dtype=float),
        terminal=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        obstacle=lambda r, x: np.full_like(np.asarray(x, dtype=float), 1e9),
        control_set=ControlSet.interval(0.0, 1.0, 2), horizon=1.0)


def trivial_model():
    """Everything zero, barrier inert at one."""
    return zero_model()


@pytest.fixture(scope="module")
def classical_ensemble():
    model = example_classical()
    return model, simulate_paths(model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                                 TimeGrid(0.0, 1.0, 100), 20000, seed=21)


def test_zero_data_gives_zero_solution():
    model = trivial_model()
    ens = simulate_paths(model, 0.0, 0.3, OpenLoopControl.constant(0.0),
                         TimeGrid(0.0, 1.0, 20), 100, seed=1)
    for level in (1.0, 10.0, 100.0):
        sol = solve_penalized(model, ens, level)
        assert np.all(sol.value == 0.0)
        assert np.all(sol.slope == 0.0)
    ref = solve_reflected(model, ens)
    assert np.all(ref.value == 0.0)
    assert np.all(ref.reflection == 0.0)


def test_penalized_monotone_in_level(classical_ensemble):
    model, ens = classical_ensemble
    vals = [solve_penalized(model, ens, level).value[0, 0]
            for level in (1.0, 10.0, 100.0)]
    assert vals[0] >= vals[1] >= vals[2]


def test_driver_comparison(classical_ensemble):
    model, ens = classical_ensemble
    bumped = ControlModel(
        name="bumped", drift=model.drift, diffusion=model.diffusion,
        driver=lambda r, x, y, z, u: model.driver(r, x, y, z, u) + 0.5,
        terminal=model.terminal, obstacle=model.obstacle,
        control_set=model.control_set, horizon=model.horizon)
    low = solve_penalized(model, ens, 10.0)
    high = solve_penalized(bumped, ens, 10.0)
    assert np.all(high.value >= low.value - 1e-12)


def test_obstacle_inert_linear_model_matches_exponential():
    model = linear_inert_model()
    est = cost_functional(model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                          TimeGrid(0.0, 1.0, 200), 16, seed=5)
    assert abs(est.value - math.e) <= 1e-2
    assert np.all(est.solution.reflection == 0.0)
    # value along nodes tracks e^{T-t}
    mid = est.solution.value[0, 100]
    assert abs(mid - math.exp(0.5)) <= 1e-2


def test_viscosity_zero_start_exact_zero_triple():
    model = example_viscosity()
    ens = simulate_paths(model, 0.0, 0.0, OpenLoopControl.constant(1.0),
                         TimeGrid(0.0, 1.0, 50), 500, seed=3)
    sol = solve_reflected(model, ens)
    assert np.all(sol.value == 0.0)
    assert np.all(sol.slope == 0.0)
    assert np.all(sol.reflection == 0.0)


def test_classical_cost_near_closed_form(classical_ensemble):
    model, _ = classical_ensemble
    est = cost_functional(model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                          TimeGrid(0.0, 1.0, 100), 20000, seed=21)
    assert abs(est.value - E2) <= 3 * est.stderr + 0.05


def test_cost_zero_model_exact():
    est = cost_functional(trivial_model(), 0.0, 0.0, OpenLoopControl.constant(0.0),
                          TimeGrid(0.0, 1.0, 30), 100, seed=2)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_cost_viscosity_optimal_pair_zero():
    est = cost_functional(example_viscosity(), 0.0, 0.0,
                          OpenLoopControl.constant(1.0),
                          TimeGrid(0.0, 1.0, 50), 200, seed=4)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_cost_stderr_is_plain_mean_formula():
    model = example_classical()
    grid = TimeGrid(0.0, 1.0, 20)
    ens = simulate_paths(model, 0.0, 1.0, OpenLoopControl.constant(0.0), grid,
                         500, seed=3)
    est = rbsde._node0_estimate(model, ens, SolverConfig())
    xi = rbsde._path_contributions(model, ens, est.solution)
    assert est.stderr == xi.std(ddof=1) / math.sqrt(len(xi))
    assert est.stderr > 0.0
    one = cost_functional(model, 0.0, 1.0, OpenLoopControl.constant(0.0), grid,
                          1, seed=3)
    assert one.stderr == 0.0


def test_solution_invariants(classical_ensemble):
    model, ens = classical_ensemble
    sol = solve_reflected(model, ens)
    steps = ens.grid.steps
    h_all = np.column_stack([
        model.obstacle(ens.grid.nodes[i], ens.states[:, i])
        for i in range(steps)])
    # barrier respected exactly at reflected nodes
    assert np.max(np.maximum(sol.value[:, :steps] - h_all, 0.0)) == 0.0
    # terminal exact
    assert np.array_equal(sol.value[:, steps], model.terminal(ens.states[:, steps]))
    # reflection starts at zero, is nondecreasing, pushes nonnegative
    assert np.all(sol.reflection[:, 0] == 0.0)
    assert np.all(np.diff(sol.reflection, axis=1) >= 0.0)
    assert np.all(sol.pushes >= 0.0)
    # minimality: gap times push vanishes path by path
    scale = 1.0 + np.abs(sol.value).max()
    slack = np.sum((h_all - sol.value[:, :steps]) * sol.pushes, axis=1)
    assert np.max(slack) <= 1e-8 * scale


def test_penalized_brackets_reflected(classical_ensemble):
    model, ens = classical_ensemble
    ref = solve_reflected(model, ens).value[0, 0]
    vals = [solve_penalized(model, ens, level).value[0, 0]
            for level in (1.0, 10.0, 100.0, 1000.0)]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))
    assert all(v >= ref - 1e-9 for v in vals)
    gaps = [abs(v - ref) for v in vals]
    assert gaps[3] <= gaps[2] + 1e-12


def test_tree_zero_model():
    assert tree_oracle(trivial_model(), 0.0, 0.5, lambda t, x: 0.0, 10) == 0.0


def test_tree_classical_refinement():
    model = example_classical()
    vals = {d: tree_oracle(model, 0.0, 1.0, lambda t, x: 0.0, d)
            for d in (12, 14, 16)}
    assert abs(vals[16] - E2) <= 0.02 * E2
    # refinement moves toward the closed form
    assert abs(vals[16] - E2) <= abs(vals[12] - E2)


def test_tree_obstacle_inert_linear_model():
    model = linear_inert_model()
    val = tree_oracle(model, 0.0, 1.0, lambda t, x: 0.0, 16)
    assert abs(val - math.e) <= 1e-3


def test_tree_depth_cap():
    with pytest.raises(Exception):
        tree_oracle(trivial_model(), 0.0, 0.0, lambda t, x: 0.0, 21)


def test_tree_degenerate_single_branch():
    # zero diffusion collapses children onto the drifted mean
    model = linear_inert_model()
    v8 = tree_oracle(model, 0.0, 1.0, lambda t, x: 0.0, 8)
    assert math.isfinite(v8)
    assert abs(v8 - math.e) < 0.01


def test_oracle_agreement_with_cost(classical_ensemble):
    model, _ = classical_ensemble
    est = cost_functional(model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                          TimeGrid(0.0, 1.0, 100), 20000, seed=21)
    t16 = tree_oracle(model, 0.0, 1.0, lambda t, x: 0.0, 16)
    t14 = tree_oracle(model, 0.0, 1.0, lambda t, x: 0.0, 14)
    assert abs(est.value - t16) <= 3 * est.stderr + abs(t16 - t14) + 0.05


def stiff_model(rate):
    """linear_inert_model with driver ``rate * y``."""
    return dataclasses.replace(
        linear_inert_model(), name="stiff",
        driver=lambda r, x, y, z, u: rate * np.asarray(y, dtype=float))


def test_picard_divergence_raises():
    # f = rate y maps a sweep error e to rate * dt * e; at a contraction of
    # 1 or more no sweep count converges
    for rate, steps in ((100.0, 5), (50.0, 10)):
        model = stiff_model(rate)
        ens = simulate_paths(model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                             TimeGrid(0.0, 1.0, steps), 10, seed=0)
        with pytest.raises(BackwardSolverError, match=f"step .*contraction {rate / steps:g},"):
            solve_reflected(model, ens)


def _tree_band(exact, depth):
    # each level stops its sweep at a tail estimate within the fixed-point
    # tolerance of its scale; the later levels carry that error up to the
    # root, and the factor 2 covers the tail estimate's own error
    return 2.0 * depth * rbsde._FIXED_POINT_TOL * (1.0 + abs(exact))


def test_tree_divergent_sweep_raises():
    # the trapezoidal sweep of f = rate y contracts by rate * dt / 2: 1.875
    # for rate 15 at depth 4, where three sweeps returned 388432 against the
    # fixed point 116.55
    with pytest.raises(BackwardSolverError, match=r"level 3 .*contraction 1\.88,"):
        tree_oracle(stiff_model(15.0), 0.0, 1.0, lambda t, x: 0.0, 4)
    # rate 2 at depth 4 (contraction 0.25) sweeps on to the trapezoid fixed
    # point (1 + dt)/(1 - dt) per level: (5/3)^4, not three sweeps' 7.5249
    exact = (5.0 / 3.0) ** 4
    value = tree_oracle(stiff_model(2.0), 0.0, 1.0, lambda t, x: 0.0, 4)
    assert abs(value - exact) <= _tree_band(exact, 4)


def test_tree_slow_sweep_never_returns_unconverged():
    # rate 7 at depth 4 contracts by 0.875: three sweeps returned 998.35
    # against the trapezoid fixed point 15^4; now the value is converged or
    # the sweep raises
    exact = 15.0 ** 4
    try:
        value = tree_oracle(stiff_model(7.0), 0.0, 1.0, lambda t, x: 0.0, 4)
    except BackwardSolverError as err:
        assert "contraction 0.875" in str(err)
    else:
        assert abs(value - exact) <= _tree_band(exact, 4)


def test_driver_sweep_runs_to_tolerance_on_coarse_grid():
    # f = 2 y at dt = 0.1 contracts by 0.2 per sweep; three sweeps leave a
    # tail estimate above tolerance, so the sweep goes on towards the
    # implicit step's fixed point y = cont / (1 - 2 dt)
    model = stiff_model(2.0)
    ens = simulate_paths(model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                         TimeGrid(0.0, 1.0, 10), 10, seed=0)
    sol = solve_reflected(model, ens)
    assert sol.value[:, 0] == pytest.approx(0.8 ** -10, rel=1e-3)


def test_conditional_expectation_poly_recovers_polynomial():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4000)
    noise = rng.normal(size=4000)
    target = 2.0 + 3.0 * x - x ** 2 + 0.5 * noise
    est = _ConditionalExpectation(x, SolverConfig(degree=3))
    fitted = est(target)
    exact = 2.0 + 3.0 * x - x ** 2
    assert np.sqrt(np.mean((fitted - exact) ** 2)) < 0.1
    assert est.mode == "poly" and not est.fallback


def test_conditional_expectation_rank_fallback():
    # two distinct states cannot support a cubic basis: expect bins fallback
    x = np.array([0.0] * 50 + [1.0] * 50)
    est = _ConditionalExpectation(x, SolverConfig(degree=3))
    assert est.fallback and est.mode == "bins"
    target = np.where(x > 0.5, 2.0, -1.0)
    np.testing.assert_allclose(est(target), target)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("degree", (1, 2, 3))
def test_conditional_expectation_poly_matches_lstsq(seed, degree):
    rng = np.random.default_rng(seed)
    x = np.exp(rng.normal(size=3000)) + 2.0
    target = rng.normal(size=3000) + np.sin(3.0 * x)
    est = _ConditionalExpectation(x, SolverConfig(degree=degree))
    assert est.mode == "poly"
    design = np.vander((x - x.mean()) / x.std(), degree + 1, increasing=True)
    want = design @ np.linalg.lstsq(design, target, rcond=None)[0]
    assert np.max(np.abs(est(target) - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("levels, degree", [
    ((0.0, 1.0), 2), ((0.0, 1.0, 3.0), 3), ((-2.0, 0.5, 7.0), 5)])
def test_conditional_expectation_few_levels_fall_back(levels, degree):
    # fewer distinct states than basis functions: the Gram matrix is singular
    weights = np.arange(1.0, len(levels) + 1.0)
    x = np.random.default_rng(1).choice(levels, size=5000, p=weights / weights.sum())
    est = _ConditionalExpectation(x, SolverConfig(degree=degree))
    assert est.fallback and est.mode == "bins"


def test_conditional_expectation_degenerate_mean():
    x = np.full(100, 3.0)
    est = _ConditionalExpectation(x, SolverConfig())
    assert est.mode == "mean"
    target = np.arange(100.0)
    np.testing.assert_allclose(est(target), target.mean())


def test_estimator_fallback_flagged_in_diagnostics():
    model = linear_inert_model()
    two_point = ControlModel(
        name="two-point", drift=model.drift,
        diffusion=lambda r, x, u: np.ones_like(np.asarray(x, dtype=float)),
        driver=lambda r, x, y, z, u: 0.0 * np.asarray(y, dtype=float),
        terminal=model.terminal, obstacle=model.obstacle,
        control_set=model.control_set, horizon=1.0)
    ens = simulate_paths(two_point, 0.0, 0.0, OpenLoopControl.constant(0.0),
                         TimeGrid(0.0, 1.0, 4), 2000, seed=1)
    # overwrite states with a two-level pattern to force rank deficiency
    states = np.where(ens.increments[:, :1] > 0, 1.0, 0.0)
    patched = ens.states.copy()
    patched.flags.writeable = True
    patched[:, 1:] = states
    object.__setattr__(ens, "states", patched)
    sol = solve_reflected(two_point, ens)
    assert len(sol.diagnostics["estimator_fallback_nodes"]) > 0


def test_c_order_states_solve_alike(classical_ensemble):
    model, ens = classical_ensemble
    c_order = np.ascontiguousarray(ens.states)
    assert not c_order[:, 1].flags.c_contiguous
    sol = solve_reflected(model, ens)
    column_major = ens.states
    object.__setattr__(ens, "states", c_order)
    try:
        again = solve_reflected(model, ens)
    finally:
        object.__setattr__(ens, "states", column_major)
    np.testing.assert_allclose(again.value, sol.value, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(again.reflection, sol.reflection, rtol=1e-12, atol=1e-12)


def test_reflection_is_the_running_push_sum(classical_ensemble):
    model, ens = classical_ensemble
    for sol in (solve_reflected(model, ens), solve_penalized(model, ens, 10.0)):
        reflection = sol.reflection
        assert np.all(reflection[:, 0] == 0.0)
        assert np.array_equal(reflection[:, 1:], np.cumsum(sol.pushes, axis=1))


def test_cost_functional_memory_guard():
    # states, increments, value, slope and pushes are the five tables a
    # cost run holds; the constant control and the reflection are not stored
    n_paths, steps = 20_000, 50
    tracemalloc.start()
    try:
        cost_functional(example_classical(), 0.0, 1.0, OpenLoopControl.constant(0.0),
                        TimeGrid(0.0, 1.0, steps), n_paths, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * n_paths * steps * 8


def test_solution_columns_contiguous(classical_ensemble):
    model, ens = classical_ensemble
    for sol in (solve_reflected(model, ens), solve_penalized(model, ens, 10.0)):
        for arr in (sol.value, sol.slope, sol.reflection, sol.pushes):
            assert all(arr[:, i].flags.c_contiguous for i in range(arr.shape[1]))


@pytest.fixture(scope="module")
def small_classical_ensemble():
    model = example_classical()
    return model, simulate_paths(model, 0.0, 1.0, OpenLoopControl.constant(0.0),
                                 TimeGrid(0.0, 1.0, 20), 2000, seed=8)


def test_reflected_obstacle_tolerance_enforced(small_classical_ensemble, monkeypatch):
    model, ens = small_classical_ensemble
    assert np.any(solve_reflected(model, ens).pushes > 0.0)
    exact = rbsde._barrier_resolve
    # a projection that leaves the value 1e-6 above the barrier
    monkeypatch.setattr(rbsde, "_barrier_resolve",
                        lambda raw, barrier, level, dt: exact(raw, barrier + 1e-6, level, dt))
    with pytest.raises(BackwardSolverError, match="obstacle"):
        solve_reflected(model, ens)
    # the penalized pass only reports: its soft barrier may overshoot
    pen = solve_penalized(model, ens, 10.0)
    assert pen.diagnostics["max_obstacle_violation"] > 1e-6


def test_reflected_skorokhod_tolerance_enforced(small_classical_ensemble, monkeypatch):
    model, ens = small_classical_ensemble
    exact = rbsde._barrier_resolve
    # pushed values left 1e-5 below the barrier: the gap times push is positive
    monkeypatch.setattr(rbsde, "_barrier_resolve",
                        lambda raw, barrier, level, dt: exact(raw, barrier, level, dt) - 1e-5)
    with pytest.raises(BackwardSolverError, match="Skorokhod"):
        solve_reflected(model, ens)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_reflection_invariants_random_models(seed):
    model = random_lipschitz_model(seed % 10)
    ens = simulate_paths(model, 0.0, 0.2, OpenLoopControl.constant(0.5),
                         TimeGrid(0.0, 1.0, 25), 300, seed=seed)
    sol = solve_reflected(model, ens)
    assert sol.diagnostics["max_obstacle_violation"] == 0.0
    assert np.all(sol.pushes >= 0.0)
    assert np.all(np.diff(sol.reflection, axis=1) >= -0.0)
