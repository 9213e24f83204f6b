import dataclasses
import hashlib
import math

import numpy as np
import pytest

from rfbsde import (BackwardSolverError, ConfigError, SpaceTimeGrid,
                    extract_feedback, inf_hamiltonian, residual, solve_obstacle_hjb)
from rfbsde.hjb import candidate_surface, coefficients, write_grid_csv
from rfbsde.model import (ControlModel, ControlSet, example_classical, example_viscosity,
                          random_lipschitz_model)

E2 = math.exp(2.0)


def u_free_model():
    """Hamiltonian independent of the control: drift/driver ignore u."""
    m = example_classical()
    return ControlModel(
        name="u-free",
        drift=lambda r, x, u: np.asarray(x, dtype=float) + 0.0 * np.asarray(u, dtype=float),
        diffusion=m.diffusion,
        driver=lambda r, x, y, z, u: np.asarray(y, dtype=float) + 0.0 * np.asarray(u, dtype=float),
        terminal=m.terminal, obstacle=m.obstacle,
        control_set=m.control_set, horizon=1.0)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def at_control(model, u):
    """``model`` on the one-point control set {u}: its grid infimum is H at u."""
    return dataclasses.replace(model, control_set=ControlSet.interval(u, u, 1))


def test_hamiltonian_classical_substitution(classical_model):
    value, argmins = inf_hamiltonian(at_control(classical_model, 0.0),
                                     0.0, 1.0, 2.0, 3.0, 4.0)
    # (1/2)*1*4 + (1+0)*3 + (2+0)
    assert value == pytest.approx(7.0)
    assert list(argmins) == [0.0]


def test_hamiltonian_zero_query(viscosity_model):
    value, _ = inf_hamiltonian(at_control(viscosity_model, 1.0), 0.0, 0.0, 0.0, 0.0, 0.0)
    assert value == 0.0


def test_hamiltonian_viscosity_substitution(viscosity_model):
    value, _ = inf_hamiltonian(at_control(viscosity_model, 2.0), 0.0, 1.0, -2.0, 1.0, 0.0)
    # 0 + 1*2 + (-|-2|)
    assert value == pytest.approx(0.0)


def test_inf_hamiltonian_classical_positive_slope(classical_model):
    p = math.exp(2.0 * (1.0 - 0.3))
    value, argmins = inf_hamiltonian(classical_model, 0.3, 1.0, 1.0, p, 0.0)
    assert list(argmins) == [0.0]
    at_zero, _ = inf_hamiltonian(at_control(classical_model, 0.0), 0.3, 1.0, 1.0, p, 0.0)
    assert value == pytest.approx(at_zero)


def test_inf_hamiltonian_tie_on_u_free_model():
    model = u_free_model()
    value, argmins = inf_hamiltonian(model, 0.0, 1.0, 1.0, 1.0, 0.0)
    np.testing.assert_allclose(argmins, model.control_set.points())
    assert argmins[0] == 0.0                 # canonical: smallest


def test_inf_hamiltonian_viscosity_negative_state(viscosity_model):
    p = math.exp(3.0 * (1.0 - 0.4))
    value, argmins = inf_hamiltonian(viscosity_model, 0.4, -1.0, -1.0, p, 0.0)
    assert list(argmins) == [2.0]            # slope x*p < 0: take the largest


# ---------------------------------------------------------------------------
# Obstacle PDE solver
# ---------------------------------------------------------------------------

def test_zero_data_solution_vanishes():
    model = ControlModel(
        name="null",
        drift=lambda r, x, u: 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda r, x, u: 0.0 * np.asarray(x, dtype=float),
        driver=lambda r, x, y, z, u: 0.0 * np.asarray(y, dtype=float),
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        obstacle=lambda r, x: 0.0 * np.asarray(x, dtype=float),
        control_set=ControlSet.interval(0.0, 1.0, 2), horizon=1.0)
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0,
                         t_steps=40, x_steps=20)
    surface = solve_obstacle_hjb(model, grid)
    assert np.all(surface.values == 0.0)


def test_classical_surface_matches_closed_form(classical_surface):
    grid = classical_surface.grid
    ref = grid.xs[None, :] * np.exp(2.0 * (grid.horizon - grid.times))[:, None]
    rel = np.abs(classical_surface.values - ref) / np.abs(ref)
    assert rel[:, 3:-3].max() <= 1e-2


def test_viscosity_surface_matches_closed_form(viscosity_surface):
    grid = viscosity_surface.grid
    xs, ts = grid.xs, grid.times
    ref = np.where(xs[None, :] > 0, xs[None, :],
                   xs[None, :] * np.exp(3.0 * (grid.horizon - ts))[:, None])
    off_kink = np.abs(xs) > 3 * grid.dx + 1e-12
    rel = np.abs(viscosity_surface.values - ref) / np.maximum(np.abs(ref), 1e-300)
    assert rel[:, off_kink][:, 3:-3].max() <= 2e-2
    assert viscosity_surface.kink_columns == (50,)


def test_implicit_scheme_matches_closed_form(classical_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=400, x_steps=100)
    surface = solve_obstacle_hjb(classical_model, grid, scheme="implicit")
    ref = grid.xs[None, :] * np.exp(2.0 * (1.0 - grid.times))[:, None]
    rel = np.abs(surface.values - ref) / np.abs(ref)
    assert rel[:, 3:-3].max() <= 1e-2


def test_projection_and_terminal_exact(classical_surface, classical_model):
    grid = classical_surface.grid
    tt, xx = np.meshgrid(grid.times, grid.xs, indexing="ij")
    barrier = np.asarray(classical_model.obstacle(tt, xx), dtype=float)
    assert np.max(classical_surface.values - barrier) <= 0.0
    np.testing.assert_array_equal(classical_surface.values[-1],
                                  classical_model.terminal(grid.xs))


def test_penalty_pde_agreement_spec_instance(classical_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=200, x_steps=60)
    proj = solve_obstacle_hjb(classical_model, grid).values
    gap = {n: np.abs(solve_obstacle_hjb(classical_model, grid,
                                        penalty_level=n).values - proj).max()
           for n in (100.0, 1000.0)}
    assert gap[1000.0] <= 5.0 * gap[100.0] + 1e-12


def test_penalty_pde_monotone_on_active_obstacle(classical_model):
    # halved barrier makes the clamp genuinely active, so the 1/n rate shows
    m = classical_model
    tight = ControlModel(
        name="active", drift=m.drift, diffusion=m.diffusion, driver=m.driver,
        terminal=m.terminal,
        obstacle=lambda r, x: np.asarray(x, dtype=float) * (0.5 * E2),
        control_set=m.control_set, horizon=1.0)
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=200, x_steps=60)
    proj = solve_obstacle_hjb(tight, grid).values
    gaps = []
    for n in (100.0, 1000.0):
        pen = solve_obstacle_hjb(tight, grid, penalty_level=n).values
        assert (pen - proj).min() >= -1e-12    # penalty approaches from above
        gaps.append(np.abs(pen - proj).max())
    assert 0.0 < gaps[1] < 0.5 * gaps[0]


def test_grid_refinement_improves(classical_model):
    def err(ts, xs_):
        grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                             t_steps=ts, x_steps=xs_)
        s = solve_obstacle_hjb(classical_model, grid)
        ref = grid.xs[None, :] * np.exp(2.0 * (1.0 - grid.times))[:, None]
        return np.abs((s.values - ref) / ref)[:, 3:-3].max()

    assert err(100, 50) / err(400, 100) >= 2.0


def test_discrete_comparison_in_terminal_data(classical_model):
    m = classical_model
    bumped = ControlModel(
        name="bumped", drift=m.drift, diffusion=m.diffusion, driver=m.driver,
        terminal=lambda x: np.asarray(x, dtype=float) + 0.1,
        obstacle=m.obstacle, control_set=m.control_set, horizon=1.0)
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=200, x_steps=60)
    low = solve_obstacle_hjb(m, grid).values
    high = solve_obstacle_hjb(bumped, grid).values
    assert (high - low).min() >= -1e-12


# ---------------------------------------------------------------------------
# Residual field
# ---------------------------------------------------------------------------

def test_residual_zero_model(zero_surface):
    model, surface = zero_surface
    res = residual(surface, model)
    finite = res[np.isfinite(res)]
    # barrier is inert at 1 and the solution vanishes: residual = max(-1, 0)
    assert np.all(finite <= 1e-12)


def test_residual_classical_candidate(classical_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=100, x_steps=100)
    cand = candidate_surface(classical_model, grid)
    res = residual(cand, classical_model)
    finite = np.abs(res[np.isfinite(res)])
    assert finite.max() <= grid.dt + grid.dx ** 2


def test_residual_viscosity_candidate_branchwise(viscosity_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=-5.0, x_max=5.0,
                         t_steps=100, x_steps=100)
    cand = candidate_surface(viscosity_model, grid)
    res = residual(cand, viscosity_model)
    norm = 1.0 + np.abs(cand.values)
    scaled = np.abs(res) / norm
    off_kink = np.abs(grid.xs) > 1.5 * grid.dx
    vals = scaled[:, off_kink]
    assert np.nanmax(vals) <= grid.dt + grid.dx ** 2
    # obstacle-active branch on the positive side is exact
    pos = grid.xs > 1.5 * grid.dx
    active_gap = cand.values[:, pos] - np.maximum(grid.xs[pos], 0.0)[None, :]
    assert np.abs(active_gap).max() == 0.0


# ---------------------------------------------------------------------------
# Surfaces: accessors, candidates, export
# ---------------------------------------------------------------------------

def test_candidate_surface_values_and_form():
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=10, x_steps=10)
    cand = candidate_surface(example_classical(), grid)
    assert cand.exact_form is not None
    assert cand.value_at(0.0, 1.0) == pytest.approx(E2)
    assert cand.values[-1, 0] == pytest.approx(0.1)


def test_candidate_refuses_another_horizon():
    # a model without a closed form is refused in test_model
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.0, x_max=1.0, t_steps=4, x_steps=4)
    with pytest.raises(ConfigError, match="horizon"):
        candidate_surface(example_classical(horizon=2.0), grid)


def test_derivative_accessor_matches_closed_form():
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=200, x_steps=100)
    cand = candidate_surface(example_classical(), grid)
    i, j = 100, 50
    wt, wx, wxx = (float(table[i, j])
                   for table in cand.expansion_rows(np.arange(grid.t_steps + 1)))
    t, x = grid.times[i], grid.xs[j]
    assert wt == pytest.approx(-2.0 * x * math.exp(2.0 * (1.0 - t)), rel=1e-3)
    assert wx == pytest.approx(math.exp(2.0 * (1.0 - t)), rel=1e-9)
    assert abs(wxx) < 1e-9


def test_kink_column_takes_slope_midpoint():
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0,
                         t_steps=50, x_steps=40)
    cand = candidate_surface(example_viscosity(), grid)
    (kink,) = cand.kink_columns
    _, wx, wxx = cand.expansion_rows(np.arange(grid.t_steps + 1))
    t = grid.times[10]
    # left slope e^{3(1-t)} (the grown branch), right slope 1
    assert wx[10, kink] == pytest.approx(0.5 * (math.exp(3.0 * (1.0 - t)) + 1.0), rel=1e-6)
    assert np.all(wxx[:, kink] == 0.0)


def test_product_control_set_refused():
    # a product control set is refused when it is built, so
    # inf_hamiltonian cannot be handed one
    m = example_classical()

    def product_model():
        return ControlModel(
            name="product", drift=m.drift, diffusion=m.diffusion, driver=m.driver,
            terminal=m.terminal, obstacle=m.obstacle,
            control_set=ControlSet(lo=(0.0, 0.0), hi=(1.0, 1.0), grid_points=2),
            horizon=1.0)

    with pytest.raises(ConfigError, match="only one control coordinate is supported"):
        inf_hamiltonian(product_model(), 0.0, 1.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Coefficient tables, edge rules and the CSV format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn", [
    lambda r, x, *rest: 0.7,
    lambda r, x, *rest: 2.0 * x,
    lambda r, x, *rest: x * rest[-1] + 1.0,
], ids=["float", "row", "table"])
def test_coefficients_broadcast_each_return_shape(fn):
    m = dataclasses.replace(example_classical(), drift=fn, diffusion=fn, driver=fn)
    x = np.linspace(-1.0, 1.0, 6)[None, :]
    y = np.full((1, 6), 0.3)
    p = np.full((1, 6), 2.0)
    u = np.array([0.0, 0.5, 1.0])[:, None]
    sig, b, f = coefficients(m, 0.0, x, y, p, u)
    sig_ref = np.broadcast_to(np.asarray(fn(0.0, x, u), dtype=float), (3, 6))
    b_ref = np.broadcast_to(np.asarray(fn(0.0, x, u), dtype=float), (3, 6))
    f_ref = np.broadcast_to(np.asarray(fn(0.0, x, y, p * sig_ref, u), dtype=float), (3, 6))
    for got, ref in ((sig, sig_ref), (b, b_ref), (f, f_ref)):
        assert got.shape == (3, 6)
        assert got.tobytes() == ref.tobytes()


def test_policy_iteration_with_scalar_coefficients():
    m = example_classical()
    # W = x is exact: W_x = 1 makes u = 0 the minimizer and the stencil is
    # exact on linear data; diffusion and driver return plain floats
    scalar = ControlModel(
        name="scalar-noise", drift=lambda r, x, u: u + 0.0 * x,
        diffusion=lambda r, x, u: 0.5, driver=lambda r, x, y, z, u: 0.0,
        terminal=m.terminal, obstacle=lambda r, x: np.asarray(x, dtype=float) + 100.0,
        control_set=m.control_set, horizon=1.0)
    grid = SpaceTimeGrid(1.0, -2.0, 2.0, 20, 16)
    surface = solve_obstacle_hjb(scalar, grid, scheme="implicit")
    np.testing.assert_allclose(surface.values, np.broadcast_to(grid.xs, surface.values.shape),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
@pytest.mark.parametrize("kwargs, message", [
    ({"penalty_level": -5.0}, "penalty level must be positive, got -5.0"),
    ({"penalty_level": 0.0}, "penalty level must be positive, got 0.0"),
], ids=["penalty-negative", "penalty-zero"])
def test_bad_solver_arguments_refused_before_any_step(classical_model, scheme,
                                                      kwargs, message):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    m = dataclasses.replace(classical_model, **{
        name: counted(getattr(classical_model, name))
        for name in ("drift", "diffusion", "driver", "terminal", "obstacle")})
    grid = SpaceTimeGrid(1.0, 0.1, 5.0, 20, 10)
    with pytest.raises(ConfigError, match=message):
        solve_obstacle_hjb(m, grid, scheme=scheme, **kwargs)
    assert calls == []


def test_implicit_provenance_records_linear_edges(classical_model):
    grid = SpaceTimeGrid(1.0, 0.1, 5.0, 40, 20)
    surface = solve_obstacle_hjb(classical_model, grid, scheme="implicit")
    assert surface.provenance == "computed(scheme=implicit, boundary=extrap1)"


def test_implicit_provenance_records_penalty(classical_model):
    grid = SpaceTimeGrid(1.0, 0.1, 5.0, 40, 20)
    soft = solve_obstacle_hjb(classical_model, grid, scheme="implicit", penalty_level=50.0)
    assert soft.provenance == "computed(scheme=implicit, boundary=extrap1, penalty=50)"
    explicit = solve_obstacle_hjb(classical_model, grid, penalty_level=50.0)
    assert explicit.provenance.endswith(", boundary=extrap2, penalty=50)")


def test_grid_csv_matches_per_element_repr(tmp_path):
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0, t_steps=2, x_steps=3)
    rows = np.array([[np.nan, np.inf, -np.inf, -0.0],
                     [1e-05, 1e16, 5e-324, 0.1 + 0.2],
                     [0.0, -1.5, 2.0 / 3.0, 1e300]])
    comments = ["first", "second: 2"]
    path = tmp_path / "grid.csv"
    write_grid_csv(path, comments, grid, rows)
    # the per-element formatting the writer must reproduce byte for byte
    expected = "".join(f"# {line}\n" for line in comments)
    expected += "time," + ",".join(repr(float(x)) for x in grid.xs) + "\n"
    for i, t in enumerate(grid.times):
        expected += repr(float(t)) + "," + ",".join(repr(float(v)) for v in rows[i]) + "\n"
    assert path.read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# Implicit scheme: pinned values and refusals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_model, grid, digest", [
    (example_viscosity, SpaceTimeGrid(1.0, -5.0, 5.0, 200, 40),
     "15189099c5729e17f92efaeabf1fbd38c099767ae3d62eb9d4b5b6f5b511bfbe"),
    (lambda: random_lipschitz_model(2), SpaceTimeGrid(1.0, -3.0, 3.0, 100, 40),
     "af638cfc915ef83b40b0479d74f25de1463dd351acd6982003c0f48a2cadaf0b"),
], ids=["example-viscosity", "random-lipschitz-2"])
def test_implicit_values_pinned(make_model, grid, digest):
    # sha256 of the float64 values as policy iteration with scipy's
    # solve_banded produced them; the direct gbsv solve keeps every bit
    surface = solve_obstacle_hjb(make_model(), grid, scheme="implicit")
    assert hashlib.sha256(surface.values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("scheme, message", [
    ("explicit", "non-finite values near t="),
    ("implicit", "non-finite implicit system at time index 199"),
], ids=["explicit", "implicit"])
def test_nonfinite_drift_raises_backward_error(scheme, message):
    m = example_viscosity()

    def drift(r, x, u):
        return np.where(np.asarray(x) > 4.0, np.nan, m.drift(r, x, u))

    grid = SpaceTimeGrid(1.0, -5.0, 5.0, 200, 40)
    with pytest.raises(BackwardSolverError, match=message):
        solve_obstacle_hjb(dataclasses.replace(m, drift=drift), grid, scheme=scheme)


def test_singular_implicit_system_raises_backward_error():
    # sigma = 0 and b = 4x on a unit-cell grid with dt = 1/4: the central
    # stencil rows kill the linear functions the edge rows admit
    m = dataclasses.replace(example_classical(),
                            drift=lambda r, x, u: 4.0 * x + 0.0 * u,
                            diffusion=lambda r, x, u: 0.0 * x)
    grid = SpaceTimeGrid(1.0, 0.0, 3.0, 4, 3)
    with pytest.raises(BackwardSolverError, match="singular implicit system at time index 3"):
        solve_obstacle_hjb(m, grid, scheme="implicit")


# ---------------------------------------------------------------------------
# Explicit scheme and derivative tables: pinned bits
# ---------------------------------------------------------------------------

CLASSICAL_SMALL = SpaceTimeGrid(1.0, 0.1, 5.0, 200, 40)
RANDOM_SMALL = SpaceTimeGrid(1.0, -3.0, 3.0, 100, 40)


@pytest.mark.parametrize("make_model, grid, penalty, digest", [
    (example_classical, CLASSICAL_SMALL, None,
     "72dbb3146153766d286d581d49d638475144448358b20c6aef6779c9e72be0d2"),
    # the barrier never binds here, so the soft resolve leaves every bit
    (example_classical, CLASSICAL_SMALL, 50.0,
     "72dbb3146153766d286d581d49d638475144448358b20c6aef6779c9e72be0d2"),
    (lambda: random_lipschitz_model(3), RANDOM_SMALL, None,
     "0a079ab201c52485fc7c1963f1d3cdc8fffd6c9969a02f54926e6a16e3d476b0"),
    # reflection is active: the penalized surface moves by about 0.03
    (lambda: random_lipschitz_model(3), RANDOM_SMALL, 50.0,
     "1d452eca95ba353268a4be06f7cb2dc64c2890e4efd5e948a961d1e180e8c2db"),
    (lambda: random_lipschitz_model(5), RANDOM_SMALL, None,
     "9e9d9b01be7d0cbd02441b54d83dba8c15d9a59dca4c92c0ac85344e7c7d6452"),
], ids=["classical", "classical-penalty", "random-3", "random-3-penalty", "random-5"])
def test_explicit_values_pinned(make_model, grid, penalty, digest):
    # sha256 of the float64 values of the explicit scheme as it evaluated
    # the model on a state row against a control column; the prebuilt
    # (controls x states) tables and in-place assembly keep every bit
    surface = solve_obstacle_hjb(make_model(), grid, penalty_level=penalty)
    assert hashlib.sha256(surface.values.tobytes()).hexdigest() == digest


def aliasing_model():
    """Diffusion returns its state argument and the driver its z argument,
    so any kernel buffer handed to or taken from the model shows."""
    return dataclasses.replace(example_classical(), name="aliasing",
                               drift=lambda r, x, u: 0.5 * x - u,
                               diffusion=lambda r, x, u: x,
                               driver=lambda r, x, y, z, u: z)


@pytest.mark.parametrize("scheme, digest", [
    ("explicit", "962290a988a3a69dab67a33d0120ea7fb7244b199c26ce7ee402f9835884967b"),
    ("implicit", "cc8f59e1eed5a6dcc086f36bad08029176a60adfc6b8364585593249c9253ac2"),
])
def test_model_returning_its_arguments_keeps_values(scheme, digest):
    surface = solve_obstacle_hjb(aliasing_model(), SpaceTimeGrid(1.0, 0.1, 2.0, 100, 20),
                                 scheme=scheme)
    assert hashlib.sha256(surface.values.tobytes()).hexdigest() == digest


def test_kinked_derivative_tables_pinned():
    # sha256 of the (w_t, w_x, w_xx) expansion tables of a kinked candidate,
    # a kinked policy-iteration surface and a smooth explicit one; kink
    # columns take the slope midpoint and zero curvature
    cases = (
        (candidate_surface(example_viscosity(), SpaceTimeGrid(1.0, -1.0, 1.0, 50, 40)),
         ("27a8b85ffe3a362af32942403c1e06ced73b81ce4a8f6a472e00f6c0d454bfe0",
          "885199c3991adf60ddf9fedaf52e036ecb352828b49eef6a5d347882eebed581",
          "ba255fa8f3b9c85eebb85f6801bdfebb0c58923ea2cf827c4de6f519f8f200f3")),
        (solve_obstacle_hjb(example_viscosity(), SpaceTimeGrid(1.0, -5.0, 5.0, 200, 40),
                            scheme="implicit"),
         ("0d6ed389eda3bcbe3c6b725aad067a658ce45ac0fa29a642767dedd787205568",
          "b687091faf662a156fe83a093a6eb863fc1c392dd91e3a2e6ca58c52cc888c83",
          "ff9d55cc572e2cbbdbe13261a5bc21e0f4157ee89ddbec936ae4f92c266363ac")),
        (solve_obstacle_hjb(example_classical(), CLASSICAL_SMALL),
         ("cca49f6308eb1489929d15b64989cf0ab370b54e6f6c98ec2732f5df7416c7b3",
          "d11b1e8fb3acc9b5ab7361a6bf198c79ec81b86ee30ce7a0fb28d6aba4b4a15f",
          "7126cbebdb89fac5b588f43a5a689330a2a539ed6f04bde3cb480da5a10b071f")))
    for surface, digests in cases:
        got = tuple(hashlib.sha256(np.ascontiguousarray(t).tobytes()).hexdigest()
                    for t in surface.expansion_rows(np.arange(surface.grid.t_steps + 1)))
        assert got == digests


@pytest.mark.parametrize("make_model, make_surface, digests", [
    # reflection active, three grid controls
    (lambda: random_lipschitz_model(3),
     lambda m: solve_obstacle_hjb(m, RANDOM_SMALL, penalty_level=50.0),
     ("f30c14075880eedefa6ebb0a2cae6b1f0dbaf07c53340a30e90010513bf953ad",
      "eafd09ddcfb361310ef63e2dfb40116d5f30d5c52146d7412407f9a3d1e6a86f")),
    (example_viscosity,
     lambda m: candidate_surface(m, SpaceTimeGrid(1.0, -1.0, 1.0, 50, 40)),
     ("eee351de3e8c9f2d0d863ce3c8a2fcd327b55343da860d1459e9f6b1b2481a00",
      "2969f0cfc5ba49482addb7ab3ff157c9c0eb4d29b1c5082b91b67c966e75eaf6")),
    (example_viscosity,
     lambda m: solve_obstacle_hjb(m, SpaceTimeGrid(1.0, -5.0, 5.0, 200, 40), scheme="implicit"),
     ("76ab97226030597dab689be8a56b752bb4fbd71509b995de58ff75ed6ce3416e",
      "d2660b6998152418d0a4f1e56d3bd49a0799f2bd757b80ed26577959c233b9eb")),
], ids=["random-3-penalty", "candidate-viscosity", "computed-kinked"])
def test_residual_and_law_pinned(make_model, make_surface, digests):
    # sha256 of the residual field and law table as separate passes over the
    # derivative and expansion triples gave them; the per-row grid minima
    # keep every bit, the kink columns included
    model = make_model()
    surface = make_surface(model)
    res, law = residual(surface, model), extract_feedback(surface, model)
    got = tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in (res, law.table))
    assert got == digests
