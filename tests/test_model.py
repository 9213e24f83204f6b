import math

import numpy as np
import pytest

from rfbsde import ConfigError, ControlSet, ProbeGrid, SpaceTimeGrid, validate_assumptions
from rfbsde import model as model_module
from rfbsde.hjb import candidate_surface
from rfbsde.model import (ControlModel, build_model, example_classical,
                          example_viscosity, random_lipschitz_model, zero_model)


def test_control_set_validation():
    cs = ControlSet.interval(0.0, 1.0, 5)
    assert (cs.lo, cs.hi, cs.grid_points) == (0.0, 1.0, 5)
    np.testing.assert_allclose(cs.points(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert cs.contains([0.0, 1.0])
    assert not cs.contains(1.5)
    np.testing.assert_allclose(cs.clip([-1.0, 2.0]), [0.0, 1.0])
    with pytest.raises(ConfigError):
        ControlSet.interval(1.0, 0.0)
    with pytest.raises(ConfigError):
        ControlSet.interval(0.0, 1.0, points=1)


def test_classical_example_coefficients(classical_model):
    m = classical_model
    assert m.drift(0.0, 2.0, 0.5) == 2.5
    assert m.driver(0.0, 0.0, 3.0, 0.0, 1.0) == 4.0
    assert m.obstacle(0.3, 2.0) == pytest.approx(2.0 * math.exp(2.0))
    assert m.terminal(3.0) == 3.0
    assert m.diffusion(0.0, 4.0, 0.7) == 4.0


def test_viscosity_example_coefficients(viscosity_model):
    m = viscosity_model
    assert m.drift(0.0, 3.0, 2.0) == 6.0
    assert m.diffusion(0.0, 3.0, 1.5) == 3.0
    assert m.driver(0.0, 0.0, -2.0, 0.0, 1.0) == -2.0
    assert m.obstacle(0.5, -1.0) == 0.0
    assert m.obstacle(0.5, 1.0) == 1.0
    assert m.value_kinks == (0.0,)


@pytest.mark.parametrize("name", ["example-classical", "example-viscosity", "zero"])
def test_catalog_builds(name):
    model = build_model(name, horizon=0.5)
    assert model.horizon == 0.5
    assert model.name == name


@pytest.mark.parametrize("name", sorted(model_module.MODEL_CATALOG))
def test_value_form_meets_terminal_cost(name):
    # off the default horizon, so a form that ignores the model's horizon fails
    model = build_model(name, horizon=0.7)
    if model.value_form is None:
        with pytest.raises(ConfigError, match=f"no candidate surface for model '{name}'"):
            candidate_surface(model, SpaceTimeGrid(0.7, -5.0, 5.0, 4, 4))
        return
    xs = np.linspace(-5.0, 5.0, 41)
    np.testing.assert_array_equal(model.value_form(0.7, xs), model.terminal(xs))


def test_catalog_unknown_name():
    with pytest.raises(ConfigError):
        build_model("no-such-model")


def test_build_model_propagates_builder_type_error(monkeypatch):
    # fails on its first call only, so a retry would hide the error
    calls = []

    def flaky(horizon=1.0, control_points=5):
        calls.append(control_points)
        if len(calls) == 1:
            raise TypeError("bad coefficient inside the builder")
        return zero_model(horizon)

    monkeypatch.setitem(model_module.MODEL_CATALOG, "flaky", flaky)
    with pytest.raises(TypeError, match="inside the builder"):
        build_model("flaky")
    assert len(calls) == 1


def test_examples_finite_on_finite_inputs(classical_model, viscosity_model):
    xs = np.linspace(-50.0, 50.0, 11)
    for m in (classical_model, viscosity_model):
        u = float(m.control_set.points()[0])
        assert np.all(np.isfinite(m.drift(0.1, xs, u)))
        assert np.all(np.isfinite(m.diffusion(0.1, xs, u)))
        assert np.all(np.isfinite(m.driver(0.1, xs, xs, xs, u)))
        assert np.all(np.isfinite(m.terminal(xs)))
        assert np.all(np.isfinite(m.obstacle(0.1, xs)))


def test_assumptions_classical_flags_terminal_violation(classical_model):
    probe = ProbeGrid(time_bounds=(0.0, 1.0), state_bounds=(-5.0, 5.0), points=9)
    report = validate_assumptions(classical_model, probe, seed=3)
    assert report.entry("H1").status == "pass"
    assert report.entry("H2", "data_lipschitz_driver_terminal_obstacle").status == "pass"
    assert report.entry("H3").status == "pass"
    bad = report.entry("H2", "terminal_below_obstacle")
    assert bad.status == "fail"
    assert bad.worst_point[1] < 0.0          # violating sample sits at x < 0
    # gap at x: x - x e^{2T} maximal at the most negative probed state
    assert bad.constant == pytest.approx(-5.0 - (-5.0) * math.exp(2.0))
    assert not report.passed


def test_assumptions_classical_pass_on_positive_box(classical_model):
    probe = ProbeGrid(time_bounds=(0.0, 1.0), state_bounds=(0.1, 5.0), points=9)
    report = validate_assumptions(classical_model, probe, seed=3)
    assert report.passed


def test_assumptions_zero_coefficients():
    model = ControlModel(
        name="flat", drift=lambda r, x, u: 0.0 * x, diffusion=lambda r, x, u: 0.0 * x,
        driver=lambda r, x, y, z, u: 0.0 * y, terminal=lambda x: 0.0 * x,
        obstacle=lambda r, x: np.ones_like(np.asarray(x, dtype=float)),
        control_set=ControlSet.interval(0.0, 1.0, 3), horizon=1.0)
    report = validate_assumptions(
        model, ProbeGrid((0.0, 1.0), (-5.0, 5.0), points=7), seed=0)
    assert report.passed
    assert report.entry("H1").constant == 0.0
    assert report.entry("H3").constant == 0.0


def test_assumptions_viscosity_driver_constant(viscosity_model):
    probe = ProbeGrid(time_bounds=(0.0, 1.0), state_bounds=(-5.0, 5.0), points=9)
    report = validate_assumptions(viscosity_model, probe, seed=5)
    assert report.entry("H1").status == "pass"
    assert report.entry("H3").status == "pass"
    # driver is y -> -|y|: difference quotients measure a constant of 1
    lip = report.entry("H2", "data_lipschitz_driver_terminal_obstacle").constant
    assert 0.9 <= lip <= 1.05


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_assumptions_nonfinite_coefficient_fails():
    model = ControlModel(
        name="singular", drift=lambda r, x, u: 1.0 / np.asarray(x, dtype=float),
        diffusion=lambda r, x, u: 0.0 * x,
        driver=lambda r, x, y, z, u: 0.0 * y, terminal=lambda x: 0.0 * x,
        obstacle=lambda r, x: np.ones_like(np.asarray(x, dtype=float)),
        control_set=ControlSet.interval(0.0, 1.0, 3), horizon=1.0)
    report = validate_assumptions(
        model, ProbeGrid((0.0, 1.0), (-1.0, 1.0), points=9), seed=0)
    assert report.entry("H1").status == "fail"
    assert math.isinf(report.entry("H1").constant)


def test_declared_flags_reported_unchecked(classical_model):
    report = validate_assumptions(
        classical_model, ProbeGrid((0.0, 1.0), (0.1, 5.0), points=5), seed=0)
    for flag in ("A1", "A2", "A3", "A4"):
        assert report.entry(flag).status == "unchecked"


@pytest.mark.parametrize("seed", range(10))
def test_random_models_satisfy_terminal_condition(seed):
    model = random_lipschitz_model(seed)
    probe = ProbeGrid((0.0, 1.0), (-4.0, 4.0), points=9)
    report = validate_assumptions(model, probe, seed=seed)
    assert report.entry("H2", "terminal_below_obstacle").status == "pass"
    assert report.entry("H1").constant < 10.0


def test_zero_model_cost_data():
    m = zero_model()
    assert m.driver(0.0, 1.0, 2.0, 3.0, 0.5) == 0.0
    assert m.obstacle(0.2, 0.7) == 1.0


def test_assumptions_refuse_product_control_set(classical_model):
    # the control is one scalar coordinate: a product of intervals is refused
    # when the set is built, so validate_assumptions can never be handed one
    m = classical_model
    probe = ProbeGrid(time_bounds=(0.0, 1.0), state_bounds=(0.1, 2.0))

    def check(control_set):
        product = ControlModel(
            name="product", drift=m.drift, diffusion=m.diffusion, driver=m.driver,
            terminal=m.terminal, obstacle=m.obstacle,
            control_set=control_set(), horizon=1.0)
        validate_assumptions(product, probe)

    for build in (lambda: ControlSet(lo=(0.0, 0.0), hi=(1.0, 1.0), grid_points=2),
                  lambda: ControlSet(lo=0.0, hi=1.0, grid_points=(2, 2)),
                  lambda: ControlSet.interval((0.0, 2.0), (1.0, 3.0), 2)):
        with pytest.raises(ConfigError, match="only one control coordinate is supported"):
            check(build)


def test_proportional_noise_matches_broadcast_arrays():
    x = np.array([[-0.0, 0.0, -1.5, 2.0, 1e-300]])
    u = np.array([[0.0], [-0.0], [1.0]])
    for xi, ui in ((x, u), (x, 0.5), (-0.0, u), (-0.0, 0.5), (2.0, -0.0)):
        old = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(ui, dtype=float))[0] + 0.0
        new = model_module._proportional_noise(0.0, xi, ui)
        assert np.shape(new) == np.shape(old)
        # byte equality also tells -0.0 from +0.0
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()
