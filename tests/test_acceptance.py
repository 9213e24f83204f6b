"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from rfbsde import (FeedbackLaw, OpenLoopControl, SpaceTimeGrid, TimeGrid,
                    check_superdiff_membership, check_surface_regularity,
                    cost_functional, extract_feedback, solve_obstacle_hjb,
                    solve_penalized, solve_reflected, tree_oracle,
                    verify_viscosity_conditions)
from rfbsde.cli import main as cli_main
from rfbsde.hjb import candidate_surface
from rfbsde.model import (example_classical, example_viscosity,
                          random_lipschitz_model)
from rfbsde.rbsde import SolverConfig
from rfbsde.simulate import simulate_paths
from rfbsde.verify import (MembershipProbe, SuperdiffCandidate, VerifyConfig,
                           build_control_battery)

E2 = math.exp(2.0)
E3 = math.exp(3.0)


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def classical_model():
    return example_classical()


@pytest.fixture(scope="module")
def viscosity_model():
    return example_viscosity()


@pytest.fixture(scope="module")
def criterion1_surface(classical_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=4000, x_steps=200)
    t0 = time.time()
    surface = solve_obstacle_hjb(classical_model, grid, scheme="explicit")
    return surface, time.time() - t0


@pytest.fixture(scope="module")
def criterion3_cost(classical_model):
    grid = TimeGrid(0.0, 1.0, 200)
    return cost_functional(classical_model, 0.0, 1.0,
                           OpenLoopControl.constant(0.0), grid,
                           100000, seed=7)


def test_criterion_1_classical_value_surface(criterion1_surface):
    surface, elapsed = criterion1_surface
    grid = surface.grid
    ref = grid.xs[None, :] * np.exp(2.0 * (1.0 - grid.times))[:, None]
    rel = np.abs(surface.values - ref) / np.abs(ref)
    worst = float(rel[:, 3:-3].max())
    ok = worst <= 1e-2 and elapsed <= 60.0
    _line("criterion 1 (classical surface)", ok,
          f"max rel err {worst:.3e} (tol 1e-2), runtime {elapsed:.1f}s (budget 60s)")


def test_criterion_2_viscosity_value_surface(viscosity_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=-5.0, x_max=5.0,
                         t_steps=4000, x_steps=200)
    surface = solve_obstacle_hjb(viscosity_model, grid, scheme="explicit")
    xs, ts = grid.xs, grid.times
    ref = np.where(xs[None, :] > 0, xs[None, :],
                   xs[None, :] * np.exp(3.0 * (1.0 - ts))[:, None])
    keep = np.abs(xs) > 3.0 * grid.dx + 1e-12
    rel = np.abs(surface.values - ref) / np.maximum(np.abs(ref), 1e-300)
    worst = float(rel[:, keep].max())
    _line("criterion 2 (viscosity surface)", worst <= 2e-2,
          f"max rel err outside kink band {worst:.3e} (tol 2e-2)")


def test_criterion_3_classical_verification(classical_model, criterion1_surface,
                                            criterion3_cost):
    t0 = time.time()
    est = criterion3_cost
    band = 3.0 * est.stderr + 0.05
    ok_cost = abs(est.value - E2) <= band
    detail = [f"cost {est.value:.4f}+/-{est.stderr:.4f} vs e^2 "
              f"(gap {abs(est.value - E2):.4f} <= {band:.4f})"]

    battery = build_control_battery(classical_model, 0.0, seed=7,
                                    n_random=20, n_switch=8)
    grid = TimeGrid(0.0, 1.0, 200)
    ok_battery = True
    worst_gap = -math.inf
    for k, (label, control) in enumerate(battery):
        b = cost_functional(classical_model, 0.0, 1.0, control, grid,
                            100000, seed=7 + 13 * k)
        gap = (E2 - (3.0 * b.stderr + 0.05)) - b.value
        worst_gap = max(worst_gap, gap)
        if gap > 0:
            ok_battery = False
            detail.append(f"battery control {label} underruns by {gap:.4f}")
    detail.append(f"battery of {len(battery)}: worst lower-bound gap {worst_gap:.4f}")

    surface, _ = criterion1_surface
    law = extract_feedback(surface, classical_model)
    ok_law = bool(np.all(law.table == 0.0))
    detail.append(f"extracted law all-zero: {ok_law}")
    elapsed = time.time() - t0
    ok = ok_cost and ok_battery and ok_law and elapsed <= 300.0
    _line("criterion 3 (classical verification)", ok,
          "; ".join(detail) + f"; runtime {elapsed:.0f}s (budget 300s)")


def test_criterion_4_viscosity_verification(viscosity_model):
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0,
                         t_steps=100, x_steps=100)
    surface = candidate_surface(viscosity_model, grid)
    cfg = VerifyConfig(n_paths=2000, steps=100, seed=7)
    report = verify_viscosity_conditions(
        viscosity_model, surface, 0.0, 0.0,
        FeedbackLaw.constant(1.0, viscosity_model.control_set),
        lambda s, x: (0.0, 1.0, 0.0), cfg)
    slacks = {c.name: c.slack for c in report.conditions}
    ok_pass = report.passed and all(s == 0.0 for s in slacks.values())

    probe = MembershipProbe(seed=7)
    bad_curv = check_superdiff_membership(
        surface, SuperdiffCandidate(0.0, 1.0, -1.0, 0.0, 0.0), probe)
    bad_grad = check_superdiff_membership(
        surface, SuperdiffCandidate(0.0, E3 + 0.5, 0.0, 0.0, 0.0), probe)
    ok_reject = (bad_curv.verdict == "non-member"
                 and bad_grad.verdict == "non-member")
    _line("criterion 4 (viscosity verification)", ok_pass and ok_reject,
          f"conditions {report.status} with slacks {sorted(slacks.values())}; "
          f"rejections: curvature->{bad_curv.verdict}, gradient->{bad_grad.verdict}")


def test_criterion_5_penalization_monotonicity(classical_model):
    ensemble = simulate_paths(classical_model, 0.0, 1.0,
                              OpenLoopControl.constant(0.0),
                              TimeGrid(0.0, 1.0, 100), 20000, seed=21)
    cfg = SolverConfig()
    values = [float(solve_penalized(classical_model, ensemble, level,
                                    cfg).value[0, 0])
              for level in (1.0, 10.0, 100.0, 1000.0)]
    reflected = solve_reflected(classical_model, ensemble, cfg).value[0, 0]
    nonincreasing = all(values[i] >= values[i + 1] for i in range(3))
    gap100 = abs(values[2] - reflected)
    gap1000 = abs(values[3] - reflected)
    ok = nonincreasing and gap1000 <= 2.0 * gap100 + 1e-3
    _line("criterion 5 (penalization monotonicity)", ok,
          f"values {[round(v, 6) for v in values]} nonincreasing={nonincreasing}, "
          f"|v(1000)-refl|={gap1000:.2e} <= 2*{gap100:.2e}+1e-3")


def test_criterion_6_obstacle_skorokhod_suite():
    worst_slack = 0.0
    for seed in range(10):
        model = random_lipschitz_model(seed)
        ensemble = simulate_paths(model, 0.0, 0.2,
                                  OpenLoopControl.constant(0.5),
                                  TimeGrid(0.0, 1.0, 50), 2000, seed=seed)
        sol = solve_reflected(model, ensemble)
        steps = ensemble.grid.steps
        barrier = np.column_stack([
            model.obstacle(ensemble.grid.nodes[i], ensemble.states[:, i])
            for i in range(steps)])
        assert np.max(np.maximum(sol.value[:, :steps] - barrier, 0.0)) == 0.0
        assert np.all(sol.pushes >= 0.0)
        assert np.array_equal(sol.value[:, steps],
                              model.terminal(ensemble.states[:, steps]))
        scale = 1.0 + float(np.abs(sol.value).max())
        slack = float(np.max(np.sum(
            (barrier - sol.value[:, :steps]) * sol.pushes, axis=1)))
        assert slack <= 1e-8 * scale
        worst_slack = max(worst_slack, slack / scale)
    _line("criterion 6 (obstacle/Skorokhod suite)", True,
          f"10 seeded models: exact barrier/terminal, worst scaled slack "
          f"{worst_slack:.2e} (tol 1e-8)")


def test_criterion_7_oracle_equivalence(classical_model, criterion3_cost):
    est = criterion3_cost
    t16 = tree_oracle(classical_model, 0.0, 1.0, lambda t, x: 0.0, 16)
    t14 = tree_oracle(classical_model, 0.0, 1.0, lambda t, x: 0.0, 14)
    band = 3.0 * est.stderr + abs(t16 - t14)
    gap = abs(est.value - t16)
    ok1 = gap <= band
    detail = [f"classical: |{est.value:.4f}-{t16:.4f}|={gap:.4f} <= {band:.4f}"]

    from tests.test_rbsde import linear_inert_model
    lin = linear_inert_model()
    # the deterministic instance has zero statistical error, so the MC step
    # count is chosen to match the oracle's own resolution band
    lin_est = cost_functional(lin, 0.0, 1.0, OpenLoopControl.constant(0.0),
                              TimeGrid(0.0, 1.0, 1536), 64, seed=5)
    l16 = tree_oracle(lin, 0.0, 1.0, lambda t, x: 0.0, 16)
    l14 = tree_oracle(lin, 0.0, 1.0, lambda t, x: 0.0, 14)
    lin_band = 3.0 * lin_est.stderr + abs(l16 - l14)
    lin_gap = abs(lin_est.value - l16)
    ok2 = lin_gap <= lin_band
    detail.append(f"linear: |{lin_est.value:.6f}-{l16:.6f}|={lin_gap:.2e} "
                  f"<= {lin_band:.2e}")
    _line("criterion 7 (oracle equivalence)", ok1 and ok2, "; ".join(detail))


def test_criterion_8_regularity_checks():
    cl_grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                            t_steps=200, x_steps=200)
    cl = check_surface_regularity(candidate_surface(example_classical(),
                                                    cl_grid), 0.1)
    vi_grid = SpaceTimeGrid(horizon=1.0, x_min=-5.0, x_max=5.0,
                            t_steps=200, x_steps=200)
    vi = check_surface_regularity(candidate_surface(example_viscosity(),
                                                    vi_grid), 0.1)
    ok = (cl.passed_time and cl.passed_semiconcave
          and vi.passed_time and vi.passed_semiconcave
          and vi.kink_second_difference is not None
          and vi.kink_second_difference <= 0.0)
    _line("criterion 8 (regularity checks)", ok,
          f"classical C1={cl.time_constant:.3g} C2={cl.semiconcavity_constant:.2e}; "
          f"viscosity C1={vi.time_constant:.3g} kink second diff "
          f"{vi.kink_second_difference:.3g} <= 0")


def test_criterion_9_negative_controls(tmp_path, capsys):
    classical_args = [
        "verify", "--out", str(tmp_path / "classical"),
        "--set", "verify.mode=classical", "--set", "verify.constant_law=1.0",
        "--set", "mc.start_time=0.5", "--set", "mc.start_state=1.0",
        "--set", "mc.paths=20000", "--set", "mc.steps=100",
        "--set", "verify.battery_random=3",
        "--set", "pde.t_steps=200", "--set", "pde.x_steps=100"]
    code_b = cli_main(classical_args)
    rep_b = json.loads((tmp_path / "classical" / "report.json").read_text())
    failed_b = {c["name"] for c in rep_b["conditions"] if c["status"] == "fail"}

    feedback_args = [
        "verify", "--out", str(tmp_path / "feedback"),
        "--set", "verify.mode=feedback", "--set", "verify.constant_law=1.0",
        "--set", "verify.tables=surface",
        "--set", "mc.start_time=0.0", "--set", "mc.start_state=1.0",
        "--set", "mc.paths=20000", "--set", "mc.steps=100",
        "--set", "pde.t_steps=200", "--set", "pde.x_steps=100"]
    code_i = cli_main(feedback_args)
    rep_i = json.loads((tmp_path / "feedback" / "report.json").read_text())
    failed_i = {c["name"] for c in rep_i["conditions"] if c["status"] == "fail"}
    capsys.readouterr()

    ok = (code_b == 1 and "law-achieves-value" in failed_b
          and code_i == 1 and "integral-optimality" in failed_i)
    _line("criterion 9 (negative controls)", ok,
          f"classical exit {code_b} failing {sorted(failed_b)}; "
          f"feedback exit {code_i} failing {sorted(failed_i)}")
