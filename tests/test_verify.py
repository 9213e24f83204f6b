import dataclasses
import math

import numpy as np
import pytest

from rfbsde import (ConfigError, KinkColumnError, OpenLoopControl,
                    check_superdiff_membership, check_surface_regularity,
                    verify_classical, verify_feedback_optimality,
                    verify_viscosity_conditions)
from rfbsde import verify
from rfbsde.hjb import SpaceTimeGrid, candidate_surface, solve_obstacle_hjb
from rfbsde.model import example_classical, example_viscosity, zero_model
from rfbsde.synthesis import FeedbackLaw, extract_feedback
from rfbsde.verify import (MembershipProbe, MembershipResult,
                           SuperdiffCandidate, VerifyConfig,
                           build_control_battery, tables_from_surface)

E2 = math.exp(2.0)
E3 = math.exp(3.0)

PROBE = MembershipProbe(seed=5)


@pytest.fixture(scope="module")
def classical_candidate():
    grid = SpaceTimeGrid(horizon=1.0, x_min=0.1, x_max=5.0,
                         t_steps=200, x_steps=100)
    return candidate_surface("candidate-classical", grid)


@pytest.fixture(scope="module")
def viscosity_candidate():
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0,
                         t_steps=100, x_steps=100)
    return candidate_surface("candidate-viscosity", grid)


@pytest.fixture(scope="module")
def small_config():
    return VerifyConfig(n_paths=4000, steps=50, seed=11, battery_random=4)


# ---------------------------------------------------------------------------
# Noise band
# ---------------------------------------------------------------------------

def test_band_slack_is_signed_with_named_terms():
    cond = verify._band("c", 0.5, 0.25, 0.0, detail="d", bias_budget=0.125,
                        other=0.0625)
    assert cond.slack == 0.5 - 0.75 - 0.1875
    assert cond.status == "pass"
    assert cond.detail == "d"
    assert cond.terms == {"gap": 0.5, "stderr": 0.25, "bias_budget": 0.125,
                          "other": 0.0625}
    assert verify._band("c", 2.0, 0.25, 0.0).slack == 1.25


def test_band_passes_exactly_at_tolerance():
    assert verify._band("c", 0.75, 0.0, 0.75).status == "pass"
    assert verify._band("c", 1.0, 0.0625, 0.75).status == "fail"
    assert verify._band("c", 1.0, 0.0, 0.75).status == "fail"


# ---------------------------------------------------------------------------
# Superdifferential membership
# ---------------------------------------------------------------------------

def test_membership_smooth_point(viscosity_candidate):
    res = check_superdiff_membership(
        viscosity_candidate, SuperdiffCandidate(0.0, 1.0, 0.0, 0.3, 0.5), PROBE)
    assert res.verdict == "member"
    assert res.margin == 0.0


def test_membership_kink_published_set(viscosity_candidate):
    # at the kink the one-sided set is [0,inf) x [1, e^{3(T-s)}] x [0,inf)
    ok = check_superdiff_membership(
        viscosity_candidate, SuperdiffCandidate(0.0, 1.0, 0.0, 0.3, 0.0), PROBE)
    assert ok.verdict == "member" and ok.margin == 0.0

    interior = check_superdiff_membership(
        viscosity_candidate, SuperdiffCandidate(2.0, 1.0, 3.0, 0.3, 0.0), PROBE)
    assert interior.verdict == "member"

    p_upper = 0.5 * (1.0 + math.exp(3.0 * 0.7))
    mid = check_superdiff_membership(
        viscosity_candidate, SuperdiffCandidate(0.0, p_upper, 0.0, 0.3, 0.0), PROBE)
    assert mid.verdict == "member"


def test_membership_rejects_negative_curvature(viscosity_candidate):
    res = check_superdiff_membership(
        viscosity_candidate, SuperdiffCandidate(0.0, 1.0, -1.0, 0.3, 0.0), PROBE)
    assert res.verdict == "non-member"
    assert res.margin > 0.0


def test_membership_rejects_gradient_outside_interval(viscosity_candidate):
    res = check_superdiff_membership(
        viscosity_candidate,
        SuperdiffCandidate(0.0, E3 + 0.5, 0.0, 0.0, 0.0), PROBE)
    assert res.verdict == "non-member"


def test_membership_taylor_triple_both_sides(classical_candidate):
    t0, x0 = 0.4, 2.0
    wt = -2.0 * x0 * math.exp(2.0 * (1.0 - t0))
    wx = math.exp(2.0 * (1.0 - t0))
    cand = SuperdiffCandidate(wt, wx, 0.0, t0, x0)
    assert check_superdiff_membership(
        classical_candidate, cand, PROBE, kind="super").verdict == "member"
    assert check_superdiff_membership(
        classical_candidate, cand, PROBE, kind="sub").verdict == "member"


def test_membership_containment_two_sided_implies_right(classical_candidate):
    t0, x0 = 0.4, 2.0
    wt = -2.0 * x0 * math.exp(2.0 * (1.0 - t0))
    wx = math.exp(2.0 * (1.0 - t0))
    cand = SuperdiffCandidate(wt, wx, 0.0, t0, x0)
    both = check_superdiff_membership(classical_candidate, cand, PROBE, side="both")
    right = check_superdiff_membership(classical_candidate, cand, PROBE, side="right")
    if both.verdict == "member":
        assert right.verdict == "member"


def test_membership_determinism(viscosity_candidate):
    cand = SuperdiffCandidate(0.0, 1.0, 0.0, 0.3, 0.0)
    a = check_superdiff_membership(viscosity_candidate, cand, PROBE)
    b = check_superdiff_membership(viscosity_candidate, cand, PROBE)
    assert a == b


def _per_radius_membership(surface, cand, probe, kind, side):
    """The probe as one draw and one surface evaluation per radius: the
    batched probe must reproduce it bit for bit."""
    grid = surface.grid
    t, x = float(cand.t), float(cand.x)
    w0 = float(np.asarray(surface.value_at(t, x)))
    scale = 1.0 + abs(w0)
    floor = 0.0 if surface.exact_form is not None else max(grid.dt, grid.dx ** 2)
    radii = []
    rho = min(verify._PROBE_MAX_RADIUS, grid.horizon - t)
    for _ in range(verify._PROBE_LEVELS):
        radii.append(rho)
        if rho * 0.5 < floor:
            break
        rho *= 0.5
    gen = np.random.Generator(np.random.Philox(key=(probe.seed + 0x5D1F) & (2**63 - 1)))
    quotients = []
    for rho in radii:
        u = 1.0 - gen.random(verify._PROBE_SAMPLES)
        s = t + u * rho
        if side == "both" and t > 0.0:
            back = 1.0 - gen.random(verify._PROBE_SAMPLES)
            s = np.concatenate([s, t - back * min(rho, t)])
        span = math.sqrt(rho)
        lo = min(span, x - grid.x_min)
        hi = min(span, grid.x_max - x)
        y = x + gen.uniform(-lo, hi, size=len(s))
        w = np.asarray(surface.value_at(s, y), dtype=float)
        num = (w - w0 - cand.time_slope * (s - t) - cand.gradient * (y - x)
               - 0.5 * cand.curvature * (y - x) ** 2)
        den = np.abs(s - t) + (y - x) ** 2
        q = num / np.where(den > 0, den, 1.0)
        if kind == "sub":
            q = -q
        quotients.append(float(q.max()))
    m = np.array(quotients)
    margin = float(m.min())
    m_tol = probe.member_tol * scale
    nm_tol = probe.nonmember_tol * scale
    if m[-1] <= m_tol or (margin <= m_tol and m[-1] <= m[0] + m_tol):
        verdict = "member"
    elif margin >= nm_tol:
        verdict = "non-member"
    else:
        verdict = "inconclusive"
    return MembershipResult(verdict=verdict, margin=margin)


@pytest.fixture(scope="module")
def probe_surfaces(viscosity_candidate):
    grid = SpaceTimeGrid(horizon=1.0, x_min=-5.0, x_max=5.0, t_steps=400, x_steps=200)
    return {
        "exact-form": viscosity_candidate,
        "candidate-grid": dataclasses.replace(viscosity_candidate, exact_form=None),
        "computed": solve_obstacle_hjb(example_viscosity(), grid, scheme="implicit"),
    }


@pytest.mark.parametrize("surface_id", ["exact-form", "candidate-grid", "computed"])
@pytest.mark.parametrize("side", ["right", "both"])
@pytest.mark.parametrize("kind", ["super", "sub"])
def test_membership_batched_matches_per_radius(probe_surfaces, surface_id, kind, side):
    surface = probe_surfaces[surface_id]
    g = surface.grid
    # interior, kink, t = 0, near the horizon (fewer radii), both box edges
    points = [(0.3, 0.5), (0.3, 0.0), (0.0, -0.25), (0.97, 0.2), (0.999, -0.1),
              (0.5, g.x_min), (0.5, g.x_max), (0.9, g.x_max)]
    triples = [(0.0, 1.0, 0.0), (2.0, 1.5, -1.0), (-3.0, 0.5, 4.0)]
    verdicts = set()
    for probe in (PROBE, MembershipProbe(seed=123, member_tol=0.1)):
        for t, x in points:
            for q, p, pp in triples:
                cand = SuperdiffCandidate(q, p, pp, t, x)
                got = check_superdiff_membership(surface, cand, probe, kind=kind, side=side)
                assert got == _per_radius_membership(surface, cand, probe, kind, side)
                verdicts.add(got.verdict)
    assert {"member", "non-member"} <= verdicts


@pytest.mark.parametrize("x, side, message", [
    (7.0, "right", "outside the box"),
    (-1.0 - 1e-12, "right", "outside the box"),
    (math.inf, "right", "outside the box"),
    (math.nan, "right", "outside the box"),
    (0.5, "left", "side must be 'right' or 'both'"),
], ids=["above", "just-below", "inf", "nan", "left-side"])
def test_membership_refuses_bad_state_or_side(viscosity_candidate, monkeypatch,
                                             x, side, message):
    def no_draws(seed):
        raise AssertionError("probe drew before refusing")
    monkeypatch.setattr(verify, "_probe_draws", no_draws)
    with pytest.raises(ConfigError, match=message):
        check_superdiff_membership(viscosity_candidate,
                                   SuperdiffCandidate(0.0, 1.0, 0.0, 0.3, x),
                                   PROBE, side=side)


# ---------------------------------------------------------------------------
# Classical route
# ---------------------------------------------------------------------------

def test_verify_classical_passes(classical_candidate, small_config):
    model = example_classical()
    battery = build_control_battery(model, 0.5, 11, n_random=4)
    law = extract_feedback(classical_candidate, model)
    report = verify_classical(model, classical_candidate, 0.5, 1.0, law,
                              battery, small_config)
    assert report.passed
    # tightest lower-bound margin sits at the optimal constant control
    worst = max(report.extras["battery"], key=lambda d: d["slack"])
    assert worst["control"] == "const:0"


def test_verify_classical_refuses_empty_battery(classical_candidate, small_config):
    model = example_classical()
    law = FeedbackLaw.constant(0.0, model.control_set)
    with pytest.raises(ConfigError, match="battery is empty"):
        verify_classical(model, classical_candidate, 0.5, 1.0, law, [], small_config)


def test_verify_classical_zero_model(small_config):
    from rfbsde import solve_obstacle_hjb
    model = zero_model()
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0,
                         t_steps=50, x_steps=20)
    surface = solve_obstacle_hjb(model, grid)
    battery = build_control_battery(model, 0.0, 3, n_random=2)
    law = FeedbackLaw.constant(0.0, model.control_set)
    cfg = VerifyConfig(n_paths=200, steps=20, seed=3)
    report = verify_classical(model, surface, 0.0, 0.0, law, battery, cfg)
    assert report.passed


def test_verify_classical_rejects_wrong_law(classical_candidate, small_config):
    model = example_classical()
    battery = build_control_battery(model, 0.5, 11, n_random=2)
    bad_law = FeedbackLaw.constant(1.0, model.control_set)
    report = verify_classical(model, classical_candidate, 0.5, 1.0, bad_law,
                              battery, small_config)
    assert report.status == "fail"
    failed = {c.name for c in report.conditions if c.status == "fail"}
    assert "law-achieves-value" in failed


def test_verify_classical_refuses_kinked_surface(viscosity_candidate, small_config):
    model = example_viscosity()
    law = FeedbackLaw.constant(1.0, model.control_set)
    with pytest.raises(KinkColumnError, match="viscosity"):
        verify_classical(model, viscosity_candidate, 0.0, 0.5, law,
                         [("const:1", OpenLoopControl.constant(1.0))],
                         small_config)


# ---------------------------------------------------------------------------
# Viscosity route
# ---------------------------------------------------------------------------

def test_verify_viscosity_exact_zero_slacks(viscosity_candidate):
    model = example_viscosity()
    cfg = VerifyConfig(n_paths=500, steps=50, seed=11, battery_random=3)
    battery = build_control_battery(model, 0.0, 11, n_random=3)
    report = verify_viscosity_conditions(
        model, viscosity_candidate, 0.0, 0.0, OpenLoopControl.constant(1.0),
        lambda s, x: (0.0, 1.0, 0.0), cfg, battery=battery)
    assert report.passed
    by_name = {c.name: c for c in report.conditions}
    assert by_name["superdifferential-membership"].slack == 0.0
    assert by_name["martingale-slope-match"].slack == 0.0
    assert by_name["integral-optimality"].slack == 0.0


def test_verify_viscosity_zero_model():
    from rfbsde import solve_obstacle_hjb
    model = zero_model()
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0,
                         t_steps=50, x_steps=20)
    surface = solve_obstacle_hjb(model, grid)
    cfg = VerifyConfig(n_paths=200, steps=25, seed=4)
    report = verify_viscosity_conditions(
        model, surface, 0.0, 0.0, OpenLoopControl.constant(0.0),
        lambda s, x: (0.0, 0.0, 0.0), cfg)
    assert report.passed
    assert all(c.slack == 0.0 for c in report.conditions)


def test_verify_viscosity_rejects_bad_curvature(viscosity_candidate):
    model = example_viscosity()
    cfg = VerifyConfig(n_paths=500, steps=50, seed=11)
    report = verify_viscosity_conditions(
        model, viscosity_candidate, 0.0, 0.0, OpenLoopControl.constant(1.0),
        lambda s, x: (0.0, 1.0, -1.0), cfg)
    assert report.status == "fail"
    assert [c for c in report.conditions
            if c.name == "superdifferential-membership"][0].status == "fail"


def test_monotone_tolerance_never_flips_pass(viscosity_candidate):
    model = example_viscosity()
    base = VerifyConfig(n_paths=500, steps=50, seed=11)
    loose = VerifyConfig(n_paths=500, steps=50, seed=11, z_tol=1.0,
                         probe=MembershipProbe(member_tol=0.2, nonmember_tol=0.5))
    for cfg in (base, loose):
        rep = verify_viscosity_conditions(
            model, viscosity_candidate, 0.0, 0.0, OpenLoopControl.constant(1.0),
            lambda s, x: (0.0, 1.0, 0.0), cfg)
        assert rep.passed


def test_report_determinism(viscosity_candidate):
    model = example_viscosity()
    cfg = VerifyConfig(n_paths=300, steps=30, seed=11)
    reps = [verify_viscosity_conditions(
        model, viscosity_candidate, 0.0, 0.0, OpenLoopControl.constant(1.0),
        lambda s, x: (0.0, 1.0, 0.0), cfg).to_dict() for _ in range(2)]
    assert reps[0] == reps[1]


# ---------------------------------------------------------------------------
# Surface regularity estimates
# ---------------------------------------------------------------------------

def test_regularity_zero_surface(zero_surface):
    _, surface = zero_surface
    rep = check_surface_regularity(surface, 0.1)
    assert rep.time_constant == 0.0
    assert rep.semiconcavity_constant == 0.0


def test_regularity_classical_candidate(classical_candidate):
    rep = check_surface_regularity(classical_candidate, 0.1)
    assert rep.passed_time and rep.passed_semiconcave
    # |dW/dt| / (1+x) peaks at the largest state and earliest time
    theory = 2.0 * 5.0 * E2 / 6.0
    assert rep.time_constant == pytest.approx(theory, rel=0.05)
    assert rep.semiconcavity_constant <= 1e-9


def test_regularity_viscosity_kink_nonpositive(viscosity_candidate):
    rep = check_surface_regularity(viscosity_candidate, 0.1)
    assert rep.passed_time and rep.passed_semiconcave
    assert rep.kink_second_difference is not None
    assert rep.kink_second_difference <= 0.0
    assert rep.semiconcavity_constant <= 1e-9


def test_regularity_delta_validation(classical_candidate):
    with pytest.raises(ConfigError):
        check_surface_regularity(classical_candidate, 2.0)


# ---------------------------------------------------------------------------
# Feedback-optimality route
# ---------------------------------------------------------------------------

def test_feedback_optimality_viscosity_passes(viscosity_candidate):
    model = example_viscosity()
    cfg = VerifyConfig(n_paths=500, steps=50, seed=11)
    law = FeedbackLaw.constant(1.0, model.control_set)
    report = verify_feedback_optimality(model, viscosity_candidate, law,
                                        lambda s, x: (0.0, 1.0, 0.0), 0.0, 0.0, cfg)
    assert report.passed
    by_name = {c.name: c for c in report.conditions}
    assert by_name["integral-optimality"].slack == 0.0
    assert by_name["martingale-slope-match"].slack == 0.0


def test_feedback_optimality_zero_model():
    from rfbsde import solve_obstacle_hjb
    model = zero_model()
    grid = SpaceTimeGrid(horizon=1.0, x_min=-1.0, x_max=1.0,
                         t_steps=50, x_steps=20)
    surface = solve_obstacle_hjb(model, grid)
    law = FeedbackLaw.constant(0.0, model.control_set)
    cfg = VerifyConfig(n_paths=200, steps=25, seed=4)
    report = verify_feedback_optimality(model, surface, law,
                                        lambda s, x: (0.0, 0.0, 0.0), 0.0, 0.0, cfg)
    assert report.passed
    assert all(c.slack <= 1e-12 for c in report.conditions
               if c.name != "pointwise-lower-inequality")


def test_feedback_optimality_wrong_law_fails_integral(classical_candidate,
                                                      small_config):
    model = example_classical()
    triple = tables_from_surface(classical_candidate)
    law = FeedbackLaw.constant(1.0, model.control_set)
    report = verify_feedback_optimality(model, classical_candidate, law,
                                        triple, 0.0, 1.0, small_config)
    assert report.status == "fail"
    integral = [c for c in report.conditions if c.name == "integral-optimality"][0]
    assert integral.status == "fail"
    assert integral.slack > 1.0


def test_tables_from_surface_reads_expansion_rows(viscosity_candidate):
    grid = viscosity_candidate.grid
    triple = tables_from_surface(viscosity_candidate)
    tables = viscosity_candidate.expansion_tables()
    for i in (0, 37, grid.t_steps):
        rows = [table[i] for table in tables]
        # at a grid node the lookup returns that node, kink column included
        for j in (0, 50, 63, grid.x_steps):
            got = triple(grid.times[i], grid.xs[j])
            assert [float(g) for g in got] == [float(r[j]) for r in rows]
        # a state row is looked up column by column, off-node to the nearest
        xs = grid.xs + 0.3 * grid.dx
        for got, r in zip(triple(grid.times[i] + 0.3 * grid.dt, xs), rows):
            assert np.array_equal(got, r)
