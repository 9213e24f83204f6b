"""Mechanical checkers for the optimality verification routes.

Three entry points mirror the three certification routes:

* :func:`verify_classical` -- smooth value surface: the surface value lower
  bounds every sampled cost, the candidate law achieves it, and the law is
  Lipschitz in state.
* :func:`verify_viscosity_conditions` -- non-smooth surface: membership of a
  supplied expansion triple in the right-time parabolic superdifferential
  along paths, the martingale-slope identity, and the integral optimality
  inequality.
* :func:`verify_feedback_optimality` -- feedback law plus expansion tables:
  the pointwise lower inequality at validated nodes, then the closed-loop
  versions of the conditions above.

Limit-type statements are probed by decreasing-radius sampling with a trend
criterion; a borderline quotient yields the verdict "inconclusive", which is
never promoted to a pass.  All sampling is seeded, so reports are
reproducible bit for bit.
"""

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, KinkColumnError
from .hjb import _assemble, coefficients, inf_hamiltonian
from .rbsde import SolverConfig, cost_functional, solve_reflected
from .simulate import OpenLoopControl, TimeGrid, simulate_paths
from .synthesis import check_law_regularity, evaluate_feedback, simulate_law

_PROBE_MAX_RADIUS = 0.1      # largest time radius of a membership probe
_PROBE_LEVELS = 9            # radius halvings per probe
_PROBE_SAMPLES = 64          # sampled points per radius
_ZERO_TOL = 1e-12            # integral-optimality slack taken as zero
_POINTWISE_TOL = 1e-8        # relative slack of the pointwise lower inequality
_INCONCLUSIVE_QUOTA = 0.25   # largest inconclusive share of a passing sample

# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionRecord:
    name: str
    slack: float
    tolerance: float
    status: str          # "pass" | "fail" | "inconclusive"
    detail: str = ""

    @property
    def passed(self):
        return self.status == "pass"


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    conditions: tuple
    fingerprint: str
    extras: dict = field(default_factory=dict)

    @property
    def status(self):
        if any(c.status == "fail" for c in self.conditions):
            return "fail"
        if any(c.status == "inconclusive" for c in self.conditions):
            return "inconclusive"
        return "pass"

    @property
    def passed(self):
        return self.status == "pass"

    def summary_lines(self):
        lines = [f"{self.theorem}: {self.status} (fingerprint {self.fingerprint})"]
        for c in self.conditions:
            lines.append(f"  {c.name:<28} {c.status:<13} slack={c.slack:.6g} "
                         f"tol={c.tolerance:.6g} {c.detail}")
        return lines

    def to_dict(self):
        return {
            "theorem": self.theorem,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "conditions": [
                {"name": c.name, "slack": c.slack, "tolerance": c.tolerance,
                 "status": c.status, "detail": c.detail}
                for c in self.conditions],
            "extras": self.extras,
        }


def _fingerprint(payload):
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _digest(values):
    """sha256 of an array's values, for fingerprint payloads."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _law_key(law):
    """What identifies a feedback law in a fingerprint: table or constant."""
    return law.value if law.table is None else _digest(law.table)


def _route_fingerprint(theorem, model, surface, start_time, start_state,
                       config, **extra):
    """Fingerprint of a route's inputs: model, start, sizes, seed, surface."""
    return _fingerprint({"theorem": theorem, "model": model.name, "t": start_time,
                         "x": float(np.asarray(start_state).reshape(())),
                         "paths": config.n_paths, "steps": config.steps,
                         "seed": config.seed, "surface": _digest(surface.values),
                         **extra})


@dataclass(frozen=True)
class MembershipProbe:
    """Seed and verdict tolerances of the decreasing-radius membership probe."""

    seed: int = 0
    member_tol: float = 0.02
    nonmember_tol: float = 0.05


@dataclass(frozen=True)
class VerifyConfig:
    """Monte Carlo sizes, seeds and tolerances shared by the checkers."""

    n_paths: int = 20000
    steps: int = 100
    seed: int = 11
    solver: SolverConfig = SolverConfig()
    bias_budget: float = 0.05
    z_tol: float = 0.1
    battery_random: int = 20
    battery_switches: int = 8
    membership_times: int = 16
    membership_paths: int = 64
    node_samples: int = 64
    probe: MembershipProbe = MembershipProbe()


# ---------------------------------------------------------------------------
# Superdifferential membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperdiffCandidate:
    """Expansion triple (time slope, gradient, curvature) at a point."""

    time_slope: float
    gradient: float
    curvature: float
    t: float
    x: float


@dataclass(frozen=True)
class MembershipResult:
    verdict: str             # "member" | "non-member" | "inconclusive"
    margin: float            # smallest max-quotient across radii (signed)


@functools.lru_cache(maxsize=16)
def _probe_draws(seed):
    """Unit uniforms of the probe stream of ``seed``, read-only.

    The prefix of one stream serves every probe with this seed: enough
    for all radii with both time sides.
    """
    gen = np.random.Generator(np.random.Philox(key=(seed + 0x5D1F) & (2**63 - 1)))
    draws = gen.random(_PROBE_LEVELS * 4 * _PROBE_SAMPLES)
    draws.setflags(write=False)
    return draws


def check_superdiff_membership(surface, cand, probe=MembershipProbe(),
                               kind="super", side="right"):
    """Sampled test of one-sided second-order expansion membership.

    Draws points (s, y) with s to the right of the base time (radius rho) and
    |y - x| <= sqrt(rho), evaluates the expansion quotient of the surface
    against the candidate triple, and classifies by how the per-radius max
    quotient behaves as the radius shrinks to grid scale.  ``kind='sub'``
    flips the sign convention; ``side='both'`` extends the time probe to the
    left, which can only enlarge the quotients.

    Per radius the seeded stream gives, in order, the right-time draws, the
    left-time draws (``side='both'`` with t > 0) and the state draws, taken
    as ``low + (high - low) * U``.  The candidate state must lie in the box.
    """
    if kind not in ("super", "sub"):
        raise ConfigError("kind must be 'super' or 'sub'")
    if side not in ("right", "both"):
        raise ConfigError("side must be 'right' or 'both'")
    grid = surface.grid
    t, x = float(cand.t), float(cand.x)
    if not (0.0 <= t < grid.horizon):
        raise ConfigError("candidate time must lie in [0, horizon)")
    if not (grid.x_min <= x <= grid.x_max):
        raise ConfigError(
            f"candidate state {x!r} outside the box [{grid.x_min}, {grid.x_max}]")
    w0 = float(np.asarray(surface.value_at(t, x)))
    scale = 1.0 + abs(w0)

    floor = 0.0 if surface.exact_form is not None else max(grid.dt, grid.dx ** 2)
    radii = []
    rho = min(_PROBE_MAX_RADIUS, grid.horizon - t)
    for _ in range(_PROBE_LEVELS):
        radii.append(rho)
        if rho * 0.5 < floor:
            break
        rho *= 0.5
    # one row per radius: right-time, [left-time,] then state draws
    rho = np.array(radii)[:, None]
    n = _PROBE_SAMPLES
    both = side == "both" and t > 0.0
    width = 2 * n if both else n                 # points per radius
    draws = _probe_draws(probe.seed)[:2 * width * len(radii)].reshape(len(radii), -1)
    s = t + (1.0 - draws[:, :n]) * rho           # 1 - U in (0, 1]
    if both:
        s = np.concatenate(
            [s, t - (1.0 - draws[:, n:width]) * np.minimum(rho, t)], axis=1)
    span = np.sqrt(rho)
    low = -np.minimum(span, x - grid.x_min)
    high = np.minimum(span, grid.x_max - x)
    y = x + (low + (high - low) * draws[:, width:])
    w = np.asarray(surface.value_at(s, y), dtype=float)
    num = (w - w0 - cand.time_slope * (s - t) - cand.gradient * (y - x)
           - 0.5 * cand.curvature * (y - x) ** 2)
    den = np.abs(s - t) + (y - x) ** 2
    q = num / np.where(den > 0, den, 1.0)
    if kind == "sub":
        q = -q

    m = q.max(axis=1)                            # per-radius max quotient
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


# ---------------------------------------------------------------------------
# Control battery
# ---------------------------------------------------------------------------

def build_control_battery(model, start_time, seed, n_random=20, n_switch=8):
    """Constant controls on the control grid plus seeded random step controls.

    The stand-in for "every admissible control": constants exercise the whole
    control box, the random piecewise-constant processes exercise switching.
    """
    battery = []
    for u in model.control_set.points():
        battery.append((f"const:{u:g}", OpenLoopControl.constant(float(u))))
    lo, hi = model.control_set.lo, model.control_set.hi
    horizon = model.horizon
    for k in range(n_random):
        gen = np.random.Generator(np.random.Philox(key=(int(seed) + 7919 * (k + 1)) & (2**63 - 1)))
        switches = np.sort(gen.uniform(start_time, horizon, size=n_switch))
        levels = gen.uniform(lo, hi, size=n_switch + 1)

        def step_fn(t, _s=switches, _v=levels):
            return float(_v[int(np.searchsorted(_s, t, side="right"))])

        battery.append((f"random:{k}", OpenLoopControl.from_function(step_fn)))
    return battery


def _battery_condition(model, w0, start_time, start_state, battery, grid,
                       config, name):
    """Surface value w0 against every battery cost, within noise plus budget.

    Returns the condition record and one row per control: its label, cost
    estimate, standard error and slack.
    """
    worst = (-math.inf, "")
    details = []
    for k, (label, control) in enumerate(battery):
        est = cost_functional(model, start_time, start_state, control, grid,
                              config.n_paths, config.seed + 13 * k, config.solver)
        slack = float(w0 - est.value - 3.0 * est.stderr - config.bias_budget)
        details.append({"control": label, "value": float(est.value),
                        "stderr": float(est.stderr), "slack": slack})
        if slack > worst[0]:
            worst = (slack, label)
    record = ConditionRecord(
        name=name, slack=worst[0], tolerance=0.0,
        status="pass" if worst[0] <= 0.0 else "fail",
        detail=f"worst control {worst[1]} of {len(battery)}")
    return record, details


# ---------------------------------------------------------------------------
# Classical-solution route
# ---------------------------------------------------------------------------

def verify_classical(model, surface, start_time, start_state, candidate_law,
                     battery=None, config=VerifyConfig()):
    """Certification against a smooth value surface.

    Conditions: (A) the surface value at the initial pair lower-bounds every
    battery cost within noise plus budget; (B) the candidate law achieves the
    surface value within the same band; (C) the law passes the state-Lipschitz
    regularity check.  Refuses surfaces with declared kink columns.
    """
    if surface.kink_columns:
        raise KinkColumnError(
            "surface has declared kink columns; this route needs a smooth "
            "surface -- use verify_viscosity_conditions instead")
    if battery is None:
        battery = build_control_battery(model, start_time, config.seed,
                                        config.battery_random,
                                        config.battery_switches)
    w0 = float(np.asarray(surface.value_at(start_time, start_state)))
    grid = TimeGrid(start_time, model.horizon, config.steps)
    cond_a, details = _battery_condition(model, w0, start_time, start_state,
                                         battery, grid, config,
                                         "battery-lower-bound")

    law_est = evaluate_feedback(model, candidate_law, start_time, start_state,
                                grid, config.n_paths, config.seed + 1,
                                config.solver, allow_irregular=True)
    slack_b = abs(w0 - law_est.value) - 3.0 * law_est.stderr - config.bias_budget
    cond_b = ConditionRecord(
        name="law-achieves-value",
        slack=slack_b, tolerance=0.0,
        status="pass" if slack_b <= 0.0 else "fail",
        detail=f"law cost {law_est.value:.6g} +/- {law_est.stderr:.2g} "
               f"vs surface {w0:.6g}")

    reg = check_law_regularity(candidate_law)
    cond_c = ConditionRecord(
        name="law-regularity",
        slack=0.0 if reg.member else reg.worst_jump,
        tolerance=0.0,
        status="pass" if reg.member else "fail",
        detail=f"lipschitz~{reg.lipschitz_constant:.3g}")

    fp = _route_fingerprint("classical", model, surface, start_time, start_state,
                            config, battery=[b[0] for b in battery],
                            budget=config.bias_budget, law=_law_key(candidate_law))
    return VerificationReport(theorem="classical-verification",
                              conditions=(cond_a, cond_b, cond_c),
                              fingerprint=fp,
                              extras={"battery": details})


# ---------------------------------------------------------------------------
# Viscosity-solution route
# ---------------------------------------------------------------------------

def _membership_along_paths(surface, ensemble, candidate_triple, config):
    """Stratified membership sample over (time, path) points."""
    grid = ensemble.grid
    steps = grid.steps
    nodes = grid.nodes
    n_times = min(config.membership_times, steps)
    idx = np.unique(np.linspace(0, steps - 1, n_times).astype(int))
    gen = np.random.Generator(np.random.Philox(key=(config.seed + 0xA11) & (2**63 - 1)))
    counts = {"member": 0, "non-member": 0, "inconclusive": 0, "skipped": 0}
    seen = {}
    worst = 0.0
    for i in idx:
        paths = gen.integers(0, ensemble.n_paths, size=min(
            config.membership_paths, ensemble.n_paths))
        s = float(nodes[i])
        if s >= surface.grid.horizon:
            continue
        for m in paths:
            x = float(ensemble.states[m, i])
            if not (surface.grid.x_min <= x <= surface.grid.x_max):
                counts["skipped"] += 1
                continue
            key = (round(s, 12), round(x, 12))
            if key in seen:
                verdict, margin = seen[key]
            else:
                q, p, pp = candidate_triple(s, x)
                res = check_superdiff_membership(
                    surface,
                    SuperdiffCandidate(float(q), float(p), float(pp), s, x),
                    config.probe)
                verdict, margin = res.verdict, res.margin
                seen[key] = (verdict, margin)
            counts[verdict] += 1
            worst = max(worst, margin)
    return counts, worst


def _closed_loop_conditions(model, surface, ensemble, candidate_triple, config,
                            names=("superdifferential-membership",
                                   "martingale-slope-match",
                                   "integral-optimality")):
    """Conditions (membership along paths, slope identity, integral sign)."""
    sol = solve_reflected(model, ensemble, config.solver)
    grid = ensemble.grid
    nodes = grid.nodes
    steps = grid.steps
    dt = grid.dt

    counts, worst_margin = _membership_along_paths(
        surface, ensemble, candidate_triple, config)
    checked = counts["member"] + counts["non-member"] + counts["inconclusive"]
    rate = counts["member"] / checked if checked else 0.0
    if counts["non-member"] > 0:
        status_i = "fail"
    elif checked == 0 or counts["inconclusive"] / checked > _INCONCLUSIVE_QUOTA \
            or rate < 0.95:
        status_i = "inconclusive"
    else:
        status_i = "pass"
    cond_member = ConditionRecord(
        name=names[0],
        slack=max(worst_margin, 0.0),
        tolerance=config.probe.member_tol,
        status=status_i,
        detail=f"member rate {rate:.3f} over {checked} points "
               f"({counts['non-member']} rejected, {counts['skipped']} off-box)")

    num = 0.0
    den = 0.0
    integrals = np.zeros(ensemble.n_paths)
    for i in range(steps):
        s = float(nodes[i])
        x = ensemble.states[:, i]
        u = ensemble.controls[:, i]
        q, p, pp = candidate_triple(s, x)
        coef = coefficients(model, s, x, sol.value[:, i], p, u)
        z = sol.slope[:, i]
        diff = p * coef[0] - z
        num += float(np.sum(diff * diff)) * dt
        den += float(np.sum(z * z)) * dt
        integrals += (q + _assemble(coef, p, pp)) * dt
    if num == 0.0:
        z_slack = 0.0
    else:
        z_slack = num / max(den, 1e-24)
    cond_z = ConditionRecord(
        name=names[1], slack=z_slack, tolerance=config.z_tol,
        status="pass" if z_slack <= config.z_tol else "fail",
        detail="relative mean-square gap of slope identity")

    mean = float(integrals.mean())
    se = float(integrals.std(ddof=1) / math.sqrt(len(integrals))) \
        if len(integrals) > 1 else 0.0
    slack_int = mean - 3.0 * se
    cond_int = ConditionRecord(
        name=names[2], slack=max(slack_int, 0.0), tolerance=_ZERO_TOL,
        status="pass" if slack_int <= _ZERO_TOL else "fail",
        detail=f"integral estimate {mean:.6g} +/- {se:.2g}")
    return cond_member, cond_z, cond_int


def verify_viscosity_conditions(model, surface, start_time, start_state,
                                control, candidate_triple, config=VerifyConfig(),
                                battery=None):
    """Certification of one admissible control against a viscosity surface.

    ``candidate_triple`` maps (s, state) to the expansion triple claimed to
    belong to the right-time superdifferential along the controlled path.
    Also re-checks that the surface value lower-bounds a battery of sampled
    costs, the numerical stand-in for the surface being the value function.
    """
    grid = TimeGrid(start_time, model.horizon, config.steps)
    ensemble = simulate_paths(model, start_time, start_state, control, grid,
                              config.n_paths, config.seed)
    conds = list(_closed_loop_conditions(model, surface, ensemble,
                                         candidate_triple, config))

    extras = {}
    if battery:
        w0 = float(np.asarray(surface.value_at(start_time, start_state)))
        cond, extras["battery"] = _battery_condition(
            model, w0, start_time, start_state, battery, grid, config,
            "value-consistency")
        conds.append(cond)

    fp = _route_fingerprint("viscosity", model, surface, start_time, start_state,
                            config, probe=(_PROBE_MAX_RADIUS, _PROBE_LEVELS,
                                           _PROBE_SAMPLES, config.probe.seed))
    return VerificationReport(theorem="viscosity-verification",
                              conditions=tuple(conds), fingerprint=fp,
                              extras=extras)


# ---------------------------------------------------------------------------
# Surface regularity (joint time-Lipschitz and semiconcavity estimates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceRegularityReport:
    delta: float
    time_constant: float
    semiconcavity_constant: float
    max_second_difference: float
    kink_second_difference: Optional[float]

    @property
    def passed_time(self):
        return math.isfinite(self.time_constant)

    @property
    def passed_semiconcave(self):
        return (math.isfinite(self.semiconcavity_constant)
                and self.max_second_difference <= 2.0 * self.semiconcavity_constant + 1e-12)


def check_surface_regularity(surface, delta):
    """Measured growth-weighted time-Lipschitz and semiconcavity constants.

    The time quotient is taken over adjacent time nodes below horizon-delta
    (adjacent pairs realize the max over all pairs); semiconcavity is read
    off the largest centered second difference, with the declared kink
    columns reported separately since a concave kink must contribute a
    nonpositive second difference.
    """
    grid = surface.grid
    if not (0.0 < delta < grid.horizon):
        raise ConfigError("delta must lie in (0, horizon)")
    i_max = int(math.floor((grid.horizon - delta) / grid.dt))
    i_max = max(1, min(i_max, grid.t_steps))
    v = surface.values[: i_max + 1]
    xs = grid.xs
    quot = np.abs(np.diff(v, axis=0)) / ((1.0 + np.abs(xs))[None, :] * grid.dt)
    c1 = float(quot.max())

    second = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / grid.dx ** 2
    max_sd = float(second.max())
    c2 = max(max_sd, 0.0) / 2.0
    kink_sd = None
    for j in surface.kink_columns:
        if 1 <= j <= grid.x_steps - 1:
            col = float(second[:, j - 1].max())
            kink_sd = col if kink_sd is None else max(kink_sd, col)
    return SurfaceRegularityReport(delta=float(delta), time_constant=c1,
                                   semiconcavity_constant=c2,
                                   max_second_difference=max_sd,
                                   kink_second_difference=kink_sd)


# ---------------------------------------------------------------------------
# Feedback-optimality route
# ---------------------------------------------------------------------------

def tables_from_surface(surface):
    """Expansion triple ``(s, x) -> (q, p, pp)`` read at the nearest grid node
    from finite-difference rows of the surface (kinks: slope midpoint,
    curvature 0)."""
    grid = surface.grid
    qs, ps, pps = surface.expansion_tables()

    def triple(s, x):
        node = grid.nearest_node(s, x)
        return qs[node], ps[node], pps[node]
    return triple


def verify_feedback_optimality(model, surface, law, candidate_triple, start_time,
                               start_state, config=VerifyConfig()):
    """Certification of a feedback law with an expansion triple.

    ``candidate_triple`` maps (s, state) to (time slope, gradient, curvature),
    as :func:`tables_from_surface` builds it.  First validates its membership
    on a sample of grid nodes and checks the pointwise lower inequality
    (time slope plus Hamiltonian infimum against the barrier gap) at nodes
    where it is a member; then runs the closed-loop system and checks the
    integral-optimality and slope-match conditions along its paths.
    """
    grid = surface.grid
    gen = np.random.Generator(np.random.Philox(key=(config.seed + 0xFE1) & (2**63 - 1)))
    n = min(config.node_samples, (grid.t_steps - 1) * (grid.x_steps - 1))
    ti = gen.integers(0, grid.t_steps, size=n)
    xj = gen.integers(1, grid.x_steps, size=n)
    times, xs = grid.times, grid.xs
    members = 0
    inconclusive = 0
    rejected = 0
    worst_gap = -math.inf
    for i, j in zip(ti, xj):
        s, x = float(times[i]), float(xs[j])
        q, p, pp = (float(c) for c in candidate_triple(s, x))
        res = check_superdiff_membership(
            surface, SuperdiffCandidate(q, p, pp, s, x), config.probe)
        if res.verdict == "non-member":
            rejected += 1
            continue
        if res.verdict == "inconclusive":
            inconclusive += 1
            continue
        members += 1
        w = float(surface.values[i, j])
        barrier = float(np.asarray(model.obstacle(s, x), dtype=float))
        inf_val, _ = inf_hamiltonian(model, s, x, w, p, pp)
        gap = (w - barrier) - (q + inf_val)
        worst_gap = max(worst_gap, gap)
    checked = members + inconclusive
    if members == 0:
        status_pt = "inconclusive"
        worst_gap = math.nan
    elif worst_gap > _POINTWISE_TOL * (1.0 + abs(worst_gap)):
        status_pt = "fail"
    elif checked and inconclusive / checked > _INCONCLUSIVE_QUOTA:
        status_pt = "inconclusive"
    else:
        status_pt = "pass"
    cond_pt = ConditionRecord(
        name="pointwise-lower-inequality",
        slack=worst_gap if math.isfinite(worst_gap) else 0.0,
        tolerance=_POINTWISE_TOL,
        status=status_pt,
        detail=f"{members} member nodes, {inconclusive} inconclusive, "
               f"{rejected} rejected of {n}")

    mc_grid = TimeGrid(start_time, model.horizon, config.steps)
    ensemble = simulate_law(model, law, start_time, start_state,
                            mc_grid, config.n_paths, config.seed)
    closed = _closed_loop_conditions(
        model, surface, ensemble, candidate_triple, config,
        names=("table-membership-on-paths", "martingale-slope-match",
               "integral-optimality"))

    fp = _route_fingerprint("feedback", model, surface, start_time, start_state,
                            config, nodes=int(n), law=_law_key(law))
    return VerificationReport(theorem="feedback-optimality",
                              conditions=(cond_pt,) + closed,
                              fingerprint=fp)
