"""Mechanical checkers for the optimality verification routes.

Three entry points mirror the three certification routes:

* :func:`verify_classical` -- smooth value surface: the surface value lower
  bounds every sampled cost, the candidate law achieves it, and the law is
  Lipschitz in state.
* :func:`verify_viscosity_conditions` -- non-smooth surface: membership of
  an expansion triple in the right-time parabolic superdifferential along
  the paths of a feedback law, the martingale-slope identity, and the
  integral optimality inequality.
* :func:`verify_feedback_optimality` -- feedback law plus expansion triple:
  the pointwise lower inequality at validated nodes, then the same
  closed-loop conditions, which read the reflected backward pass as a
  stream of nodes, storing no solution table.

The closed-loop routes take the triple as a function of (s, state);
``rfbsde verify`` passes :func:`tables_from_surface` of the surface it
certifies, which the report fingerprint covers.  Other triples are not
fingerprinted.

Every route takes the control under test as one ``FeedbackLaw``; a constant
control is the constant law.

Limit-type statements are probed by decreasing-radius sampling with a trend
criterion; a borderline quotient yields the verdict "inconclusive", which is
never promoted to a pass.  All sampling is seeded, so reports are
reproducible bit for bit.
"""

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, KinkColumnError
from .hjb import _assemble, coefficients, inf_hamiltonian
from .rbsde import SolverConfig, _backward_pass, _node0_estimate, _stderr
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
    terms: dict = field(default_factory=dict)   # named parts behind the slack

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
        return {**asdict(self), "status": self.status}


def _band(name, gap, stderr, tolerance, detail="", **budget):
    """Condition on a Monte Carlo estimate: ``gap`` beyond its noise band.

    The slack ``gap - 3 stderr - sum(budget)`` is signed; the condition
    passes when it is at most ``tolerance``.  Its terms are the gap, the
    standard error and each budget term, by name.
    """
    slack = float(gap - 3.0 * stderr - sum(budget.values()))
    return ConditionRecord(name=name, slack=slack, tolerance=tolerance,
                           status="pass" if slack <= tolerance else "fail",
                           detail=detail,
                           terms={"gap": float(gap), "stderr": float(stderr), **budget})


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
    membership_times: int = 16
    membership_paths: int = 64
    node_samples: int = 64
    probe: MembershipProbe = MembershipProbe()


# ---------------------------------------------------------------------------
# Superdifferential membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperdiffCandidate:
    """Expansion triple (time slope, gradient, curvature) at a point.

    The fields may be arrays that broadcast together: one candidate per
    element.
    """

    time_slope: float
    gradient: float
    curvature: float
    t: float
    x: float


@dataclass(frozen=True)
class MembershipResult:
    """Verdict and margin per candidate: ``str``/``float`` for a scalar
    candidate, arrays of the candidates' shape otherwise."""

    verdict: str             # "member" | "non-member" | "inconclusive"
    margin: float            # smallest max-quotient across radii (signed)


@functools.lru_cache(maxsize=16)
def _probe_draws(seed):
    """Unit uniforms of the probe stream of ``seed``, read-only.

    One stream serves every probe with this seed: radius k of every
    point reads the slice ``[2nk, 2n(k+1))``, n time draws then n state
    draws.
    """
    gen = np.random.Generator(np.random.Philox(key=(seed + 0x5D1F) & (2**63 - 1)))
    draws = gen.random(_PROBE_LEVELS * 2 * _PROBE_SAMPLES)
    draws.setflags(write=False)
    return draws


def check_superdiff_membership(surface, cand, probe=MembershipProbe()):
    """Sampled test of right-time parabolic superdifferential membership.

    Per candidate point, draws points (s, y) with s to the right of the base
    time (radius rho) and |y - x| <= sqrt(rho), evaluates the expansion
    quotient of the surface against the candidate triple, and classifies by
    how the per-radius max quotient behaves as the radius shrinks to grid
    scale.  Radius k = rho0 / 2^k is kept while it is at least the grid
    floor (the first always is); the verdict reads the last kept radius and
    the margin is the minimum over the kept ones.

    Every point reads the same draws: per radius, the time draws and the
    state draws, taken as ``low + (high - low) * U``.  Every candidate state
    must lie in the box.
    """
    grid = surface.grid
    fields = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (
        cand.time_slope, cand.gradient, cand.curvature, cand.t, cand.x)))
    shape = fields[0].shape
    q, p, pp, t, x = (f.reshape(-1, 1, 1) for f in fields)
    if not np.all((0.0 <= t) & (t < grid.horizon)):
        raise ConfigError("candidate time must lie in [0, horizon)")
    outside = ~((grid.x_min <= x) & (x <= grid.x_max))
    if outside.any():
        raise ConfigError(f"candidate state {float(x[outside][0])!r} outside "
                          f"the box [{grid.x_min}, {grid.x_max}]")
    w0 = np.asarray(surface.value_at(t, x), dtype=float)
    scale = 1.0 + np.abs(w0[:, 0, 0])

    floor = 0.0 if surface.exact_form is not None else max(grid.dt, grid.dx ** 2)
    # axes: point, radius, sample; radii shrink, so the kept ones are a prefix
    rho = (np.minimum(_PROBE_MAX_RADIUS, grid.horizon - t)
           * 0.5 ** np.arange(_PROBE_LEVELS)[:, None])
    kept = np.maximum((rho[:, :, 0] >= floor).sum(axis=1), 1)
    levels = int(kept.max(initial=1))            # radii the batch reads
    rho = rho[:, :levels]
    keep = np.arange(levels) < kept[:, None]
    draws = _probe_draws(probe.seed)[:2 * _PROBE_SAMPLES * levels].reshape(levels, 2, -1)
    s = t + (1.0 - draws[:, 0]) * rho            # 1 - U in (0, 1]
    span = np.sqrt(rho)
    low = -np.minimum(span, x - grid.x_min)
    high = np.minimum(span, grid.x_max - x)
    y = x + (low + (high - low) * draws[:, 1])
    w = np.asarray(surface.value_at(s, y), dtype=float)
    dy = y - x
    num = w - w0 - q * (s - t) - p * dy - 0.5 * pp * dy ** 2
    den = np.abs(s - t) + dy ** 2
    quot = num / np.where(den > 0, den, 1.0)

    m = quot.max(axis=2)                         # per-radius max quotient
    margin = np.where(keep, m, np.inf).min(axis=1)
    last = m[np.arange(len(m)), kept - 1]
    m_tol = probe.member_tol * scale
    nm_tol = probe.nonmember_tol * scale
    member = (last <= m_tol) | ((margin <= m_tol) & (last <= m[:, 0] + m_tol))
    verdict = np.where(member, "member",
                       np.where(margin >= nm_tol, "non-member", "inconclusive"))
    if shape:
        return MembershipResult(verdict=verdict.reshape(shape),
                                margin=margin.reshape(shape))
    return MembershipResult(verdict=str(verdict[0]), margin=float(margin[0]))


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
    estimate, standard error and slack.  The record is the worst control's;
    each cost is folded from the backward stream, storing no solution table.
    """
    if not battery:
        raise ConfigError("the control battery is empty")
    worst = None
    details = []
    for k, (label, control) in enumerate(battery):
        # no name keeps an ensemble alive while the next one is built
        est = _node0_estimate(model, simulate_paths(
            model, start_time, start_state, control, grid, config.n_paths,
            config.seed + 13 * k), config.solver)
        cond = _band(name, w0 - est.value, est.stderr, 0.0,
                     detail=f"worst control {label} of {len(battery)}",
                     bias_budget=config.bias_budget)
        details.append({"control": label, "value": float(est.value),
                        "stderr": float(est.stderr), "slack": cond.slack})
        if worst is None or cond.slack > worst.slack:
            worst = cond
    return worst, details


# ---------------------------------------------------------------------------
# Classical-solution route
# ---------------------------------------------------------------------------

def verify_classical(model, surface, start_time, start_state, candidate_law,
                     battery, config=VerifyConfig()):
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
    w0 = float(np.asarray(surface.value_at(start_time, start_state)))
    grid = TimeGrid(start_time, model.horizon, config.steps)
    cond_a, details = _battery_condition(model, w0, start_time, start_state,
                                         battery, grid, config,
                                         "battery-lower-bound")

    law_est = evaluate_feedback(model, candidate_law, start_time, start_state,
                                grid, config.n_paths, config.seed + 1,
                                config.solver, allow_irregular=True)
    cond_b = _band("law-achieves-value", abs(w0 - law_est.value), law_est.stderr,
                   0.0, detail=f"law cost {law_est.value:.6g} +/- "
                               f"{law_est.stderr:.2g} vs surface {w0:.6g}",
                   bias_budget=config.bias_budget)

    reg = check_law_regularity(candidate_law)
    cond_c = ConditionRecord(
        name="law-regularity",
        slack=0.0 if reg.member else reg.worst_jump,
        tolerance=0.0,
        status="pass" if reg.member else "fail",
        detail=f"lipschitz~{reg.lipschitz_constant:.3g}",
        terms={"worst_jump": float(reg.worst_jump)})

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
    """Stratified membership sample over (time, path) points: one probe call
    per sampled time, off-box states counted as skipped."""
    grid = ensemble.grid
    box = surface.grid
    n_times = min(config.membership_times, grid.steps)
    idx = np.unique(np.linspace(0, grid.steps - 1, n_times).astype(int))
    gen = np.random.Generator(np.random.Philox(key=(config.seed + 0xA11) & (2**63 - 1)))
    counts = {"member": 0, "non-member": 0, "inconclusive": 0, "skipped": 0}
    worst = 0.0
    for i in idx:
        paths = gen.integers(0, ensemble.n_paths, size=min(
            config.membership_paths, ensemble.n_paths))
        s = float(grid.nodes[i])
        if s >= box.horizon:
            continue
        x = ensemble.states[paths, i]
        inside = (box.x_min <= x) & (x <= box.x_max)
        counts["skipped"] += int(np.count_nonzero(~inside))
        x = x[inside]
        q, p, pp = candidate_triple(s, x)
        res = check_superdiff_membership(
            surface, SuperdiffCandidate(q, p, pp, s, x), config.probe)
        for verdict in ("member", "non-member", "inconclusive"):
            counts[verdict] += int(np.count_nonzero(res.verdict == verdict))
        worst = float(res.margin.max(initial=worst))
    return counts, worst


def _closed_loop_conditions(model, surface, law, start_time, start_state, grid,
                            candidate_triple, config,
                            names=("superdifferential-membership",
                                   "martingale-slope-match",
                                   "integral-optimality")):
    """Conditions along the paths of ``law`` from the start pair (membership
    along paths, slope identity, integral sign); the last two read the
    reflected backward pass node by node."""
    ensemble = simulate_law(model, law, start_time, start_state, grid,
                            config.n_paths, config.seed)
    nodes = grid.nodes
    steps = grid.steps
    dt = grid.dt

    counts, worst_margin = _membership_along_paths(
        surface, ensemble, candidate_triple, config)
    checked = counts["member"] + counts["non-member"] + counts["inconclusive"]
    rate = counts["member"] / checked if checked else 0.0
    # with no rejection, rate >= 0.95 leaves at most 5% inconclusive
    if counts["non-member"] > 0:
        status_i = "fail"
    elif rate < 0.95:
        status_i = "inconclusive"
    else:
        status_i = "pass"
    cond_member = ConditionRecord(
        name=names[0],
        slack=worst_margin,
        tolerance=config.probe.member_tol,
        status=status_i,
        detail=f"member rate {rate:.3f} over {checked} points "
               f"({counts['non-member']} rejected, {counts['skipped']} off-box)",
        terms=counts)

    num = den = 0.0
    integrals = np.zeros(ensemble.n_paths)
    for i, y, z, _ in _backward_pass(model, ensemble, config.solver, None, {}):
        if i == steps:
            continue
        s = float(nodes[i])
        x = ensemble.states[:, i]
        q, p, pp = candidate_triple(s, x)
        coef = coefficients(model, s, x, y, p, ensemble.controls[:, i])
        diff = p * coef[0] - z
        num += float(np.sum(diff * diff)) * dt
        den += float(np.sum(z * z)) * dt
        integrals += (q + _assemble(coef, p, pp)) * dt
    cond_z = _band(names[1], num / max(den, 1e-24), 0.0, config.z_tol,
                   detail="relative mean-square gap of slope identity")

    mean = float(integrals.mean())
    se = _stderr(integrals)
    cond_int = _band(names[2], mean, se, _ZERO_TOL,
                     detail=f"integral estimate {mean:.6g} +/- {se:.2g}")
    return cond_member, cond_z, cond_int


def verify_viscosity_conditions(model, surface, start_time, start_state,
                                law, candidate_triple, config=VerifyConfig(),
                                battery=None):
    """Certification of one feedback law against a viscosity surface.

    ``candidate_triple`` maps (s, state) to the expansion triple claimed to
    belong to the right-time superdifferential along the path of ``law``;
    :func:`tables_from_surface` reads it from ``surface`` itself.
    Also re-checks that the surface value lower-bounds a battery of sampled
    costs, the numerical stand-in for the surface being the value function.
    """
    grid = TimeGrid(start_time, model.horizon, config.steps)
    conds = list(_closed_loop_conditions(model, surface, law, start_time,
                                         start_state, grid, candidate_triple,
                                         config))

    extras = {}
    if battery:
        w0 = float(np.asarray(surface.value_at(start_time, start_state)))
        cond, extras["battery"] = _battery_condition(
            model, w0, start_time, start_state, battery, grid, config,
            "value-consistency")
        conds.append(cond)

    fp = _route_fingerprint("viscosity", model, surface, start_time, start_state,
                            config, probe=(_PROBE_MAX_RADIUS, _PROBE_LEVELS,
                                           _PROBE_SAMPLES, config.probe.seed),
                            battery=[b[0] for b in battery or ()],
                            budget=config.bias_budget, law=_law_key(law))
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
    curvature 0).  Each call builds only the time rows its query reads."""
    grid = surface.grid

    def triple(s, x):
        i, j = grid.nearest_node(s, x)
        rows, at = np.unique(i, return_inverse=True)
        return tuple(t[at.reshape(i.shape), j] for t in surface.expansion_rows(rows))
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
    s, x = grid.times[ti], grid.xs[xj]
    q, p, pp = (np.broadcast_to(c, s.shape) for c in candidate_triple(s, x))
    verdict = check_superdiff_membership(
        surface, SuperdiffCandidate(q, p, pp, s, x), config.probe).verdict
    rejected = int(np.count_nonzero(verdict == "non-member"))
    inconclusive = int(np.count_nonzero(verdict == "inconclusive"))
    member = np.flatnonzero(verdict == "member")
    members = len(member)
    worst_gap = -math.inf
    # model coefficients take a scalar time: one Hamiltonian infimum per node
    for k in member:
        sk, xk = float(s[k]), float(x[k])
        w = float(surface.values[ti[k], xj[k]])
        barrier = float(np.asarray(model.obstacle(sk, xk), dtype=float))
        inf_val, _ = inf_hamiltonian(model, sk, xk, w, float(p[k]), float(pp[k]))
        gap = (w - barrier) - (float(q[k]) + inf_val)
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
               f"{rejected} rejected of {n}",
        terms={"member": members, "inconclusive": inconclusive,
               "non-member": rejected})

    closed = _closed_loop_conditions(
        model, surface, law, start_time, start_state,
        TimeGrid(start_time, model.horizon, config.steps), candidate_triple, config,
        names=("table-membership-on-paths", "martingale-slope-match",
               "integral-optimality"))

    fp = _route_fingerprint("feedback", model, surface, start_time, start_state,
                            config, nodes=int(n), law=_law_key(law))
    return VerificationReport(theorem="feedback-optimality",
                              conditions=(cond_pt,) + closed,
                              fingerprint=fp)
