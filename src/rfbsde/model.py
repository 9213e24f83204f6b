"""Problem instances: coefficients, obstacle, control set, assumption metadata.

A :class:`ControlModel` bundles the drift, diffusion, running driver, terminal
cost and obstacle of one control problem, together with the compact control
set (one interval of a scalar control) and declared regularity flags.  Models
are immutable and safe to share across workers; every operation here is pure
given its seed.

State and noise are scalar.  Coefficient callables receive plain floats or
numpy arrays and must broadcast: called with contiguous ``(K, n)`` tables of
states and controls (value and slope arguments as state rows or tables) they
return values that broadcast to ``(K, n)``, which is how the Hamiltonian is
evaluated over controls x states in one call.  Time is always a scalar.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigError

ASSUMPTION_NAMES = ("H1", "H2", "H3", "A1", "A2", "A3", "A4")

# Declared-only flags: bounded/Lipschitz-in-time coefficients (A1), semiconcave
# data with differentiable state coefficients (A2), noise-free semiconcave
# driver/obstacle (A3), constant obstacle (A4).  They gate which regularity
# route applies; they are recorded, not measured.
DECLARED_FLAGS = ("A1", "A2", "A3", "A4")

_VALUE_BOUNDS = (-5.0, 5.0)     # probe box of the driver's value and slope arguments


@dataclass(frozen=True)
class ControlSet:
    """Compact control set: one closed interval [lo, hi] with a search grid.

    The control is a single coordinate; a product of intervals is refused
    here, at construction.  The infimum over controls is always taken over
    the finite grid, so ``grid_points`` fixes the resolution of every argmin
    in the package.
    """

    lo: float
    hi: float
    grid_points: int

    def __post_init__(self):
        if np.ndim(self.lo) or np.ndim(self.hi) or np.ndim(self.grid_points):
            raise ConfigError("only one control coordinate is supported")
        lo, hi, k = float(self.lo), float(self.hi), int(self.grid_points)
        object.__setattr__(self, "lo", lo)      # frozen: store plain scalars
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "grid_points", k)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"bad control interval [{lo}, {hi}]")
        if k < 2 and lo < hi:
            raise ConfigError("grid_points must be >= 2 on a nondegenerate interval")
        if k < 1:
            raise ConfigError("grid_points must be >= 1")

    @classmethod
    def interval(cls, lo, hi, points=5):
        """Control set on [lo, hi] searched over ``points`` grid controls."""
        return cls(lo=lo, hi=hi, grid_points=points)

    def points(self):
        """Search grid, shape (grid_points,)."""
        if self.grid_points > 1:
            return np.linspace(self.lo, self.hi, self.grid_points)
        return np.array([self.lo])

    def contains(self, values, tol=1e-9):
        v = np.asarray(values, dtype=float)
        return bool(np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol))

    def clip(self, values):
        """Project values onto the interval."""
        return np.clip(values, self.lo, self.hi)


@dataclass(frozen=True)
class ControlModel:
    """One control problem: coefficients, obstacle, control set, metadata.

    ``obstacle`` is an upper barrier: the backward value process is kept at or
    below ``obstacle(r, x)`` by a nondecreasing reflection process.  The
    terminal cost must sit below the obstacle at the horizon; that is a
    checkable requirement, see :func:`validate_assumptions`.
    """

    name: str
    drift: Callable
    diffusion: Callable
    driver: Callable
    terminal: Callable
    obstacle: Callable
    control_set: ControlSet
    horizon: float
    declared_assumptions: Mapping = field(default_factory=dict)
    # x-locations where the value function of this instance is known to be
    # non-differentiable (the kink columns of every surface of this model).
    value_kinks: tuple = ()
    # closed-form value function (t, x) -> W, when one is known
    value_form: Optional[Callable] = None

    def __post_init__(self):
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ConfigError("horizon must be a positive real")


@dataclass(frozen=True)
class AssumptionEntry:
    name: str          # one of ASSUMPTION_NAMES
    check: str         # which concrete condition was probed
    status: str        # "pass" | "fail" | "unchecked"
    constant: float    # measured difference-quotient bound (nan if unchecked)
    worst_point: tuple # probe point achieving the bound / violation


@dataclass(frozen=True)
class AssumptionReport:
    model_name: str
    entries: tuple

    @property
    def passed(self):
        return all(e.status != "fail" for e in self.entries)

    def entry(self, name, check=None):
        for e in self.entries:
            if e.name == name and (check is None or e.check == check):
                return e
        raise KeyError((name, check))

    def summary_lines(self):
        lines = [f"assumption report for {self.model_name}"]
        for e in self.entries:
            c = "n/a" if math.isnan(e.constant) else f"{e.constant:.6g}"
            lines.append(f"  {e.name:<3} {e.check:<28} {e.status:<9} constant={c} worst={e.worst_point}")
        return lines


@dataclass(frozen=True)
class ProbeGrid:
    """Sampling box for assumption checks: time x state (y/z: ``_VALUE_BOUNDS``)."""

    time_bounds: tuple
    state_bounds: tuple
    points: int = 9

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError(f"probe grid needs at least 2 points, got {self.points}")

    def axis(self, bounds):
        return np.linspace(bounds[0], bounds[1], self.points)


def _max_quotient(fn, axis_points, other_args, arg_index):
    """Max |f(p_{k+1}) - f(p_k)| / |p_{k+1} - p_k| along one argument axis.

    Returns (constant, worst_point) and raises nothing: non-finite values are
    reported through constant = inf with the offending point.
    """
    def _plain(point):
        return tuple(None if p is None else float(p) for p in point)

    best = 0.0
    worst = None
    for combo in other_args:
        args = list(combo)
        vals = []
        for p in axis_points:
            args[arg_index] = p
            vals.append(np.asarray(fn(*args), dtype=float))
        vals = np.array(vals, dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = int(np.argwhere(~np.isfinite(vals.reshape(len(axis_points), -1)))[0][0])
            point = list(combo)
            point[arg_index] = axis_points[bad]
            return math.inf, _plain(point)
        diffs = np.abs(np.diff(vals, axis=0)).reshape(len(axis_points) - 1, -1).max(axis=1)
        steps = np.abs(np.diff(axis_points))
        quot = diffs / np.where(steps > 0, steps, 1.0)
        k = int(np.argmax(quot))
        if quot[k] > best:
            best = float(quot[k])
            point = list(combo)
            point[arg_index] = 0.5 * (axis_points[k] + axis_points[k + 1])
            worst = _plain(point)
    return best, worst if worst is not None else _plain(other_args[0])


def validate_assumptions(model, probe, seed=0):
    """Measure the standing assumptions of a model on a probe box.

    Lipschitz constants are sampled difference-quotient bounds, not certified
    constants.  The terminal-below-obstacle condition is evaluated exactly at
    the probed states.  Declared flags (A1-A4) are reported as given.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    ts = probe.axis(probe.time_bounds)
    xs = probe.axis(probe.state_bounds)
    us = model.control_set.points()
    ys = zs = probe.axis(_VALUE_BOUNDS)
    # a few random cross sections keep the lattice from hiding anisotropy
    t_extra = rng.uniform(*probe.time_bounds, size=3)
    u_extra = rng.uniform(us.min(), us.max(), size=3)

    entries = []

    def combos(t_vals, u_vals):
        return [(t, None, u) for t in t_vals for u in u_vals]

    # H1: drift/diffusion Lipschitz in state
    sections = combos(np.concatenate([ts[:: max(1, len(ts) // 3)], t_extra]),
                      np.concatenate([us[:: max(1, len(us) // 3)], u_extra]))
    cb, wb = _max_quotient(model.drift, xs, sections, 1)
    cs, ws = _max_quotient(model.diffusion, xs, sections, 1)
    c = max(cb, cs)
    entries.append(AssumptionEntry(
        "H1", "state_lipschitz_drift_diffusion",
        "fail" if not math.isfinite(c) else "pass",
        c, wb if cb >= cs else ws))

    # H2: driver Lipschitz in (x, y, z); terminal and obstacle Lipschitz in x
    f_sections_x = [(t, None, 0.0, 0.0, u) for t in ts[:: max(1, len(ts) // 3)]
                    for u in us[:: max(1, len(us) // 3)]]
    cfx, wfx = _max_quotient(model.driver, xs, f_sections_x, 1)
    f_sections_y = [(t, 0.0, None, 0.0, u) for t in t_extra for u in u_extra]
    cfy, wfy = _max_quotient(model.driver, ys, f_sections_y, 2)
    f_sections_z = [(t, 0.0, 0.0, None, u) for t in t_extra for u in u_extra]
    cfz, wfz = _max_quotient(model.driver, zs, f_sections_z, 3)
    cphi, wphi = _max_quotient(lambda x: model.terminal(x), xs, [(None,)], 0)
    ch, wh = _max_quotient(model.obstacle, xs, [(t, None) for t in ts], 1)
    cf = max(cfx, cfy, cfz, cphi, ch)
    wf = {cfx: wfx, cfy: wfy, cfz: wfz, cphi: wphi, ch: wh}[max(cfx, cfy, cfz, cphi, ch)]
    entries.append(AssumptionEntry(
        "H2", "data_lipschitz_driver_terminal_obstacle",
        "fail" if not math.isfinite(cf) else "pass", cf, wf))

    # H2 (iii): terminal cost below the obstacle at the horizon
    gap = np.asarray(model.terminal(xs), dtype=float) - np.asarray(
        model.obstacle(model.horizon, xs), dtype=float)
    k = int(np.argmax(gap))
    entries.append(AssumptionEntry(
        "H2", "terminal_below_obstacle",
        "pass" if (np.all(np.isfinite(gap)) and gap[k] <= 1e-12) else "fail",
        float(gap[k]), (model.horizon, float(xs[k]))))

    # H3: control Lipschitz of drift/diffusion/driver
    if len(us) >= 2:
        sec_b = [(t, x, None) for t in t_extra for x in xs[:: max(1, len(xs) // 3)]]
        c1, w1 = _max_quotient(model.drift, us, sec_b, 2)
        c2, w2 = _max_quotient(model.diffusion, us, sec_b, 2)
        sec_f = [(t, x, 0.0, 0.0, None) for t in t_extra for x in xs[:: max(1, len(xs) // 3)]]
        c3, w3 = _max_quotient(model.driver, us, sec_f, 4)
        ch3 = max(c1, c2, c3)
        wh3 = {c1: w1, c2: w2, c3: w3}[ch3]
    else:
        ch3, wh3 = 0.0, (0.0,)
    entries.append(AssumptionEntry(
        "H3", "control_lipschitz",
        "fail" if not math.isfinite(ch3) else "pass", ch3, wh3))

    for flag in DECLARED_FLAGS:
        declared = model.declared_assumptions.get(flag)
        entries.append(AssumptionEntry(
            flag, "declared", "unchecked", math.nan, (declared,)))

    return AssumptionReport(model_name=model.name, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

def _proportional_noise(r, x, u):
    # broadcast against u so control-grid sweeps get full-shaped output; the
    # added zeros also turn -0.0 into +0.0
    return np.asarray(x, dtype=float) + np.zeros(np.shape(u))


def _state_terminal(x):
    return np.asarray(x, dtype=float) + 0.0


def example_classical(horizon=1.0, control_points=5):
    """Scalar instance with a smooth value surface.

    State grows at rate (state + control) with proportional noise; the running
    cost accrues value-plus-control; the terminal cost is the state itself and
    the upper barrier is the state scaled by a constant fixed at construction
    from the horizon.  Controls live in [0, 1].  The value function is
    x e^{2(T - t)}, recorded in ``value_form``.
    """
    scale = math.exp(2.0 * horizon)

    def drift(r, x, u):
        return x + u

    def driver(r, x, y, z, u):
        return y + u

    def obstacle(r, x):
        return np.asarray(x, dtype=float) * scale

    def value_form(t, x):
        return np.asarray(x, dtype=float) * np.exp(2.0 * (horizon - np.asarray(t, dtype=float)))

    return ControlModel(
        name="example-classical",
        drift=drift,
        diffusion=_proportional_noise,
        driver=driver,
        terminal=_state_terminal,
        obstacle=obstacle,
        control_set=ControlSet.interval(0.0, 1.0, control_points),
        horizon=float(horizon),
        declared_assumptions={"A1": False, "A2": True, "A3": True, "A4": False},
        value_form=value_form,
    )


def example_viscosity(horizon=1.0, control_points=5):
    """Scalar instance whose value surface has a kink at the origin.

    Multiplicative controlled drift with proportional noise, a running cost
    that discounts the absolute value, terminal cost equal to the state and a
    piecewise barrier (state above zero, zero below).  Controls live in [1, 2].
    The value function is x above zero and x e^{3(T - t)} below, recorded in
    ``value_form``; it is non-differentiable along x = 0, recorded in
    ``value_kinks``.
    """

    def drift(r, x, u):
        return np.asarray(x, dtype=float) * np.asarray(u, dtype=float)

    def driver(r, x, y, z, u):
        return -np.abs(y)

    def obstacle(r, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, x, 0.0)

    def value_form(t, x):
        x = np.asarray(x, dtype=float)
        grown = x * np.exp(3.0 * (horizon - np.asarray(t, dtype=float)))
        out = np.where(x > 0.0, x, grown)
        return out if out.shape else float(out)

    return ControlModel(
        name="example-viscosity",
        drift=drift,
        diffusion=_proportional_noise,
        driver=driver,
        terminal=_state_terminal,
        obstacle=obstacle,
        control_set=ControlSet.interval(1.0, 2.0, control_points),
        horizon=float(horizon),
        declared_assumptions={"A1": False, "A2": True, "A3": False, "A4": False},
        value_kinks=(0.0,),
        value_form=value_form,
    )


def zero_model(horizon=1.0, control_points=3):
    """Degenerate instance: everything vanishes, barrier inert at one."""
    return ControlModel(
        name="zero",
        drift=lambda r, x, u: 0.0 * np.asarray(x, dtype=float) + 0.0 * np.asarray(u, dtype=float),
        diffusion=lambda r, x, u: 0.0 * np.asarray(x, dtype=float) + 0.0 * np.asarray(u, dtype=float),
        driver=lambda r, x, y, z, u: 0.0 * np.asarray(y, dtype=float),
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        obstacle=lambda r, x: np.ones_like(np.asarray(x, dtype=float)),
        control_set=ControlSet.interval(0.0, 1.0, control_points),
        horizon=float(horizon),
        declared_assumptions={"A1": True, "A2": True, "A3": True, "A4": True},
    )


def random_lipschitz_model(seed, horizon=1.0):
    """Random instance with bounded Lipschitz coefficients.

    Coefficients are drawn from a fixed family of tanh/sine blocks whose
    parameters come from a counter-based stream, so instance ``seed`` is
    reproducible.  The obstacle is the terminal cost plus a nonnegative gap at
    the horizon, which keeps the terminal-below-obstacle requirement valid
    while letting reflection activate during backward induction.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed) + 0x5EED))
    a = rng.uniform(-1.0, 1.0, size=8)
    s0 = rng.uniform(0.2, 0.8)
    gap0 = rng.uniform(0.01, 0.08)
    gap1 = rng.uniform(-0.15, 0.3)
    w = rng.uniform(0.5, 2.0)

    def base(x):
        x = np.asarray(x, dtype=float)
        return a[0] * np.tanh(x) + 0.5 * a[1] * np.sin(w * x)

    def drift(r, x, u):
        return a[2] * np.tanh(np.asarray(x, dtype=float)) + a[3] * np.asarray(u, dtype=float) + 0.2 * a[4] * math.cos(float(r))

    def diffusion(r, x, u):
        return s0 + 0.3 * np.abs(a[5]) * np.tanh(np.asarray(x, dtype=float)) + 0.0 * np.asarray(u, dtype=float)

    def driver(r, x, y, z, u):
        return (a[6] + 0.8 * np.tanh(np.asarray(y, dtype=float))
                + 0.3 * a[7] * np.sin(np.asarray(x, dtype=float))
                + 0.25 * np.asarray(z, dtype=float) + 0.1 * np.asarray(u, dtype=float))

    def terminal(x):
        return base(x)

    def obstacle(r, x):
        return base(x) + gap0 + gap1 * (horizon - r)

    return ControlModel(
        name=f"random-{int(seed)}",
        drift=drift,
        diffusion=diffusion,
        driver=driver,
        terminal=terminal,
        obstacle=obstacle,
        control_set=ControlSet.interval(0.0, 1.0, 3),
        horizon=float(horizon),
        declared_assumptions={"A1": True, "A2": False, "A3": False, "A4": False},
    )


MODEL_CATALOG = {
    "example-classical": example_classical,
    "example-viscosity": example_viscosity,
    "zero": zero_model,
}


def build_model(name, horizon=1.0, control_points=5):
    """Instantiate a catalog model by name."""
    try:
        builder = MODEL_CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown model '{name}'; known: {sorted(MODEL_CATALOG)}") from None
    return builder(horizon=horizon, control_points=control_points)
