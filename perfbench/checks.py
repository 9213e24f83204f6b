"""Output checks for the benchmark workloads, against closed forms.

Every band here is fixed from a standard error or a closed form of the two
built-in examples, never from a measured output:

* ``example-classical``: W(t, x) = x e^{2(T-t)}, obstacle x e^{2T}, optimal
  control 0 (every term of the Hamiltonian increases in u).
* ``example-viscosity``: W(t, x) = x for x > 0 and x e^{3(T-t)} for x <= 0,
  optimal law 1 on x > 0 and 2 on x < 0, superdifferential gradients at the
  kink [1, e^{3(T-t)}].

Each function returns a list of failure messages; an empty list is a pass.
The paths of the classical example are recomputed here by an Euler loop of
its own, so the reflected-solution checks do not rely on the program's
forward simulation.
"""

import math

import numpy as np

# Slack for comparisons against arrays this module recomputes itself: the
# recomputed paths may round differently from the program's in the last bit.
ROUNDING = 1e-12


def _band(name, value, target, band):
    gap = abs(value - target)
    if not gap <= band:
        return [f"{name}: |{value!r} - {target!r}| = {gap:.4g} > {band:.4g}"]
    return []


def classical_paths(seed, n_paths, steps, x0, horizon=1.0):
    """Euler paths of dX = X dt + X dW under u = 0, one node at a time.

    Uses the documented increment stream: Philox keyed by the seed, drawn as
    one (paths, steps) standard normal array scaled by sqrt(dt).
    """
    dt = horizon / steps
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    dw = gen.standard_normal((n_paths, steps)) * math.sqrt(dt)
    x = np.full(n_paths, float(x0))
    yield x
    for i in range(steps):
        x = x + x * dt + x * dw[:, i]
        yield x


def check_cost_value(value, stderr, x0, horizon=1.0):
    """Node-0 cost of u = 0 against W(0, x0); the obstacle caps it there."""
    w0 = x0 * math.exp(2.0 * horizon)
    out = _band("cost vs x0*e^(2T)", value, w0, 3.0 * stderr + 0.05)
    if not value <= w0 * (1.0 + ROUNDING):
        out.append(f"cost {value!r} exceeds the node-0 obstacle {w0!r}")
    return out


def check_node1_mean(node1_mean, stderr, x0, dt, horizon=1.0):
    """Mean node-1 value against E[W(dt, X_dt)] = x0 e^{2T - dt}."""
    return _band("node-1 mean vs x0*e^(2T-dt)", node1_mean,
                 x0 * math.exp(2.0 * horizon - dt), 3.0 * stderr + 0.05)


def check_reflected_solution(value, pushes, paths, horizon=1.0):
    """Obstacle, push sign, terminal column and Skorokhod slack of a solution.

    ``paths`` yields the state column at each node (see ``classical_paths``).
    """
    out = []
    steps = pushes.shape[1]
    cap = math.exp(2.0 * horizon)
    scale = 1.0 + float(np.max(np.abs(value)))
    slack = np.zeros(pushes.shape[0])
    worst_violation = 0.0
    for i, x in enumerate(paths):
        v = value[:, i]
        if i == steps:
            gap = float(np.max(np.abs(v - x) / (1.0 + np.abs(x))))
            if not gap <= ROUNDING:
                out.append(f"terminal column differs from the terminal cost by {gap:.3g}")
            break
        barrier = x * cap
        worst_violation = max(worst_violation, float(np.max(
            (v - barrier) / (1.0 + np.abs(barrier)))))
        slack += (barrier - v) * pushes[:, i]
    if not worst_violation <= ROUNDING:
        out.append(f"obstacle exceeded by {worst_violation:.3g} (relative)")
    if not np.all(pushes >= 0.0):
        out.append(f"negative push {float(pushes.min())!r}")
    worst_slack = float(np.max(np.abs(slack)))
    if not worst_slack <= 1e-8 * scale:
        out.append(f"Skorokhod slack {worst_slack:.3g} > 1e-8 * {scale:.4g}")
    return out


def check_tree(value, stderr, t16, t14):
    """Regression value against the depth-16 tree, banded by depth change."""
    return _band("cost vs tree depth 16", value, t16,
                 3.0 * stderr + abs(t16 - t14) + 0.05)


def read_table_csv(path):
    """(xs, times, table) from a surface/residual/law CSV written by rfbsde.

    Streams the rows, so reading back stays far below the peak memory of
    the run that wrote the file.
    """
    with open(path) as fh:
        skip = 1
        for line in fh:
            if not line.startswith("#"):
                break
            skip += 1
        else:
            raise ValueError(f"{path}: no header row")
        xs = np.array([float(v) for v in line.strip().split(",")[1:]])
    rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return xs, rows[:, 0], rows[:, 1:]


def classical_residual_tol(times, xs, values):
    """Consistency scale (dt + dx^2)(1 + max|W|) of the residual field.

    The scheme is first order in time and second order in space, and the
    derivatives of x e^{2(T-t)} are bounded by 4|W|, so a discrete solution
    leaves a residual of at most this order.
    """
    dt = float(times[1] - times[0])
    dx = float(xs[1] - xs[0])
    return (dt + dx * dx) * (1.0 + float(np.max(np.abs(values))))


def check_classical_bundle(surface_csv, residual_csv, law_csv, horizon=1.0):
    """Surface, obstacle, residual sign and law of ``rfbsde solve``."""
    out = []
    xs, times, w = read_table_csv(surface_csv)
    ref = xs[None, :] * np.exp(2.0 * (horizon - times))[:, None]
    rel = float(np.max(np.abs(w - ref)[:, 3:-3] / np.abs(ref[:, 3:-3])))
    if not rel <= 1e-2:
        out.append(f"surface max relative error {rel:.3g} > 1e-2 off the edge columns")
    barrier = xs * math.exp(2.0 * horizon)
    over = float(np.max((w - barrier[None, :]) / (1.0 + np.abs(barrier[None, :]))))
    if not over <= ROUNDING:
        out.append(f"surface exceeds the obstacle by {over:.3g} (relative)")

    _, _, res = read_table_csv(residual_csv)
    finite = res[np.isfinite(res)]
    tol = classical_residual_tol(times, xs, w)
    if finite.size == 0:
        out.append("residual field has no finite interior value")
    elif not float(finite.max()) <= tol:
        out.append(f"interior residual {float(finite.max()):.4g} > tolerance {tol:.4g}")

    _, _, law = read_table_csv(law_csv)
    if law.shape != w.shape:
        out.append(f"law table shape {law.shape} != surface shape {w.shape}")
    elif not np.all(law == 0.0):
        bad = np.argwhere(law != 0.0)
        out.append(f"law is nonzero at {len(bad)} nodes, first {tuple(bad[0])}")
    return out


def check_same_bytes(first, later):
    """Artifacts of two runs into fresh directories must match byte for byte."""
    out = []
    for name in sorted(set(first) | set(later)):
        if first.get(name) != later.get(name):
            out.append(f"{name} differs between two fresh-directory runs")
    return out


def check_viscosity_surface(times, xs, values, horizon=1.0):
    """Relative error at most 2e-2 outside the 3-cell band around the kink."""
    dx = float(xs[1] - xs[0])
    keep = np.abs(xs) > 3.0 * dx + 1e-12
    grown = xs[None, :] * np.exp(3.0 * (horizon - times))[:, None]
    ref = np.where(xs[None, :] > 0.0, xs[None, :], grown)
    rel = np.abs(values - ref) / np.maximum(np.abs(ref), 1e-300)
    worst = float(np.max(rel[:, keep]))
    if not worst <= 2e-2:
        return [f"viscosity surface relative error {worst:.3g} > 2e-2 outside the kink band"]
    return []


def check_viscosity_law(xs, table):
    """Law 2 on x < 0 and 1 on x > 0, except at the kink column x = 0."""
    want = np.where(xs < 0.0, 2.0, 1.0)
    off_kink = np.abs(xs) > 0.5 * float(xs[1] - xs[0])
    wrong = (table != want[None, :]) & off_kink[None, :]
    if np.any(wrong):
        i, j = np.argwhere(wrong)[0]
        return [f"law wrong at {int(wrong.sum())} nodes, first (t index {i}, x={xs[j]!r}): "
                f"{table[i, j]!r} != {want[j]!r}"]
    return []


def check_closed_loop_cost(value, stderr, x0):
    """Closed-loop cost of the extracted law against W(0, x0) = x0, x0 > 0."""
    out = _band("closed-loop cost vs W(0, x0)", value, x0, 3.0 * stderr + 0.05)
    if not value <= x0 * (1.0 + ROUNDING):
        out.append(f"closed-loop cost {value!r} exceeds the obstacle {x0!r}")
    return out


def check_wrong_law_report(report):
    """A suboptimal law must fail, with integral optimality failing."""
    out = []
    if report["status"] != "fail":
        out.append(f"wrong-law report status {report['status']!r}, expected 'fail'")
    integral = [c["status"] for c in report["conditions"]
                if c["name"] == "integral-optimality"]
    if integral != ["fail"]:
        out.append(f"wrong-law integral-optimality status {integral}, expected ['fail']")
    return out


def check_kink_verdicts(verdicts):
    """``verdicts`` maps 'inside'/'above'/'below' to membership verdicts."""
    want = {"inside": "member", "above": "non-member", "below": "non-member"}
    return [f"kink gradient {k}: verdict {verdicts.get(k)!r}, expected {v!r}"
            for k, v in want.items() if verdicts.get(k) != v]
