"""Backward solvers for the reflected backward SDE behind the cost functional.

Three routes to the same quantity:

* :func:`solve_penalized` -- the penalty approximation, where the barrier is
  enforced softly by a drift term proportional to the excursion above it.
* :func:`solve_reflected` -- the discretely reflected scheme, projecting onto
  the barrier each step and accumulating the pushes into a nondecreasing
  reflection process.
* :func:`tree_oracle` -- a small-scale binomial tree with exact backward
  expectations, used as ground truth on desk-sized instances (no regression
  error, depth capped because the tree does not recombine in general).

Both Monte Carlo schemes run one backward loop, a stream of nodes from the
horizon down that keeps only the next node's value; the solvers store it as
tables, the closed-loop verification conditions read it node by node.  A
cost's per-path contributions are folded in the order the stream yields its
nodes, so no slope or driver-credit table is kept for them.
Conditional expectations use least-squares polynomial regression on the
state (state binning as fallback); the node-0 estimate degenerates to the
plain cross-path mean because all paths share the initial state.  The loop
sets up the next node's regression, which reads only the states, on the
helper thread of :func:`~rfbsde.simulate._ahead` while the current node
runs; model callables stay on the calling thread.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BackwardSolverError, ConfigError
from .simulate import _ahead, law_controls, simulate_paths

_DEGENERATE_STD = 1e-12
_PIVOT_RATIO = 1e-10
_FIXED_POINT_TOL = 1e-4     # relative tail estimate at which the driver sweep stops
_MIN_SWEEPS = 3             # driver fixed-point sweeps before the first tail estimate
_MAX_SWEEPS = 50            # driver fixed-point sweeps before giving up


@dataclass(frozen=True)
class SolverConfig:
    estimator: str = "poly"       # "poly" | "bins"
    degree: int = 3
    bins: int = 32
    tol_obstacle: float = 1e-9
    tol_skorokhod: float = 1e-8

    def __post_init__(self):
        if self.estimator not in ("poly", "bins"):
            raise ConfigError("estimator must be 'poly' or 'bins'")
        if self.degree < 1:
            raise ConfigError("regression degree must be >= 1")
        if self.bins < 2:
            raise ConfigError("bin count must be >= 2")


@dataclass(frozen=True)
class RbsdeSolution:
    """Discrete (value, martingale-slope, reflection) triple on an ensemble.

    ``value`` is (paths, steps+1); ``slope`` holds the per-interval martingale
    coefficient on nodes 0..steps-1 (last column zero by convention), and is
    ``None`` in the solution :func:`cost_functional` returns, which keeps none;
    ``pushes`` is (paths, steps), the projection amount at each node.  The
    cumulative nondecreasing ``reflection`` (paths, steps+1), with
    reflection[:,0]=0, is not stored: each access builds it from the pushes.
    The arrays are stored column-major, like the ensemble they were solved
    on, so each per-node column is contiguous; shapes and indexing are those
    of the row-major ``(paths, steps)`` layout of the increment draw.
    """

    value: np.ndarray
    slope: Optional[np.ndarray]
    pushes: np.ndarray
    diagnostics: dict

    @property
    def reflection(self):
        """Running sum of the pushes, added node by node from zero."""
        n_paths, steps = self.pushes.shape
        reflection = np.zeros((n_paths, steps + 1), order="F")
        for i in range(steps):
            np.add(reflection[:, i], self.pushes[:, i], out=reflection[:, i + 1])
        return reflection


class _ConditionalExpectation:
    """Cross-path estimator of E[target | state] at one backward node.

    The poly estimator solves the normal equations of the standardised
    polynomial design through a Cholesky factor of its Gram matrix.  The Gram
    pivots (squared diagonal of the factor) of a rank-deficient design are
    rounding noise, about 1e-14 of the largest, so a pivot ratio at or below
    ``_PIVOT_RATIO``, or a failed factorisation, sends the node to bins.

    The design is built into ``design``, a column-major ``(paths,
    columns(config))`` buffer, fresh when None.  Set-up reads only the
    states and allocates no array of path length, so the backward pass runs
    it on the helper thread of :func:`~rfbsde.simulate._ahead`; the bins
    are sorted on the first call instead, on the caller's thread.
    """

    def __init__(self, states, config, design=None):
        self.config = config
        self.states = states
        self.fallback = False
        self._bin_of = None
        if design is None:
            design = np.empty((len(states), self.columns(config)), order="F")
        # the spread as states.std() takes it, worked out in the design's columns
        mu = float(states.mean())
        t = design[:, min(1, design.shape[1] - 1)]
        np.subtract(states, mu, out=t)
        squares = np.multiply(t, t, out=design[:, 0])
        sd = math.sqrt(float(squares.sum()) / len(states))
        if sd <= _DEGENERATE_STD * (1.0 + abs(mu)):
            self.mode = "mean"
            return
        self.mode = "bins"
        if config.estimator == "poly":
            # column k is column k-1 times t, built in place
            design[:, 0] = 1.0
            t /= sd
            for k in range(2, config.degree + 1):
                np.multiply(design[:, k - 1], t, out=design[:, k])
            try:
                # np.dot releases the GIL, a matmul of the transpose does not
                chol = np.linalg.cholesky(np.dot(design.T, design))
                pivots = np.diag(chol) ** 2
                full_rank = pivots.min() > _PIVOT_RATIO * max(pivots.max(), 1.0)
            except np.linalg.LinAlgError:
                full_rank = False
            if full_rank:
                self.mode = "poly"
                self._design = design
                self._chol_inv = np.linalg.inv(chol)
            else:
                self.fallback = True

    @staticmethod
    def columns(config):
        """Columns of a design buffer: the basis, or one scratch column for bins."""
        return config.degree + 1 if config.estimator == "poly" else 1

    def _make_bins(self):
        order = np.argsort(self.states, kind="stable")
        m = len(order)
        k = min(self.config.bins, m)
        ids = np.minimum(np.arange(m) * k // m, k - 1)
        self._bin_of = np.empty(m, dtype=int)
        self._bin_of[order] = ids
        self._counts = np.bincount(self._bin_of, minlength=k)

    def __call__(self, target):
        if self.mode == "mean":
            return np.full_like(target, target.mean())
        if self.mode == "poly":
            # least-squares fit evaluated at the data: design @ (G^-1 design^T target)
            w = self._chol_inv
            return self._design @ (w.T @ (w @ (self._design.T @ target)))
        if self._bin_of is None:
            self._make_bins()
        sums = np.bincount(self._bin_of, weights=target, minlength=len(self._counts))
        means = sums / np.maximum(self._counts, 1)
        return means[self._bin_of]


def _barrier_resolve(raw, barrier, penalty_level, dt):
    """Keep ``raw`` below the barrier: hard projection when penalty_level is
    None, else the exact solve of y + level*dt*(y - barrier)^+ = raw."""
    if penalty_level is None:
        return np.minimum(raw, barrier)
    over = raw - barrier
    return np.where(over <= 0.0, raw, barrier + over / (1.0 + penalty_level * dt))


def _fixed_point(sweep, y, where):
    """Iterate ``y = sweep(y)`` to the driver fixed point; returns (y, max|y|).

    Sweeps ``_MIN_SWEEPS`` times, then on until the geometric-tail estimate
    of the remaining error is within ``_FIXED_POINT_TOL`` x (1 + max|y|).  A
    non-finite value, a contraction estimate >= 1, or ``_MAX_SWEEPS`` sweeps
    raise, naming the node by ``where``.
    """
    shift = 0.0
    prev_shift = math.inf
    for n_sweeps in range(1, _MAX_SWEEPS + 1):
        y_new = sweep(y)
        prev_shift = shift if shift > 0.0 else prev_shift
        shift = float(np.max(np.abs(y_new - y)))
        y = y_new
        if n_sweeps < _MIN_SWEEPS:
            continue
        y_max = float(np.max(np.abs(y)))
        if not math.isfinite(y_max):
            raise BackwardSolverError(f"non-finite backward value {where}")
        rate = shift / prev_shift if math.isfinite(prev_shift) and prev_shift > 0 else 0.0
        tail = shift * rate / max(1.0 - rate, 1e-12)
        if rate < 1.0 and tail <= _FIXED_POINT_TOL * (1.0 + y_max):
            return y, y_max
        if rate >= 1.0 or n_sweeps == _MAX_SWEEPS:
            raise BackwardSolverError(
                f"driver fixed point not converged {where} "
                f"(residual {shift:.3e}, contraction {rate:.3g}, {n_sweeps} sweeps)")


def _backward_pass(model, ensemble, config, penalty_level, diagnostics):
    """Shared backward induction as a stream of nodes; penalty_level=None
    means hard reflection.

    Yields value, slope and push ``(i, y, z, push)`` from node ``steps`` down
    to node 0, keeping only the next node's value: a consumer must not write
    into them.  The terminal slope is zero; push is None there and on the
    penalized pass.  The obstacle violation and the per-path Skorokhod slack
    (barrier gap times push, summed over nodes) are accumulated on the way.
    After node 0 the reflected pass raises when either exceeds its tolerance
    times (1 + max|value|); the penalized pass, whose soft barrier may
    overshoot, only reports them.  Both go into ``diagnostics``.
    """
    states = ensemble.states
    n_paths, n_nodes = states.shape
    steps = n_nodes - 1
    dt = ensemble.grid.dt
    nodes = ensemble.grid.nodes
    reflected = penalty_level is None

    y = np.empty(n_paths)
    y[:] = np.asarray(model.terminal(states[:, steps]), dtype=float)
    value_max = float(np.max(np.abs(y)))
    violation = 0.0
    slack = np.zeros(n_paths)
    fallback_nodes = []
    designs = np.empty((n_paths, _ConditionalExpectation.columns(config), 2), order="F")

    def estimators():
        for i in range(steps - 1, -1, -1):
            yield i, _ConditionalExpectation(states[:, i], config, designs[:, :, i % 2])

    yield steps, y, np.zeros(n_paths), None

    for i, est in _ahead(estimators()):
        x = states[:, i]
        if est.fallback:
            fallback_nodes.append(i)
        cont = est(y)
        z = est(y * ensemble.increments[:, i]) / dt
        barrier = np.asarray(model.obstacle(nodes[i], x), dtype=float)
        u = ensemble.controls[:, i]

        raw = None            # the last sweep before the barrier, for the pushes

        def sweep(y):
            nonlocal raw
            raw = cont + np.asarray(model.driver(nodes[i], x, y, z, u), dtype=float) * dt
            return _barrier_resolve(raw, barrier, penalty_level, dt)

        y, y_max = _fixed_point(sweep, cont, f"at step {i}")
        value_max = max(value_max, y_max)
        violation = max(violation, float(np.max(y - barrier)))
        push = raw if reflected else None      # the sweep's own array, not read again
        if reflected:
            push -= barrier
            np.maximum(push, 0.0, out=push)
            slack += (barrier - y) * push
        yield i, y, z, push

    slack_max = float(np.max(np.abs(slack)))
    bound = 1.0 + value_max
    if reflected and violation > config.tol_obstacle * bound:
        raise BackwardSolverError(
            f"reflected value exceeds the obstacle by {violation:.3e} "
            f"(tolerance {config.tol_obstacle:.1e} x {bound:.4g})")
    if reflected and slack_max > config.tol_skorokhod * bound:
        raise BackwardSolverError(
            f"Skorokhod slack {slack_max:.3e} exceeds "
            f"{config.tol_skorokhod:.1e} x {bound:.4g}")
    diagnostics.update({
        "max_obstacle_violation": violation,
        "max_skorokhod_slack": slack_max,
        "estimator_fallback_nodes": tuple(reversed(fallback_nodes)),
        "penalty_level": penalty_level,
    })


def _solve(model, ensemble, config, penalty_level):
    """The stream of :func:`_backward_pass` stored as column-major tables."""
    n_paths, n_nodes = ensemble.states.shape
    value = np.empty((n_paths, n_nodes), order="F")
    slope = np.empty((n_paths, n_nodes), order="F")
    pushes = np.zeros((n_paths, n_nodes - 1), order="F")
    diagnostics = {}
    for i, y, z, push in _backward_pass(model, ensemble, config, penalty_level,
                                        diagnostics):
        value[:, i] = y
        slope[:, i] = z
        if push is not None:
            pushes[:, i] = push
    return RbsdeSolution(value=value, slope=slope, pushes=pushes,
                         diagnostics=diagnostics)


def solve_penalized(model, ensemble, penalty_level, config=SolverConfig()):
    """Penalty scheme: soft barrier with positive strength ``penalty_level``.

    The implicit one-step equation in the value (driver plus penalty term) is
    solved by a fixed-point sweep for the driver and an exact piecewise-linear
    resolve for the penalty, which keeps the step stable for arbitrarily large
    penalty levels.  The reflection component stays zero.
    """
    level = float(penalty_level)
    if not level > 0:
        raise ConfigError("penalty level must be positive")
    return _solve(model, ensemble, config, penalty_level=level)


def solve_reflected(model, ensemble, config=SolverConfig()):
    """Discretely reflected scheme: project onto the barrier every step.

    The projection amount is recorded per node; where it is positive the
    value sits exactly on the barrier, so the discrete minimality condition
    (barrier gap times push summing to zero) holds to rounding.
    """
    return _solve(model, ensemble, config, penalty_level=None)


@dataclass(frozen=True)
class CostEstimate:
    """Node-0 value, standard error, diagnostics; the value and push tables
    from cost_functional, none from a streamed estimate."""

    value: float
    stderr: float
    diagnostics: dict
    solution: Optional[RbsdeSolution] = None


def _stderr(samples):
    """Standard error of the plain mean of ``samples``: std(ddof=1) / sqrt(n).
    Fewer than two samples have no spread to estimate it from: refused."""
    n = len(samples)
    if n < 2:
        raise ConfigError(f"a standard error needs at least two samples, got {n}")
    return float(samples.std(ddof=1) / math.sqrt(n))


def _node0_estimate(model, ensemble, config, value=None, pushes=None):
    """Reflected cost on an ensemble, folded from the backward stream.

    The value is the cross-path mean of the stream's node-0 values.  Taking
    expectations in the backward equation at the initial time kills the
    martingale integral, so it is also the mean of the per-path contributions
    terminal + integrated driver - reflection; their spread carries the true
    sampling noise of the estimate, which the regression-smoothed backward
    values hide.  As each node arrives, its driver credit
    driver(t_i, x_i, y_i, z_i, u_i)·dt is added to the contribution and its
    push to one running total, subtracted at the end.  No table is kept
    unless ``value`` (paths, steps+1) or ``pushes`` (paths, steps) is passed
    to receive the stream's columns.
    """
    grid = ensemble.grid
    diagnostics = {}
    pushed = np.zeros(ensemble.n_paths)
    for i, y, z, push in _backward_pass(model, ensemble, config, None, diagnostics):
        if value is not None:
            value[:, i] = y
        if push is None:              # the terminal node
            xi = y.copy()
            continue
        xi += np.asarray(model.driver(grid.nodes[i], ensemble.states[:, i], y, z,
                                      ensemble.controls[:, i]), dtype=float) * grid.dt
        pushed += push
        if pushes is not None:
            pushes[:, i] = push
    xi -= pushed
    return CostEstimate(value=float(y.mean()), stderr=_stderr(xi),
                        diagnostics=diagnostics)


def cost_functional(model, start_time, start_state, control, grid, n_paths, seed,
                    config=SolverConfig()):
    """Value of the reflected backward equation at the initial node.

    Composes forward simulation with the reflected backward pass; the
    reported value is the cross-path node-0 estimate (deterministic at the
    initial time) with the standard error of the mean path contribution.  It
    keeps the value and push tables of the pass, not the slope.
    """
    ensemble = simulate_paths(model, start_time, start_state, control, grid,
                              n_paths, seed)
    n_paths, n_nodes = ensemble.states.shape
    value = np.empty((n_paths, n_nodes), order="F")
    pushes = np.empty((n_paths, n_nodes - 1), order="F")
    est = _node0_estimate(model, ensemble, config, value, pushes)
    return CostEstimate(value=est.value, stderr=est.stderr,
                        diagnostics=est.diagnostics,
                        solution=RbsdeSolution(value=value, slope=None, pushes=pushes,
                                               diagnostics=est.diagnostics))


def tree_oracle(model, start_time, start_state, policy, depth):
    """Binomial-tree value for a deterministic feedback policy.

    Children match the first two conditional moments of one Euler step, with
    the drift advanced by a midpoint predictor; the running driver is
    integrated by the trapezoidal rule, solved implicitly by the Monte Carlo
    schemes' driver fixed-point sweep.  Expectations over the tree are exact,
    so the only error is time discretization.  The tree recombines only when
    the dynamics happen to allow it, hence the depth cap.
    """
    depth = int(depth)
    if depth < 1 or depth > 20:
        raise ConfigError("tree depth must lie in 1..20")
    horizon = model.horizon
    if start_time >= horizon:
        raise ConfigError("start_time must precede the horizon")
    dt = (horizon - start_time) / depth
    sq = math.sqrt(dt)
    times = start_time + dt * np.arange(depth + 1)

    levels = [np.array([float(np.asarray(start_state).reshape(()))])]
    controls = []
    for i in range(depth):
        s = levels[i]
        u = law_controls(model, policy, times[i], s)
        controls.append(u)
        b0 = np.asarray(model.drift(times[i], s, u), dtype=float)
        pred = s + b0 * dt
        u_pred = law_controls(model, policy, times[i + 1], pred)
        b1 = np.asarray(model.drift(times[i + 1], pred, u_pred), dtype=float)
        mean = s + 0.5 * (b0 + b1) * dt
        spread = np.abs(np.asarray(model.diffusion(times[i], s, u), dtype=float)) * sq
        children = np.stack([mean + spread, mean - spread], axis=1).reshape(-1)
        if not np.all(np.isfinite(children)):
            raise BackwardSolverError(f"non-finite tree state at level {i + 1}")
        levels.append(children)

    leaf = levels[depth]
    y = np.asarray(model.terminal(leaf), dtype=float)
    u_leaf = law_controls(model, policy, times[depth], leaf)
    g = np.asarray(model.driver(times[depth], leaf, y, 0.0 * y, u_leaf), dtype=float)

    for i in range(depth - 1, -1, -1):
        s = levels[i]
        u = controls[i]
        up, dn = y[0::2], y[1::2]
        cont = 0.5 * (up + dn)
        g_mean = 0.5 * (g[0::2] + g[1::2])
        z = (up - dn) / (2.0 * sq)
        yi, _ = _fixed_point(
            lambda v: cont + 0.5 * dt * (
                np.asarray(model.driver(times[i], s, v, z, u), dtype=float) + g_mean),
            cont, f"at tree level {i}")
        barrier = np.asarray(model.obstacle(times[i], s), dtype=float)
        yi = np.minimum(yi, barrier)
        g = np.asarray(model.driver(times[i], s, yi, z, u), dtype=float)
        y = yi

    return float(y[0])
