"""Finite-difference solver for the obstacle HJB equation.

The equation is the variational inequality

    max{ W(t,x) - h(t,x),  -dW/dt - inf_u H(t, x, W, W_x, W_xx, u) } = 0,
    W(T, x) = terminal(x),

with the generator-plus-driver Hamiltonian

    H(r, x, y, p, P, u) = tr[(1/2) sigma sigma^T P] + p . b + f(r, x, y, p . sigma, u).

The control is one scalar coordinate searched over the control set's
interval grid.  Space is truncated to a box (the continuous problem lives on
the whole line); edge columns carry no artificial boundary data: the explicit
scheme refills them by quadratic extrapolation from interior values after
each step, and the implicit scheme's edge rows impose linear extrapolation.
The explicit scheme is monotone under the parabolic step-size bound;
requested time steps above the bound are split into internal substeps.

Both schemes are streams of time rows from the horizon down
(:func:`surface_rows`), which :func:`solve_obstacle_hjb` collects.  The
Hamiltonian minima and the residual are per-row steps (:class:`_RowSteps`)
that read at most three neighbouring rows: :func:`residual` and
``synthesis.extract_feedback`` loop them over a collected surface, and a
consumer of the stream (``rfbsde solve``) takes them as the rows arrive.
None keeps a full-grid Hamiltonian table.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, EvaluationError, BackwardSolverError
from .rbsde import _barrier_resolve

_POLICY_SHIFT_TOL = 1e-9    # policy iteration stops below this relative shift
_POLICY_ITERATIONS = 80     # and refuses the time step after this many solves


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform time grid on [0, horizon] times a uniform state box."""

    horizon: float
    x_min: float
    x_max: float
    t_steps: int
    x_steps: int

    def __post_init__(self):
        # the edge stencils (one-sided second differences, the explicit
        # scheme's quadratic refill) read four state nodes
        if self.t_steps < 2 or self.x_steps < 3:
            raise ConfigError("need at least 2 time steps and 3 state steps")
        if not (self.x_min < self.x_max):
            raise ConfigError("state box must be nondegenerate")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")

    @property
    def dt(self):
        return self.horizon / self.t_steps

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.x_steps

    @property
    def times(self):
        return np.linspace(0.0, self.horizon, self.t_steps + 1)

    @property
    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.x_steps + 1)

    def nearest_node(self, t, x):
        """(time rows, state columns) of the grid nodes nearest to (t, x)."""
        t = np.minimum(np.maximum(np.asarray(t, dtype=float), 0.0), self.horizon)
        i = np.rint(t / self.dt).astype(int)
        j = np.rint((np.asarray(x, dtype=float) - self.x_min) / self.dx).astype(int)
        return i, np.clip(j, 0, self.x_steps)

    def columns_near(self, points):
        """State columns within half a cell of the given points (kink location)."""
        cols = []
        xs = self.xs
        for x in points:
            j = int(round((x - self.x_min) / self.dx))
            if 0 <= j <= self.x_steps and abs(xs[j] - x) <= 0.5 * self.dx:
                cols.append(j)
        return tuple(cols)


@dataclass(frozen=True)
class ValueSurface:
    """Value function samples on a space-time grid with derivative tables.

    ``exact_form`` is set for a model's closed-form value function (see
    :func:`candidate_surface`); when present, off-grid evaluation uses the
    form itself instead of bilinear interpolation.  ``kink_columns`` are state columns where the
    surface is declared non-differentiable: :meth:`expansion_rows` takes
    the one-sided slope midpoint and zero curvature there, :func:`residual`
    reports NaN there, and the classical verification route refuses the
    surface.
    """

    grid: SpaceTimeGrid
    values: np.ndarray
    provenance: str
    kink_columns: tuple = ()
    exact_form: Optional[Callable] = None
    model_name: str = ""

    def __post_init__(self):
        expect = (self.grid.t_steps + 1, self.grid.x_steps + 1)
        if self.values.shape != expect:
            raise ConfigError(f"values shape {self.values.shape} != {expect}")
        self.values.setflags(write=False)

    def value_at(self, t, x):
        """Surface value at (t, x); constant extrapolation outside the box."""
        if self.exact_form is not None:
            return self.exact_form(t, x)
        # np.minimum/np.maximum clip as np.clip does, without its wrapper
        g = self.grid
        dt, dx = g.dt, g.dx
        t = np.minimum(np.maximum(np.asarray(t, dtype=float), 0.0), g.horizon)
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), g.x_min), g.x_max)
        ti = np.minimum(np.maximum((t / dt).astype(int), 0), g.t_steps - 1)
        xi = np.minimum(np.maximum(((x - g.x_min) / dx).astype(int), 0),
                        g.x_steps - 1)
        at = (t - ti * dt) / dt
        ax = (x - (g.x_min + xi * dx)) / dx
        v = self.values
        out = ((1 - at) * (1 - ax) * v[ti, xi] + (1 - at) * ax * v[ti, xi + 1]
               + at * (1 - ax) * v[ti + 1, xi] + at * ax * v[ti + 1, xi + 1])
        return out if out.shape else float(out)

    def expansion_rows(self, rows):
        """(w_t, w_x, w_xx) at the time rows ``rows`` (an integer array), one
        table row per entry; each w_t row is built from the three value rows
        its stencil reads.

        Central differences at interior nodes, one-sided second order at
        the edges; at a declared kink column the gradient takes the
        midpoint of the one-sided slopes and the curvature zero.
        """
        v = self.values
        start = np.clip(rows - 1, 0, len(v) - 3)
        wt = _first_difference(v[start[:, None] + np.arange(3)], self.grid.dt, axis=1)
        return ((wt[np.arange(len(rows)), rows - start],)
                + _space_derivatives(v[rows], self.grid.dx, self.kink_columns))


def _space_derivatives(w, dx, kink_columns):
    """(w_x, w_xx) of the value rows ``w`` (state along the last axis),
    with the kink-column rule of :meth:`ValueSurface.expansion_rows`."""
    n = w.shape[-1]
    wx, wxx = _first_difference(w, dx), _second_difference(w, dx)
    for j in kink_columns:
        # one-sided slopes; an edge column has only the one inside
        left = (w[..., j] - w[..., j - 1]) / dx if j > 0 \
            else (w[..., j + 1] - w[..., j]) / dx
        right = (w[..., j + 1] - w[..., j]) / dx if j < n - 1 else left
        wx[..., j] = 0.5 * (left + right)
        wxx[..., j] = 0.0
    return wx, wxx


def _first_difference(a, h, axis=-1):
    """First derivative along ``axis``: central inside, one-sided second
    order at both ends."""
    a = np.moveaxis(a, axis, -1)
    d = np.empty_like(a)
    d[..., 1:-1] = (a[..., 2:] - a[..., :-2]) / (2 * h)
    d[..., 0] = (-3 * a[..., 0] + 4 * a[..., 1] - a[..., 2]) / (2 * h)
    d[..., -1] = (3 * a[..., -1] - 4 * a[..., -2] + a[..., -3]) / (2 * h)
    return np.moveaxis(d, -1, axis)


def _second_difference(w, h):
    """Second derivative along the last axis: central inside, one-sided
    second order at both ends."""
    d = np.empty_like(w)
    d[..., 1:-1] = (w[..., 2:] - 2 * w[..., 1:-1] + w[..., :-2]) / h ** 2
    d[..., 0] = (2 * w[..., 0] - 5 * w[..., 1] + 4 * w[..., 2] - w[..., 3]) / h ** 2
    d[..., -1] = (2 * w[..., -1] - 5 * w[..., -2] + 4 * w[..., -3] - w[..., -4]) / h ** 2
    return d


def coefficients(model, t, x, y, p, u, sig_b=None):
    """(sigma, b, f) with f taken at z = p * sigma, broadcast over x and u.

    The (controls x states) tables of :func:`_state_control_tables` give
    the Hamiltonian's coefficient tables in one call; aligned per-path
    arrays give per-path values.  ``sig_b`` is (sigma, b) from an earlier
    call at the same (t, x, u): they do not depend on the value, so policy
    iteration evaluates them once per time step.
    """
    shape = np.broadcast(x, u).shape
    if sig_b is None:
        sig_b = (_full(model.diffusion(t, x, u), shape),
                 _full(model.drift(t, x, u), shape))
    return sig_b + (_full(model.driver(t, x, y, p * sig_b[0], u), shape),)


def _full(values, shape):
    """``values`` as floats of ``shape``: a read-only broadcast view when the
    callable returned fewer dimensions (a scalar, a state row), else the
    returned array itself.  Callers only read these tables."""
    arr = np.asarray(values, dtype=float)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def _state_control_tables(model, xs):
    """Contiguous read-only (controls x states) tables of the states ``xs``
    and the control grid, the model's arguments for a Hamiltonian grid.

    Built once per sweep: a model that returns its argument hands back the
    table itself, which the kernel only reads.
    """
    x, u = np.meshgrid(np.asarray(xs, dtype=float), model.control_set.points())
    x.setflags(write=False)
    u.setflags(write=False)
    return x, u


def _assemble(coef, p, pp, out=None):
    """H = (1/2) sigma^2 pp + b p + f from the coefficients, in that order,
    written into ``out`` when it is given (never a table the model returned)."""
    sig, b, f = coef
    out = np.multiply(0.5, sig, out=out)
    out *= sig
    out *= pp
    out += b * p
    out += f
    return out


def _hamiltonian_grid(model, t, tables, y, p, pp, out=None):
    """H on the (controls x states) ``tables`` of :func:`_state_control_tables`
    at the value, gradient and curvature rows ``y``, ``p``, ``pp``."""
    x, u = tables
    return _assemble(coefficients(model, t, x, y, p, u), p, pp, out)


def inf_hamiltonian(model, t, x, y, p, pp):
    """Grid infimum of the Hamiltonian over controls, with the argmin set.

    Ties within 1e-12 * (1 + |minimum|) are kept; the canonical minimizer is
    the smallest control on the grid.
    """
    u_grid = model.control_set.points()
    values = _hamiltonian_grid(model, t, _state_control_tables(model, [x]),
                               np.array([y]), np.array([p]), np.array([pp]))[:, 0]
    if not np.all(np.isfinite(values)):
        raise EvaluationError("non-finite Hamiltonian on the control grid")
    vmin = float(values.min())
    tol = 1e-12 * (1.0 + abs(vmin))
    mask = values <= vmin + tol
    return vmin, u_grid[mask]


def solve_obstacle_hjb(model, grid, scheme="explicit", penalty_level=None):
    """Backward solve of the obstacle equation on the grid.

    The infimum is over the grid of the model's one control interval.
    ``scheme='explicit'`` steps with central differences and an exhaustive
    control-grid infimum, refilling the edge columns by quadratic
    extrapolation (``boundary=extrap2`` in the provenance); steps above the
    parabolic bound are split into substeps.  ``scheme='implicit'`` runs
    policy iteration with a banded implicit generator per time step whose
    edge rows impose linear extrapolation (``boundary=extrap1``).  With a
    positive ``penalty_level`` the hard projection onto the barrier is
    replaced by the soft penalty resolve, which is how the penalty
    approximation of the variational inequality is exposed for convergence
    studies; the provenance then ends in ``penalty=<level>``.

    Bad arguments are refused before any model call.  The values are the
    rows of :func:`surface_rows`, collected.
    """
    return collect_surface(model, grid, *surface_rows(model, grid, scheme, penalty_level))


def collect_surface(model, grid, provenance, rows, exact_form=None):
    """The :class:`ValueSurface` of the value rows ``rows``, ``(i, w)``
    pairs as :func:`surface_rows` yields them."""
    values = np.empty((grid.t_steps + 1, grid.x_steps + 1))
    for i, w in rows:
        values[i] = w
    return ValueSurface(grid=grid, values=values, provenance=provenance,
                        kink_columns=grid.columns_near(model.value_kinks),
                        exact_form=exact_form, model_name=model.name)


def surface_rows(model, grid, scheme="explicit", penalty_level=None):
    """The solve of :func:`solve_obstacle_hjb` as ``(provenance, rows)``.

    ``rows`` yields ``(i, w)``, the value row at time index ``i``, from the
    horizon down to 0.  A consumer must not write into ``w``; it copies
    what it keeps.  The arguments are checked, and the explicit scheme's
    substeps fixed, before this returns; a numerical failure raises when
    the stream reaches its time step.
    """
    if abs(grid.horizon - model.horizon) > 1e-12:
        raise ConfigError("grid horizon must match the model horizon")
    if scheme not in ("explicit", "implicit"):
        raise ConfigError("scheme must be 'explicit' or 'implicit'")
    if penalty_level is not None and not penalty_level > 0:
        raise ConfigError(f"penalty level must be positive, got {penalty_level!r}")
    if scheme == "explicit":
        substeps = _explicit_substeps(model, grid)
        meta = f"scheme=explicit, substeps={substeps}, boundary=extrap2"
        rows = _explicit_rows(model, grid, penalty_level, substeps)
    else:
        meta = "scheme=implicit, boundary=extrap1"
        rows = _implicit_rows(model, grid, penalty_level)
    if penalty_level is not None:
        meta += f", penalty={penalty_level:g}"
    return f"computed({meta})", rows


def _explicit_substeps(model, grid):
    """Substeps per time step under the parabolic bound, from the sampled
    sup of sigma^2 and |b| over the box."""
    u_grid = model.control_set.points()
    xs, dx = grid.xs, grid.dx
    s2max, bmax = 0.0, 0.0
    for t in (0.0, 0.5 * grid.horizon, grid.horizon):
        for u in u_grid:
            sig = np.asarray(model.diffusion(t, xs, u), dtype=float)
            b = np.asarray(model.drift(t, xs, u), dtype=float)
            s2max = max(s2max, float(np.max(sig * sig)))
            bmax = max(bmax, float(np.max(np.abs(b))))
    stable_dt = dx * dx / max(s2max + bmax * dx, 1e-300)
    return max(1, int(math.ceil(grid.dt / stable_dt)))


def _terminal_row(model, grid):
    """The terminal data on the state nodes, as a row of its own."""
    w = np.empty(grid.x_steps + 1)
    w[:] = np.asarray(model.terminal(grid.xs), dtype=float)
    return w


def _explicit_rows(model, grid, penalty_level, substeps):
    xs, dt, dx = grid.xs, grid.dt, grid.dx
    tables = _state_control_tables(model, xs[1:-1])
    h = np.empty(tables[0].shape)
    # row buffers every substep reuses; the model only reads them
    wx, wxx, step = np.empty((3, grid.x_steps - 1))
    w_new = np.empty(grid.x_steps + 1)
    times = grid.times
    sub_dt = dt / substeps

    two_dx, dx2 = 2 * dx, dx ** 2
    w = _terminal_row(model, grid)
    yield grid.t_steps, w
    for i in range(grid.t_steps - 1, -1, -1):
        for k in range(substeps):
            t_lvl = times[i + 1] - k * sub_dt
            t_new = t_lvl - sub_dt
            up, mid, down = w[2:], w[1:-1], w[:-2]
            np.subtract(up, down, out=wx)
            wx /= two_dx
            np.multiply(2, mid, out=wxx)      # (up - 2 mid + down) / dx^2
            np.subtract(up, wxx, out=wxx)
            wxx += down
            wxx /= dx2
            _hamiltonian_grid(model, t_lvl, tables, mid, wx, wxx, h).min(axis=0, out=step)
            step *= sub_dt
            np.add(mid, step, out=w_new[1:-1])
            w_new[0] = 3 * w_new[1] - 3 * w_new[2] + w_new[3]
            w_new[-1] = 3 * w_new[-2] - 3 * w_new[-3] + w_new[-4]
            barrier = np.asarray(model.obstacle(t_new, xs), dtype=float)
            w = _barrier_resolve(w_new, barrier, penalty_level, sub_dt)
            if not np.isfinite(w).all():
                raise BackwardSolverError(
                    f"explicit scheme produced non-finite values near t={t_new:.4g}")
        yield i, w


@functools.cache
def _gbsv():
    """scipy's LAPACK ``gbsv`` for float64, looked up on the first call.

    Only the implicit scheme solves banded systems, so scipy is imported
    here rather than with the module: commands that never run that scheme
    never load it.
    """
    from scipy.linalg import get_lapack_funcs
    gbsv, = get_lapack_funcs(("gbsv",), (np.empty(0),))
    return gbsv


def solve_banded(work, rhs):
    """LAPACK ``gbsv`` solve of a (2,2)-banded system, in place.

    ``work`` is a Fortran-order (7, n) array holding the band in rows 2-6
    (LAPACK band storage; rows 0-1 take the LU fill-in); it comes back
    holding the factors.  ``rhs`` comes back holding the solution.
    Returns ``(solution, info)``; a positive ``info`` means singular.
    """
    _, _, x, info = _gbsv()(2, 2, work, rhs, overwrite_ab=True, overwrite_b=True)
    return x, info


def _implicit_rows(model, grid, penalty_level):
    xs, dt, dx = grid.xs, grid.dt, grid.dx
    x_tab, u_tab = _state_control_tables(model, xs[1:-1])
    h = np.empty(x_tab.shape)
    times = grid.times
    n = grid.x_steps + 1
    cols = np.arange(n - 2)
    # banded system, bandwidths (2,2): interior rows implicit in the
    # generator, edge rows impose linear extrapolation (set once here)
    ab = np.zeros((5, n))
    ab[2, 0] = 1.0
    ab[1, 1] = -2.0
    ab[0, 2] = 1.0
    ab[2, -1] = 1.0
    ab[3, -2] = -2.0
    ab[4, -3] = 1.0
    work = np.zeros((7, n), order="F")

    target = _terminal_row(model, grid)
    yield grid.t_steps, target
    for i in range(grid.t_steps - 1, -1, -1):
        w = target.copy()
        t_new = times[i]
        barrier = np.asarray(model.obstacle(t_new, xs), dtype=float)
        sig_b = None
        converged = False
        for _ in range(_POLICY_ITERATIONS):
            wx = (w[2:] - w[:-2]) / (2 * dx)
            wxx = (w[2:] - 2 * w[1:-1] + w[:-2]) / dx ** 2
            coef = coefficients(model, t_new, x_tab, w[1:-1], wx, u_tab, sig_b)
            sig_b = coef[:2]
            k = _assemble(coef, wx, wxx, h).argmin(axis=0)
            sig, b, f = coef[0][k, cols], coef[1][k, cols], coef[2][k, cols]
            a = 0.5 * sig * sig
            ab[2, 1:-1] = 1.0 + 2.0 * dt * a / dx ** 2
            ab[1, 2:] = -dt * (a / dx ** 2 + b / (2 * dx))
            ab[3, :-2] = -dt * (a / dx ** 2 - b / (2 * dx))
            rhs = np.empty(n)
            rhs[1:-1] = target[1:-1] + dt * f
            rhs[0] = 0.0
            rhs[-1] = 0.0
            if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
                raise BackwardSolverError(
                    f"non-finite implicit system at time index {i}")
            work[2:] = ab
            w_new, info = solve_banded(work, rhs)
            if info != 0:
                raise BackwardSolverError(
                    f"singular implicit system at time index {i} (gbsv info {info})")
            w_new = _barrier_resolve(w_new, barrier, penalty_level, dt)
            shift = float(np.abs(w_new - w).max())
            w = w_new
            if shift <= _POLICY_SHIFT_TOL * (1.0 + float(np.abs(w).max())):
                converged = True
                break
        if not converged:
            raise BackwardSolverError(
                f"policy iteration not converged at time index {i}")
        yield i, w
        target = w


class _RowSteps:
    """The per-row Hamiltonian minima and residual steps on the value table
    ``values`` of one grid and model, with the grids and buffers built once.
    :func:`residual`, ``synthesis.extract_feedback`` and ``rfbsde solve``
    each loop them over the rows.

    ``minima(i, ...)`` reads value row ``i`` and ``residual(i, ...)`` rows
    ``i - 1`` to ``i + 1``, so a caller filling ``values`` from the horizon
    down can take each step as soon as its rows are in.
    """

    def __init__(self, model, grid, values, kink_columns):
        self.model, self.values = model, values
        self.times, self.xs, self.dt = grid.times, grid.xs, grid.dt
        self.u_grid = model.control_set.points()
        self.tables = _state_control_tables(model, self.xs)
        self.h = np.empty(self.tables[0].shape)
        self.kinks = list(kink_columns)

    def minima(self, i, wx, wxx):
        """(H_min, u_min) of value row ``i`` at its gradient and curvature
        rows ``wx``, ``wxx`` (:func:`_space_derivatives` of the row)."""
        h = _hamiltonian_grid(self.model, self.times[i], self.tables,
                              self.values[i], wx, wxx, self.h)
        vmin = h.min(axis=0)
        tol = 1e-12 * (1.0 + np.abs(vmin))
        return vmin, self.u_grid[np.argmax(h <= vmin + tol, axis=0)]

    def residual(self, i, hmin, out):
        """Residual row ``i`` (an interior one) into ``out`` from the H_min
        row ``hmin``; NaN at the edge and kink columns."""
        v = self.values
        wt = (v[i + 1, 1:-1] - v[i - 1, 1:-1]) / (2 * self.dt)
        barrier = np.asarray(self.model.obstacle(self.times[i], self.xs[1:-1]), dtype=float)
        out[1:-1] = np.maximum(v[i, 1:-1] - barrier, -wt - hmin[1:-1])
        out[0] = out[-1] = np.nan
        if self.kinks:
            out[self.kinks] = np.nan


def residual(surface, model):
    """max{W - h, -W_t - inf_u H} at interior nodes; NaN elsewhere.

    For a valid solution the field is nonpositive up to discretization error,
    with the PDE branch vanishing wherever the barrier is slack.  H is taken
    at the gradient and curvature of :meth:`ValueSurface.expansion_rows`.
    """
    steps = _RowSteps(model, surface.grid, surface.values, surface.kink_columns)
    wx, wxx = _space_derivatives(surface.values, surface.grid.dx, surface.kink_columns)
    out = np.full_like(surface.values, np.nan)
    for i in range(1, surface.grid.t_steps):
        steps.residual(i, steps.minima(i, wx[i], wxx[i])[0], out[i])
    return out


def candidate_surface(model, grid):
    """Sample the model's closed-form value function onto a grid, keeping
    the form for off-grid evaluation."""
    if model.value_form is None:
        raise ConfigError(f"no candidate surface for model '{model.name}'")
    if abs(grid.horizon - model.horizon) > 1e-12:
        raise ConfigError("grid horizon must match the model horizon")
    tt, xx = np.meshgrid(grid.times, grid.xs, indexing="ij")
    values = np.asarray(model.value_form(tt, xx), dtype=float)
    return ValueSurface(grid=grid, values=values,
                        provenance=f"closed-form candidate of model '{model.name}'",
                        kink_columns=grid.columns_near(model.value_kinks),
                        exact_form=model.value_form, model_name=model.name)


def grid_csv_row(t, row):
    """One CSV line: the time, then the float64 ``row``; float64 ``.tolist()``
    gives Python floats, whose repr is the format."""
    return repr(t) + "," + ",".join(map(repr, row.tolist())) + "\n"


def write_grid_lines(path, comments, grid, lines):
    """``# `` comment lines, the state header, then ``lines``, one
    :func:`grid_csv_row` per time node."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("time," + ",".join(map(repr, grid.xs.tolist())) + "\n")
        fh.writelines(lines)


def write_grid_csv(path, comments, grid, rows):
    """Matrix dump: ``# `` comment lines, then one row per time node and one
    column per state node."""
    # formatted one row at a time, which keeps the list of boxed floats small
    rows = np.asarray(rows, dtype=float)
    write_grid_lines(path, comments, grid, map(grid_csv_row, grid.times.tolist(), rows))


def surface_csv_comments(grid, provenance, model_name, kink_columns):
    """Header lines of the surface CSV: provenance, model, grid and kink
    columns."""
    return [f"provenance: {provenance}",
            f"model: {model_name}",
            f"horizon={grid.horizon!r} x_min={grid.x_min!r} x_max={grid.x_max!r} "
            f"t_steps={grid.t_steps} x_steps={grid.x_steps}",
            f"kink_columns: {list(kink_columns)}"]
