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
        """(time index, state columns) of the grid nodes nearest to (t, x)."""
        i = int(round(min(max(float(t), 0.0), self.horizon) / self.dt))
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

    ``exact_form`` is set for closed-form candidates imported from the
    catalog; when present, off-grid evaluation uses the form itself instead
    of bilinear interpolation.  ``kink_columns`` are state columns where the
    surface is declared non-differentiable: :meth:`expansion_tables` takes
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

    def expansion_tables(self):
        """(w_t, w_x, w_xx) at every node, as whole-grid tables.

        Central differences at interior nodes, one-sided second order at
        the edges; at a declared kink column the gradient table takes the
        midpoint of the one-sided slopes and the curvature table zero.
        """
        return (_first_difference(self.values, self.grid.dt, axis=0),) \
            + self._space_derivatives(self.values)

    def _space_derivatives(self, w):
        """(w_x, w_xx) of the value rows ``w`` (state along the last axis),
        with the kink-column rule of :meth:`expansion_tables`."""
        dx, n = self.grid.dx, w.shape[-1]
        wx, wxx = _first_difference(w, dx), _second_difference(w, dx)
        for j in self.kink_columns:
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


def _coefficient_bounds(model, grid):
    """Sampled sup of sigma^2 and |b| over the box, for the step-size bound."""
    u_grid = model.control_set.points()
    xs = grid.xs
    s2max, bmax = 0.0, 0.0
    for t in (0.0, 0.5 * grid.horizon, grid.horizon):
        for u in u_grid:
            sig = np.asarray(model.diffusion(t, xs, u), dtype=float)
            b = np.asarray(model.drift(t, xs, u), dtype=float)
            s2max = max(s2max, float(np.max(sig * sig)))
            bmax = max(bmax, float(np.max(np.abs(b))))
    return s2max, bmax


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
    studies; the provenance then ends in ``penalty=<level>``.  Bad arguments are refused before any model call.
    """
    if abs(grid.horizon - model.horizon) > 1e-12:
        raise ConfigError("grid horizon must match the model horizon")
    if scheme not in ("explicit", "implicit"):
        raise ConfigError("scheme must be 'explicit' or 'implicit'")
    if penalty_level is not None and not penalty_level > 0:
        raise ConfigError(f"penalty level must be positive, got {penalty_level!r}")
    if scheme == "explicit":
        values, meta = _solve_explicit(model, grid, penalty_level)
    else:
        values, meta = _solve_policy_iteration(model, grid, penalty_level)
    if penalty_level is not None:
        meta += f", penalty={penalty_level:g}"
    return ValueSurface(grid=grid, values=values,
                        provenance=f"computed({meta})",
                        kink_columns=grid.columns_near(model.value_kinks),
                        model_name=model.name)


def _solve_explicit(model, grid, penalty_level):
    xs, dt, dx = grid.xs, grid.dt, grid.dx
    s2max, bmax = _coefficient_bounds(model, grid)
    stable_dt = dx * dx / max(s2max + bmax * dx, 1e-300)
    substeps = max(1, int(math.ceil(dt / stable_dt)))

    tables = _state_control_tables(model, xs[1:-1])
    h = np.empty(tables[0].shape)
    times = grid.times
    values = np.empty((grid.t_steps + 1, grid.x_steps + 1))
    values[-1] = np.asarray(model.terminal(xs), dtype=float)
    sub_dt = dt / substeps

    two_dx, dx2 = 2 * dx, dx ** 2
    w = values[-1].copy()
    for i in range(grid.t_steps - 1, -1, -1):
        for k in range(substeps):
            t_lvl = times[i + 1] - k * sub_dt
            t_new = t_lvl - sub_dt
            up, mid, down = w[2:], w[1:-1], w[:-2]
            wx = (up - down) / two_dx
            wxx = (up - 2 * mid + down) / dx2
            step = _hamiltonian_grid(model, t_lvl, tables, mid, wx, wxx, h).min(axis=0)
            step *= sub_dt
            w_new = np.empty_like(w)
            np.add(mid, step, out=w_new[1:-1])
            w_new[0] = 3 * w_new[1] - 3 * w_new[2] + w_new[3]
            w_new[-1] = 3 * w_new[-2] - 3 * w_new[-3] + w_new[-4]
            barrier = np.asarray(model.obstacle(t_new, xs), dtype=float)
            w = _barrier_resolve(w_new, barrier, penalty_level, sub_dt)
            if not np.isfinite(w).all():
                raise BackwardSolverError(
                    f"explicit scheme produced non-finite values near t={t_new:.4g}")
        values[i] = w
    return values, f"scheme=explicit, substeps={substeps}, boundary=extrap2"


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


def _solve_policy_iteration(model, grid, penalty_level):
    xs, dt, dx = grid.xs, grid.dt, grid.dx
    x_tab, u_tab = _state_control_tables(model, xs[1:-1])
    h = np.empty(x_tab.shape)
    times = grid.times
    n = grid.x_steps + 1
    values = np.empty((grid.t_steps + 1, n))
    values[-1] = np.asarray(model.terminal(xs), dtype=float)
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

    for i in range(grid.t_steps - 1, -1, -1):
        target = values[i + 1]
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
        values[i] = w
    return values, "scheme=implicit, boundary=extrap1"


def hamiltonian_minima(surface, model):
    """(H_min, u_min) at every node of ``surface``: the grid minimum of the
    Hamiltonian over controls and its canonical minimizer.

    H is taken at the gradient and curvature of
    :meth:`ValueSurface.expansion_tables`.  Ties within
    1e-12 * (1 + |minimum|) resolve to the smallest control on the grid, as
    in :func:`inf_hamiltonian`.  :func:`residual` reads H_min and
    ``extract_feedback`` u_min, so a caller needing both passes this pair to
    each instead of evaluating the grid twice.
    """
    grid = surface.grid
    u_grid = model.control_set.points()
    wx, wxx = surface._space_derivatives(surface.values)
    tables = _state_control_tables(model, grid.xs)
    h = np.empty(tables[0].shape)
    hmin = np.empty_like(surface.values)
    umin = np.empty_like(surface.values)
    for i, t in enumerate(grid.times):
        _hamiltonian_grid(model, t, tables, surface.values[i], wx[i], wxx[i], h)
        vmin = h.min(axis=0, out=hmin[i])
        tol = 1e-12 * (1.0 + np.abs(vmin))
        umin[i] = u_grid[np.argmax(h <= vmin + tol, axis=0)]
    return hmin, umin


def residual(surface, model, minima=None):
    """max{W - h, -W_t - inf_u H} at interior nodes; NaN elsewhere.

    For a valid solution the field is nonpositive up to discretization error,
    with the PDE branch vanishing wherever the barrier is slack.  ``minima``
    is :func:`hamiltonian_minima` of this surface and model, when the caller
    already holds it.
    """
    grid = surface.grid
    hmin = (hamiltonian_minima(surface, model) if minima is None else minima)[0]
    wt = _first_difference(surface.values, grid.dt, axis=0)
    out = np.full_like(surface.values, np.nan)
    times, xs = grid.times, grid.xs[1:-1]
    for i in range(1, grid.t_steps):
        w = surface.values[i, 1:-1]
        barrier = np.asarray(model.obstacle(times[i], xs), dtype=float)
        out[i, 1:-1] = np.maximum(w - barrier, -wt[i, 1:-1] - hmin[i, 1:-1])
    out[:, list(surface.kink_columns)] = np.nan
    return out


# ---------------------------------------------------------------------------
# Closed-form candidate surfaces
# ---------------------------------------------------------------------------

def _classical_form(horizon):
    def form(t, x):
        return np.asarray(x, dtype=float) * np.exp(2.0 * (horizon - np.asarray(t, dtype=float)))
    return form


def _viscosity_form(horizon):
    def form(t, x):
        x = np.asarray(x, dtype=float)
        grown = x * np.exp(3.0 * (horizon - np.asarray(t, dtype=float)))
        out = np.where(x > 0.0, x, grown)
        return out if out.shape else float(out)
    return form


CANDIDATE_CATALOG = {
    "candidate-classical": (_classical_form, ()),
    "candidate-viscosity": (_viscosity_form, (0.0,)),
}


def candidate_surface(name, grid):
    """Sample a catalog closed form onto a grid, keeping the exact form."""
    try:
        factory, kinks = CANDIDATE_CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown candidate '{name}'; known: {sorted(CANDIDATE_CATALOG)}") from None
    form = factory(grid.horizon)
    tt, xx = np.meshgrid(grid.times, grid.xs, indexing="ij")
    values = np.asarray(form(tt, xx), dtype=float)
    return ValueSurface(grid=grid, values=values,
                        provenance=f"closed-form candidate '{name}'",
                        kink_columns=grid.columns_near(kinks), exact_form=form,
                        model_name=name)


def write_grid_csv(path, comments, grid, rows):
    """Matrix dump: ``# `` comment lines, then one row per time node and one
    column per state node; ``rows=None`` writes the comments only."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        if rows is None:
            return
        # float64 .tolist() gives Python floats, whose repr is the format;
        # one row at a time keeps the list of boxed floats small
        rows = np.asarray(rows, dtype=float)
        fh.write("time," + ",".join(map(repr, grid.xs.tolist())) + "\n")
        for i, t in enumerate(grid.times.tolist()):
            fh.write(repr(t) + "," + ",".join(map(repr, rows[i].tolist())) + "\n")


def write_surface_csv(surface, path):
    """Surface matrix with provenance, grid and kink columns in the header."""
    grid = surface.grid
    write_grid_csv(path, [
        f"provenance: {surface.provenance}",
        f"model: {surface.model_name}",
        f"horizon={grid.horizon!r} x_min={grid.x_min!r} x_max={grid.x_max!r} "
        f"t_steps={grid.t_steps} x_steps={grid.x_steps}",
        f"kink_columns: {list(surface.kink_columns)}"], grid, surface.values)
