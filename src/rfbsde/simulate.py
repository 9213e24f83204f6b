"""Forward simulation of the controlled state equation.

Paths are generated by the Euler scheme on a uniform grid with Gaussian
increments from a counter-based generator keyed by the seed; the (path, node)
position indexes the counter layout, so ensembles are reproducible and
per-path streams are independent by construction.  The counter layout is the
row-major one of a single ``standard_normal((paths, steps))`` draw from
Philox keyed by the seed, scaled by sqrt(dt).  Storage is column-major
(``order="F"``): every per-node column ``states[:, i]`` is contiguous, which is
how both the forward and the backward pass read them.  Ensembles are
immutable once built and shared freely by the backward solvers.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, SimulationError

_DRAW_ROWS = 1024      # rows of the increment stream drawn per block


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid r_0 = start < ... < r_steps = end."""

    start: float
    end: float
    steps: int

    def __post_init__(self):
        if not (0.0 <= self.start < self.end):
            raise ConfigError(f"need 0 <= start < end, got [{self.start}, {self.end}]")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")

    @property
    def dt(self):
        return (self.end - self.start) / self.steps

    @property
    def nodes(self):
        return np.linspace(self.start, self.end, self.steps + 1)


@dataclass(frozen=True)
class OpenLoopControl:
    """Control applied on each interval [r_i, r_{i+1}).

    Two flavours: a constant or a deterministic function of time.  A
    constant is simulated from one shared column, so its ensemble's
    ``controls`` is a read-only broadcast view, not a table.
    """

    kind: str
    value: float = 0.0
    fn: Optional[Callable] = None

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", value=float(value))

    @classmethod
    def from_function(cls, fn):
        return cls(kind="time", fn=fn)

    def values_at(self, t, n_paths):
        if self.kind == "constant":
            return np.full(n_paths, self.value)
        return np.full(n_paths, float(self.fn(t)))

    def all_values(self, grid):
        """Every value the control will take on this grid (admissibility sweep)."""
        return np.array([self.values_at(t, 1)[0] for t in grid.nodes[:-1]])


@dataclass(frozen=True)
class PathEnsemble:
    """Euler paths of the controlled state on a shared grid.

    ``states`` has shape (paths, steps+1); ``increments`` and ``controls``
    are (paths, steps).  All three are stored column-major, so each per-node
    column is contiguous; the increments still hold the row-major
    ``(paths, steps)`` draw of the module docstring, element for element.
    Under a constant open-loop control, ``controls`` is one ``(paths,)``
    column broadcast read-only over the steps (strides ``(8, 0)``).
    """

    grid: TimeGrid
    states: np.ndarray
    increments: np.ndarray
    controls: np.ndarray

    @property
    def n_paths(self):
        return self.states.shape[0]


def law_controls(model, law, t, x):
    """Feedback-law controls at the states ``x``, projected onto the control set."""
    return model.control_set.clip(
        np.broadcast_to(np.asarray(law(t, x), dtype=float), np.shape(x)))


def _increments(seed, n_paths, steps, dt):
    """Column-major Brownian increments of the documented stream.

    Rows are drawn ``_DRAW_ROWS`` at a time from one generator, which yields
    the one-shot ``standard_normal((paths, steps))`` draw value for value,
    and each block is scaled straight into the column-major array.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    scale = math.sqrt(dt)
    out = np.empty((n_paths, steps), order="F")
    for start in range(0, n_paths, _DRAW_ROWS):
        block = gen.standard_normal((min(_DRAW_ROWS, n_paths - start), steps))
        np.multiply(block, scale, out=out[start:start + len(block)])
    return out


def _euler(model, start_time, start_state, grid, n_paths, seed, control_at,
           controls=None):
    """Euler loop shared by both entry points.

    ``control_at(i, t, x)`` returns the node-i control values for the states
    ``x``; they are recorded on the ensemble as the per-path control table,
    unless the caller passes ``controls``, a table that already holds them.
    """
    if abs(grid.start - start_time) > 1e-12:
        raise ConfigError("grid.start must equal the initial time")
    if grid.end > model.horizon + 1e-12:
        raise ConfigError("grid.end exceeds the model horizon")

    dt = grid.dt
    dW = _increments(seed, n_paths, grid.steps, dt)
    states = np.empty((n_paths, grid.steps + 1), order="F")
    states[:, 0] = float(np.asarray(start_state).reshape(()))
    record = controls is None
    if record:
        controls = np.empty((n_paths, grid.steps), order="F")
    nodes = grid.nodes
    for i in range(grid.steps):
        x = states[:, i]
        u = control_at(i, nodes[i], x)
        if record:
            controls[:, i] = u
        nxt = x + np.asarray(model.drift(nodes[i], x, u)) * dt \
            + np.asarray(model.diffusion(nodes[i], x, u)) * dW[:, i]
        if not np.all(np.isfinite(nxt)):
            m = int(np.flatnonzero(~np.isfinite(nxt))[0])
            raise SimulationError(f"non-finite state at path {m}, node {i + 1}")
        states[:, i + 1] = nxt

    return PathEnsemble(grid=grid, states=states, increments=dW,
                        controls=controls)


def simulate_paths(model, start_time, start_state, control, grid, n_paths, seed):
    """Euler scheme for the controlled state equation under an open-loop control.

    Deterministic given the seed.  Controls outside the model's control set
    are rejected before any path is generated.  A constant control is one
    shared column, recorded as a read-only broadcast over the steps.
    """
    if not model.control_set.contains(control.all_values(grid)):
        raise SimulationError("control takes values outside the control set")
    if control.kind == "constant":
        column = control.values_at(grid.start, n_paths)
        controls = np.broadcast_to(column[:, None], (n_paths, grid.steps))
        return _euler(model, start_time, start_state, grid, n_paths, seed,
                      lambda i, t, x: column, controls)
    return _euler(model, start_time, start_state, grid, n_paths, seed,
                  lambda i, t, x: control.values_at(t, n_paths))


def simulate_closed_loop(model, law, start_time, start_state, grid, n_paths, seed):
    """Euler scheme with the control chosen per node from a feedback law.

    ``law`` is any callable (t, states) -> control values; values are
    projected onto the control set.  The induced per-path control table is
    recorded on the ensemble, so downstream solvers treat the result exactly
    like an open-loop run.
    """
    return _euler(model, start_time, start_state, grid, n_paths, seed,
                  lambda i, t, x: law_controls(model, law, t, x))
