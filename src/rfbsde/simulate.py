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

A Monte Carlo pass runs one helper thread (:func:`_ahead`): it draws the next
block of increments here, and builds the next node's regression in the
backward pass, while the caller's thread works on the current one.  Model
callables are only ever called from the caller's thread.
"""

import math
import threading
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

    Two flavours: a constant or a deterministic function of time.  Neither
    is stored as a table: a constant is one shared column and a function of
    time one row of its node values, broadcast read-only over the ensemble.
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

    def all_values(self, grid):
        """The control's value on each interval of the grid, in node order."""
        nodes = grid.nodes[:-1]
        if self.kind == "constant":
            return np.full(len(nodes), self.value)
        return np.array([float(self.fn(t)) for t in nodes])


@dataclass(frozen=True)
class PathEnsemble:
    """Euler paths of the controlled state on a shared grid.

    ``states`` has shape (paths, steps+1); ``increments`` and ``controls``
    are (paths, steps).  All three are stored column-major, so each per-node
    column is contiguous; the increments still hold the row-major
    ``(paths, steps)`` draw of the module docstring, element for element.
    Under a constant open-loop control, ``controls`` is one ``(paths,)``
    column broadcast read-only over the steps (strides ``(8, 0)``), under a
    function of time one ``(steps,)`` row over the paths (``(0, 8)``).
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


def _ahead(items):
    """Yield ``items`` in order while one helper thread computes the next.

    The helper takes item k+1 from ``items`` as soon as item k is handed
    out, and no further, so a producer may reuse the buffer of item k for
    item k+2.  A producer's exception is raised where its item would have
    been yielded.  However the caller leaves (exhausted, broken off, or
    raising), the helper is stopped and joined before the generator closes.
    """
    from queue import SimpleQueue       # here: set-up imports only threading
    items = iter(items)
    wanted, done = SimpleQueue(), SimpleQueue()

    def produce():
        while wanted.get():
            try:
                done.put((next(items), None))
            except BaseException as exc:       # StopIteration included
                done.put((None, exc))

    helper = threading.Thread(target=produce, name="rfbsde-ahead")
    helper.start()
    try:
        wanted.put(True)
        while True:
            item, exc = done.get()
            if isinstance(exc, StopIteration):
                return
            if exc is not None:
                raise exc
            wanted.put(True)
            yield item
    finally:
        exc = None          # a raised error's traceback holds this frame
        wanted.put(False)
        helper.join()


def _increments(seed, n_paths, steps, dt):
    """Column-major Brownian increments of the documented stream.

    Rows are drawn ``_DRAW_ROWS`` at a time from one generator, which yields
    the one-shot ``standard_normal((paths, steps))`` draw value for value.
    The helper of :func:`_ahead` draws the next block into one of two block
    buffers while this thread scales the current one straight into the
    column-major array.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    scale = math.sqrt(dt)
    out = np.empty((n_paths, steps), order="F")
    buffers = np.empty((2, min(_DRAW_ROWS, n_paths), steps))

    def blocks():
        for k, start in enumerate(range(0, n_paths, _DRAW_ROWS)):
            block = buffers[k % 2, :min(_DRAW_ROWS, n_paths - start)]
            gen.standard_normal(out=block)
            yield start, block

    for start, block in _ahead(blocks()):
        np.multiply(block, scale, out=out[start:start + len(block)])
    return out


def _euler(model, start_time, start_state, grid, n_paths, seed, controls,
           law=None):
    """Euler loop shared by both entry points.

    ``controls`` is the ensemble's (paths, steps) control table.  Given a
    feedback ``law``, the loop fills each node's column from the law at the
    states that node reaches.
    """
    if abs(grid.start - start_time) > 1e-12:
        raise ConfigError("grid.start must equal the initial time")
    if grid.end > model.horizon + 1e-12:
        raise ConfigError("grid.end exceeds the model horizon")

    dt = grid.dt
    dW = _increments(seed, n_paths, grid.steps, dt)
    states = np.empty((n_paths, grid.steps + 1), order="F")
    states[:, 0] = float(np.asarray(start_state).reshape(()))
    nodes = grid.nodes
    for i in range(grid.steps):
        x = states[:, i]
        if law is not None:
            controls[:, i] = law_controls(model, law, nodes[i], x)
        u = controls[:, i]
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
    are rejected before any path is generated.  The controls are a
    read-only broadcast of a constant's column or a function's node row.
    """
    if n_paths < 1:
        raise ConfigError(f"need at least one path, got {n_paths}")
    row = control.all_values(grid)
    if not model.control_set.contains(row):
        raise SimulationError("control takes values outside the control set")
    shared = row if control.kind == "time" else np.full((n_paths, 1), control.value)
    return _euler(model, start_time, start_state, grid, n_paths, seed,
                  np.broadcast_to(shared, (n_paths, grid.steps)))


def simulate_closed_loop(model, law, start_time, start_state, grid, n_paths, seed):
    """Euler scheme with the control chosen per node from a feedback law.

    ``law`` is any callable (t, states) -> control values; values are
    projected onto the control set.  The induced per-path control table is
    recorded on the ensemble, so downstream solvers treat the result exactly
    like an open-loop run.
    """
    if n_paths < 1:
        raise ConfigError(f"need at least one path, got {n_paths}")
    return _euler(model, start_time, start_state, grid, n_paths, seed,
                  np.empty((n_paths, grid.steps), order="F"), law)
