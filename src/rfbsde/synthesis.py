"""Feedback-law extraction from a value surface and closed-loop evaluation.

The candidate law at each grid node is the canonical minimizer of the
Hamiltonian evaluated with the surface's finite-difference expansion.  At
declared kink columns the gradient slot takes the midpoint of the one-sided
slopes and the curvature slot zero, which keeps extraction total; rigor at
those columns is the verification module's job.

Extracted laws are looked up by nearest grid node (not interpolated) so every
evaluation returns a member of the discrete argmin set; values are projected
onto the control set either way.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .hjb import hamiltonian_minima, write_grid_csv
from .rbsde import SolverConfig, _node0_estimate
from .simulate import OpenLoopControl, simulate_closed_loop, simulate_paths


@dataclass(frozen=True)
class FeedbackLaw:
    """Grid-aligned control table looked up at the nearest node, or a constant.

    A law without a table returns ``value`` everywhere; either way the result
    is projected onto the control set.
    """

    table: Optional[np.ndarray]
    grid: Optional[object]
    control_set: object
    provenance: str = ""
    value: float = 0.0

    @classmethod
    def constant(cls, value, control_set):
        return cls(table=None, grid=None, control_set=control_set,
                   provenance=f"constant({value})", value=float(value))

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        if self.table is None:
            out = np.full_like(x, self.value, dtype=float)
        else:
            out = self.table[self.grid.nearest_node(t, x)]
        out = self.control_set.clip(out)
        return out if out.shape else float(out)


def extract_feedback(surface, model, minima=None):
    """Canonical Hamiltonian minimizer at every surface node.

    Ties within 1e-12 * (1 + |min|) resolve to the smallest control on the
    grid, so the table is deterministic.  ``minima`` is
    :func:`hamiltonian_minima` of this surface and model, when the caller
    already holds it.
    """
    _, table = hamiltonian_minima(surface, model) if minima is None else minima
    return FeedbackLaw(table=table, grid=surface.grid, control_set=model.control_set,
                       provenance=extracted_provenance(surface.provenance, model.control_set))


def extracted_provenance(surface_provenance, control_set):
    """Provenance of the law :func:`extract_feedback` takes from a surface
    of provenance ``surface_provenance``."""
    return (f"extracted from {surface_provenance} "
            f"({len(control_set.points())} grid controls)")


@dataclass(frozen=True)
class LawRegularityReport:
    lipschitz_constant: float
    worst_jump: float
    member: bool


def check_law_regularity(law):
    """Measured state-Lipschitz constant of the table and a jump detector.

    The verdict fails when some time slice jumps by more than half the
    control range across one grid cell, the heuristic signature of an argmin
    switch that breaks the Lipschitz feedback class.
    """
    if law.table is None:
        return LawRegularityReport(0.0, 0.0, True)
    dx = law.grid.dx
    jumps = np.abs(np.diff(law.table, axis=1))
    worst = float(jumps.max()) if jumps.size else 0.0
    lip = worst / dx
    span = max(law.control_set.hi - law.control_set.lo, 1e-300)
    return LawRegularityReport(lipschitz_constant=lip, worst_jump=worst,
                               member=bool(worst <= 0.5 * span))


def evaluate_feedback(model, law, start_time, start_state, grid, n_paths, seed,
                      config=SolverConfig(), allow_irregular=False):
    """Closed-loop cost of a feedback law from one initial pair.

    Refuses laws that fail the regularity check unless explicitly overridden;
    an irregular law may still be evaluable, but the smooth-case guarantees
    no longer apply and the caller should know it.  The cost is folded from
    the backward stream as its nodes arrive, keeping no table beyond the
    ensemble.
    """
    report = check_law_regularity(law)
    if not report.member and not allow_irregular:
        raise ConfigError(
            "feedback law fails the regularity check "
            f"(worst jump {report.worst_jump:.3g}); pass allow_irregular=True "
            "to evaluate anyway")
    ensemble = simulate_law(model, law, start_time, start_state, grid, n_paths, seed)
    return _node0_estimate(model, ensemble, config)


def simulate_law(model, law, start_time, start_state, grid, n_paths, seed):
    """Euler paths under a feedback law.

    A law that takes one value, a constant or a table whose entries all
    equal its first, runs as the open-loop constant control it equals: the
    same paths, with one shared control column instead of a per-path
    table.  Any other tabled law runs in closed loop.
    """
    if law.table is not None and np.any(law.table != law.table.flat[0]):
        return simulate_closed_loop(model, law, start_time, start_state, grid,
                                    n_paths, seed)
    value = law.value if law.table is None else law.table.flat[0]
    control = OpenLoopControl.constant(law.control_set.clip(value))
    return simulate_paths(model, start_time, start_state, control, grid,
                          n_paths, seed)


def law_csv_comments(provenance):
    """Header lines of the CSV of a law of provenance ``provenance``: that
    and the nearest-node lookup rule."""
    return [f"provenance: {provenance}", "rule: nearest tie_break: smallest"]


def write_law_csv(law, path):
    """Control table dump of an extracted law, with the nearest-node lookup
    rule recorded in the header."""
    write_grid_csv(path, law_csv_comments(law.provenance), law.grid, law.table)
