"""Span recorder for the traced benchmark run.

Tracing is installed at run time on the loaded ``rfbsde`` modules: each traced
entry point is replaced, in every ``rfbsde`` module that binds it, by a wrapper
that times the call and notes which traced call it ran inside.  Model
coefficients are wrapped on the model object itself.  Nothing under ``src/``
changes, and :func:`install` returns the function that puts every original
back, so untraced rounds run the program exactly as shipped.

Spans of module entry points are kept in memory with their parent and round
and written out with the trace file.  Model-coefficient calls run in the
hundreds of thousands per operation, so those are only summed.
"""

import dataclasses
import re
import sys
import time
from pathlib import Path

MODEL_FIELDS = ("drift", "diffusion", "driver", "terminal", "obstacle")
_MIB = float(1 << 20)


class Tracer:
    """Inclusive time, call count and direct-child time per span name."""

    def __init__(self):
        self.total = {}
        self.calls = {}
        self.nested = {}      # name -> {direct child name: seconds}
        self.counts = {}
        self.spans = []       # (name, start, end, parent index, round)
        self.round = -1
        self._stack = []      # (span index or None, {child name: seconds})

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, name, dur, children):
        self.total[name] = self.total.get(name, 0.0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if children:
            mine = self.nested.setdefault(name, {})
            for child, sec in children.items():
                mine[child] = mine.get(child, 0.0) + sec
        if self._stack and self._stack[-1][1] is not None:
            parent = self._stack[-1][1]
            parent[name] = parent.get(name, 0.0) + dur

    def wrap(self, name, fn, after=None):
        """Span around ``fn``; ``name`` may be a function of (args, kwargs)."""
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = next((i for i, _ in reversed(self._stack) if i is not None), -1)
            index = len(self.spans)
            self.spans.append(None)
            children = {}
            self._stack.append((index, children))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, self.round)
                self._close(label, end - start, children)
            if after is not None:
                after(self, args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name, fn):
        """Summed-only span for callables invoked in tight loops."""
        def traced(*args, **kwargs):
            self._stack.append((None, None))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self._close(name, dur, None)
        traced.__wrapped__ = fn
        return traced

    def wrap_model(self, model):
        """Copy of ``model`` whose coefficient callables are timed and counted."""
        return dataclasses.replace(model, **{
            f: self.wrap_leaf("model.coef", getattr(model, f)) for f in MODEL_FIELDS})


def _hjb_span(args, kwargs):
    scheme = kwargs.get("scheme", args[2] if len(args) > 2 else "explicit")
    return "hjb.implicit" if scheme == "implicit" else "hjb.explicit"


def _after_simulate(tracer, args, kwargs, ens):
    tracer.count("simulate.path_steps", ens.n_paths * ens.grid.steps)
    tracer.count("simulate.ensemble_bytes",
                 ens.states.nbytes + ens.increments.nbytes + ens.controls.nbytes)


def _after_backward(tracer, args, kwargs, sol):
    tracer.count("rbsde.backward_nodes", sol.value.shape[1] - 1)
    tracer.count("rbsde.fallback_nodes",
                 len(sol.diagnostics.get("estimator_fallback_nodes", ())))
    tracer.count("rbsde.solution_bytes", sol.value.nbytes + sol.slope.nbytes
                 + sol.reflection.nbytes + sol.pushes.nbytes)


def _after_hjb(tracer, args, kwargs, surface):
    m = re.search(r"substeps=(\d+)", surface.provenance)
    if m:
        tracer.count("hjb.substeps", int(m.group(1)) * surface.grid.t_steps)


def _after_cmd_solve(tracer, args, kwargs, code):
    out = Path(args[0]["output"]["directory"])
    tracer.count("cli.artifact_bytes",
                 sum(p.stat().st_size for p in out.iterdir() if p.is_file()))


# (module, attribute, span name, hook after return)
TARGETS = (
    ("rfbsde.simulate", "simulate_paths", "simulate.open_loop", _after_simulate),
    ("rfbsde.simulate", "simulate_closed_loop", "simulate.closed_loop", _after_simulate),
    ("rfbsde.rbsde", "solve_reflected", "rbsde.backward", _after_backward),
    ("rfbsde.rbsde", "cost_functional", "rbsde.cost_functional", None),
    ("rfbsde.hjb", "solve_obstacle_hjb", _hjb_span, _after_hjb),
    ("rfbsde.hjb", "residual", "hjb.residual", None),
    ("rfbsde.hjb", "solve_banded", "hjb.solve_banded", None),
    ("rfbsde.synthesis", "extract_feedback", "synthesis.extract", None),
    ("rfbsde.synthesis", "evaluate_feedback", "synthesis.evaluate", None),
    ("rfbsde.verify", "verify_feedback_optimality", "verify.route", None),
    ("rfbsde.verify", "check_superdiff_membership", "verify.membership", None),
    ("rfbsde.cli", "cmd_solve", "cli.cmd_solve", _after_cmd_solve),
)


def install(tracer):
    """Wrap every target in every loaded rfbsde module; returns the undo."""
    loaded = [m for n, m in list(sys.modules.items())
              if m is not None and (n == "rfbsde" or n.startswith("rfbsde."))]
    undo = []

    def rebind(original, wrapper):
        for mod in loaded:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))

    for mod_name, attr, name, after in TARGETS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is not None:
            rebind(original, tracer.wrap(name, original, after))

    build = getattr(sys.modules.get("rfbsde.model"), "build_model", None)
    if build is not None:
        rebind(build, lambda *a, **k: tracer.wrap_model(build(*a, **k)))

    def restore():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
    return restore


def layer_metrics(tracer, rounds):
    """Per-operation layer figures, averaged over ``rounds`` traced rounds."""
    def t(name):
        return tracer.total.get(name, 0.0)

    def c(name):
        return tracer.counts.get(name, 0)

    def calls(name):
        return tracer.calls.get(name, 0)

    def children(parent, names=None):
        kids = tracer.nested.get(parent, {})
        return sum(v for k, v in kids.items() if names is None or k in names)

    sim_back = ("simulate.open_loop", "simulate.closed_loop", "rbsde.backward")
    estimate = sum(t(p) - children(p, sim_back)
                   for p in ("rbsde.cost_functional", "synthesis.evaluate"))
    per_op = {
        "simulate.open_loop_s": t("simulate.open_loop"),
        "simulate.closed_loop_s": t("simulate.closed_loop"),
        "simulate.path_steps": c("simulate.path_steps"),
        "simulate.ensemble_mib": c("simulate.ensemble_bytes") / _MIB,
        "rbsde.backward_s": t("rbsde.backward"),
        "rbsde.backward_nodes": c("rbsde.backward_nodes"),
        "rbsde.fallback_nodes": c("rbsde.fallback_nodes"),
        "rbsde.estimate_s": estimate,
        "rbsde.solution_mib": c("rbsde.solution_bytes") / _MIB,
        "hjb.explicit_s": t("hjb.explicit"),
        "hjb.substeps": c("hjb.substeps"),
        "hjb.implicit_s": t("hjb.implicit"),
        "hjb.banded_solves": calls("hjb.solve_banded"),
        "hjb.residual_s": t("hjb.residual"),
        "model.coef_calls": calls("model.coef"),
        "model.coef_s": t("model.coef"),
        "synthesis.extract_s": t("synthesis.extract"),
        "synthesis.evaluate_s": t("synthesis.evaluate"),
        "verify.route_s": t("verify.route"),
        "verify.membership_probes": calls("verify.membership"),
        "verify.membership_s": t("verify.membership"),
        "cli.self_s": t("cli.cmd_solve") - children("cli.cmd_solve"),
        "cli.artifact_mib": c("cli.artifact_bytes") / _MIB,
    }
    return {k: v / rounds for k, v in per_op.items()}


def trace_dump(tracer):
    """JSON-ready record of the spans, totals and counters."""
    return {
        "spans": [{"name": n, "start": s, "end": e, "parent": p, "round": r}
                  for n, s, e, p, r in tracer.spans],
        "total_s": tracer.total,
        "calls": tracer.calls,
        "nested_s": tracer.nested,
        "counts": tracer.counts,
    }
