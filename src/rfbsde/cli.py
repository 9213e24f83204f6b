"""Command-line orchestration: config parsing, pipelines, artifact emission.

Subcommands: ``solve`` (obstacle PDE -> surface/residual/law CSVs), ``cost``
(one cost evaluation by Monte Carlo, closed loop or tree), ``verify`` (one of
the three verification routes, nonzero exit on failure), ``assumptions``
(sampled assumption report) and ``paper`` (preset end-to-end bundles for the
two built-in examples).

Configs are YAML with a fixed nested schema; unknown keys are errors.  Exit
codes: 0 pass, 1 verification failure, 2 config error, 3 numerical failure.
Every failure prints one machine-greppable ``ERROR[kind]: ...`` line on
stderr.  Re-running a command with an identical config reproduces the CSV
artifacts byte for byte (the manifest records timings, which vary).
"""

import argparse
import contextlib
import copy
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, RfbsdeError
from .hjb import (SpaceTimeGrid, _RowSteps, _space_derivatives, candidate_surface,
                  collect_surface, grid_csv_row, surface_csv_comments, surface_rows,
                  write_grid_csv, write_grid_lines)
from .model import ProbeGrid, build_model, validate_assumptions
from .rbsde import SolverConfig, tree_oracle
from .simulate import TimeGrid
from .synthesis import (FeedbackLaw, evaluate_feedback, extract_feedback,
                        extracted_provenance, law_csv_comments)
from .verify import (MembershipProbe, VerifyConfig,
                     build_control_battery, tables_from_surface,
                     verify_classical, verify_feedback_optimality,
                     verify_viscosity_conditions)

DEFAULTS = {
    "model": {"name": "example-classical", "horizon": 1.0, "control_points": 5},
    "pde": {"t_steps": 400, "x_steps": 100, "x_min": 0.1, "x_max": 5.0,
            "scheme": "explicit", "penalty_level": None,
            "surface": "computed"},
    "mc": {"paths": 20000, "steps": 100, "seed": 7,
           "start_time": 0.0, "start_state": 1.0},
    "estimator": {"kind": "poly", "degree": 3, "bins": 32},
    "tolerances": {"obstacle": 1e-9, "skorokhod": 1e-8, "z_match": 0.1,
                   "membership": 0.02, "nonmember": 0.05, "bias_budget": 0.05},
    "cost": {"method": "reflected", "control": 0.0, "tree_depth": 16},
    "verify": {"mode": "classical", "surface": "candidate", "constant_law": None,
               "tables": "surface", "battery_random": 20, "battery_switches": 8,
               "membership_times": 16, "membership_paths": 64,
               "node_samples": 64,
               "triple": {"time_slope": 0.0, "gradient": 1.0, "curvature": 0.0}},
    "assumptions": {"t_min": 0.0, "t_max": 1.0, "x_min": -5.0, "x_max": 5.0,
                    "points": 9},
    "output": {"directory": "out"},
}


def _merge(base, update, path=""):
    out = copy.deepcopy(base)
    for key, val in update.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key '{where}' must be a mapping")
            out[key] = _merge(base[key], val, where)
        elif isinstance(val, dict):
            raise ConfigError(f"config key '{where}' takes a value, not a mapping")
        else:
            out[key] = val
    return out


def _coerce(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.lower() in ("none", "null"):
        return None
    return text


def _apply_overrides(cfg, pairs, prefix=""):
    """``cfg`` with each dotted ``key=value`` pair merged in by :func:`_merge`."""
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override '{pair}' must look like key=value")
        key, val = pair.split("=", 1)
        update = _coerce(val)
        for part in reversed((prefix + key).split(".")):
            update = {part: update}
        cfg = _merge(cfg, update)
    return cfg


def load_config(path, sets=None, tols=None, seed=None, out=None, base=None):
    cfg = copy.deepcopy(DEFAULTS if base is None else base)
    if path is not None:
        import yaml   # here: runs without a config file skip the import
        with open(path) as fh:
            try:
                user = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(str(exc)) from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a mapping")
        cfg = _merge(cfg, user)
    cfg = _apply_overrides(cfg, sets)
    cfg = _apply_overrides(cfg, tols, prefix="tolerances.")
    if seed is not None:
        cfg["mc"]["seed"] = int(seed)
    if out is not None:
        cfg["output"]["directory"] = out
    return cfg


def _config_hash(cfg):
    # hash the computation inputs; the output location is not one
    payload = {k: v for k, v in cfg.items() if k != "output"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


class _Run:
    """Output directory plus manifest bookkeeping for one invocation."""

    def __init__(self, cfg, command):
        self.cfg = cfg
        self.command = command
        self.out = Path(cfg["output"]["directory"])
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts = []
        self.timings = {}
        self.extra = {}
        self._t0 = time.time()

    @contextlib.contextmanager
    def stage(self, name):
        """Add the wall time of the block to ``timings[name]``."""
        t0 = time.time()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.time() - t0

    def path(self, name):
        p = self.out / name
        self.artifacts.append(str(p))
        return p

    def finish(self):
        # ru_maxrss (KiB) of this process and of its largest waited-for child
        peak = {k: round(resource.getrusage(who).ru_maxrss / 1024.0, 3) for k, who in
                (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))}
        manifest = {
            "command": self.command,
            "config_sha256": _config_hash(self.cfg),
            "artifacts": sorted(self.artifacts),
            "timings_s": {**{k: round(v, 3) for k, v in self.timings.items()},
                          "total": round(time.time() - self._t0, 3)},
            "version": __version__,
            "peak_rss_mib": peak,
            **self.extra,
        }
        p = self.out / "manifest.json"
        with open(p, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return manifest


def _children_cpu_s():
    """User plus system CPU of the waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _CsvWriter:
    """One forked child that writes a CSV file of tables the parent fills.

    The tables live in one anonymous shared mapping, so the child reads the
    rows the parent stores.  :meth:`final_from` notes on a pipe that rows
    ``k`` and above are final; the child formats them (:func:`grid_csv_row`)
    as the note arrives, while the parent computes the next rows, and writes
    the files in forward time order after the note for row 0.  It formats
    and writes only, taking no lock another thread of the parent could
    hold at the fork.
    """

    def __init__(self, grid, count):
        import mmap
        import multiprocessing   # here: commands that start no writer skip both imports
        shape = (count, grid.t_steps + 1, grid.x_steps + 1)
        # the tables, then the index of the file the child is writing
        shared = np.frombuffer(mmap.mmap(-1, 8 * (math.prod(shape) + 1)), dtype=float)
        self.tables = shared[:-1].reshape(shape)
        self._writing = shared[-1:]
        self._writing[0] = -1
        self._grid = grid
        self._fork = multiprocessing.get_context("fork")
        self.cpu_s = 0.0

    def start(self, files):
        """Fork the child that writes ``files``, (table, path, comment
        lines) triples whose tables are among :attr:`tables`."""
        self._paths = [path for _, path, _ in files]
        notes, self._notes = self._fork.Pipe(duplex=False)
        self._child = self._fork.Process(target=self._write, args=(notes, files))
        self._child.start()
        notes.close()

    def _write(self, notes, files):
        self._notes.close()   # the parent's end, which the fork duplicated
        times = self._grid.times.tolist()
        lines = [[None] * len(times) for _ in files]
        final = len(times)
        while final:
            try:
                k = notes.recv()
            except EOFError:     # the parent stopped short: write nothing
                return
            for out, (table, _, _) in zip(lines, files):
                out[k:final] = map(grid_csv_row, times[k:final], table[k:final])
            final = k
        for j, ((_, path, comments), out) in enumerate(zip(files, lines)):
            self._writing[0] = j
            write_grid_lines(path, comments, self._grid, out)

    def final_from(self, k):
        """Note that rows ``k`` and above of every table are final."""
        try:
            self._notes.send(k)
        except BrokenPipeError:    # the child has exited: join says why
            self.join()
            raise

    def join(self):
        """Wait for the child and add its CPU time to ``cpu_s``.

        Closing the pipe first makes a child still waiting for rows exit
        without writing.  A child that failed is an ``OSError`` naming the
        file it was writing (every file, if it failed before writing) and
        its exit code.
        """
        self._notes.close()
        before = _children_cpu_s()
        self._child.join()
        self.cpu_s += _children_cpu_s() - before
        code = self._child.exitcode
        if code:
            j = int(self._writing[0])
            failed = self._paths[j:j + 1] if j >= 0 else self._paths
            raise OSError(f"writing {', '.join(map(str, failed))} "
                          f"(writer exit code {code}) failed")


def _at(cfg, key):
    """The value at the dotted config ``key``."""
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


def _choice(cfg, key, options):
    """The value at the dotted config ``key``; anything outside ``options``
    is a config error naming the key."""
    val = _at(cfg, key)
    if val not in options:
        raise ConfigError(f"config key '{key}' must be one of {list(options)}, got {val!r}")
    return val


def _num(cfg, key, cast=float):
    """The value at the dotted config ``key`` cast by ``cast`` (int or float);
    a boolean, a value that does not convert, or one that ``int`` would
    truncate is a config error naming the key."""
    val = _at(cfg, key)
    try:
        out = cast(val)
        exact = not isinstance(val, bool) and (cast is not int or out == float(val))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"config key '{key}' must be {kind}, got {val!r}")
    return out


def _control(cfg, key, model):
    """``_num`` of ``key``, refused outside the model's control set."""
    val, cs = _num(cfg, key), model.control_set
    if not cs.contains(val):
        raise ConfigError(f"config key '{key}' must lie in the control set "
                          f"[{cs.lo:g}, {cs.hi:g}] of model '{model.name}', got {val!r}")
    return val


def _model_from(cfg):
    return build_model(cfg["model"]["name"], horizon=_num(cfg, "model.horizon"),
                       control_points=_num(cfg, "model.control_points", int))


def _solver_config(cfg):
    return SolverConfig(estimator=cfg["estimator"]["kind"],
                        degree=_num(cfg, "estimator.degree", int),
                        bins=_num(cfg, "estimator.bins", int),
                        tol_obstacle=_num(cfg, "tolerances.obstacle"),
                        tol_skorokhod=_num(cfg, "tolerances.skorokhod"))


def _verify_config(cfg):
    seed = _num(cfg, "mc.seed", int)
    probe = MembershipProbe(member_tol=_num(cfg, "tolerances.membership"),
                            nonmember_tol=_num(cfg, "tolerances.nonmember"),
                            seed=seed)
    return VerifyConfig(n_paths=_num(cfg, "mc.paths", int),
                        steps=_num(cfg, "mc.steps", int),
                        seed=seed,
                        solver=_solver_config(cfg),
                        bias_budget=_num(cfg, "tolerances.bias_budget"),
                        z_tol=_num(cfg, "tolerances.z_match"),
                        membership_times=_num(cfg, "verify.membership_times", int),
                        membership_paths=_num(cfg, "verify.membership_paths", int),
                        node_samples=_num(cfg, "verify.node_samples", int),
                        probe=probe)


def _pde_grid(cfg, model):
    return SpaceTimeGrid(horizon=model.horizon, x_min=_num(cfg, "pde.x_min"),
                         x_max=_num(cfg, "pde.x_max"),
                         t_steps=_num(cfg, "pde.t_steps", int),
                         x_steps=_num(cfg, "pde.x_steps", int))


def _surface_rows(cfg, model, key):
    """(grid, provenance, rows, exact_form) of the model's closed-form
    surface if the config ``key`` is 'candidate' (refused for a model
    without one), else of the PDE solve.

    ``rows`` streams the value rows from the horizon down as
    :func:`surface_rows` does; ``exact_form`` is the closed form, or None.
    """
    grid = _pde_grid(cfg, model)
    if _choice(cfg, key, ("computed", "candidate")) == "candidate":
        s = candidate_surface(model, grid)
        rows = ((i, s.values[i]) for i in range(grid.t_steps, -1, -1))
        return grid, s.provenance, rows, s.exact_form
    p = cfg["pde"]
    level = None if p["penalty_level"] is None else _num(cfg, "pde.penalty_level")
    return (grid,) + surface_rows(model, grid, p["scheme"], level) + (None,)


def _surface_for(cfg, model, key):
    """The surface of :func:`_surface_rows`, collected."""
    grid, provenance, rows, exact_form = _surface_rows(cfg, model, key)
    return collect_surface(model, grid, provenance, rows, exact_form)


def cmd_solve(cfg):
    """Solve the obstacle PDE; write the surface, residual and law CSVs.

    The command consumes the scheme's time rows from the horizon down.  As
    row i arrives it stores it with its Hamiltonian minima and law row, the
    residual row i + 1 (whose neighbours are now in) and the row's obstacle
    violation, keeping no full-grid Hamiltonian table, and notes rows i + 1
    and above final to one forked writer (:class:`_CsvWriter`), which
    formats them on the other core while the scheme runs on.  A closed-form
    surface has no scheme to run beside, so there the command formats the
    surface itself once the stream ends, while the writer formats the
    other two.  ``timings_s`` sums the surface's set-up and rows as
    ``solve``, the minima, residual and violation rows as ``residual`` and
    the law rows as ``law``; ``write_csv`` is the time the command spent
    starting, noting and waiting for the writer and writing its own file,
    and ``writer_cpu_s`` the writer's own CPU time.  Every exit waits for
    the writer, which writes no file unless the stream ran to row 0.
    """
    run = _Run(cfg, "solve")
    model = _model_from(cfg)
    clock = time.perf_counter
    start = clock()
    grid, provenance, rows, exact_form = _surface_rows(cfg, model, "pde.surface")
    kinks = grid.columns_near(model.value_kinks)
    mark = clock()
    spent = {"solve": mark - start, "law": 0.0}
    writer = _CsvWriter(grid, 3)
    values, res, law_table = writer.tables
    res[[0, -1]] = np.nan
    files = [(values, run.path("surface.csv"),
              surface_csv_comments(grid, provenance, model.name, kinks)),
             (res, run.path("residual.csv"),
              ["residual field (NaN at edges and kink columns)"]),
             (law_table, run.path("law.csv"),
              law_csv_comments(extracted_provenance(provenance, model.control_set)))]
    own = [files.pop(0)] if exact_form is not None else []
    writer.start(files)
    spent["write_csv"] = clock() - mark
    try:
        mark = clock()
        steps = _RowSteps(model, grid, values, kinks)
        xs, times, dx, last = grid.xs, grid.times, grid.dx, grid.t_steps
        over = np.empty(last + 1)
        spent["residual"] = clock() - mark
        mark = clock()
        for i, w in rows:
            t_row = clock()
            values[i] = w
            hmin, law_row = steps.minima(i, *_space_derivatives(w, dx, kinks))
            # the obstacle takes a scalar time, as in the solvers
            over[i] = np.maximum(w - np.asarray(model.obstacle(times[i], xs), dtype=float),
                                 0.0).max()
            if i < last - 1:     # residual row i + 1 has both neighbours now
                steps.residual(i + 1, hmin_above, res[i + 1])
            hmin_above = hmin
            t_law = clock()
            law_table[i] = law_row
            t_note = clock()
            if i < last:
                writer.final_from(i + 1)
            spent["solve"] += t_row - mark
            spent["residual"] += t_law - t_row
            spent["law"] += t_note - t_law
            mark = clock()
            spent["write_csv"] += mark - t_note
        writer.final_from(0)
        for table, path, comments in own:
            write_grid_csv(path, comments, grid, table)
        writer.join()
        spent["write_csv"] += clock() - mark
    except BaseException:
        # stop the writer; the error in flight, not its, is reported
        with contextlib.suppress(OSError):
            writer.join()
        raise
    run.timings.update(spent)
    finite = res[np.isfinite(res)]
    violation = float(over.max())
    run.extra["residual_max"] = float(finite.max()) if finite.size else 0.0
    run.extra["kink_columns"] = list(kinks)
    run.extra["obstacle_violation_max"] = violation
    run.extra["writer_cpu_s"] = round(writer.cpu_s, 3)
    run.finish()
    print(f"surface: {provenance}")
    print(f"residual max (interior): {run.extra['residual_max']:.6g}")
    print(f"obstacle violation max: {violation:.6g}")
    if kinks:
        print(f"kink columns: {list(kinks)}")
    return 0


def cmd_cost(cfg):
    run = _Run(cfg, "cost")
    model = _model_from(cfg)
    mc = cfg["mc"]
    method = _choice(cfg, "cost.method", ("reflected", "feedback", "tree"))
    # the feedback method takes its controls from the law: cost.control is
    # not read, and the control field of cost.csv stays empty
    u0 = None if method == "feedback" else _control(cfg, "cost.control", model)
    start_time = _num(cfg, "mc.start_time")
    start_state = _num(cfg, "mc.start_state")
    with run.stage("cost"):
        if method == "feedback":
            law = extract_feedback(_surface_for(cfg, model, "verify.surface"), model)
        else:
            law = FeedbackLaw.constant(u0, model.control_set)
        if method == "tree":
            value = tree_oracle(model, start_time, start_state, law,
                                _num(cfg, "cost.tree_depth", int))
            stderr = 0.0
        else:   # folded from the backward stream, storing no solution table
            grid = TimeGrid(start_time, model.horizon, _num(cfg, "mc.steps", int))
            est = evaluate_feedback(model, law, start_time, start_state, grid,
                                    _num(cfg, "mc.paths", int), _num(cfg, "mc.seed", int),
                                    _solver_config(cfg), allow_irregular=True)
            value, stderr = est.value, est.stderr
            run.extra["diagnostics"] = est.diagnostics

    control = "" if u0 is None else repr(u0)
    row = (f"{model.name},{method},{mc['start_time']!r},{mc['start_state']!r},"
           f"{control},{value!r},{stderr!r},{mc['seed']}\n")
    with open(run.path("cost.csv"), "w") as fh:
        fh.write("model,method,start_time,start_state,control,value,stderr,seed\n")
        fh.write(row)
    run.finish()
    print(f"J = {value:.6g} +/- {stderr:.2g}")
    return 0


def _write_report(run, report):
    with open(run.path("report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    with open(run.path("report.txt"), "w") as fh:
        fh.write("\n".join(report.summary_lines()) + "\n")
    for line in report.summary_lines():
        print(line)


def cmd_verify(cfg):
    run = _Run(cfg, "verify")
    model = _model_from(cfg)
    vcfg = _verify_config(cfg)
    # refused before the surface solve, which can be the costly part
    mode = _choice(cfg, "verify.mode", ("classical", "viscosity", "feedback"))
    tables_from = _choice(cfg, "verify.tables", ("surface", "triple"))
    start_time = _num(cfg, "mc.start_time")
    start_state = _num(cfg, "mc.start_state")
    triple = tuple(_num(cfg, f"verify.triple.{k}")
                   for k in ("time_slope", "gradient", "curvature"))
    battery_sizes = (_num(cfg, "verify.battery_random", int),
                     _num(cfg, "verify.battery_switches", int))
    # the control under test in every mode: the constant law, else the extracted one
    law = None if cfg["verify"]["constant_law"] is None else FeedbackLaw.constant(
        _control(cfg, "verify.constant_law", model), model.control_set)
    with run.stage("surface"):
        surface = _surface_for(cfg, model, "verify.surface")
    with run.stage("law"):
        if law is None:
            law = extract_feedback(surface, model)

    with run.stage("route"):
        if mode == "feedback":
            candidate = tables_from_surface(surface) if tables_from == "surface" \
                else lambda s, x: triple
            report = verify_feedback_optimality(model, surface, law, candidate,
                                                start_time, start_state, vcfg)
        else:
            battery = build_control_battery(model, start_time, vcfg.seed,
                                            *battery_sizes)
            if mode == "classical":
                report = verify_classical(model, surface, start_time, start_state,
                                          law, battery, vcfg)
            else:
                report = verify_viscosity_conditions(
                    model, surface, start_time, start_state, law,
                    lambda s, x: triple, vcfg, battery=battery)

    _write_report(run, report)
    run.extra["status"] = report.status
    run.finish()
    if report.status != "pass":
        print(f"ERROR[verify]: aggregate status {report.status}", file=sys.stderr)
        return 1
    return 0


def cmd_assumptions(cfg):
    run = _Run(cfg, "assumptions")
    model = _model_from(cfg)
    probe = ProbeGrid(time_bounds=(_num(cfg, "assumptions.t_min"),
                                   _num(cfg, "assumptions.t_max")),
                      state_bounds=(_num(cfg, "assumptions.x_min"),
                                    _num(cfg, "assumptions.x_max")),
                      points=_num(cfg, "assumptions.points", int))
    report = validate_assumptions(model, probe, seed=_num(cfg, "mc.seed", int))
    lines = report.summary_lines()
    with open(run.path("assumptions.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    run.extra["passed"] = report.passed
    run.finish()
    for line in lines:
        print(line)
    return 0


_PAPER_PRESETS = {
    "5.1": {
        "model": {"name": "example-classical"},
        "pde": {"t_steps": 4000, "x_steps": 200, "x_min": 0.1, "x_max": 5.0},
        "mc": {"paths": 20000, "steps": 100, "start_state": 1.0},
        "verify": {"mode": "classical", "battery_random": 5},
        "assumptions": {"x_min": -5.0, "x_max": 5.0},
    },
    "5.2": {
        "model": {"name": "example-viscosity"},
        "pde": {"t_steps": 2000, "x_steps": 200, "x_min": -5.0, "x_max": 5.0},
        "mc": {"paths": 5000, "steps": 100, "start_state": 0.0},
        "verify": {"mode": "viscosity", "constant_law": 1.0, "battery_random": 3,
                   "triple": {"time_slope": 0.0, "gradient": 1.0,
                              "curvature": 0.0}},
        "cost": {"control": 1.0},
    },
}


def cmd_paper(cfg, example_id):
    base = Path(cfg["output"]["directory"]) / f"example-{example_id}"
    summary = []
    for sub, fn in (("assumptions", cmd_assumptions), ("solve", cmd_solve),
                    ("cost", cmd_cost), ("verify", cmd_verify)):
        sub_cfg = copy.deepcopy(cfg)
        sub_cfg["output"]["directory"] = str(base / sub)
        print(f"--- {sub} ---")
        code = fn(sub_cfg)
        summary.append((sub, "ok" if code == 0 else f"exit {code}"))
        if code != 0 and sub == "verify":
            return code
    base.mkdir(parents=True, exist_ok=True)
    with open(base / "summary.txt", "w") as fh:
        for sub, status in summary:
            fh.write(f"{sub}: {status}\n")
    print(f"bundle written under {base}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rfbsde",
        description="stochastic control with reflected FBSDEs: solve, cost, "
                    "verify, assumptions, paper")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "cost", "verify", "assumptions", "paper"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", default=None,
                       metavar="KEY=VAL", help="tolerance override")
        p.add_argument("--set", action="append", default=None, dest="sets",
                       metavar="KEY=VAL", help="dotted-path config override")
        if name == "paper":
            p.add_argument("example_id", help="5.1 or 5.2")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        base = None
        if args.command == "paper":
            if args.example_id not in _PAPER_PRESETS:
                raise ConfigError(
                    f"unknown example id '{args.example_id}'; valid ids: "
                    f"{sorted(_PAPER_PRESETS)}")
            base = _merge(DEFAULTS, _PAPER_PRESETS[args.example_id])
        cfg = load_config(args.config, sets=args.sets, tols=args.tol,
                          seed=args.seed, out=args.out, base=base)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "cost":
            return cmd_cost(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "assumptions":
            return cmd_assumptions(cfg)
        return cmd_paper(cfg, args.example_id)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"ERROR[config]: {exc}", file=sys.stderr)
        return 2
    except RfbsdeError as exc:
        print(f"ERROR[numerical]: {exc}", file=sys.stderr)
        return 3


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
