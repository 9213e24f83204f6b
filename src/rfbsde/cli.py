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
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, RfbsdeError
from .hjb import (SpaceTimeGrid, candidate_surface, hamiltonian_minima, residual,
                  solve_obstacle_hjb, write_grid_csv, write_surface_csv)
from .model import ProbeGrid, build_model, validate_assumptions
from .rbsde import SolverConfig, cost_functional, tree_oracle
from .simulate import OpenLoopControl, TimeGrid
from .synthesis import FeedbackLaw, evaluate_feedback, extract_feedback, write_law_csv
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
               "control": None, "tables": "surface",
               "battery_random": 20, "battery_switches": 8,
               "membership_times": 16, "membership_paths": 64,
               "node_samples": 64,
               "triple": {"time_slope": 0.0, "gradient": 1.0, "curvature": 0.0}},
    "assumptions": {"t_min": 0.0, "t_max": 1.0, "x_min": -5.0, "x_max": 5.0,
                    "points": 9},
    "output": {"directory": "out"},
}

_CANDIDATE_FOR = {"example-classical": "candidate-classical",
                  "example-viscosity": "candidate-viscosity"}
_SURFACES = ("computed", "candidate")


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
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override '{pair}' must look like key=value")
        key, val = pair.split("=", 1)
        key = prefix + key
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key '{key}'")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key '{key}'")
        node[parts[-1]] = _coerce(val)
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
    _apply_overrides(cfg, sets)
    _apply_overrides(cfg, tols, prefix="tolerances.")
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
        self._writers = []
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

    def write_behind(self, fn, *args):
        """Start ``fn(*args)``, with the artifact's path among ``args``, in a
        forked child and return; :meth:`join` waits for it.

        The child inherits the arguments copy-on-write, so no table is
        pickled or copied.  It only formats and writes, which takes no lock
        another thread of the parent could hold at the fork.
        """
        import multiprocessing   # here: commands that start no writer skip the import
        with self.stage("write_csv"):
            proc = multiprocessing.get_context("fork").Process(target=fn, args=args)
            proc.start()
        self._writers.append((proc, next(a for a in args if isinstance(a, Path))))

    def join(self):
        """Wait for every writer :meth:`write_behind` started, timed as
        ``write_csv``; a writer that failed is an ``OSError`` naming its
        artifact and exit code."""
        writers, self._writers = self._writers, []
        if not writers:
            return
        with self.stage("write_csv"):
            for proc, _ in writers:
                proc.join()
        failed = [f"{path} (writer exit code {proc.exitcode})"
                  for proc, path in writers if proc.exitcode != 0]
        if failed:
            raise OSError(f"writing {', '.join(failed)} failed")

    def finish(self):
        self.join()
        manifest = {
            "command": self.command,
            "config_sha256": _config_hash(self.cfg),
            "artifacts": sorted(self.artifacts),
            "timings_s": {**{k: round(v, 3) for k, v in self.timings.items()},
                          "total": round(time.time() - self._t0, 3)},
            "version": __version__,
            **self.extra,
        }
        p = self.out / "manifest.json"
        with open(p, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return manifest


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
                        battery_random=_num(cfg, "verify.battery_random", int),
                        battery_switches=_num(cfg, "verify.battery_switches", int),
                        membership_times=_num(cfg, "verify.membership_times", int),
                        membership_paths=_num(cfg, "verify.membership_paths", int),
                        node_samples=_num(cfg, "verify.node_samples", int),
                        probe=probe)


def _pde_grid(cfg, model):
    return SpaceTimeGrid(horizon=model.horizon, x_min=_num(cfg, "pde.x_min"),
                         x_max=_num(cfg, "pde.x_max"),
                         t_steps=_num(cfg, "pde.t_steps", int),
                         x_steps=_num(cfg, "pde.x_steps", int))


def _surface_for(cfg, model, choice):
    """The catalog closed form if ``choice`` is 'candidate' and one exists,
    else the PDE solve."""
    name = _CANDIDATE_FOR.get(model.name)
    if choice == "candidate" and name is not None:
        return candidate_surface(name, _pde_grid(cfg, model))
    p = cfg["pde"]
    level = None if p["penalty_level"] is None else _num(cfg, "pde.penalty_level")
    return solve_obstacle_hjb(model, _pde_grid(cfg, model),
                              scheme=p["scheme"], penalty_level=level)


def cmd_solve(cfg):
    """Solve the obstacle PDE; write the surface, residual and law CSVs.

    Each CSV is written by a forked writer (:meth:`_Run.write_behind`) while
    the parent computes the next table, so ``timings_s["write_csv"]`` is the
    time the parent spent starting the writers and waiting for them, not
    the time the writing took.  Every exit waits for the writers first.
    """
    run = _Run(cfg, "solve")
    try:
        model = _model_from(cfg)
        grid = _pde_grid(cfg, model)
        choice = _choice(cfg, "pde.surface", _SURFACES)
        if choice == "candidate" and model.name not in _CANDIDATE_FOR:
            raise ConfigError(f"no candidate surface for model '{model.name}'")
        with run.stage("solve"):
            surface = _surface_for(cfg, model, choice)
        run.write_behind(write_surface_csv, surface, run.path("surface.csv"))

        # one Hamiltonian pass serves the residual and the law; each table
        # is dropped once its writer holds it
        with run.stage("residual"):
            minima = hamiltonian_minima(surface, model)
            res = residual(surface, model, minima)
        run.write_behind(write_grid_csv, run.path("residual.csv"),
                         ["residual field (NaN at edges and kink columns)"], grid, res)
        finite = res[np.isfinite(res)]
        run.extra["residual_max"] = float(finite.max()) if finite.size else 0.0
        del res, finite

        with run.stage("law"):
            law = extract_feedback(surface, model, minima)
        run.write_behind(write_law_csv, law, run.path("law.csv"))
        del law, minima

        # one time row at a time: the obstacle takes a scalar time, as in the solvers
        xs = grid.xs
        violation = float(np.max([
            np.maximum(w - np.asarray(model.obstacle(t, xs), dtype=float), 0.0).max()
            for t, w in zip(grid.times, surface.values)]))
        run.extra["kink_columns"] = list(surface.kink_columns)
        run.extra["obstacle_violation_max"] = violation
        run.finish()
    except BaseException:
        # wait for the writers; the error in flight, not theirs, is reported
        with contextlib.suppress(OSError):
            run.join()
        raise
    print(f"surface: {surface.provenance}")
    print(f"residual max (interior): {run.extra['residual_max']:.6g}")
    print(f"obstacle violation max: {violation:.6g}")
    if surface.kink_columns:
        print(f"kink columns: {list(surface.kink_columns)}")
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
        if method == "reflected":
            grid = TimeGrid(start_time, model.horizon, _num(cfg, "mc.steps", int))
            est = cost_functional(model, start_time, start_state,
                                  OpenLoopControl.constant(u0), grid,
                                  _num(cfg, "mc.paths", int), _num(cfg, "mc.seed", int),
                                  _solver_config(cfg))
        elif method == "feedback":
            surface = _surface_for(cfg, model, _choice(cfg, "verify.surface", _SURFACES))
            law = extract_feedback(surface, model)
            grid = TimeGrid(start_time, model.horizon, _num(cfg, "mc.steps", int))
            est = evaluate_feedback(model, law, start_time, start_state, grid,
                                    _num(cfg, "mc.paths", int), _num(cfg, "mc.seed", int),
                                    _solver_config(cfg), allow_irregular=True)
        else:
            value = tree_oracle(model, start_time, start_state,
                                lambda t, x: u0, _num(cfg, "cost.tree_depth", int))
            stderr = 0.0
    if method != "tree":
        value, stderr = est.value, est.stderr
        run.extra["diagnostics"] = est.solution.diagnostics

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
    v = cfg["verify"]
    # refused before the surface solve, which can be the costly part
    mode = _choice(cfg, "verify.mode", ("classical", "viscosity", "feedback"))
    tables_from = _choice(cfg, "verify.tables", ("surface", "triple"))
    start_time = _num(cfg, "mc.start_time")
    start_state = _num(cfg, "mc.start_state")
    triple = tuple(_num(cfg, f"verify.triple.{k}")
                   for k in ("time_slope", "gradient", "curvature"))
    law = None
    if mode == "viscosity":
        u0 = model.control_set.lo if v["control"] is None \
            else _control(cfg, "verify.control", model)
    elif v["constant_law"] is not None:
        law = FeedbackLaw.constant(_control(cfg, "verify.constant_law", model),
                                   model.control_set)
    surface = _surface_for(cfg, model, _choice(cfg, "verify.surface", _SURFACES))
    if mode != "viscosity" and law is None:
        law = extract_feedback(surface, model)

    if mode == "classical":
        battery = build_control_battery(model, start_time, vcfg.seed,
                                        vcfg.battery_random,
                                        vcfg.battery_switches)
        report = verify_classical(model, surface, start_time, start_state,
                                  law, battery, vcfg)
    elif mode == "viscosity":
        battery = build_control_battery(model, start_time, vcfg.seed,
                                        min(vcfg.battery_random, 5),
                                        vcfg.battery_switches)
        report = verify_viscosity_conditions(
            model, surface, start_time, start_state,
            OpenLoopControl.constant(u0),
            lambda s, x: triple, vcfg, battery=battery)
    else:
        candidate = tables_from_surface(surface) if tables_from == "surface" \
            else lambda s, x: triple
        report = verify_feedback_optimality(model, surface, law, candidate,
                                            start_time, start_state, vcfg)

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
        "verify": {"mode": "viscosity", "control": 1.0, "battery_random": 3,
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
