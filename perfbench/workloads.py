"""The three benchmark workloads: inputs, the timed operation, output checks.

Each workload builds its inputs from the seed in ``__init__`` (timed as
set-up), runs one operation per round in ``run`` (timed), and checks the
round's output in ``check`` (not timed).  Library entry points are reached
through their module at call time, so the wrappers of a traced round apply.

Per-round Monte Carlo seeds are ``seed * 1000 + round``: every round draws
new paths, and the same seed always gives the same inputs.
"""

import hashlib
import math
import shutil

import numpy as np

from rfbsde import cli, hjb, model, rbsde, simulate, synthesis, verify

import checks

SIZES = {
    "full": {
        "cost-mc": {"paths": 100_000, "steps": 200},
        "solve-classical": {"t_steps": 4000, "x_steps": 200},
        "certify-viscosity": {"t_steps": 2000, "x_steps": 200, "paths": 20_000,
                              "steps": 100, "membership_times": 16,
                              "membership_paths": 64, "node_samples": 64},
    },
    "tiny": {
        "cost-mc": {"paths": 2_000, "steps": 20},
        "solve-classical": {"t_steps": 200, "x_steps": 40},
        "certify-viscosity": {"t_steps": 400, "x_steps": 40, "paths": 2_000,
                              "steps": 20, "membership_times": 4,
                              "membership_paths": 8, "node_samples": 8},
    },
}


def _op_seed(seed, r):
    return seed * 1000 + r


def _zero_policy(t, x):
    return 0.0


class _Workload:
    min_rounds = 1

    def __init__(self, seed, out_dir, size="full"):
        self.seed = int(seed)
        self.out_dir = out_dir
        self.size = SIZES[size][self.name]

    def discard(self, output):
        """Release what a round left behind before the next round runs."""

    def summary(self, output):
        return {}


class CostMC(_Workload):
    """One reflected cost of u = 0 for example-classical from (0, 1)."""

    name = "cost-mc"
    x0 = 1.0

    def __init__(self, seed, out_dir, size="full"):
        super().__init__(seed, out_dir, size)
        self.model = model.example_classical()
        self.grid = simulate.TimeGrid(0.0, self.model.horizon, self.size["steps"])
        self.control = simulate.OpenLoopControl.constant(0.0)
        self._tree = None

    def run(self, r, tracer=None):
        m = self.model if tracer is None else tracer.wrap_model(self.model)
        return r, rbsde.cost_functional(m, 0.0, self.x0, self.control, self.grid,
                                        self.size["paths"], _op_seed(self.seed, r))

    def check(self, output):
        r, est = output
        sol = est.solution
        if self._tree is None:
            self._tree = tuple(rbsde.tree_oracle(self.model, 0.0, self.x0, _zero_policy, d)
                               for d in (16, 14))
        paths = checks.classical_paths(_op_seed(self.seed, r), self.size["paths"],
                                       self.size["steps"], self.x0)
        return (checks.check_cost_value(est.value, est.stderr, self.x0)
                + checks.check_node1_mean(float(np.mean(sol.value[:, 1])),
                                          est.stderr, self.x0, self.grid.dt)
                + checks.check_reflected_solution(sol.value, sol.pushes, paths)
                + checks.check_tree(est.value, est.stderr, *self._tree))

    def summary(self, output):
        _, est = output
        return {"value": est.value, "stderr": est.stderr, "tree16": self._tree[0],
                "tree14": self._tree[1]}


class SolveClassical(_Workload):
    """``rfbsde solve`` for example-classical on the paper-5.1 grid."""

    name = "solve-classical"
    min_rounds = 2        # the byte-for-byte check needs two fresh directories
    artifacts = ("surface.csv", "residual.csv", "law.csv")

    def __init__(self, seed, out_dir, size="full"):
        super().__init__(seed, out_dir, size)
        self.sets = ["model.name=example-classical", "pde.scheme=explicit",
                     "pde.surface=computed", "pde.x_min=0.1", "pde.x_max=5.0",
                     f"pde.t_steps={self.size['t_steps']}",
                     f"pde.x_steps={self.size['x_steps']}"]
        self._first = None

    def run(self, r, tracer=None):
        target = self.out_dir / f"solve-round{r}"
        argv = ["solve", "--out", str(target)]
        for s in self.sets:
            argv += ["--set", s]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rfbsde solve exited {code}")
        return target

    def check(self, target):
        digests = {n: hashlib.sha256((target / n).read_bytes()).hexdigest()
                   for n in self.artifacts}
        if self._first is None:
            self._first = digests
            return checks.check_classical_bundle(*(target / n for n in self.artifacts))
        diff = checks.check_same_bytes(self._first, digests)
        if diff:
            diff += checks.check_classical_bundle(*(target / n for n in self.artifacts))
        return diff

    def discard(self, target):
        shutil.rmtree(target, ignore_errors=True)

    def summary(self, target):
        return {"artifact_digests": self._first}


class CertifyViscosity(_Workload):
    """Paper-5.2 flow off the kink: implicit surface, law, cost, checks."""

    name = "certify-viscosity"
    x0 = 0.5

    def __init__(self, seed, out_dir, size="full"):
        super().__init__(seed, out_dir, size)
        self.model = model.example_viscosity()
        s = self.size
        self.grid = hjb.SpaceTimeGrid(horizon=self.model.horizon, x_min=-5.0,
                                      x_max=5.0, t_steps=s["t_steps"],
                                      x_steps=s["x_steps"])
        self.mc_grid = simulate.TimeGrid(0.0, self.model.horizon, s["steps"])
        e3 = math.exp(3.0 * self.model.horizon)
        self.kink_gradients = {"inside": 0.5 * (1.0 + e3), "above": e3 + 0.5,
                               "below": 0.5}

    def run(self, r, tracer=None):
        m = self.model if tracer is None else tracer.wrap_model(self.model)
        s = self.size
        seed = _op_seed(self.seed, r)
        vcfg = verify.VerifyConfig(
            n_paths=s["paths"], steps=s["steps"], seed=seed,
            membership_times=s["membership_times"],
            membership_paths=s["membership_paths"],
            node_samples=s["node_samples"], probe=verify.MembershipProbe(seed=seed))
        surface = hjb.solve_obstacle_hjb(m, self.grid, scheme="implicit")
        law = synthesis.extract_feedback(surface, m)
        est = synthesis.evaluate_feedback(m, law, 0.0, self.x0, self.mc_grid,
                                          s["paths"], seed, allow_irregular=True)
        wrong = synthesis.FeedbackLaw.constant(2.0, m.control_set)
        report = verify.verify_feedback_optimality(
            m, surface, wrong, verify.tables_from_surface(surface), 0.0, self.x0, vcfg)
        verdicts = {
            k: verify.check_superdiff_membership(
                surface, verify.SuperdiffCandidate(0.0, p, 0.0, 0.0, 0.0),
                vcfg.probe).verdict
            for k, p in self.kink_gradients.items()}
        return {"values": surface.values, "law": law.table, "cost": est.value,
                "stderr": est.stderr, "report": report.to_dict(),
                "verdicts": verdicts}

    def check(self, out):
        g = self.grid
        return (checks.check_viscosity_surface(g.times, g.xs, out["values"])
                + checks.check_viscosity_law(g.xs, out["law"])
                + checks.check_closed_loop_cost(out["cost"], out["stderr"], self.x0)
                + checks.check_wrong_law_report(out["report"])
                + checks.check_kink_verdicts(out["verdicts"]))

    def summary(self, out):
        return {"cost": out["cost"], "stderr": out["stderr"],
                "wrong_law": {c["name"]: c["status"] for c in out["report"]["conditions"]},
                "kink": out["verdicts"]}


WORKLOADS = {w.name: w for w in (CostMC, SolveClassical, CertifyViscosity)}
