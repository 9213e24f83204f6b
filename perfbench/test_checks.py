"""Self-tests of the benchmark's output checks, at tiny sizes.

    python3 -m pytest -q perfbench

Each workload runs once at the ``tiny`` sizes of ``workloads.SIZES``; its
checks must pass on the real output and reject every deliberately wrong
variant of it.  A check that cannot fail proves nothing.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

E2 = math.exp(2.0)
SEED = 1


@pytest.fixture(scope="module")
def cost(tmp_path_factory):
    wl = workloads.CostMC(SEED, tmp_path_factory.mktemp("cost"), "tiny")
    out = wl.run(0)
    assert wl.check(out) == []      # also computes the tree references
    return wl, out


def _cost_failures(wl, r, est, value=None, node1=None, sol_value=None, pushes=None,
                   tree=None):
    sol = est.solution
    value = est.value if value is None else value
    node1 = float(np.mean(sol.value[:, 1])) if node1 is None else node1
    paths = checks.classical_paths(workloads._op_seed(wl.seed, r), wl.size["paths"],
                                   wl.size["steps"], wl.x0)
    t16, t14 = tree or wl._tree
    return (checks.check_cost_value(value, est.stderr, wl.x0)
            + checks.check_node1_mean(node1, est.stderr, wl.x0, wl.grid.dt)
            + checks.check_reflected_solution(
                sol.value if sol_value is None else sol_value,
                sol.pushes if pushes is None else pushes, paths)
            + checks.check_tree(value, est.stderr, t16, t14))


@pytest.mark.parametrize("value", [E2 + 1.0, E2 - 1.0, E2 + 1e-6])
def test_cost_value_rejected(cost, value):
    wl, (r, est) = cost
    assert checks.check_cost_value(value, est.stderr, wl.x0)


def test_node1_mean_rejected(cost):
    wl, (r, est) = cost
    node1 = float(np.mean(est.solution.value[:, 1])) + 1.0
    assert any("node-1" in m for m in _cost_failures(wl, r, est, node1=node1))


def test_obstacle_breach_rejected(cost):
    wl, (r, est) = cost
    value = est.solution.value.copy()
    value[7, 3] += 10.0
    assert any("obstacle" in m for m in _cost_failures(wl, r, est, sol_value=value))


def test_negative_push_rejected(cost):
    wl, (r, est) = cost
    pushes = est.solution.pushes.copy()
    pushes[0, 0] = -1e-3
    assert any("negative push" in m for m in _cost_failures(wl, r, est, pushes=pushes))


def test_terminal_mismatch_rejected(cost):
    wl, (r, est) = cost
    value = est.solution.value.copy()
    value[5, -1] += 1e-6
    assert any("terminal" in m for m in _cost_failures(wl, r, est, sol_value=value))


def test_skorokhod_slack_rejected(cost):
    wl, (r, est) = cost
    pushes = est.solution.pushes.copy()
    pushes[:, 2] += 0.01      # pushes where the value sits below the barrier
    assert any("Skorokhod" in m for m in _cost_failures(wl, r, est, pushes=pushes))


def test_tree_mismatch_rejected(cost):
    wl, (r, est) = cost
    t16, t14 = wl._tree
    assert any("tree" in m for m in _cost_failures(wl, r, est, tree=(t16 + 1.0, t14 + 1.0)))


def _write_table(path, xs, times, table, head="# rewritten\n"):
    with open(path, "w") as fh:
        fh.write(head)
        fh.write("time," + ",".join(repr(float(x)) for x in xs) + "\n")
        for t, row in zip(times, table):
            fh.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    wl = workloads.SolveClassical(SEED, tmp_path_factory.mktemp("solve"), "tiny")
    first = wl.run(0)
    assert wl.check(first) == []
    second = wl.run(1)
    return wl, first, second


def _bundle_failures(target, tmp_path, name, edit):
    paths = {n: target / n for n in ("surface.csv", "residual.csv", "law.csv")}
    xs, times, table = checks.read_table_csv(paths[name])
    table = table.copy()
    edit(xs, times, table)
    paths[name] = tmp_path / name
    _write_table(paths[name], xs, times, table)
    return checks.check_classical_bundle(paths["surface.csv"], paths["residual.csv"],
                                         paths["law.csv"])


def test_second_fresh_run_passes(bundle):
    wl, first, second = bundle
    assert wl.check(second) == []


def test_surface_error_rejected(bundle, tmp_path):
    def edit(xs, times, w):
        w[len(times) // 2, len(xs) // 2] *= 0.9
    assert any("relative error" in m for m in
               _bundle_failures(bundle[1], tmp_path, "surface.csv", edit))


def test_obstacle_exceeded_rejected(bundle, tmp_path):
    def edit(xs, times, w):
        w[0, 1] = xs[1] * E2 * (1.0 + 1e-9)
    assert any("obstacle" in m for m in
               _bundle_failures(bundle[1], tmp_path, "surface.csv", edit))


def test_positive_residual_rejected(bundle, tmp_path):
    def edit(xs, times, res):
        res[len(times) // 2, len(xs) // 2] = 1.0
    assert any("residual" in m for m in
               _bundle_failures(bundle[1], tmp_path, "residual.csv", edit))


def test_flipped_law_node_rejected(bundle, tmp_path):
    def edit(xs, times, law):
        law[3, 4] = 0.25
    assert any("law is nonzero" in m for m in
               _bundle_failures(bundle[1], tmp_path, "law.csv", edit))


def test_changed_bytes_rejected(bundle):
    wl = bundle[0]
    later = dict(wl._first, **{"law.csv": "0" * 64})
    assert checks.check_same_bytes(wl._first, later) == [
        "law.csv differs between two fresh-directory runs"]


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    wl = workloads.CertifyViscosity(SEED, tmp_path_factory.mktemp("certify"), "tiny")
    out = wl.run(0)
    assert wl.check(out) == []
    return wl, out


def _certify_failures(certify, edit):
    wl, out = certify
    bad = copy.deepcopy(out)
    edit(wl, bad)
    return wl.check(bad)


def test_viscosity_surface_error_rejected(certify):
    def edit(wl, out):
        out["values"][0, 2] *= 1.05
    assert any("viscosity surface" in m for m in _certify_failures(certify, edit))


@pytest.mark.parametrize("side", [-1, 1])
def test_flipped_viscosity_law_node_rejected(certify, side):
    def edit(wl, out):
        j = len(wl.grid.xs) // 2 + side * 2
        out["law"][5, j] = 3.0 - out["law"][5, j]
    assert any("law wrong at 1 nodes" in m for m in _certify_failures(certify, edit))


@pytest.mark.parametrize("cost", [0.6, 0.3])
def test_closed_loop_cost_rejected(certify, cost):
    def edit(wl, out):
        out["cost"] = cost
    assert any("closed-loop cost" in m for m in _certify_failures(certify, edit))


def test_wrong_law_reported_as_pass_rejected(certify):
    def edit(wl, out):
        out["report"]["status"] = "pass"
        for c in out["report"]["conditions"]:
            c["status"] = "pass"
    fails = _certify_failures(certify, edit)
    assert any("status 'pass'" in m for m in fails)
    assert any("integral-optimality" in m for m in fails)


@pytest.mark.parametrize("which,verdict", [("inside", "non-member"),
                                           ("above", "member"),
                                           ("below", "inconclusive")])
def test_kink_verdict_rejected(certify, which, verdict):
    def edit(wl, out):
        out["verdicts"][which] = verdict
    assert any(f"kink gradient {which}" in m for m in _certify_failures(certify, edit))
