import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import rfbsde
from rfbsde import SpaceTimeGrid, cli, solve_obstacle_hjb
from rfbsde.cli import (DEFAULTS, cmd_assumptions, cmd_cost, cmd_solve, cmd_verify,
                        load_config, main)
from rfbsde.errors import BackwardSolverError
from rfbsde.model import example_classical
from rfbsde.rbsde import SolverConfig
from rfbsde.verify import MembershipProbe, VerifyConfig

FAST_MC = ["--set", "mc.paths=2000", "--set", "mc.steps=50"]
FAST_PDE = ["--set", "pde.t_steps=200", "--set", "pde.x_steps=60"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cost_zero_model(tmp_path, capsys):
    code, out, _ = run(capsys, ["cost", "--out", str(tmp_path),
                                "--set", "model.name=zero",
                                "--set", "mc.start_state=0.0", *FAST_MC])
    assert code == 0
    assert "J = 0 +/- 0" in out
    rows = (tmp_path / "cost.csv").read_text().splitlines()
    assert rows[0].startswith("model,method")
    assert rows[1].startswith("zero,reflected")


def test_cost_classical_close_to_closed_form(tmp_path, capsys):
    code, out, _ = run(capsys, ["cost", "--out", str(tmp_path), *FAST_MC])
    assert code == 0
    value = float(out.split("J = ")[1].split(" ")[0])
    assert abs(value - math.exp(2.0)) <= 0.3


def test_cost_tree_method(tmp_path, capsys):
    code, out, _ = run(capsys, ["cost", "--out", str(tmp_path),
                                "--set", "cost.method=tree"])
    assert code == 0
    value = float(out.split("J = ")[1].split(" ")[0])
    assert abs(value - math.exp(2.0)) <= 0.02 * math.exp(2.0)


def test_solve_emits_artifacts_and_manifest(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", "--out", str(tmp_path), *FAST_PDE])
    assert code == 0
    for name in ("surface.csv", "residual.csv", "law.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["obstacle_violation_max"] == 0.0
    timings = manifest["timings_s"]
    assert set(timings) == {"solve", "residual", "law", "write_csv", "total"}
    # write_csv is the parent's share: starting the writers and waiting for them
    assert 0.0 <= timings["write_csv"] <= timings["total"]
    assert multiprocessing.active_children() == []


def test_solve_writer_failure_raises_oserror(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise OSError("disk full")
    monkeypatch.setattr(cli, "write_grid_csv", broken)
    with pytest.raises(OSError, match=r"residual\.csv \(writer exit code 1\)"):
        main(["solve", "--out", str(tmp_path), *FAST_PDE])
    assert not (tmp_path / "manifest.json").exists()
    assert multiprocessing.active_children() == []


def test_solve_error_joins_started_writer(tmp_path, capsys, monkeypatch):
    def failing(*args):
        raise BackwardSolverError("no residual")
    monkeypatch.setattr(cli, "residual", failing)
    code, _, err = run(capsys, ["solve", "--out", str(tmp_path), *FAST_PDE])
    assert code == 3
    assert err.startswith("ERROR[numerical]: no residual")
    assert multiprocessing.active_children() == []
    # the surface writer had started and ran to the end: 4 comment lines,
    # the state header and one row per time node
    lines = (tmp_path / "surface.csv").read_text().split("\n")
    assert len(lines) == 4 + 1 + 201 + 1 and lines[-1] == ""
    assert not (tmp_path / "manifest.json").exists()


def test_solve_error_in_flight_outranks_failed_writer(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise OSError("disk full")

    def failing(*args):
        raise BackwardSolverError("no residual")
    monkeypatch.setattr(cli, "write_surface_csv", broken)
    monkeypatch.setattr(cli, "residual", failing)
    code, _, err = run(capsys, ["solve", "--out", str(tmp_path), *FAST_PDE])
    assert code == 3
    assert err.startswith("ERROR[numerical]: no residual")
    assert multiprocessing.active_children() == []


def test_piped_stdout_lines_printed_once(tmp_path):
    # the paper bundle prints before the solve forks its writers: a child
    # that inherited an unflushed stdout buffer would print those lines again
    src = str(Path(rfbsde.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)     # block-buffered, as a pipe makes it
    proc = subprocess.run(
        [sys.executable, "-m", "rfbsde.cli", "paper", "5.1", "--out", str(tmp_path),
         "--set", "pde.t_steps=200", "--set", "pde.x_steps=40",
         "--set", "mc.paths=500", "--set", "mc.steps=20"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "--- solve ---" in lines and "obstacle violation max: 0" in lines
    assert len(lines) == len(set(lines))


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_solve_refuses_fewer_than_three_state_steps(tmp_path, capsys, scheme):
    code, _, err = run(capsys, ["solve", "--out", str(tmp_path), "--set", "pde.x_steps=2",
                                "--set", "pde.t_steps=4", "--set", f"pde.scheme={scheme}"])
    assert code == 2
    assert err.startswith("ERROR[config]")
    assert "3 state steps" in err


def _lowered_barrier_model(time_of):
    """example-classical under a barrier that binds before the horizon;
    ``time_of`` reads the time argument of the obstacle."""
    def build(horizon=1.0, control_points=5):
        scale = math.exp(2.0 * horizon)

        def obstacle(r, x):
            return np.asarray(x, dtype=float) * scale - 0.5 * (horizon - time_of(r))
        return replace(example_classical(horizon, control_points),
                       name="lowered-barrier", obstacle=obstacle)
    return build


def test_solve_obstacle_takes_scalar_time(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(rfbsde.model.MODEL_CATALOG, "lowered-barrier",
                        _lowered_barrier_model(float))
    # the soft barrier overshoots, so the violation is positive
    code, _, err = run(capsys, ["solve", "--out", str(tmp_path),
                                "--set", "model.name=lowered-barrier",
                                "--set", "pde.penalty_level=5", *FAST_PDE])
    assert code == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # the same barrier read over the whole (times x states) grid at once
    model = _lowered_barrier_model(np.asarray)()
    grid = SpaceTimeGrid(1.0, 0.1, 5.0, 200, 60)
    surface = solve_obstacle_hjb(model, grid, penalty_level=5.0)
    tt, xx = np.meshgrid(grid.times, grid.xs, indexing="ij")
    full = float(np.maximum(surface.values - model.obstacle(tt, xx), 0.0).max())
    assert full > 0.0
    assert manifest["obstacle_violation_max"] == full


def test_solve_viscosity_flags_kink(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", "--out", str(tmp_path),
                                "--set", "model.name=example-viscosity",
                                "--set", "pde.x_min=-5", "--set", "pde.x_max=5",
                                "--set", "pde.t_steps=400",
                                "--set", "pde.x_steps=100"])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kink_columns"] == [50]
    assert "kink columns" in out


def test_unknown_config_key_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, ["cost", "--out", str(tmp_path),
                                "--set", "nonsense.key=1"])
    assert code == 2
    assert err.startswith("ERROR[config]")


@pytest.mark.parametrize("argv, key", [
    (["cost", "--set", "mc.paths=abc"], "mc.paths"),
    (["cost", "--set", "mc.paths=2.5"], "mc.paths"),
    (["cost", "--set", "mc.steps=inf"], "mc.steps"),
    (["cost", "--set", "cost.control=low"], "cost.control"),
    (["verify", "--tol", "membership=tight"], "tolerances.membership"),
    (["solve", "--set", "pde.x_steps=ten"], "pde.x_steps"),
    # booleans are not numbers, though Python casts True to 1
    (["cost", "--set", "mc.paths=true", "--set", "mc.steps=10"], "mc.paths"),
    (["cost", "--set", "cost.method=tree", "--set", "cost.tree_depth=true"],
     "cost.tree_depth"),
    (["cost", "--config", "true.yaml", "--set", "mc.steps=10"], "mc.paths"),
    (["cost", "--config", "false.yaml", *FAST_MC], "mc.start_state"),
])
def test_non_numeric_config_value_exit_code(tmp_path, capsys, argv, key):
    (tmp_path / "true.yaml").write_text("mc:\n  paths: true\n")
    (tmp_path / "false.yaml").write_text("mc:\n  start_state: false\n")
    argv = [str(tmp_path / a) if a.endswith(".yaml") else a for a in argv]
    code, _, err = run(capsys, [*argv, "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("ERROR[config]")
    assert key in err


def test_unknown_key_in_yaml_config(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"mc": {"paths": 10, "bogus": 3}}))
    code, _, err = run(capsys, ["cost", "--config", str(cfg),
                                "--out", str(tmp_path)])
    assert code == 2
    assert "bogus" in err


def test_malformed_yaml_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("mc: [1, 2\n")
    code, _, err = run(capsys, ["cost", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    with open(cfg) as fh, pytest.raises(yaml.YAMLError) as exc:
        yaml.safe_load(fh)
    assert err == f"ERROR[config]: {exc.value}\n"


def test_cost_manifest_records_backward_diagnostics(tmp_path, capsys):
    keys = {"max_obstacle_violation", "max_skorokhod_slack",
            "estimator_fallback_nodes", "penalty_level"}
    for method in ("reflected", "feedback", "tree"):
        out = tmp_path / method
        code, _, _ = run(capsys, ["cost", "--out", str(out), *FAST_MC,
                                  "--set", f"cost.method={method}",
                                  "--set", "cost.tree_depth=6"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        if method == "tree":
            assert "diagnostics" not in manifest
        else:
            diag = manifest["diagnostics"]
            assert set(diag) == keys
            assert diag["max_obstacle_violation"] <= 0.0
            assert diag["penalty_level"] is None


def test_classical_report_json_lists_battery_costs(tmp_path, capsys):
    code, _, _ = run(capsys, ["verify", "--out", str(tmp_path), *FAST_MC,
                              "--set", "verify.battery_random=1"])
    assert code in (0, 1)
    report = json.loads((tmp_path / "report.json").read_text())
    rows = report["extras"]["battery"]
    assert [r["control"] for r in rows] == [
        "const:0", "const:0.25", "const:0.5", "const:0.75", "const:1", "random:0"]
    assert all(set(r) == {"control", "value", "stderr", "slack"} for r in rows)
    bound = next(c for c in report["conditions"] if c["name"] == "battery-lower-bound")
    assert max(r["slack"] for r in rows) == bound["slack"]


BAND_TERMS = {"gap", "stderr"}
PATH_COUNTS = {"member", "non-member", "inconclusive", "skipped"}
CONDITION_TERMS = {
    "battery-lower-bound": BAND_TERMS | {"bias_budget"},
    "value-consistency": BAND_TERMS | {"bias_budget"},
    "law-achieves-value": BAND_TERMS | {"bias_budget"},
    "law-regularity": {"worst_jump"},
    "superdifferential-membership": PATH_COUNTS,
    "table-membership-on-paths": PATH_COUNTS,
    "pointwise-lower-inequality": {"member", "non-member", "inconclusive"},
    "martingale-slope-match": BAND_TERMS,
    "integral-optimality": BAND_TERMS,
}


@pytest.mark.parametrize("argv, names", [
    ([*FAST_MC, "--set", "verify.battery_random=1"],
     ["battery-lower-bound", "law-achieves-value", "law-regularity"]),
    (["--set", "model.name=example-viscosity", "--set", "verify.mode=viscosity",
      "--set", "verify.control=1.0", "--set", "mc.start_state=0.0",
      "--set", "mc.paths=500", "--set", "mc.steps=50",
      "--set", "verify.battery_random=1", "--set", "pde.x_min=-1",
      "--set", "pde.x_max=1", "--set", "pde.t_steps=100", "--set", "pde.x_steps=100"],
     ["superdifferential-membership", "martingale-slope-match",
      "integral-optimality", "value-consistency"]),
    (["--set", "verify.mode=feedback", *FAST_PDE, *FAST_MC,
      "--set", "verify.membership_times=4", "--set", "verify.node_samples=8"],
     ["pointwise-lower-inequality", "table-membership-on-paths",
      "martingale-slope-match", "integral-optimality"]),
], ids=["classical", "viscosity", "feedback"])
def test_report_json_carries_condition_terms(tmp_path, capsys, argv, names):
    code, _, _ = run(capsys, ["verify", "--out", str(tmp_path), *argv])
    assert code in (0, 1)
    conditions = json.loads((tmp_path / "report.json").read_text())["conditions"]
    assert [c["name"] for c in conditions] == names
    for c in conditions:
        terms = c["terms"]
        assert set(terms) == CONDITION_TERMS[c["name"]]
        if "gap" in terms:
            # a band condition's slack is rebuilt from its terms
            assert c["slack"] == (terms["gap"] - 3.0 * terms["stderr"]
                                  - terms.get("bias_budget", 0.0))


def test_csv_reproducibility(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(capsys, ["solve", "--out", str(d), *FAST_PDE])
        assert code == 0
    assert (d1 / "surface.csv").read_bytes() == (d2 / "surface.csv").read_bytes()
    assert (d1 / "law.csv").read_bytes() == (d2 / "law.csv").read_bytes()
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1["config_sha256"] == m2["config_sha256"]


GOLDEN_PDE = ["--set", "pde.t_steps=400", "--set", "pde.x_steps=40"]
VISCOSITY_BOX = ["--set", "model.name=example-viscosity",
                 "--set", "pde.x_min=-5", "--set", "pde.x_max=5"]


@pytest.mark.parametrize("extra, digests", [
    ([], {
        "surface.csv": "1eae48e2cad9c3c035eebcf876e972c198d0d766b4451c4856dee21986a9e185",
        "residual.csv": "4e5bf32c7525308637097691dbdccb023a9e072ef9cbd1c7a50f093bd1274b8f",
        "law.csv": "5cf5a1cd37eafe20d57880e2c5a53c6c413b58087bdff9af86a1a063f2ad2543"}),
    (VISCOSITY_BOX, {   # kink column 20, NaN in the residual
        "surface.csv": "cbf11e264a5c18559c167d3e1596470b91cbb1d979fb359eae6069e6df0544c2",
        "residual.csv": "abd49588d909b736389eee87523ed83742304a0eb25096f5a24d5034d1b6c9aa",
        "law.csv": "721b7e7e00d30e0c4ef0bf1c2a1a2e7a429ab454172ccba5f82d4c26f273ea4d"}),
], ids=["classical", "viscosity"])
def test_solve_artifacts_golden_digests(tmp_path, capsys, extra, digests):
    code, _, _ = run(capsys, ["solve", "--out", str(tmp_path), *GOLDEN_PDE, *extra])
    assert code == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


def test_verify_viscosity_pass_and_fail(tmp_path, capsys):
    base = ["verify", "--set", "model.name=example-viscosity",
            "--set", "verify.mode=viscosity", "--set", "verify.control=1.0",
            "--set", "mc.start_state=0.0", "--set", "mc.paths=500",
            "--set", "mc.steps=50", "--set", "verify.battery_random=2",
            "--set", "pde.x_min=-1", "--set", "pde.x_max=1",
            "--set", "pde.t_steps=100", "--set", "pde.x_steps=100"]
    code, out, _ = run(capsys, base + ["--out", str(tmp_path / "ok")])
    assert code == 0
    assert "pass" in out

    code, _, err = run(capsys, base + ["--out", str(tmp_path / "bad"),
                                       "--set", "verify.triple.curvature=-1.0"])
    assert code == 1
    assert err.startswith("ERROR[verify]")
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    failed = [c["name"] for c in report["conditions"] if c["status"] == "fail"]
    assert "superdifferential-membership" in failed


def test_paper_unknown_id(tmp_path, capsys):
    code, _, err = run(capsys, ["paper", "9.9", "--out", str(tmp_path)])
    assert code == 2
    assert "5.1" in err and "5.2" in err


def test_paper_bundle_viscosity(tmp_path, capsys):
    code, out, _ = run(capsys, [
        "paper", "5.2", "--out", str(tmp_path),
        "--set", "pde.t_steps=200", "--set", "pde.x_steps=100",
        "--set", "mc.paths=500", "--set", "mc.steps=40",
        "--set", "verify.battery_random=2"])
    assert code == 0
    base = tmp_path / "example-5.2"
    assert (base / "summary.txt").exists()
    for sub in ("assumptions", "solve", "cost", "verify"):
        assert (base / sub / "manifest.json").exists()


def test_seed_flag_changes_fingerprint(tmp_path, capsys):
    argv = ["cost", "--out", str(tmp_path), *FAST_MC]
    code, out1, _ = run(capsys, argv + ["--seed", "1"])
    code2, out2, _ = run(capsys, argv + ["--seed", "2"])
    assert code == code2 == 0
    assert out1 != out2


def test_tol_override_applied(tmp_path, capsys):
    # an absurdly tight z tolerance has no effect on an exact-zero run
    code, _, _ = run(capsys, [
        "verify", "--out", str(tmp_path),
        "--set", "model.name=example-viscosity",
        "--set", "verify.mode=viscosity", "--set", "verify.control=1.0",
        "--set", "mc.start_state=0.0", "--set", "mc.paths=300",
        "--set", "mc.steps=30", "--set", "verify.battery_random=0",
        "--set", "pde.x_min=-1", "--set", "pde.x_max=1",
        "--set", "pde.t_steps=100", "--set", "pde.x_steps=100",
        "--tol", "z_match=1e-12"])
    assert code == 0


def test_solve_candidate_surface_residual_run(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", "--out", str(tmp_path),
                                "--set", "pde.surface=candidate", *FAST_PDE])
    assert code == 0
    assert "closed-form candidate" in out
    assert (tmp_path / "residual.csv").exists()


def test_estimator_and_penalty_keys(tmp_path, capsys):
    code, _, _ = run(capsys, ["cost", "--out", str(tmp_path),
                              "--set", "estimator.kind=bins",
                              "--set", "estimator.bins=16", *FAST_MC])
    assert code == 0

    # the PDE penalty is pde.penalty_level; it reaches the surface provenance
    code, out, _ = run(capsys, ["solve", "--out", str(tmp_path),
                                "--set", "pde.penalty_level=50", *FAST_PDE])
    assert code == 0
    assert "penalty=50)" in out
    for bad in ("pde.penalty_level=-5", "pde.penalty_level=0", "pde.penalty_level=high"):
        code, _, err = run(capsys, ["solve", "--out", str(tmp_path), "--set", bad])
        assert code == 2
        assert err.startswith("ERROR[config]")
    # keys that no solver reads are not in the schema: unknown keys, exit 2
    for gone in ("penalty.n=50.0", "pde.boundary=extrap1", "solver.picard_iterations=3",
                 "pde.cfl=auto"):
        code, _, err = run(capsys, ["solve", "--out", str(tmp_path), "--set", gone])
        assert code == 2
        assert err.startswith("ERROR[config]: unknown config key")


@pytest.mark.parametrize("argv, key", [
    (["solve", "--set", "pde.surface=bogus"], "pde.surface"),
    (["verify", "--set", "verify.surface=nonsense"], "verify.surface"),
    (["cost", "--set", "cost.method=feedback", "--set", "verify.surface=nonsense"],
     "verify.surface"),
    (["verify", "--set", "verify.mode=feedback", "--set", "verify.tables=bogus",
      *FAST_PDE, *FAST_MC], "verify.tables"),
    (["verify", "--set", "verify.mode=bogus", "--set", "verify.surface=computed"],
     "verify.mode"),
    (["cost", "--set", "cost.method=bogus"], "cost.method"),
], ids=["solve-surface", "verify-surface", "cost-surface", "verify-tables",
        "verify-mode", "cost-method"])
def test_choice_keys_refused(tmp_path, capsys, argv, key):
    code, _, err = run(capsys, [*argv, "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("ERROR[config]")
    assert key in err


GOLDEN_MC = ["--set", "mc.paths=2000", "--set", "mc.steps=20"]
VISCOSITY_COST = [*VISCOSITY_BOX, "--set", "mc.start_state=-0.5",
                  "--set", "cost.control=1.0", *GOLDEN_PDE]


@pytest.mark.parametrize("extra, method, digest", [
    ([], "reflected", "3c8a0e805852c5aa55dae181d41a6bc66108896f4e3c3c0489540403f6170454"),
    ([], "feedback", "f8daf0f6a29fcb9a354778873b8725f5bddb578cc4a10170c8c201c07d62c7b9"),
    ([], "tree", "eb16caa989996228c9a6588bb175c1942499fd2993c0d52588f69a023e6c7219"),
    # off the obstacle cap, so the value itself is pinned, not only e^2
    (VISCOSITY_COST, "reflected",
     "e467bd503255e1b23dec6989a44f7628e95a82436a4324a1951394ab2dc202ff"),
    (VISCOSITY_COST, "feedback",
     "7f8814e896da820d787cef3db624e52f14c39d0bd90fff07501d7792a05d0624"),
    (VISCOSITY_COST, "tree",
     "32227399a15f2253033ca5ab2447000eee0a68d4da0f621b1e15b7470ddd0c31"),
], ids=["classical-reflected", "classical-feedback", "classical-tree",
        "viscosity-reflected", "viscosity-feedback", "viscosity-tree"])
def test_cost_csv_golden_digests(tmp_path, capsys, extra, method, digest):
    code, _, _ = run(capsys, ["cost", "--out", str(tmp_path), *GOLDEN_MC, *extra,
                              "--set", f"cost.method={method}"])
    assert code == 0
    assert hashlib.sha256((tmp_path / "cost.csv").read_bytes()).hexdigest() == digest


class _ReadRecorder(dict):
    """Nested config mapping that records the dotted key of every leaf read."""

    def __init__(self, data, reads, prefix=""):
        super().__init__({k: _ReadRecorder(v, reads, f"{prefix}{k}.")
                          if isinstance(v, dict) else v for k, v in data.items()})
        self._reads = reads
        self._prefix = prefix

    def __getitem__(self, key):
        val = super().__getitem__(key)
        if not isinstance(val, _ReadRecorder):
            self._reads.add(self._prefix + key)
        return val


def _leaf_keys(tree, prefix=""):
    for key, val in tree.items():
        if isinstance(val, dict):
            yield from _leaf_keys(val, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_default_key_is_read(tmp_path, capsys):
    tiny = ["pde.t_steps=20", "pde.x_steps=10", "mc.paths=200", "mc.steps=40",
            "cost.tree_depth=4", "verify.battery_random=1", "verify.battery_switches=2",
            "verify.membership_times=2", "verify.membership_paths=2",
            "verify.node_samples=2", "assumptions.points=3"]
    runs = [(cmd_solve, []),
            (cmd_cost, ["cost.method=reflected"]),
            (cmd_cost, ["cost.method=feedback"]),
            (cmd_cost, ["cost.method=tree"]),
            (cmd_verify, ["verify.mode=classical"]),
            (cmd_verify, ["verify.mode=viscosity"]),
            (cmd_verify, ["verify.mode=feedback", "verify.tables=triple"]),
            (cmd_assumptions, [])]
    reads = set()
    for k, (command, sets) in enumerate(runs):
        cfg = load_config(None, sets=tiny + sets, out=str(tmp_path / str(k)))
        assert command(_ReadRecorder(cfg, reads)) in (0, 1)
    capsys.readouterr()
    assert reads == set(_leaf_keys(DEFAULTS))


def test_every_library_field_is_set_by_the_cli(monkeypatch):
    # a dataclass field that no CLI builder passes is a knob nobody can turn
    classes = (SolverConfig, VerifyConfig, MembershipProbe)
    passed = {cls: set() for cls in classes}
    for cls in classes:
        def record(*args, _cls=cls, **kwargs):
            assert not args, f"{_cls.__name__} built positionally"
            passed[_cls].update(kwargs)
            return _cls(**kwargs)
        monkeypatch.setattr(cli, cls.__name__, record)
    cfg = load_config(None)
    cli._solver_config(cfg)
    cli._verify_config(cfg)
    for cls in classes:
        assert passed[cls] == {f.name for f in fields(cls)}, cls.__name__


def test_cost_csv_rewritten_on_rerun(tmp_path, capsys):
    argv = ["cost", "--out", str(tmp_path), "--set", "cost.method=tree"]
    assert run(capsys, argv)[0] == 0
    first = (tmp_path / "cost.csv").read_bytes()
    assert run(capsys, argv)[0] == 0
    second = (tmp_path / "cost.csv").read_bytes()
    assert first == second
    rows = second.decode().splitlines()
    assert len(rows) == 2 and rows[0].startswith("model,method")


def test_module_entry_runs_cli(tmp_path):
    src = str(Path(rfbsde.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "D"
    proc = subprocess.run(
        [sys.executable, "-m", "rfbsde.cli", "cost", "--out", str(out),
         "--set", "cost.method=tree", "--set", "cost.tree_depth=4"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "cost.csv").exists()


def test_fingerprint_covers_surface(tmp_path, capsys):
    base = ["verify", "--set", "model.name=example-viscosity",
            "--set", "verify.mode=feedback", "--set", "pde.x_min=-2",
            "--set", "pde.x_max=2", "--set", "pde.t_steps=200",
            "--set", "pde.x_steps=40", "--set", "mc.start_state=-0.5",
            "--set", "mc.paths=300", "--set", "mc.steps=20",
            "--set", "verify.membership_times=4",
            "--set", "verify.membership_paths=8", "--set", "verify.node_samples=8"]

    def fingerprint(name, surface):
        out = tmp_path / name
        run(capsys, base + ["--out", str(out), "--set", f"verify.surface={surface}"])
        return json.loads((out / "report.json").read_text())["fingerprint"]

    candidate = fingerprint("a", "candidate")
    assert fingerprint("b", "candidate") == candidate
    assert fingerprint("c", "computed") != candidate


@pytest.mark.parametrize("argv, key", [
    (["cost", "--set", "cost.control=5"], "cost.control"),
    (["cost", "--set", "cost.method=tree", "--set", "cost.control=5"], "cost.control"),
    (["cost", "--set", "cost.method=tree", "--set", "cost.control=-0.5"], "cost.control"),
    (["verify", "--set", "verify.constant_law=5"], "verify.constant_law"),
    (["verify", "--set", "verify.mode=feedback", "--set", "verify.constant_law=5"],
     "verify.constant_law"),
    (["verify", "--set", "verify.mode=viscosity", "--set", "verify.control=5"],
     "verify.control"),
], ids=["cost-reflected", "cost-tree", "cost-tree-below", "verify-classical-law",
        "verify-feedback-law", "verify-viscosity-control"])
def test_out_of_set_control_refused(tmp_path, capsys, argv, key):
    # example-classical controls lie in [0, 1]; nothing is computed or written
    code, _, err = run(capsys, [*argv, "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("ERROR[config]")
    assert key in err and "control set" in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("report.*"))


def test_coarse_time_grid_sweeps_driver_to_convergence(tmp_path, capsys):
    # dt = 0.1 needs more than three driver sweeps per node to reach tolerance
    code, out, err = run(capsys, ["verify", "--out", str(tmp_path),
                                  "--set", "mc.paths=200", "--set", "mc.steps=10",
                                  "--set", "verify.battery_random=1",
                                  "--set", "pde.t_steps=20", "--set", "pde.x_steps=10"])
    assert code == 0, err
    assert "classical-verification: pass" in out
