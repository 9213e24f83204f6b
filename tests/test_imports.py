"""scipy, PyYAML and multiprocessing load only where they are needed.

scipy serves one purpose, LAPACK ``gbsv`` for the implicit scheme, PyYAML
one, reading ``--config`` files, and multiprocessing one, forking the CSV
writer of ``rfbsde solve``.  Each check runs in a fresh interpreter,
since this test process has long imported all three.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code):
    """Run ``code`` in a fresh interpreter importing rfbsde from ``src``;
    returns the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'})")


def test_package_import_loads_neither_scipy_nor_yaml():
    # nor multiprocessing or mmap: `rfbsde solve` imports them when it forks
    # its CSV writer, so no other command pays for them at set-up; nor
    # concurrent: the Monte Carlo helper thread needs only threading
    out = _run(f"""
import json, sys
import rfbsde, rfbsde.cli, rfbsde.verify
print(json.dumps({_LOADED} + sorted({{m.split('.')[0] for m in sys.modules}}
                                    & {{'multiprocessing', 'mmap', 'concurrent'}})))
""")
    assert out == []


def test_implicit_solve_loads_scipy_and_keeps_pinned_values():
    # the example-viscosity digest of test_implicit_values_pinned
    out = _run(f"""
import hashlib, json, sys
from rfbsde import SpaceTimeGrid, example_viscosity, solve_obstacle_hjb
before = {_LOADED}
surface = solve_obstacle_hjb(example_viscosity(), SpaceTimeGrid(1.0, -5.0, 5.0, 200, 40),
                             scheme="implicit")
print(json.dumps({{"before": before, "after": {_LOADED},
                  "digest": hashlib.sha256(surface.values.tobytes()).hexdigest()}}))
""")
    assert out == {"before": [], "after": ["scipy"], "digest":
                   "15189099c5729e17f92efaeabf1fbd38c099767ae3d62eb9d4b5b6f5b511bfbe"}


def test_solve_banded_as_first_lapack_call():
    # a diagonally dominant pentadiagonal system in LAPACK band storage
    # (entry (i, j) at row 4 + i - j), solved before anything else touches
    # LAPACK, then checked against the dense solve
    out = _run(f"""
import json, sys
import numpy as np
from rfbsde import hjb
n = 8
a = np.diag(np.full(n, 6.0)) + np.diag(np.arange(1.0, n), 1) - np.diag(np.ones(n - 2), -2)
a += np.diag(np.full(n - 2, 0.5), 2) + np.diag(np.full(n - 1, -1.5), -1)
work = np.zeros((7, n), order="F")
for i in range(n):
    for j in range(max(0, i - 2), min(n, i + 3)):
        work[4 + i - j, j] = a[i, j]
rhs = np.linspace(-1.0, 2.0, n)
before = {_LOADED}
x, info = hjb.solve_banded(work, rhs.copy())
print(json.dumps({{"before": before, "info": int(info),
                  "error": float(np.abs(x - np.linalg.solve(a, rhs)).max())}}))
""")
    assert out["before"] == [] and out["info"] == 0
    assert out["error"] < 1e-12
