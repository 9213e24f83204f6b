"""Every library name the benchmark reaches for exists.

``perfbench/tracing.install`` skips a target whose attribute is missing
without an error, so a removed or renamed entry point would silently drop
its layer metric; a workload reading a missing name would only fail when
the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _missing(pairs):
    return sorted(f"{mod}.{attr}" for mod, attr in pairs
                  if not hasattr(importlib.import_module(mod), attr))


def test_traced_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(mod, attr) for mod, attr, _, _ in tracing.TARGETS]
    # install() also wraps the model factory
    assert _missing(pairs + [("rfbsde.model", "build_model")]) == []


def test_workload_names_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: f"rfbsde.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "rfbsde"
               for alias in node.names}
    pairs = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert len(pairs) > 10
    assert _missing(pairs) == []
