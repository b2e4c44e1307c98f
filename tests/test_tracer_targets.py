"""The benchmark tracer's pins resolve on the package.

perfbench/tracer.py wraps every function its TARGETS table names, and a
name that no longer exists crashes every traced benchmark run when the
tracer installs. The table is read from the file's syntax tree, so the
benchmark module is neither imported nor written.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    missing = [f"{layer}.{name}" for layer, names in targets.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"gpregime.{layer}"), name, None))]
    assert missing == []
