"""The benchmark tracer's pins resolve on the package.

perfbench/tracer.py wraps every function its TARGETS table names, and a
name that no longer exists crashes every traced benchmark run when the
tracer installs. Its COUNTERS table reads, per function, arguments by
parameter name and attributes of the result, and a parameter or
attribute that is gone crashes the run at the first call. Both tables
are read from the file's syntax tree, so the benchmark module is neither
imported nor written.
"""

import ast
import importlib
import inspect
from pathlib import Path

from gpregime import kernels
from gpregime.gp import minimize_gp
from gpregime.potentials import make_square_well, make_trap
from gpregime.scattering import solve_neumann

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _assigned(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return node.value
    raise AssertionError(f"{TRACER} defines no {name}")


def _targets():
    return ast.literal_eval(_assigned("TARGETS"))


def _counter_reads():
    """name -> (argument names, result attributes) its COUNTERS entry
    reads, from the lambda (arguments, result) -> amount."""
    table = _assigned("COUNTERS")
    out = {}
    for key, value in zip(table.keys, table.values):
        fn = value.elts[1]
        a, r = (arg.arg for arg in fn.args.args)
        args, attrs = set(), set()
        for node in ast.walk(fn.body):
            if isinstance(node, ast.Subscript) \
                    and getattr(node.value, "id", None) == a:
                args.add(ast.literal_eval(node.slice))
            elif isinstance(node, ast.Attribute) \
                    and getattr(node.value, "id", None) == r:
                attrs.add(node.attr)
        out[ast.literal_eval(key)] = (args, attrs)
    return out


def _function(name):
    layer, fn_name = name.split(".")
    return getattr(importlib.import_module(f"gpregime.{layer}"), fn_name)


def _eta():
    sol = solve_neumann(make_square_well(2.0, 1.0, 512), 0.5, 64)
    return kernels.build_eta_H(kernels.build_G(sol), 0.5 ** -4.0)


# name -> a cheap call giving a real result of that function
RESULTS = {
    "kernels.build_eta_H": _eta,
    "kernels.build_nu_H": lambda: kernels.build_nu_H(_eta()),
    "gp.minimize_gp": lambda: minimize_gp(make_trap("harmonic", 200, 8.0),
                                          0.0, tol=1e-8),
}


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    missing = [f"{layer}.{name}" for layer, names in targets.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"gpregime.{layer}"), name, None))]
    assert missing == []


def test_counter_arguments_are_parameters():
    reads = _counter_reads()
    assert reads
    missing = [(name, arg) for name, (args, _) in reads.items()
               for arg in args
               if arg not in inspect.signature(_function(name)).parameters]
    assert missing == []


def test_counter_result_attributes_exist():
    reads = {name: attrs for name, (_, attrs) in _counter_reads().items()
             if attrs}
    assert reads
    assert sorted(set(reads) - set(RESULTS)) == []
    missing = [(name, attr) for name, attrs in reads.items()
               for result in [RESULTS[name]()]
               for attr in attrs if not hasattr(result, attr)]
    assert missing == []
