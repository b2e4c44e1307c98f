"""Every definition in the package is reached by the package.

A module-level function or class, or a public method, that no code in
src/gpregime names outside its own definition is reached only by tests
(or by nothing), unless it is a package export (gpregime._EXPORTS) or a
benchmark tracer target (perfbench/tracer.py's TARGETS). Such code is
deleted together with its tests, so this scan fails on a new one. Names
are matched by spelling, not by binding: a name used anywhere in the
package keeps every definition of that name, except that a classmethod is
kept only by the spelling ClassName.method. Module-level dunders (PEP
562's __getattr__) are called by the interpreter and are skipped.
"""

import ast
from pathlib import Path

from gpregime import _EXPORTS

from test_tracer_targets import _targets

SRC = Path(__file__).resolve().parents[1] / "src" / "gpregime"

# module.name -> why it stays though nothing in the package names it
ALLOWED = {
    "fock.gamma_projector":
        "acceptance criterion 8 checks the projector's idempotence through "
        "it (test_criterion_08_fock_exact_identities)",
    "cli.LemmaReportBundle.entry":
        "the lookup by id on the bundle that the exported run() returns",
}


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(module, tree):
    """(qualified name, the spelling that reaches it, first line, last
    line) per definition; a classmethod's spelling is ClassName.method."""
    for node in tree.body:
        if not isinstance(node, (*_FUNCS, ast.ClassDef)) \
                or node.name.startswith("__") and node.name.endswith("__"):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, _FUNCS) and not item.name.startswith("_"):
                by_class = any(getattr(d, "id", None) == "classmethod"
                               for d in item.decorator_list)
                yield (f"{module}.{node.name}.{item.name}",
                       f"{node.name}.{item.name}" if by_class
                       else item.name, item.lineno, item.end_lineno)


def _uses(tree):
    """(name, line) of every Name and attribute in the tree, and
    (owner.attribute, line) of every attribute of a name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner is not None:
                yield f"{owner}.{node.attr}", node.lineno


def unreached(allowed=ALLOWED):
    """Qualified names of the definitions nothing in the package names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    uses = {module: list(_uses(tree)) for module, tree in trees.items()}
    kept = {f"{module}.{name}" for module, names in _EXPORTS.items()
            for name in names}
    kept |= {f"{module}.{name}" for module, names in _targets().items()
             for name in names}
    out = []
    for module, tree in trees.items():
        for qual, name, first, last in _definitions(module, tree):
            if qual in kept or qual in allowed:
                continue
            if not any(n == name and (m != module or not first <= line <= last)
                       for m, found in uses.items() for n, line in found):
                out.append(qual)
    return out


def test_every_definition_is_reached_by_the_package():
    assert unreached() == []


def test_every_allowed_name_is_still_unreached():
    # an allowlist entry that the package now names, or that is gone, is
    # stale and must go
    assert sorted(unreached(allowed={})) == sorted(ALLOWED)


def test_a_classmethod_is_reached_only_through_its_class():
    tree = ast.parse("class A:\n    @classmethod\n    def load(cls): pass\n"
                     "class B:\n    @classmethod\n    def load(cls): pass\n"
                     "A.load()\n")
    spelled = {qual: name for qual, name, _, _ in _definitions("m", tree)}
    used = {name for name, _ in _uses(tree)}
    assert spelled["m.A.load"] in used
    assert spelled["m.B.load"] not in used
