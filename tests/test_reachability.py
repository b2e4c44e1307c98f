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

The same holds for parameter defaults: a default that no call in the
package overrides, by keyword or by position, is a constant spelled as a
parameter, and the code that serves its other values is reached only by
tests. Calls are matched by spelling too; a call of a class, or of cls
inside it, is a call of its __init__.

And for fields: an annotated field of a dataclass or NamedTuple class
that no attribute read in the package spells (owner.field, the owner a
name or an attribute) is a result nothing reads, computed and stored
only for tests. Reads are matched by spelling too, so every attribute of
that name counts; a local variable of that name does not.
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

# module.function.parameter -> why its default stays though no call in the
# package overrides it
DEFAULTS_ALLOWED = {
    "cli.main.argv": "the console entry point calls main() with no argv",
    "main.main.argv": "the console entry point calls main() with no argv",
    "radial.filon_cos.x0":
        "filon_cos stays only as the benchmark tracer's pin; nothing in the "
        "package calls it (CHANGES.md, the FOUND line on filon_cos)",
    "radial.filon_sin.x0":
        "filon_sin stays only as the benchmark tracer's pin; nothing in the "
        "package calls it (CHANGES.md, the FOUND line on filon_sin)",
    "gp.minimize_gp.r_max":
        "ROADMAP item 5: the gp stage is to pass the trap's own grid",
    "gp.minimize_gp.n_pts":
        "ROADMAP item 5: the gp stage is to pass the trap's own grid",
}

# module.class.field -> why it stays though nothing in the package reads it
FIELDS_ALLOWED = {
    "gp.GpState.energy_trace":
        "tests/test_gp.py checks the flow's energy descent through it "
        "(test_energy_monotone_along_flow)",
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


def _defaulted(prefix, node, cls=None):
    """(qualified name, the spelling a call reaches it by, parameter,
    position or None) per parameter with a default, in functions and
    methods at any depth; a position skips self and cls, and __init__ is
    reached by its class's name."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.ClassDef):
            yield from _defaulted(f"{prefix}.{sub.name}", sub, sub.name)
        if not isinstance(sub, _FUNCS):
            continue
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in sub.decorator_list)
        skip = 0 if cls is None or static else 1
        spelled = cls if sub.name == "__init__" else sub.name
        qual, args = f"{prefix}.{sub.name}", sub.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield f"{qual}.{arg.arg}", spelled, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{qual}.{arg.arg}", spelled, arg.arg, None
        yield from _defaulted(qual, sub)


def _calls(node, cls=None):
    """(spelling, positional arguments before any *, keywords) per call;
    cls(...) inside a class is spelled as the class."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Call):
            name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
            stars = [isinstance(a, ast.Starred) for a in sub.args] + [True]
            yield (cls if name == "cls" and cls else name, stars.index(True),
                   {k.arg for k in sub.keywords})
        yield from _calls(sub, sub.name if isinstance(sub, ast.ClassDef)
                          else cls)


def unset_defaults(allowed=DEFAULTS_ALLOWED, trees=None):
    """module.function.parameter of each default that no call in the
    package (or in trees, module name -> syntax tree) overrides."""
    trees = trees or {path.stem: ast.parse(path.read_text())
                      for path in sorted(SRC.glob("*.py"))}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    return [qual for module, tree in trees.items()
            for qual, name, param, pos in _defaulted(module, tree)
            if qual not in allowed
            and not any(n == name and (param in keywords
                                       or pos is not None and n_pos > pos)
                        for n, n_pos, keywords in calls)]


def _record_classes(tree):
    """(class name, annotated field names) per dataclass or NamedTuple
    class at any depth."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [getattr(d, "func", d) for d in node.decorator_list]
        marks += node.bases
        if not any(getattr(m, "id", getattr(m, "attr", None))
                   in ("dataclass", "NamedTuple") for m in marks):
            continue
        yield node.name, [item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]


def unread_fields(allowed=FIELDS_ALLOWED, trees=None):
    """module.class.field of each record field that no owner.attribute
    spelling in the package (or in trees, module name -> syntax tree)
    reads."""
    trees = trees or {path.stem: ast.parse(path.read_text())
                      for path in sorted(SRC.glob("*.py"))}
    read = {name.rsplit(".", 1)[1] for tree in trees.values()
            for name, _ in _uses(tree) if "." in name}
    return [f"{module}.{cls}.{name}" for module, tree in trees.items()
            for cls, names in _record_classes(tree) for name in names
            if name not in read and f"{module}.{cls}.{name}" not in allowed]


def test_every_definition_is_reached_by_the_package():
    assert unreached() == []


def test_every_allowed_name_is_still_unreached():
    # an allowlist entry that the package now names, or that is gone, is
    # stale and must go
    assert sorted(unreached(allowed={})) == sorted(ALLOWED)


def test_every_default_is_overridden_by_the_package():
    assert unset_defaults() == []


def test_every_allowed_default_is_still_unset():
    # an allowlist entry that some call now overrides, or that is gone,
    # is stale and must go
    assert sorted(unset_defaults(allowed={})) == sorted(DEFAULTS_ALLOWED)


def test_every_field_is_read_by_the_package():
    assert unread_fields() == []


def test_every_allowed_field_is_still_unread():
    # an allowlist entry that the package now reads, or that is gone, is
    # stale and must go
    assert sorted(unread_fields(allowed={})) == sorted(FIELDS_ALLOWED)


def test_a_field_is_read_only_by_an_attribute():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "from typing import NamedTuple\n"
                     "@dataclass(frozen=True)\nclass A:\n    x: int\n"
                     "    z: int = 0\n"
                     "class B(NamedTuple):\n    u: int\n    v: int\n"
                     "class C:\n    w: int\n"
                     "def f(a, b, x, v):\n    return a.z + b.u\n")
    assert unread_fields(allowed={}, trees={"m": tree}) == ["m.A.x", "m.B.v"]


def test_a_class_call_sets_its_init_defaults():
    tree = ast.parse("class A:\n    def __init__(self, x, y=1): pass\n"
                     "    @classmethod\n    def make(cls): return cls(0, 2)\n"
                     "def f(a, b=0, *, c=1): pass\n"
                     "f(1, c=2)\n")
    assert unset_defaults(allowed={}, trees={"m": tree}) == ["m.f.b"]


def test_a_classmethod_is_reached_only_through_its_class():
    tree = ast.parse("class A:\n    @classmethod\n    def load(cls): pass\n"
                     "class B:\n    @classmethod\n    def load(cls): pass\n"
                     "A.load()\n")
    spelled = {qual: name for qual, name, _, _ in _definitions("m", tree)}
    used = {name for name, _ in _uses(tree)}
    assert spelled["m.A.load"] in used
    assert spelled["m.B.load"] not in used
