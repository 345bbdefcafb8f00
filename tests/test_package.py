"""Package-wide structural checks."""

import ast
import json
import sys
from pathlib import Path

import pytest

from adhocsim import engine, experiment, geometry

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "adhocsim").glob("*.py"))

# Public names kept although nothing in the package calls them;
# each entry names the test of ``test_acceptance.py`` that does.
CALLED_ONLY_BY_ACCEPTANCE = {
    "delivery_decay_direct": "test_accept_13_bound_calculator",
    "delivery_decay_stepwise": "test_accept_13_bound_calculator",
    "geodesic_arc": "test_accept_15_routes_hold_every_crossed_cell",
}


def _public_definitions(tree):
    """Public top-level functions and classes, and the public methods of
    top-level classes, each with its definition node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """``(name, node)`` for every name read or attribute access."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_public_name_has_a_caller():
    """A public function, class or method that only its own tests call tests
    no claim; delete it.  Imports and ``__all__`` entries are not references,
    and neither is a use inside the definition itself.  A method is called
    only through an attribute (``report.records``, never a bare ``records``,
    which is a local name).  Each allowlisted name must be called by the
    acceptance test its entry names."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SOURCES]
    definitions = [d for tree in trees for d in _public_definitions(tree)]
    enclosing = {}  # id of each node inside a definition -> its definitions
    for qualname, node in definitions:
        for sub in ast.walk(node):
            enclosing.setdefault(id(sub), set()).add(qualname)
    callers = {}  # bare name -> the enclosing definitions of each reference
    attribute_callers = {}  # the same, over attribute references only
    for tree in trees:
        for name, node in _references(tree):
            around = enclosing.get(id(node), set())
            callers.setdefault(name, []).append(around)
            if isinstance(node, ast.Attribute):
                attribute_callers.setdefault(name, []).append(around)
    uncalled = []
    for qualname, _ in definitions:
        owner, _, name = qualname.rpartition(".")
        if name in CALLED_ONLY_BY_ACCEPTANCE:
            continue
        references = (attribute_callers if owner else callers).get(name, [])
        if all(qualname in around for around in references):
            uncalled.append(qualname)
    assert not uncalled, f"no caller outside the tests: {sorted(uncalled)}"

    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    tests = {n.name: n for n in acceptance.body if isinstance(n, ast.FunctionDef)}
    for name, test in CALLED_ONLY_BY_ACCEPTANCE.items():
        assert name in {ref for ref, _ in _references(tests[test])}, (name, test)


def test_only_links_reads_the_noise():
    """The noise power enters the SINR in one place, ``links.sinr``: a module
    that reads an attribute named ``noise`` sums interference a second way."""
    readers = [
        path.stem for path in SOURCES
        if any(isinstance(node, ast.Attribute) and node.attr == "noise"
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))
    ]
    assert readers == ["links"]


# Default parameters kept although no call in the package overrides them,
# each with its reason.
DEFAULT_KEPT = {
    ("main", "argv"): "the argparse entry point; the tests pass argv",
}


def _defaulted_parameters(node):
    """``(position, name)`` of each parameter of ``node`` that has a default;
    keyword-only parameters have no position.  ``self`` is not counted."""
    args = node.args
    positional = args.posonlyargs + args.args
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        if position >= first:
            yield position, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def test_every_default_parameter_is_overridden():
    """A default that no call in the package overrides is a setting nobody
    varies: make it a constant, or derive it.  A call overrides a parameter
    when it passes that position or that keyword, or any ``*args`` or
    ``**kwargs``; ``ClassName(...)`` calls ``__init__``.  As for callers,
    functions match by name and methods by attribute, and a call inside the
    definition itself does not count."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SOURCES]
    definitions = []  # (qualname, name the callers use, whether only as attribute, node)
    for tree in trees:
        for qualname, node in _public_definitions(tree):
            if isinstance(node, ast.FunctionDef):
                definitions.append((qualname, node.name, "." in qualname, node))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        definitions.append((f"{cls.name}.__init__", cls.name, False, item))
    calls = {}  # called name -> [(call, by attribute, its enclosing definitions)]
    for tree in trees:
        stack = [(tree, ())]
        while stack:
            node, around = stack.pop()
            if isinstance(node, ast.FunctionDef):
                around = around + (node,)
            if isinstance(node, ast.Call):
                by_attribute = isinstance(node.func, ast.Attribute)
                name = node.func.attr if by_attribute else getattr(node.func, "id", None)
                calls.setdefault(name, []).append((node, by_attribute, around))
            stack.extend((child, around) for child in ast.iter_child_nodes(node))
    unvaried, kept = [], set()
    for qualname, called_as, method, node in definitions:
        for position, param in _defaulted_parameters(node):
            if (called_as, param) in DEFAULT_KEPT:
                kept.add((called_as, param))
                continue
            if not any(
                any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg is None or kw.arg == param for kw in call.keywords)
                or (position is not None and position < len(call.args))
                for call, by_attribute, around in calls.get(called_as, [])
                if node not in around and (by_attribute or not method)
            ):
                unvaried.append(f"{qualname}({param})")
    assert not unvaried, f"defaults no call in the package overrides: {sorted(unvaried)}"
    assert kept == set(DEFAULT_KEPT)  # no stale entry


# Connections each gated workload routes (one per node, or the tracked ones).
WORKLOAD_CONNECTIONS = {"saturated_n4000": 4000, "lossy_n500": 200}


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_traced_benchmark_point_runs(workload, tmp_path, monkeypatch):
    """The benchmark's per-layer run wraps program names listed in
    ``pipebench/README.md`` and reads the stats they report; a renamed or
    bypassed name stops it.  One traced point of each gated workload must
    run and check out."""
    monkeypatch.syspath_prepend(str(ROOT / "pipebench"))
    import point

    saved = {module: dict(vars(module)) for module in (engine, experiment, geometry)}
    try:
        result = point.run_point(workload, 0, tmp_path, trace=True)
    finally:
        # a point that raised may leave some attributes wrapped
        for module, names in saved.items():
            for name, value in names.items():
                if getattr(module, name) is not value:
                    setattr(module, name, value)
        for name in ("point", "tracer"):
            sys.modules.pop(name, None)
    assert result["ok"], result["error"]
    assert result["layers"]["routing.routes"] == WORKLOAD_CONNECTIONS[workload]
