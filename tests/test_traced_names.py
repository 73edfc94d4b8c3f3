"""The names the benchmark's tracer patches exist in the package.

``perfbench/tracer.py`` lists in ``LAYERS`` the ``(module, function)``
pairs it wraps, and some of its hooks read a wrapped call's arguments by
position.  Renaming or deleting one of those functions, or moving the
argument a hook reads, would break only the traced benchmark run; these
tests catch it in the test suite.  ``LAYERS`` is read from the source with
``ast``, so the tracer is neither imported nor run.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mmpwalk"


def _layers():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["LAYERS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in stmt.value.elts]
    raise AssertionError("no LAYERS in perfbench/tracer.py")


LAYERS = _layers()


def test_layers_are_read():
    assert len(LAYERS) > 20
    assert ("mmpwalk.linalg", "row_reduce") in LAYERS


@pytest.mark.parametrize("module_name, attr", LAYERS, ids=lambda v: v)
def test_every_traced_name_resolves_in_the_package(module_name, attr):
    module = importlib.import_module(module_name)
    assert pathlib.Path(module.__file__).resolve().parent == PACKAGE
    fn = getattr(module, attr)
    assert callable(fn)
    assert fn.__module__ == module_name


@pytest.mark.parametrize("name", ["_reduced_min", "_enumerate_min"])
def test_enumerations_take_the_budget_last_and_positionally(name):
    # the tracer's node count reads the budget as the call's last argument
    from mmpwalk import orders

    params = list(inspect.signature(getattr(orders, name)).parameters.values())
    assert params[-1].name == "budget"
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    calls = [
        node for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]
    assert calls
    for call in calls:
        assert not call.keywords and len(call.args) == len(params)
        assert not any(isinstance(a, ast.Starred) for a in call.args)
