"""The package imports nothing outside the standard library, every
module-level import of a module is used in it, every private module-level
function or class is referenced outside its own definition, and only
``linalg`` tests a value's type against ``Fraction``."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mmpwalk"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_are_found():
    assert {"__init__.py", "cones.py", "orders.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_stdlib_or_package_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    # __init__.py imports only to export
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []


def test_every_private_function_and_class_is_used():
    # a private helper left behind when its last caller changes is dead code
    references = []  # (module, top-level statement, names it refers to)
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            references.append((path.name, stmt, names))
    unused = [
        f"{module}:{stmt.name}"
        for module, stmt, _ in references
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names for _, other, names in references if other is not stmt)
    ]
    assert unused == []


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _fraction_type_tests(tree):
    """Lines of ``tree`` that test a value's type against ``Fraction``: an
    ``isinstance`` call, a ``type(...)`` comparison or a ``frozenset`` of
    types."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("isinstance", "frozenset") and "Fraction" in _names(node):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            calls_type = any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
                             and o.func.id == "type" for o in operands)
            if calls_type and "Fraction" in _names(node):
                lines.append(node.lineno)
    return lines


def test_the_exactness_rule_lives_in_linalg_alone():
    # linalg._EXACT_TYPES says what an exact number is; every other module
    # reads it, so the modules cannot disagree
    found = [
        f"{path.name}:{line}"
        for path in MODULES if path.name != "linalg.py"
        for line in _fraction_type_tests(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
    linalg = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    assert _fraction_type_tests(linalg) != []
