"""The package source keeps arithmetic exact and never calls sympy.

A scan of the syntax tree of every module under src/jcalc: no true
division `/`, no float literal, no call to `float`, and no attribute of
`sympy` (the one `import sympy` in motive stays for the bench tracer).
"""

import ast
import pathlib

import pytest

import jcalc

SOURCES = sorted(pathlib.Path(jcalc.__file__).parent.glob("*.py"))


def violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "sympy"):
            yield node.lineno, "sympy.%s" % node.attr


def test_every_module_is_scanned():
    assert {path.stem for path in SOURCES} >= {"cli", "motive", "polynomial", "integers"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_and_no_sympy_call(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(violations(tree)) == []


@pytest.mark.parametrize("snippet", ["x = a / b", "x /= 2", "x = 0.5", "x = 1e3",
                                     "x = float(y)", "x = sympy.factor_list(f)",
                                     "sympy.Poly"])
def test_the_scan_sees_each_rule(snippet):
    assert list(violations(ast.parse(snippet))) != []


def test_the_scan_passes_exact_code():
    assert list(violations(ast.parse("import sympy\nx = a // b\ny = -7 % 3\nz = 10 ** 6"))) == []
