"""The package source keeps arithmetic exact and never loads sympy.

A scan of the syntax tree of every module under src/jcalc: no true
division `/`, no float literal, no call to `float`, no `import sympy` or
`from sympy import ...`, and no attribute of `sympy`.  A process that
imports the CLI must not load sympy, and `jcalc.motive` keeps the name
`sympy` (a placeholder) that the bench tracer swaps a proxy in at.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import jcalc
import jcalc.motive

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
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "sympy" for alias in node.names):
            yield node.lineno, "import sympy"
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "sympy"):
            yield node.lineno, "from %s import" % node.module


def test_every_module_is_scanned():
    assert {path.stem for path in SOURCES} >= {"cli", "motive", "polynomial", "integers"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_and_no_sympy_call(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(violations(tree)) == []


@pytest.mark.parametrize("snippet", ["x = a / b", "x /= 2", "x = 0.5", "x = 1e3",
                                     "x = float(y)", "x = sympy.factor_list(f)",
                                     "sympy.Poly", "import sympy", "import os, sympy.polys",
                                     "import sympy as sp", "from sympy import factor_list",
                                     "from sympy.polys import Poly"])
def test_the_scan_sees_each_rule(snippet):
    assert list(violations(ast.parse(snippet))) != []


def test_the_scan_passes_exact_code():
    snippet = "import os\nfrom . import polynomial\nx = a // b\ny = -7 % 3\nz = 10 ** 6"
    assert list(violations(ast.parse(snippet))) == []


def test_importing_the_cli_loads_no_sympy():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import jcalc.cli, sys; assert 'sympy' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_motive_keeps_the_name_the_bench_tracer_replaces():
    # perfbench/tracer.py reads motive.__dict__["sympy"] before it swaps a
    # traced proxy in; without the name every traced run raises KeyError
    assert "sympy" in vars(jcalc.motive)


# Every name the benchmark under perfbench/ reads off the top-level package.
PERFBENCH_NAMES = [
    "ModMatrix", "Poly", "RingElement", "TorsionData", "consistent_split_thetas",
    "crt_split", "enumerate_admissible", "integral_decomposition",
    "is_sum_indecomposable", "j_from_generators", "lift_idempotent", "lift_isomorphism",
    "lift_orthogonal_family", "parse_form", "poincare_complete_flag",
    "poincare_weyl_subgroup", "run_divisibility_sweep", "sl_lift", "table_rows",
    "torsion_data",
]


def test_the_package_keeps_what_the_benchmark_reads():
    bench = pathlib.Path(jcalc.__file__).parents[2] / "perfbench"
    if bench.is_dir():
        read = {name for path in bench.glob("*.py")
                for name in re.findall(r"\bjc\.([A-Za-z_]\w*)", path.read_text())}
        assert read <= set(PERFBENCH_NAMES)
    assert [name for name in PERFBENCH_NAMES if not hasattr(jcalc, name)] == []
    assert callable(jcalc.Poly.exact_div)
    assert callable(jcalc.CrtSplitting.split) and callable(jcalc.CrtSplitting.combine)
