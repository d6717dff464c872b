"""The package source keeps arithmetic exact, never loads sympy, and
loads each calculator only when it is used.

A scan of the syntax tree of every module under src/jcalc: no true
division `/`, no float literal, no call to `float`, no `import sympy` or
`from sympy import ...`, and no attribute of `sympy`.  A process that
imports the CLI must not load sympy, and `jcalc.motive` keeps the name
`sympy` (a placeholder) that the bench tracer swaps a proxy in at.

Importing the package loads no calculator module, and the CLI imports
at module level nothing of the package but `errors`, so fresh processes
show which modules each verb loads.
"""

import ast
import json
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


# -- lazy imports -------------------------------------------------------------

def package_imports(tree):
    """(line, module) for each import of a jcalc module outside any
    function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                yield node.lineno, node.module or alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jcalc"):
            yield node.lineno, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("jcalc"):
                    yield node.lineno, alias.name
        stack.extend(ast.iter_child_nodes(node))


def test_the_cli_imports_only_errors_at_module_level():
    path = pathlib.Path(jcalc.__file__).parent / "cli.py"
    found = list(package_imports(ast.parse(path.read_text(), filename=str(path))))
    assert found and [module for _line, module in found if module != "errors"] == []


@pytest.mark.parametrize("snippet", ["from . import motive", "from .motive import decompose",
                                     "import jcalc.motive", "from jcalc.sweep import x",
                                     "if True:\n    from .kac_table import parse_form",
                                     "try:\n    from . import __version__\nexcept ImportError:"
                                     "\n    pass"])
def test_the_import_scan_sees_each_rule(snippet):
    assert list(package_imports(ast.parse(snippet))) != []


def test_the_import_scan_passes_handler_imports():
    snippet = ("import json\nfrom .errors import ParseError\n"
               "def handler(args):\n    from .motive import decompose\n"
               "class C:\n    from .sweep import x\n")
    assert [module for _line, module in package_imports(ast.parse(snippet))] == ["errors"]


def loaded_after(code):
    """The jcalc modules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
    probe = code + ("\nimport json, sys\n"
                    "print(json.dumps([m for m in sys.modules if m.startswith('jcalc.')]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_verb(*argv):
    return ("import contextlib, io, jcalc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert jcalc.cli.execute(%r) == 0" % (list(argv),))


def test_importing_the_package_loads_no_calculator():
    assert loaded_after("import jcalc") == set()


def test_lift_verbs_load_only_the_matrix_lab():
    assert loaded_after(run_verb("lift", "crt", "--m", "12", "--json")) == {
        "jcalc.cli", "jcalc.errors", "jcalc.idempotent_lab", "jcalc.integers"}


def test_flag_poincare_loads_only_root_data_and_polynomials():
    assert loaded_after(run_verb("flag", "poincare", "--type", "G2", "--json")) == {
        "jcalc.cli", "jcalc.errors", "jcalc.integers", "jcalc.polynomial", "jcalc.root_data"}


def test_table_dump_leaves_the_matrix_lab_unloaded():
    loaded = loaded_after(run_verb("table", "dump", "--form", "G2", "--json"))
    assert "jcalc.kac_table" in loaded and "jcalc.idempotent_lab" not in loaded


def test_no_verb_loads_the_sweep():
    # every argv of the recorded CLI corpus, all fifteen verbs, in one process
    corpus = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"
    code = ("import contextlib, io, json, jcalc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    for entry in json.load(open(%r)):\n"
            "        jcalc.cli.execute(entry['argv'])" % str(corpus))
    loaded = loaded_after(code)
    assert {"jcalc.motive", "jcalc.truncated_ring", "jcalc.idempotent_lab"} <= loaded
    assert "jcalc.sweep" not in loaded


def test_star_import_binds_every_export():
    namespace = {}
    exec("from jcalc import *", namespace)
    assert len(jcalc.__all__) == 72
    assert [name for name in jcalc.__all__ if name not in namespace] == []


def test_dir_lists_every_export_and_submodule():
    listed = set(dir(jcalc))
    assert set(jcalc.__all__) <= listed
    assert {"cli", "errors", "integers", "motive", "sweep"} <= listed


def test_exports_and_submodules_resolve_and_unknown_names_do_not():
    for name in jcalc.__all__:
        value = getattr(jcalc, name)
        assert getattr(sys.modules["jcalc." + jcalc._EXPORTS[name]], name) is value
    assert jcalc.sweep is sys.modules["jcalc.sweep"]
    with pytest.raises(AttributeError, match="no_such_name"):
        jcalc.no_such_name
