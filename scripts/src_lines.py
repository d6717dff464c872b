#!/usr/bin/env python3
"""Count the lines of src/jcalc by kind, per module and summed.

Each line is exactly one of: docstring (a non-blank line of a module,
class or function docstring, found with ast), blank, comment (a line
whose first character past the indentation is #) or code.  total is
their sum, the same as ``wc -l src/jcalc/*.py``.

    python scripts/src_lines.py
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jcalc"
KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    doc = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            kind = "blank"
        elif number in doc:
            kind = "docstring"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main() -> int:
    print("%-18s" % "module" + "".join("%10s" % kind for kind in KINDS))
    summed = dict.fromkeys(KINDS, 0)
    for path in sorted(SRC.glob("*.py")):
        counts = count(path.read_text())
        for kind in KINDS:
            summed[kind] += counts[kind]
        print("%-18s" % path.name + "".join("%10d" % counts[kind] for kind in KINDS))
    print("%-18s" % "all" + "".join("%10d" % summed[kind] for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
