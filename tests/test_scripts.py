"""The scripts under scripts/ run to completion on small inputs."""

import os
import pathlib
import subprocess
import sys

import pytest

import jcalc

SRC = pathlib.Path(jcalc.__file__).parents[1]
SCRIPTS = SRC.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["lifting_lab_demo.py", "--trials", "20"],
    ["sweep_decompositions.py", "--max-rank", "6"],
    ["admissible_census.py", "--max-rank", "6"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr


def test_src_lines_sums_to_the_line_count():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "src_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    total, code, docstring, comment, blank = map(int, proc.stdout.splitlines()[-1].split()[1:])
    files = sorted((SRC / "jcalc").glob("*.py"))
    assert total == sum(len(path.read_text().splitlines()) for path in files)
    assert total == code + docstring + comment + blank
