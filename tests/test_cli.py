import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import jcalc
from jcalc.cli import build_parser, execute
from jcalc.jinvariant import enumerate_admissible
from jcalc.kac_table import expand_table, parse_form
from jcalc.motive import decompose
from jcalc.polynomial import Poly, cyclotomic
from jcalc.root_data import DynkinType, poincare_homogeneous


def run(capsys, *argv):
    status = execute(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv, "--json")
    assert status == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self, capsys):
        status, _out, _err = run(capsys, "frobnicate")
        assert status == 2

    def test_json_before_the_verb_is_usage_error(self, capsys):
        status, out, _err = run(capsys, "--json", "lift", "crt", "--m", "12")
        assert status == 2
        assert out == ""

    def test_missing_required_option(self, capsys):
        status, _out, _err = run(capsys, "jinv", "enumerate", "--form", "E8")
        assert status == 2

    def test_domain_error_is_exit_1(self, capsys):
        status, _out, err = run(capsys, "jinv", "check", "--form", "E8", "--p", "5",
                                "--j", "1,1")
        assert status == 1
        assert "error:" in err

    def test_not_divisible_is_exit_1(self, capsys):
        theta = ",".join(str(v) for v in range(1, 9))
        status, _out, err = run(capsys, "motive", "decompose", "--form", "E8",
                                "--p", "5", "--j", "1", "--theta", theta)
        assert status == 1

    def test_unreadable_in_file_is_exit_1(self, capsys, tmp_path):
        binary = tmp_path / "binary.dat"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path / "missing.txt", binary):
            status, out, err = run(capsys, "lift", "idempotent", "--in", str(path), "--json")
            assert (status, out) == (1, "")
            assert err.startswith("error:")

    def test_torsion_bound_rejects_negative_j(self, capsys):
        status, out, err = run(capsys, "motive", "torsion-bound", "--p", "2",
                               "--j", "-1", "--json")
        assert (status, out) == (1, "")
        assert err.startswith("error:")

    def test_torsion_bound_rejects_non_prime_p(self, capsys):
        status, out, err = run(capsys, "motive", "torsion-bound", "--p", "4",
                               "--j", "1", "--json")
        assert (status, out) == (1, "")
        assert err.startswith("error:")

    def test_jinv_check_rejects_values_outside_the_row(self, capsys):
        # j outside 0..k_1, a negative j, and a non-prime --p
        for p, j in (("5", "7"), ("5", "-3"), ("4", "1")):
            status, out, err = run(capsys, "jinv", "check", "--form", "E8", "--p", p,
                                   "--j", j, "--json")
            assert (status, out) == (1, "")
            assert err.startswith("error:")

    def test_integral_rejects_non_positive_m(self, capsys):
        for m in ("0", "-6"):
            status, out, err = run(capsys, "motive", "integral", "--total", "1,1",
                                   "--m", m, "--summand", "2:1", "--json")
            assert (status, out) == (1, "")
            assert err.startswith("error:")

    def test_integral_rejects_a_repeated_summand_prime(self, capsys):
        for mode in ([], ["--json"]):
            status, out, err = run(capsys, "motive", "integral", "--total", "1,1", "--m", "4",
                                   "--summand", "2:1,1", "--summand", "2:1", *mode)
            assert (status, out) == (1, "")
            assert err == "error: the prime 2 has more than one summand polynomial\n"

    def test_integral_rejects_non_cyclotomic_total(self, capsys):
        status, out, err = run(capsys, "motive", "integral", "--total", "1,3,2",
                               "--m", "2", "--summand", "2:1", "--json")
        assert (status, out) == (1, "")
        assert "1 + 2*t" in err

    def test_integral_refuses_costly_trial_division(self, capsys):
        total = Poly([1, 3, 1]) ** 150 * cyclotomic(30)
        status, out, err = run(capsys, "motive", "integral", "--m", "2", "--summand", "2:1",
                               "--total", ",".join(str(c) for c in total.coeffs), "--json")
        assert (status, out) == (1, "")
        assert "budget" in err

    def test_decompose_rejects_partial_or_bad_tits_data(self, capsys):
        base = ["motive", "decompose", "--form", "E8", "--p", "2", "--j", "1,1,1,1"]
        for tits in (["--tits-index", "1"], ["--splitting-degree", "2"],
                     ["--tits-index", "0", "--splitting-degree", "2"],
                     ["--tits-index", "-3", "--splitting-degree", "2"],
                     ["--tits-index", "1", "--splitting-degree", "0"]):
            for mode in ([], ["--json"]):
                status, out, err = run(capsys, *base, *tits, *mode)
                assert (status, out) == (1, ""), tits + mode
                assert err.startswith("error:") and "Traceback" not in err

    def test_decompose_rejects_pfister_without_tits_data(self, capsys):
        argv = ["motive", "decompose", "--form", "SO7", "--p", "2", "--j", "0,0",
                "--theta", "3", "--pfister", "no"]
        for mode in ([], ["--json"]):
            status, out, err = run(capsys, *argv, *mode)
            assert (status, out) == (1, ""), mode
            assert err.startswith("error:") and "Traceback" not in err

    def test_bad_forms_types_and_moduli_are_exit_1(self, capsys):
        cases = [
            (["jinv", "check", "--form", "SL10mu", "--p", "2", "--j", "1"], "mu tag"),
            (["jinv", "check", "--form", "A9mux", "--p", "2", "--j", "1"], "mu tag"),
            (["jinv", "enumerate", "--form", "A9mu", "--p", "2"], "mu tag"),
            (["flag", "poincare", "--type", "Q3"], "cannot parse"),
            (["flag", "poincare", "--type", "A\u00b2"], "cannot parse"),
            (["lift", "idempotent", "--matrix", "1,0;0,1", "--modulus", "6"], "prime power"),
            (["lift", "family", "--modulus", "6", "--matrix", "1"], "prime power"),
            (["lift", "izvrat", "--demo", "--modulus", "1"], "prime power"),
            (["lift", "izvrat", "--demo", "--size", "1"], "size at least 2"),
            (["lift", "crt", "--m", "0"], "at least 2"),
            (["lift", "crt", "--m", "1"], "at least 2"),
            (["lift", "idempotent", "--matrix", "1", "--modulus", "1"], "at least 2"),
            (["lift", "sl", "--demo", "--modulus", "0"], "at least 2"),
            (["lift", "sl", "--demo", "--modulus", "1"], "at least 2"),
        ]
        for argv, message in cases:
            for mode in ([], ["--json"]):
                status, out, err = run(capsys, *argv, *mode)
                assert (status, out) == (1, ""), argv + mode
                assert err.startswith("error:") and message in err, argv + mode
                assert "Traceback" not in err

    def test_decompose_without_splitting_degree_in_a_process(self):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "jcalc.cli", "motive", "decompose", "--form", "E8",
             "--p", "2", "--j", "1,1,1,1", "--tits-index", "1", "--json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_modulus_past_the_trial_budget_is_exit_1_in_a_process(self):
        # 2^64 + 13 has no prime factor up to the trial-division budget
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "jcalc.cli", "lift", "crt", "--m", str(2 ** 64 + 13),
             "--json"],
            capture_output=True, text=True, env=env, timeout=30)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error:") and "budget" in proc.stderr

    def test_help_everywhere(self, capsys):
        def subcommands(parser):
            return next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))

        verbs = [(group, verb, verb_parser)
                 for group, group_parser in subcommands(build_parser()).items()
                 for verb, verb_parser in subcommands(group_parser).items()]
        assert len(verbs) == 15
        for group, verb, verb_parser in verbs:
            assert any("--json" in action.option_strings for action in verb_parser._actions)
            assert callable(verb_parser.get_default("handler")), (group, verb)
            status, out, _err = run(capsys, group, verb, "--help")
            assert status == 0 and "usage" in out


class TestRoundTrips:
    def test_table_dump_matches_library(self, capsys):
        payload = run_json(capsys, "table", "dump", "--form", "E8", "--p", "5")
        assert payload == [r for r in expand_table(8)
                           if r["form"] == "E8" and r["p"] == 5]

    def test_enumerate_matches_library(self, capsys):
        payload = run_json(capsys, "jinv", "enumerate", "--form", "E7sc", "--p", "2")
        expected = [J.to_dict() for J in enumerate_admissible(parse_form("E7sc"), 2)]
        assert payload["values"] == expected

    def test_decompose_matches_library(self, capsys):
        payload = run_json(capsys, "motive", "decompose", "--form", "F4",
                           "--p", "2", "--j", "1")
        assert payload == decompose(parse_form("F4"), 2, (1,)).to_dict()
        assert payload["summand"] == [1, 0, 0, 1]
        assert sum(payload["multiplicities"]) == 576

    def test_flag_poincare_matches_library(self, capsys):
        payload = run_json(capsys, "flag", "poincare", "--type", "D5",
                           "--theta", "1,3")
        expected = poincare_homogeneous(DynkinType("D", 5), {1, 3})
        assert payload["poincare"] == list(expected.coeffs)

    def test_ring_j_from_gens(self, capsys):
        payload = run_json(capsys, "ring", "j-from-gens", "--p", "2",
                           "--d", "1", "--k", "2", "x1^2")
        assert payload == {"p": 2, "j": [1]}

    def test_rost_and_candim_consistent(self, capsys):
        poly = run_json(capsys, "motive", "rost-poincare", "--p", "5",
                        "--d", "6", "--k", "1", "--j", "1")
        dim = run_json(capsys, "motive", "candim", "--p", "5",
                       "--d", "6", "--k", "1", "--j", "1")
        assert len(poly["poincare"]) - 1 == dim["candim"] == 24

    def test_torsion_bound(self, capsys):
        payload = run_json(capsys, "motive", "torsion-bound", "--p", "2",
                           "--j", "3,2,1,1")
        assert payload["bound"] == 128

    def test_integral(self, capsys):
        payload = run_json(capsys, "motive", "integral",
                           "--total", "1,1,1,2,2,2,2,2,2,2,2,2,1,1,1",
                           "--m", "6",
                           "--summand", "2:1,0,0,1",
                           "--summand", "3:1,0,0,0,1,0,0,0,1")
        assert payload["summand"] == [1] * 12
        assert payload["multiplicities"] == [1, 0, 0, 1]

    def test_lift_sl_demo_deterministic(self, capsys):
        first = run_json(capsys, "lift", "sl", "--demo", "--seed", "5",
                         "--modulus", "12", "--size", "3")
        second = run_json(capsys, "lift", "sl", "--demo", "--seed", "5",
                          "--modulus", "12", "--size", "3")
        assert first == second

    def test_lift_sl_demo_large_modulus(self):
        # A demo matrix drawn entry by entry until det = 1 takes about m
        # draws; the process must finish well inside the timeout.
        m = 1000000007
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "jcalc.cli", "lift", "sl", "--demo",
             "--modulus", str(m), "--size", "2", "--json"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        (a, b), (c, d) = payload["lift"]
        assert a * d - b * c == 1
        assert [[x % m for x in row] for row in payload["lift"]] == payload["input"]

    def test_lift_sl_demo_empty_matrix(self):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "jcalc.cli", "lift", "sl", "--demo",
             "--size", "0", "--modulus", "5", "--json"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"modulus": 5, "input": [], "lift": []}

    def test_lift_izvrat_demo(self, capsys):
        payload = run_json(capsys, "lift", "izvrat", "--demo", "--seed", "1",
                           "--modulus", "8", "--size", "3")
        assert payload["verified"] is True

    def test_lift_idempotent_stdin_format(self, capsys):
        payload = run_json(capsys, "lift", "idempotent",
                           "--matrix", "1,2;0,0", "--modulus", "4")
        assert payload["entries"] == [[1, 2], [0, 0]]

    def test_lift_idempotent_in_file_is_closed(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("mod 4 size 2\n1,2;0,0\n")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "jcalc.cli", "lift", "idempotent",
             "--in", str(path), "--json"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr
        assert json.loads(proc.stdout)["entries"] == [[1, 2], [0, 0]]

    def test_lift_family(self, capsys):
        payload = run_json(capsys, "lift", "family", "--modulus", "4",
                           "--matrix", "1,0;0,0", "--matrix", "0,0;0,1")
        assert [p["entries"] for p in payload] == [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]

    def test_lift_crt(self, capsys):
        payload = run_json(capsys, "lift", "crt", "--m", "12",
                           "--matrix", "5,1;2,3")
        assert payload["factors"] == [[2, 2], [3, 1]]
        assert len(payload["parts"]) == 2


class TestOutputModes:
    def test_text_mode_is_human(self, capsys):
        status, out, _err = run(capsys, "jinv", "enumerate", "--form", "E8", "--p", "5")
        assert status == 0
        assert out.splitlines() == ["(0)", "(1)"]

    def test_single_json_document(self, capsys):
        status, out, _err = run(capsys, "table", "dump", "--p", "5", "--json")
        assert status == 0
        json.loads(out)  # would fail if more than one document were emitted


# Dense builds that one argv makes huge: a degree-(2^30 - 1) summand, a
# 2^99999999 bound, a canonical dimension of 2^20000 - 1 and the closure
# of x1 in a ring of rank 2^40; the degree, weight and ring-rank budgets
# refuse them first.
HUGE_BUILDS = [
    ["motive", "rost-poincare", "--p", "2", "--d", "1", "--k", "30", "--j", "30"],
    ["motive", "torsion-bound", "--p", "2", "--j", "99999999"],
    ["motive", "torsion-bound", "--p", "2", "--j", "999999999999"],
    ["motive", "candim", "--p", "2", "--d", "1", "--k", "20000", "--j", "20000"],
    ["ring", "j-from-gens", "--p", "2", "--d", "1", "--k", "40", "x1"],
    ["ring", "j-from-gens", "--p", "2", "--d", "1,3", "--k", "5,5",
     "x1 + x1^8*x2^4 + x1^13*x2^6 + x1^31*x2 + x1^16*x2^7 + x1^17*x2^14 + x1^6*x2^20 + x2^28"
     " + x1^30*x2^24 + x1^24*x2^27 + x1^31*x2^28",
     "x1 + x2 + x1*x2 + x1^18*x2 + x1^27*x2 + x1^26*x2^6 + x1^24*x2^13 + x1^22*x2^14"
     " + x1^31*x2^14 + x1^14*x2^29 + x1^14*x2^28"],
    ["table", "dump", "--max-rank", "400"],
    ["flag", "poincare", "--type", "A50000"],
    ["lift", "sl", "--demo", "--size", "100000"],
]

BAD_ARGV = HUGE_BUILDS + [
    ["motive", "rost-poincare", "--p", "2", "--d", "3,5", "--k", "1", "--j", "1"],
    ["ring", "j-from-gens", "--p", "2", "--d", "2", "--k", "1", "x1"],
    ["lift", "idempotent", "--matrix", "1,1,1,1", "--modulus", "4"],
    ["lift", "crt", "--m", "12", "--matrix", "1,2;3"],
    ["motive", "integral", "--total", "1,1", "--m", "0", "--summand", "2:1"],
    ["motive", "candim", "--p", "2", "--d", "x", "--k", "1", "--j", "1"],
    ["flag", "poincare", "--type", "F4", "--theta", "a"],
    ["lift", "izvrat", "--modulus", "4", "--phi1", "1,0;0,1", "--phi2", "1", "--psi12", "1",
     "--psi21", "1"],
    ["lift", "crt", "--m", "8", "--matrix", "mod 4 size 2\n1,0;0,1"],
    ["ring", "j-from-gens", "--p", "3", "--d", "1", "--k", "1", "\u00b2*x1"],
    ["ring", "j-from-gens", "--p", "3", "--d", "1", "--k", "1", "x1 + \u00b3"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_input_exits_without_a_traceback(capsys, argv):
    for mode in ([], ["--json"]):
        status, out, err = run(capsys, *argv, *mode)
        assert status in (1, 2), mode
        assert "Traceback" not in err
        if mode:
            assert out == ""


@pytest.mark.parametrize("argv", HUGE_BUILDS, ids=" ".join)
def test_huge_dense_build_is_exit_1_in_a_process(argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(jcalc.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "jcalc.cli", *argv, "--json"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:") and "budget" in proc.stderr


# Argv for every verb, valid or not.  Lift verbs get square matrices of
# size at most 3, bare or headered, sometimes ragged, under a wrong header
# size or not numbers at all; moduli that are prime powers, composite,
# below 2 or not numbers; demo sizes up to 4.  The other verbs get forms,
# Dynkin types, primes, comma lists and ring elements of the same mix,
# kept small enough that each call is quick.
@st.composite
def matrix_text(draw):
    size = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-9, 40), min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if draw(st.integers(0, 7)) == 0:
        rows[-1] = rows[-1][:-1]
    body = ";".join(",".join(map(str, row)) for row in rows)
    kind = draw(st.sampled_from(["bare", "bare", "bare", "header", "header", "junk"]))
    if kind == "header":
        return "mod %d size %d\n%s" % (draw(st.sampled_from([2, 4, 6, 8, 9])),
                                       size + draw(st.sampled_from([0, 0, 0, 1])), body)
    if kind == "junk":
        return draw(st.sampled_from(["", ";", "x", "1,,2", "mod", "mod 4 size\n1"]))
    return body


# False seven times in eight; hypothesis shrinks towards False
ONE_IN_EIGHT = st.sampled_from([False] * 7 + [True])


@st.composite
def int_list(draw, lo, hi, max_size=3):
    """A comma list of small integers, one time in eight not one at all."""
    if draw(ONE_IN_EIGHT):
        return draw(st.sampled_from(["x", "1,,2", "1.5", ","]))
    return ",".join(map(str, draw(st.lists(st.integers(lo, hi), max_size=max_size))))


MATRIX_TEXT = matrix_text()
MODULUS = st.sampled_from(["-4", "0", "1", "2", "3", "4", "5", "6", "8", "9", "12", "25", "27",
                           "30", "60", "x", "", "2.5"])
SIZE = st.integers(-1, 4).map(str)
SEED = st.integers(0, 50).map(str)
PRIME = st.sampled_from(["-2", "0", "1", "2", "2", "3", "3", "4", "5", "7", "x"])
FORM = st.sampled_from(["G2", "F4", "E6sc", "E6ad", "E7sc", "E7ad", "E8", "SO7", "Spin11",
                        "SL6", "PGL4", "Sp6", "PGSp8", "PGO8", "D6halfspin", "A3mu2",
                        "SL10mu", "A9mux", "E9", "B1", "Q3", "x", ""])
DYNKIN = st.sampled_from(["G2", "F4", "E6", "E7", "E8", "A3", "B4", "C3", "D5", "D2",
                          "A0", "E9", "Q3", ""])
THETA = int_list(-1, 9)
J = int_list(-1, 3, max_size=4)
POLY = int_list(-2, 3, max_size=8)
GENS = st.lists(st.sampled_from(["x1", "x2", "x1^2", "1 + x1*x2", "2*x1^3", "x1 + x2^2",
                                 "0", "x0", "x3", "y1", "x1^", "", "3*2*x1"]), max_size=3)
CONTEXT = {"--p": PRIME, "--d": int_list(-1, 6, max_size=2), "--k": int_list(-1, 2, max_size=2)}
VERB_OPTIONS = {
    ("table", "dump"): {"--form": FORM, "--p": PRIME, "--max-rank": st.integers(-1, 6).map(str)},
    ("jinv", "enumerate"): {"--form": FORM, "--p": PRIME},
    ("jinv", "check"): {"--form": FORM, "--p": PRIME, "--j": J},
    ("ring", "j-from-gens"): dict(CONTEXT, gens=GENS),
    ("motive", "rost-poincare"): dict(CONTEXT, **{"--j": J}),
    ("motive", "decompose"): {
        "--form": FORM, "--p": PRIME, "--j": J, "--theta": THETA,
        "--tits-index": st.integers(-1, 4).map(str),
        "--splitting-degree": st.sampled_from(["0", "1", "2", "4", "8"]),
        "--pfister": st.sampled_from(["yes", "no"])},
    ("motive", "candim"): dict(CONTEXT, **{"--j": J}),
    ("motive", "torsion-bound"): dict(CONTEXT, **{"--j": J}),
    ("motive", "integral"): {
        "--total": POLY, "--m": st.sampled_from(["-6", "0", "1", "2", "3", "6", "12", "x"]),
        "--summand": st.tuples(st.sampled_from(["2", "3", "5", "x"]), POLY).map(":".join),
        "--all": st.none()},
    ("flag", "poincare"): {"--type": DYNKIN, "--theta": THETA},
    ("lift", "idempotent"): {"--matrix": MATRIX_TEXT, "--modulus": MODULUS},
    ("lift", "family"): {"--matrix": MATRIX_TEXT, "--modulus": MODULUS},
    ("lift", "izvrat"): {"--modulus": MODULUS, "--phi1": MATRIX_TEXT, "--phi2": MATRIX_TEXT,
                         "--psi12": MATRIX_TEXT, "--psi21": MATRIX_TEXT, "--demo": st.none(),
                         "--seed": SEED, "--size": SIZE},
    ("lift", "sl"): {"--matrix": MATRIX_TEXT, "--modulus": MODULUS, "--demo": st.none(),
                     "--seed": SEED, "--size": SIZE},
    ("lift", "crt"): {"--m": MODULUS, "--matrix": MATRIX_TEXT},
}
REPEATABLE = {("lift", "family", "--matrix"), ("motive", "integral", "--summand")}
SWITCHES = {"--demo", "--all"}


@st.composite
def cli_argv(draw):
    """Each option of the verb is given with odds 7:1 (a switch 1:3, a
    repeatable option up to three times), so that required options and
    the four isomorphism matrices often come together."""
    verb = draw(st.sampled_from(sorted(VERB_OPTIONS)))
    argv = list(verb)
    for flag, values in sorted(VERB_OPTIONS[verb].items()):
        if flag == "gens":
            argv += draw(values)
            continue
        if flag in SWITCHES:
            times = int(draw(st.integers(0, 3)) == 0)
        elif verb + (flag,) in REPEATABLE:
            times = draw(st.integers(0, 3))
        else:
            times = int(not draw(ONE_IN_EIGHT))
        for _ in range(times):
            value = draw(values)
            if value is None:
                argv.append(flag)
            else:   # --flag=-1,2: argparse would read a bare -1,2 as an option
                argv += ["%s=%s" % (flag, value)] if value.startswith("-") else [flag, value]
    return argv + draw(st.sampled_from([[], ["--json"]]))


# The four kinds of bare ValueError that the benchmark's invalid-input
# slice pins (perfbench/w_cli.py): an unknown rank such as E9, a non-prime
# --p, a J entry outside its JInvariant range, and a theta vertex outside
# the diagram.  They end in a traceback until the benchmark's contract
# changes, so the fuzz lets them through.
PINNED = (r"rank -?\d+ invalid for series", r"p = .* is not prime",
          r"j_\d+ = -?\d+ outside 0\.\.", r"vertices .* outside 1\.\.")


@settings(max_examples=800, deadline=None)
@given(cli_argv())
def test_argv_fuzz_keeps_the_cli_contract(argv):
    """Exit 0, 1 or 2, nothing raised out of execute (a traceback in a
    process), and under --json one JSON document on success and no
    stdout on failure.  A bare ValueError of one of the PINNED kinds is
    skipped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = execute(argv)
        except ValueError as exc:
            if type(exc) is ValueError and any(re.match(k, str(exc)) for k in PINNED):
                return
            raise
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if "--json" in argv:
        if status == 0:
            json.loads(out.getvalue())
        else:
            assert out.getvalue() == ""


def test_parser_builds():
    assert build_parser().prog == "jcalc"


def readme_commands():
    """The argv of each `jcalc ...` line in the README's "Command line"
    block, with backslash continuations joined and comments dropped."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("jcalc ")]


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert len(commands) == 16
    for argv in commands:
        for mode in ([], ["--json"]):
            status, _out, err = run(capsys, *argv, *mode)
            assert status == 0, (argv, mode, err)


CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"


def test_recorded_corpus_replays_byte_identically(capsys, monkeypatch):
    """Output recorded by scripts/record_cli_corpus.py must not drift."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal
    corpus = json.loads(CORPUS.read_text())
    drift = []
    for entry in corpus:
        got = run(capsys, *entry["argv"])
        if got != (entry["status"], entry["stdout"], entry["stderr"]):
            drift.append(" ".join(entry["argv"]))
    assert len(corpus) == 149
    assert drift == []
