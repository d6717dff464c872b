import json
import os
import pathlib
import subprocess
import sys

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

    def test_help_everywhere(self, capsys):
        verbs = [
            ["table", "dump"], ["jinv", "enumerate"], ["jinv", "check"],
            ["ring", "j-from-gens"], ["motive", "rost-poincare"],
            ["motive", "decompose"], ["motive", "candim"],
            ["motive", "torsion-bound"], ["motive", "integral"],
            ["flag", "poincare"], ["lift", "idempotent"], ["lift", "family"],
            ["lift", "izvrat"], ["lift", "sl"], ["lift", "crt"],
        ]
        for verb in verbs:
            status, out, _err = run(capsys, *verb, "--help")
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


def test_parser_builds():
    assert build_parser().prog == "jcalc"


CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"


def test_recorded_corpus_replays_byte_identically(capsys):
    """Output recorded by scripts/record_cli_corpus.py must not drift."""
    corpus = json.loads(CORPUS.read_text())
    drift = []
    for entry in corpus:
        status, out, _err = run(capsys, *entry["argv"])
        if (status, out) != (entry["status"], entry["stdout"]):
            drift.append(" ".join(entry["argv"]))
    assert len(corpus) == 88
    assert drift == []
