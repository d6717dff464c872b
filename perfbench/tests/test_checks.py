"""Each workload's check accepts the program's output and rejects a wrong one.

    python3 -m pytest -q perfbench/tests

Run from the root of the checkout.
"""

import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import jcalc  # noqa: E402
import oracle as O  # noqa: E402
import w_cli  # noqa: E402
import w_jring  # noqa: E402
import w_lifting  # noqa: E402
import w_sweep  # noqa: E402
from worker import min_ops, percentile  # noqa: E402


def run_op(fn):
    try:
        return ("ok", fn())
    except Exception as exc:
        return ("raised", exc)


def outcomes(mod, inp):
    return [(label, run_op(fn)) for label, fn in mod.ops(inp)]


# -- sweep ------------------------------------------------------------------

def test_sweep_check_rejects_a_reported_failure():
    inp = {"jcalc": jcalc, "seed": 3}
    bad = jcalc.SweepReport(rows=1, cases=10, divisions=4,
                            failures=[("F4", 2, (1,), (1,), "division failed or went negative")])
    assert w_sweep.check_sample(jcalc, random.Random(3), 20) is None
    assert w_sweep.check(inp, "sweep8", ("ok", bad)) is not None
    assert w_sweep.check(inp, "sweep8", ("ok", jcalc.SweepReport(rows=1, cases=0))) is not None


def test_sweep_sample_rejects_a_flag_polynomial_that_disagrees(monkeypatch):
    real = O.flag_poincare
    monkeypatch.setattr(O, "flag_poincare",
                        lambda s, n, theta=(): [real(s, n, theta)[0] + 1] + real(s, n, theta)[1:])
    assert w_sweep.check_sample(jcalc, random.Random(5), 5) is not None


# -- jring ------------------------------------------------------------------

def test_jring_check_accepts_program_and_rejects_j_off_by_one():
    inp = w_jring.build(11)
    small = [(label, fn) for label, fn in w_jring.ops(inp)
             if inp["cases"][int(label.split(":")[0])][1] <= 32]
    for label, fn in small:
        outcome = run_op(fn)
        assert w_jring.check(inp, label, outcome) is None, label
        j = list(outcome[1])
        j[0] = (j[0] + 1) % (inp["cases"][int(label.split(":")[0])][3].k[0] + 1)
        assert w_jring.check(inp, label, ("ok", tuple(j))) is not None, label


# -- lifting ----------------------------------------------------------------

@pytest.fixture(scope="module")
def lifting():
    inp = w_lifting.build(4)
    return inp, dict(outcomes(w_lifting, inp))


def test_lifting_check_accepts_every_program_output(lifting):
    inp, results = lifting
    for label, outcome in results.items():
        assert not w_lifting.is_failure(label, outcome), label
        assert w_lifting.check(inp, label, outcome) is None, label
    assert sum(o[0] == "raised" for o in results.values()) == 4   # the NoDivisor flags


def test_lifting_rejects_perturbed_multiplicities(lifting):
    inp, results = lifting
    label = next(lab for lab in results if lab.endswith("paper-6"))
    f, mult = results[label][1]
    wrong = jcalc.Poly(list(mult.coeffs[:-1]) + [mult.coeffs[-1] + 1])
    assert w_lifting.check(inp, label, ("ok", (f, wrong))) is not None


def test_lifting_rejects_nodivisor_where_every_summand_divides(lifting):
    inp, results = lifting
    label = next(lab for lab in results if "f4-6" in lab)
    assert w_lifting.check(inp, label, ("raised", jcalc.NoDivisor("x"))) is not None


def test_lifting_rejects_a_non_idempotent_matrix(lifting):
    inp, results = lifting
    label = next(lab for lab in results if "idem-" in lab)
    e = results[label][1]
    rows = [list(r) for r in e.entries]
    rows[0][0] = (rows[0][0] + 1) % e.modulus
    assert w_lifting.check(inp, label, ("ok", jcalc.ModMatrix(e.modulus, rows))) is not None


def test_lifting_rejects_an_sl_lift_with_the_wrong_determinant(lifting):
    inp, results = lifting
    label = next(lab for lab in results if "sl-" in lab)
    lift = [list(r) for r in results[label][1]]
    lift[0] = [x * (1 + inp["cases"][int(label.split(":")[0])][2]["m"]) for x in lift[0]]
    assert w_lifting.check(inp, label, ("ok", tuple(map(tuple, lift)))) is not None


# -- cli ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_run():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        inp = w_cli.build(2)
        return inp, dict(outcomes(w_cli, inp))
    finally:
        os.chdir(cwd)


def test_cli_valid_calls_pass_their_checks(cli_run):
    inp, results = cli_run
    for label, outcome in results.items():
        if ":valid:" in label:
            assert not w_cli.is_failure(label, outcome), label
            assert w_cli.check(inp, label, outcome) is None, label


def test_cli_rejects_a_payload_with_one_coefficient_changed(cli_run):
    inp, results = cli_run
    label = next(lab for lab in results if lab.endswith("flag poincare"))
    rc, out, err = results[label][1]
    doc = w_cli.one_json(out)
    doc["poincare"][1] += 1
    assert w_cli.check(inp, label, ("ok", (rc, json.dumps(doc), err))) is not None
    assert w_cli.check(inp, label, ("ok", (rc, out + out, err))) is not None


def test_cli_invalid_slice_is_counted_as_failed_at_this_commit(cli_run):
    """cli.execute lets the ValueError of constructor checks escape as a
    traceback with nothing on stdout, so every invalid-input call fails."""
    inp, results = cli_run
    invalid = [(lab, o) for lab, o in results.items() if ":invalid:" in lab]
    assert len(invalid) == len(w_cli.INVALID)
    for label, outcome in invalid:
        rc, out, err = outcome[1]
        assert rc == 1 and out == "" and "ValueError" in err, label
        assert w_cli.is_failure(label, outcome), label
    ok_doc = (1, '{"error": {"type": "InvalidInput", "message": "m"}}\n', "")
    assert not w_cli.is_failure(invalid[0][0], ("ok", ok_doc))


# -- tail percentile ---------------------------------------------------------------

def test_tail_percentile_leaves_ten_operations_beyond_it():
    for pct in (75, 90):
        n = min_ops(pct)
        values = list(range(n))
        assert sum(v > percentile(values, pct) for v in values) >= 10
    assert percentile([3, 1, 2], 100) == 3
