#!/usr/bin/env python3
"""Record the command-line output corpus replayed by tests/test_cli.py.

Runs a fixed list of argument vectors through ``jcalc.cli.execute``, in
text mode and with ``--json``, and writes each call's exit status,
stdout and stderr to tests/data/cli_corpus.json.  It also records the
help of every parser and the usage error of every verb, at
``COLUMNS=80`` because argparse wraps both to the terminal width.  The
replay test asserts that the current code prints the same bytes on both
streams, so a refactor that is meant to keep behaviour can be checked
against output recorded before it.

    PYTHONPATH=src python scripts/record_cli_corpus.py

Re-record only when a change to the output is intended, and say so in
CHANGES.md.
"""

import contextlib
import io
import json
import os
import pathlib

from jcalc.cli import execute

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "cli_corpus.json"

PAPER_TOTAL = "1,1,1,2,2,2,2,2,2,2,2,2,1,1,1"
SUMMANDS = ["--summand", "2:1,0,0,1", "--summand", "3:1,0,0,0,1,0,0,0,1"]
# Multi-term generators in the rank-81 ring p = 3, d = (4, 10), k = (2, 2):
# DENSE81 leads sit high in the ring, each LEAD81 lead is x_i^{p^j} over lower terms.
DENSE81 = ["x1^3 + 2*x1^4*x2 + x1^2*x2^3 + x1^6*x2^2 + 2*x1^8*x2^5 + x1^7*x2^8",
           "x2^3 + x1^5*x2^4 + 2*x1^7*x2^4 + x1*x2^8 + 2*x1^8*x2^7",
           "2*x1 + x1^3*x2^6 + x1^8*x2^8"]
LEAD81 = ["x2^3 + 2*x1^7 + x1^4*x2 + x1^2*x2^2 + 2*x1^5 + x1",
          "x1^3 + 2*x1^2 + x2 + 2*x1 + 1"]

# Each call is recorded once as text and once with --json appended.
CALLS = [
    ["table", "dump", "--form", "E8", "--p", "5"],
    ["table", "dump", "--form", "E8", "--p", "2"],
    ["table", "dump", "--max-rank", "6"],
    ["table", "dump", "--form", "Spin11"],
    ["jinv", "enumerate", "--form", "E7sc", "--p", "2"],
    ["jinv", "enumerate", "--form", "D8so", "--p", "2"],
    ["jinv", "enumerate", "--form", "A5ad", "--p", "2"],
    ["jinv", "check", "--form", "E8", "--p", "2", "--j", "3,2,1,1"],
    ["jinv", "check", "--form", "E8", "--p", "2", "--j", "0,1,0,0"],
    ["jinv", "check", "--form", "E8", "--p", "5", "--j", "1,1"],
    ["ring", "j-from-gens", "--p", "2", "--d", "1", "--k", "2", "x1^2"],
    ["ring", "j-from-gens", "--p", "2", "--d", "1,3", "--k", "2,2", "x1^2 + x2", "x1*x2^2"],
    ["ring", "j-from-gens", "--p", "3", "--d", "4,10", "--k", "1,1", "x1 + 2*x2"],
    ["ring", "j-from-gens", "--p", "5", "--d", "1,3", "--k", "2,1", "x1^5 + 3*x2",
     "x1^2*x2 + 4*x1^10"],
    ["ring", "j-from-gens", "--p", "5", "--d", "1", "--k", "2", "x1^5 + 2*x1^7 + 4*x1^24"],
    ["ring", "j-from-gens", "--p", "2", "--d", "1", "--k", "2", "1 + x1^2"],
    ["ring", "j-from-gens", "--p", "3", "--d", "4,10", "--k", "2,2", DENSE81[0], DENSE81[1]],
    ["ring", "j-from-gens", "--p", "3", "--d", "4,10", "--k", "2,2", *DENSE81],
    ["ring", "j-from-gens", "--p", "3", "--d", "4,10", "--k", "2,2", LEAD81[0]],
    ["ring", "j-from-gens", "--p", "3", "--d", "4,10", "--k", "2,2", *LEAD81],
    ["ring", "j-from-gens", "--p", "2", "--d", "1", "--k", "2", "x1^4"],
    ["ring", "j-from-gens", "--p", "3", "--d", "4,10", "--k", "1,1", "3*x1"],
    ["ring", "j-from-gens", "--p", "2", "--d", "1,3", "--k", "2,2", "x1 + x3"],
    ["motive", "rost-poincare", "--p", "5", "--d", "6", "--k", "1", "--j", "1"],
    ["motive", "rost-poincare", "--p", "2", "--d", "3,5,9,15", "--k", "3,2,1,1",
     "--j", "2,1,1,0"],
    ["motive", "decompose", "--form", "F4", "--p", "2", "--j", "1"],
    ["motive", "decompose", "--form", "G2", "--p", "2", "--j", "1", "--theta", "1"],
    ["motive", "decompose", "--form", "E8", "--p", "5", "--j", "1",
     "--theta", "1,2,3,4,5,6,8", "--tits-index", "1", "--splitting-degree", "5"],
    ["motive", "decompose", "--form", "D6so", "--p", "2", "--j", "0,0,1",
     "--theta", "1,2,3,4,5", "--tits-index", "2", "--splitting-degree", "2",
     "--pfister", "yes"],
    ["motive", "decompose", "--form", "D6so", "--p", "2", "--j", "0,0,1",
     "--theta", "1,2,3,4,5", "--tits-index", "2", "--splitting-degree", "2"],
    ["motive", "decompose", "--form", "E8", "--p", "5", "--j", "1",
     "--theta", "1,2,3,4,5,6,7,8"],
    ["motive", "decompose", "--form", "E8", "--p", "5", "--j", "1",
     "--theta", "2,3,4,5", "--tits-index", "1", "--splitting-degree", "8"],
    ["motive", "candim", "--p", "2", "--d", "3,5,9,15", "--k", "3,2,1,1",
     "--j", "1,1,1,1"],
    ["motive", "torsion-bound", "--p", "2", "--j", "3,2,1,1"],
    ["motive", "torsion-bound", "--p", "3", "--j", "1,1", "--d", "4,10", "--k", "1,1"],
    ["motive", "integral", "--total", PAPER_TOTAL, "--m", "6"] + SUMMANDS,
    ["motive", "integral", "--total", PAPER_TOTAL, "--m", "6", "--all"] + SUMMANDS,
    ["motive", "integral", "--total", "1,1", "--m", "6"] + SUMMANDS,
    ["motive", "integral", "--total", "1,3,2", "--m", "2", "--summand", "2:1"],
    ["flag", "poincare", "--type", "D5", "--theta", "1,3"],
    ["flag", "poincare", "--type", "E6"],
    ["lift", "idempotent", "--matrix", "1,2;0,0", "--modulus", "4"],
    ["lift", "idempotent", "--matrix", "3,1;2,4", "--modulus", "8"],
    ["lift", "idempotent", "--matrix", "1,1;1,0", "--modulus", "9"],
    ["lift", "family", "--modulus", "8", "--matrix", "3,0;2,0", "--matrix", "0,0;0,1"],
    ["lift", "family", "--modulus", "9", "--matrix", "1,3,0;0,0,0;0,3,0",
     "--matrix", "0,0,0;0,1,6;0,0,0", "--matrix", "0,0,3;3,0,0;0,0,1"],
    ["lift", "family", "--modulus", "4", "--matrix", "1,0;0,0", "--matrix", "1,0;0,1"],
    ["lift", "izvrat", "--demo", "--seed", "1", "--modulus", "8", "--size", "3"],
    ["lift", "izvrat", "--demo", "--seed", "4", "--modulus", "27", "--size", "4"],
    ["lift", "sl", "--demo", "--seed", "3", "--modulus", "12", "--size", "3"],
    ["lift", "sl", "--matrix", "5,1;2,3", "--modulus", "12"],
    ["lift", "sl", "--matrix", "2,0;0,2", "--modulus", "6"],
    ["lift", "crt", "--m", "12", "--matrix", "5,1;2,3"],
    ["lift", "crt", "--m", "360"],
    ["frobnicate"],
    ["jinv", "enumerate", "--form", "E8"],
]

GROUPS = {
    "table": ["dump"],
    "jinv": ["enumerate", "check"],
    "ring": ["j-from-gens"],
    "motive": ["rost-poincare", "decompose", "candim", "torsion-bound", "integral"],
    "flag": ["poincare"],
    "lift": ["idempotent", "family", "izvrat", "sl", "crt"],
}
# Recorded once each, as given: the help of every parser, then every verb
# with no arguments (mostly the "required" usage error).
USAGE_CALLS = ([["--help"]]
               + [[group, "--help"] for group in GROUPS]
               + [[group, verb, "--help"] for group, verbs in GROUPS.items() for verb in verbs]
               + [[group, verb] for group, verbs in GROUPS.items() for verb in verbs])


def record_one(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = execute(argv)
    return {"argv": argv, "status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    os.environ["COLUMNS"] = "80"
    corpus = []
    for argv in CALLS:
        corpus.append(record_one(list(argv)))
        corpus.append(record_one(list(argv) + ["--json"]))
    corpus += [record_one(list(argv)) for argv in USAGE_CALLS]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(corpus, indent=1) + "\n")
    print("recorded %d calls to %s" % (len(corpus), OUT))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
