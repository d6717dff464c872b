"""Workload `cli`: one ``python -m jcalc.cli <verb> ... --json`` process per call.

A round runs the 15 verbs, with seeded arguments, in 16 calls (``motive
decompose`` twice), one call at a time, then a fixed slice of 4 calls
with invalid input.  The load is
interpreter start, ``import jcalc`` (mostly sympy), argparse and light
handlers.  Every valid call must exit 0 and print exactly one JSON
document whose content passes a check computed in ``oracle``.

Each invalid call passes only if it exits 1 with no traceback and prints
exactly one JSON error document.  Those calls fail every time today:
``cli.execute`` catches only ``JCalcError``, so the ``ValueError`` raised
by constructor checks escapes as a traceback with nothing on stdout.
They are counted in ``failed`` until that fault is mended.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

import oracle as O

TAIL_PCT = 75
INVALID = [
    ["jinv", "enumerate", "--form", "E9", "--p", "2", "--json"],
    ["motive", "rost-poincare", "--p", "4", "--d", "3", "--k", "1", "--j", "1", "--json"],
    ["motive", "candim", "--p", "2", "--d", "3", "--k", "1", "--j", "2", "--json"],
    ["flag", "poincare", "--type", "F4", "--theta", "5", "--json"],
]
EXC_TYPES = {"G2": ("G", 2), "F4": ("F", 4), "E6sc": ("E", 6), "E6ad": ("E", 6),
             "E7sc": ("E", 7), "E7ad": ("E", 7), "E8": ("E", 8)}
RING = (2, (1, 3), (2, 2))


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _theta(rng, n: int, size: int):
    return sorted(rng.sample(range(1, n + 1), size))


def _valid_calls(rng):
    """(argv, check) pairs; check(payload) returns an error string or None."""
    calls = []
    rows = sorted(O.EXCEPTIONAL_TORSION)
    form, p = rng.choice(rows)
    d, k = O.EXCEPTIONAL_TORSION[(form, p)]

    def table(doc, form=form, p=p, d=d, k=k):
        row = doc[0] if len(doc) == 1 else {}
        ok = (row.get("form"), row.get("p"), row.get("r"), tuple(row.get("d", ())),
              tuple(row.get("k", ()))) == (form, p, len(d), d, k)
        return None if ok else "table row %r" % (row,)
    calls.append((["table", "dump", "--form", form, "--p", str(p)], table))

    form, p = rng.choice(rows)
    k = O.EXCEPTIONAL_TORSION[(form, p)][1]

    def enum(doc, k=k, p=p):
        js = [tuple(v["j"]) for v in doc["values"]]
        inside = all(len(j) == len(k) and all(0 <= a <= b for a, b in zip(j, k)) for j in js)
        ok = inside and len(set(js)) == len(js) and tuple(k) in js and doc["p"] == p
        return None if ok else "admissible values %r" % (js,)
    calls.append((["jinv", "enumerate", "--form", form, "--p", str(p)], enum))

    j = rng.choice([(0, 0, 0, 0), (3, 2, 1, 1)])
    calls.append((["jinv", "check", "--form", "E8", "--p", "2", "--j", _csv(j)],
                  lambda doc: None if doc["admissible"] is True else "J = 0 or K rejected"))

    p, d, k = RING
    ring = O.DenseRing(p, d, k)
    gens = [{m: 1} for m in rng.sample(ring.monos[1:], 2)]
    want = ring.j_tuple(ring.closure_leads([ring.vector(g) for g in gens]))
    texts = ["*".join("x%d^%d" % (i + 1, e) for i, e in enumerate(m) if e) for g in gens for m in g]
    calls.append((["ring", "j-from-gens", "--p", str(p), "--d", _csv(d), "--k", _csv(k)] + texts,
                  lambda doc, want=want: None if tuple(doc["j"]) == want
                  else "J %r, want %r" % (doc["j"], want)))

    form, p = rng.choice(rows)
    d, k = O.EXCEPTIONAL_TORSION[(form, p)]
    j = [rng.randrange(x + 1) for x in k]
    rost = O.summand(p, d, j)
    cand = sum(a * (p ** b - 1) for a, b in zip(d, j))
    bound = p ** sum(j)
    context = ["--p", str(p), "--d", _csv(d), "--k", _csv(k), "--j", _csv(j)]
    calls.append((["motive", "rost-poincare"] + context,
                  lambda doc, rost=rost: None if doc["poincare"] == rost else "summand"))
    calls.append((["motive", "candim"] + context,
                  lambda doc, cand=cand: None if doc["candim"] == cand else "candim"))
    calls.append((["motive", "torsion-bound", "--p", str(p), "--j", _csv(j)],
                  lambda doc, bound=bound: None if doc["bound"] == bound else "bound"))

    for form, p in (("F4", rng.choice([2, 3])), ("G2", 2)):
        s, n = EXC_TYPES[form]
        theta = _theta(rng, n, 1)
        d, _k = O.EXCEPTIONAL_TORSION[(form, p)]
        summ, total = O.summand(p, d, (1,)), O.flag_poincare(s, n, theta)

        def decomp(doc, summ=summ, total=total):
            mult = doc["multiplicities"]
            ok = (doc["summand"] == summ and doc["total"] == total
                  and O.pmul(summ, mult) == total and min(mult) >= 0)
            return None if ok else "decomposition %r" % (doc,)
        calls.append((["motive", "decompose", "--form", form, "--p", str(p), "--j", "1",
                       "--theta", _csv(theta)], decomp))

    s2, s3 = [1, 0, 0, 1], [1, 0, 0, 0, 1, 0, 0, 0, 1]
    paper = O.pmul(O.pmul(s2, s3), [1, 1, 1, 1])
    calls.append((["motive", "integral", "--total", _csv(paper), "--m", "6",
                   "--summand", "2:" + _csv(s2), "--summand", "3:" + _csv(s3)],
                  lambda doc: None if (doc["summand"], doc["multiplicities"]) == ([1] * 12, s2)
                  else "paper example %r" % (doc,)))

    s, n = rng.choice(sorted(EXC_TYPES.values()))
    theta = _theta(rng, n, rng.randrange(1, n))
    flag = O.flag_poincare(s, n, theta)
    calls.append((["flag", "poincare", "--type", "%s%d" % (s, n), "--theta", _csv(theta)],
                  lambda doc, flag=flag: None if doc["poincare"] == flag else "flag"))
    calls.extend(_lab_calls(rng))
    return calls


def _lab_calls(rng):
    calls = []
    m, p, n = 8, 2, rng.randrange(3, 6)
    u, u_inv = O.unimodular_pair(rng, m, n, 3 * n)
    rank = rng.randrange(1, n)
    block, rest = O.diag_block(n, 0, rank), O.diag_block(n, rank, n)
    e = O.mmul(O.mmul(u, block, m), u_inv, m)
    a = O.mat([[x + p * rng.randrange(m) for x in row] for row in e], m)

    def idem(doc, a=a):
        got = O.mat(doc["entries"])
        ok = O.mmul(got, got, m) == got and O.mat(got, p) == O.mat(a, p)
        return None if ok else "idempotent lift"
    calls.append((["lift", "idempotent", "--matrix", O.matrix_text(a), "--modulus", str(m)], idem))

    fam = [O.mmul(O.mmul(u, b, m), u_inv, m) for b in (block, rest)]

    def family(doc, fam=fam):
        es = [O.mat(x["entries"]) for x in doc]
        ok = (len(es) == 2 and O.madd(es[0], es[1], m) == O.identity(n)
              and all(O.mmul(x, x, m) == x for x in es)
              and O.mmul(es[0], es[1], m) == O.zero(n)
              and [O.mat(x, p) for x in es] == [O.mat(x, p) for x in fam])
        return None if ok else "family lift"
    calls.append((["lift", "family", "--modulus", str(m)]
                  + [arg for x in fam for arg in ("--matrix", O.matrix_text(x))], family))

    h, h_inv = O.unimodular_pair(rng, m, n, 3 * n)
    conj = lambda x, y, z: O.mmul(O.mmul(x, y, m), z, m)  # noqa: E731
    phi1, phi2 = conj(u, block, u_inv), conj(h, block, h_inv)
    psi12 = O.mat([[x + p * rng.randrange(m) for x in row] for row in conj(h, block, u_inv)], m)
    psi21 = conj(u, block, h_inv)

    def izvrat(doc):
        t12, t21 = O.mat(doc["theta12"]), O.mat(doc["theta21"])
        ok = O.mmul(t21, t12, m) == phi1 and O.mmul(t12, t21, m) == phi2
        return None if ok else "isomorphism lift"
    calls.append((["lift", "izvrat", "--modulus", str(m), "--phi1", O.matrix_text(phi1),
                   "--phi2", O.matrix_text(phi2), "--psi12", O.matrix_text(psi12),
                   "--psi21", O.matrix_text(psi21)], izvrat))

    ms = rng.choice([12, 30, 36])
    v, _ = O.unimodular_pair(rng, ms, n, 3 * n)

    def sl(doc, v=v):
        lift = O.mat(doc["lift"])
        return None if O.mat(lift, ms) == v and O.int_det(lift) == 1 else "SL lift"
    calls.append((["lift", "sl", "--matrix", O.matrix_text(v), "--modulus", str(ms)], sl))

    mc = rng.choice([60, 90, 84])
    w = O.mat(v, mc)

    def crt(doc):
        qs = [q ** e for q, e in doc["factors"]]
        prod = 1
        for q in qs:
            prod *= q
        parts = [O.mat(x["entries"]) for x in doc.get("parts", [])]
        ok = (prod == mc and all(O.is_prime(q) for q, _e in doc["factors"])
              and parts == [O.mat(w, q) for q in qs])
        return None if ok else "CRT splitting"
    calls.append((["lift", "crt", "--m", str(mc), "--matrix", O.matrix_text(w)], crt))
    return calls


def build(seed: int, trace: bool = False) -> dict:
    rng = random.Random(seed)
    calls = [(argv + ["--json"], chk) for argv, chk in _valid_calls(rng)]
    calls += [(argv, None) for argv in INVALID]
    env = dict(os.environ)
    env.pop("JCALC_OUTPUT", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    inp = {"calls": calls, "env": env, "trace": trace}
    if trace:
        fd, inp["times_file"] = tempfile.mkstemp(prefix="cli-times-", dir=out_dir())
        os.close(fd)
        env["PERFBENCH_CLI_TIMES"] = inp["times_file"]
    return inp


def out_dir() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


def command(inp: dict, argv):
    if inp["trace"]:
        return [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py")] + argv
    return [sys.executable, "-m", "jcalc.cli"] + argv


def run_call(inp: dict, argv):
    proc = subprocess.run(command(inp, argv), env=inp["env"], capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def warm(inp: dict) -> None:
    """The first start of the interpreter and of jcalc's imports in a checkout."""
    subprocess.run([sys.executable, "-m", "jcalc.cli", "--version"], env=inp["env"],
                   capture_output=True, timeout=120)


def ops(inp: dict):
    return [("%d:%s:%s" % (i, "valid" if chk else "invalid", " ".join(argv[:2])),
             (lambda argv=argv: run_call(inp, argv)))
            for i, (argv, chk) in enumerate(inp["calls"])]


def digest(outcome) -> str:
    kind, value = outcome
    if kind != "ok":
        return "%s:%s" % (type(value).__name__, value)
    rc, out, err = value
    return "%d|%s|%s" % (rc, out, "Traceback" in err)


def one_json(text: str):
    """The single JSON document in text, or None when there is not exactly one."""
    dec = json.JSONDecoder()
    try:
        doc, end = dec.raw_decode(text.lstrip())
    except ValueError:
        return None
    return doc if not text.lstrip()[end:].strip() else None


def contract_ok(outcome) -> bool:
    """An invalid-input call meets the CLI contract: exit 1, no traceback and
    exactly one JSON error document."""
    if outcome[0] != "ok":
        return False
    rc, out, err = outcome[1]
    doc = one_json(out)
    return rc == 1 and "Traceback" not in err and isinstance(doc, dict) and "error" in doc


def is_failure(label: str, outcome) -> bool:
    if label.split(":")[1] == "invalid":
        return not contract_ok(outcome)
    return outcome[0] != "ok" or outcome[1][0] != 0


def check(inp: dict, label: str, outcome):
    argv, chk = inp["calls"][int(label.split(":")[0])]
    if chk is None:
        return None   # invalid-input calls are judged by is_failure
    rc, out, err = outcome[1]
    doc = one_json(out)
    if doc is None:
        return "%s: stdout is not exactly one JSON document" % " ".join(argv[:2])
    try:
        problem = chk(doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        problem = "malformed payload (%s: %s)" % (type(exc).__name__, exc)
    return None if problem is None else "%s: %s" % (" ".join(argv[:2]), problem)
