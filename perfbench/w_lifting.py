"""Workload `lifting`: gluing mod-p decompositions into integral ones.

A round holds, in a fixed order of slots filled from the seed:

* ``integral_decomposition`` on the paper's F4 example and on G2, F4 and
  E6 partial-flag polynomials with the mod-2 and mod-3 summands, among
  them flags that end in ``NoDivisor`` because a summand does not divide;
* ``is_sum_indecomposable`` on the paper's 1 + t + ... + t^11 and on a
  seeded polynomial that splits;
* idempotent-lab lifts (``lift_idempotent``, ``lift_orthogonal_family``,
  ``lift_isomorphism``, ``sl_lift``, ``crt_split``) at moduli p^n and
  sizes up to 10, on matrices built here from seeded transvections.

Flags whose divisor lattice or coefficient box outgrows the search
budget (E8 partial flags, E6 with J = (2, 1) at p = 3) are left out:
they run for minutes or end in ``SearchBudgetExceeded``.
"""

from __future__ import annotations

import itertools
import random

import oracle as O

S2 = [1, 0, 0, 1]                 # mod-2 summand of G2, F4, E6: 1 + t^3
S3 = [1, 0, 0, 0, 1, 0, 0, 0, 1]  # mod-3 summand of F4, E6sc: 1 + t^4 + t^8
S3_AD = {(1, 0): O.summand(3, (1, 4), (1, 0)),   # E6ad at 3, d = (1, 4)
         (1, 1): O.summand(3, (1, 4), (1, 1))}
NODIV_2 = [(2, 3, 4, 5), (1, 2, 3, 4, 5), (2, 3, 4, 5, 6)]   # 1 + t^3 does not divide
NODIV_3 = [(1, 3, 5, 6), (1, 2, 3, 5, 6), (1, 3, 4, 5, 6)]   # S3_AD[(1, 1)] does not divide

# (slot, parameter); see _integral_case and _lab_case.
INTEGRAL_SLOTS = (
    [("paper", 0), ("g2", 2), ("g2", 2)]
    + [("f4", m) for m in (2, 3, 6) for _ in range(2)]
    + [("e6", m) for m in (2, 3, 6) for _ in range(2)]
    + [("e6ad", 3), ("e6ad", 6), ("nodiv2", 6), ("nodiv2", 2), ("nodiv3", 3), ("nodiv3", 3)]
)
# (kind, modulus, size).  The lab lifts below and inside the median
# block balance the integral cases and family lifts above it, so that
# the median falls inside twelve isomorphism lifts of equal size and the
# 90th percentile among the E6 and F4 searches of similar cost.
LAB_SLOTS = ([(kind, m, n) for kind, m in (("crt", 60), ("crt", 90), ("sl", 12),
                                           ("sl", 30), ("sl", 36))
              for n in (6, 7, 8, 10)]
             + [("idem", m, n) for m in (32, 81, 125) for n in (6, 7, 8)]
             + [("iso", m, 8) for m in (8, 25) for _ in range(6)]
             + [("family", m, n) for m in (32, 27) for n in (6, 7, 8, 10)])
TAIL_PCT = 90


def _summands(m: int, s3=S3):
    return [(p, s) for p, s in ((2, S2), (3, s3)) if m % p == 0]


def _integral_case(rng, slot: str, m: int):
    """(total, m, summands, expected f or None)."""
    if slot == "paper":
        return O.pmul(O.pmul(S2, S3), [1, 1, 1, 1]), 6, _summands(6), [1] * 12
    if slot == "g2":
        return O.flag_poincare("G", 2, rng.choice([(), (1,), (2,)])), m, _summands(m), None
    if slot == "f4":
        theta = rng.choice(list(itertools.combinations(range(1, 5), rng.choice([1, 2]))))
        return O.flag_poincare("F", 4, theta), m, _summands(m), None
    if slot == "e6":
        theta = rng.choice(list(itertools.combinations(range(1, 7), 3)))
        return O.flag_poincare("E", 6, theta), m, _summands(m), None
    if slot == "e6ad":
        theta = rng.choice(list(itertools.combinations(range(1, 7), 3)))
        return O.flag_poincare("E", 6, theta), m, _summands(m, S3_AD[(1, 0)]), None
    if slot == "nodiv2":
        return O.flag_poincare("E", 6, rng.choice(NODIV_2)), m, _summands(m), None
    if slot == "nodiv3":
        return (O.flag_poincare("E", 6, rng.choice(NODIV_3)), m,
                _summands(m, S3_AD[(1, 1)]), None)
    raise ValueError(slot)


def _perturb(rng, a, p: int, m: int):
    return O.mat([[x + p * rng.randrange(m) for x in row] for row in a], m)


def _lab_case(rng, slot: str, m: int, n: int):
    """Inputs for one lab lift, as plain n x n matrices over Z/m."""
    p = min(f for f in range(2, m + 1) if m % f == 0)
    u, u_inv = O.unimodular_pair(rng, m, n, 3 * n)
    if slot == "idem":
        e = O.mmul(O.mmul(u, O.diag_block(n, 0, rng.randrange(1, n)), m), u_inv, m)
        return {"a": _perturb(rng, e, p, m)}
    if slot == "family":
        cuts = sorted(rng.sample(range(1, n), 2))
        blocks = [O.diag_block(n, a, b) for a, b in zip([0] + cuts, cuts + [n])]
        return {"family": [_perturb(rng, O.mmul(O.mmul(u, b, m), u_inv, m), p, m)
                           for b in blocks]}
    if slot == "iso":
        h, h_inv = O.unimodular_pair(rng, m, n, 3 * n)
        dg = O.diag_block(n, 0, rng.randrange(1, n))
        conj = lambda x, y, z: O.mmul(O.mmul(x, y, m), z, m)  # noqa: E731
        return {"phi1": conj(u, dg, u_inv), "phi2": conj(h, dg, h_inv),
                "psi12": _perturb(rng, conj(h, dg, u_inv), p, m),
                "psi21": conj(u, dg, h_inv)}
    if slot in ("sl", "crt"):
        return {"a": u}
    raise ValueError(slot)


def build(seed: int, trace: bool = False) -> dict:
    import jcalc
    rng = random.Random(seed)
    cases = []
    for slot, m in INTEGRAL_SLOTS:
        total, m, summands, expect = _integral_case(rng, slot, m)
        cases.append(("integral", "%s-%d" % (slot, m),
                      {"total": total, "m": m, "summands": summands, "expect": expect}))
    split_q = [1, rng.randrange(2), rng.randrange(2), 1]
    cases.append(("indec", "indec-paper",
                  {"f": [1] * 12, "m": 6, "summands": _summands(6), "expect": True}))
    cases.append(("indec", "indec-split",
                  {"f": O.pmul(S2, split_q), "m": 2, "summands": _summands(2),
                   "expect": False}))
    for slot, m, n in LAB_SLOTS:
        cases.append((slot, "%s-%d-%d" % (slot, m, n), dict(_lab_case(rng, slot, m, n), m=m)))
    for kind, _label, case in cases:
        case["args"] = _to_jcalc(jcalc, kind, case)
    return {"jcalc": jcalc, "cases": cases}


def _to_jcalc(jc, kind: str, case: dict):
    poly, mm = jc.Poly, jc.ModMatrix
    if kind in ("integral", "indec"):
        head = poly(case["total"] if kind == "integral" else case["f"])
        return (head, case["m"], [(p, poly(s)) for p, s in case["summands"]])
    m = case["m"]
    if kind == "family":
        return ([mm(m, a) for a in case["family"]],)
    if kind == "iso":
        return tuple(mm(m, case[k]) for k in ("phi1", "phi2", "psi12", "psi21"))
    if kind == "crt":
        return (m, mm(m, case["a"]))
    return (mm(m, case["a"]),)


def warm(inp: dict) -> None:
    jc = inp["jcalc"]
    jc.integral_decomposition(jc.Poly([1, 1]), 2, [(2, jc.Poly([1]))])
    jc.lift_idempotent(jc.ModMatrix(4, ((1, 0), (0, 0))))


def _crt(jc, m, a):
    splitting = jc.crt_split(m)
    parts = splitting.split(a)
    return splitting.factors, parts, splitting.combine(parts)


def ops(inp: dict):
    jc = inp["jcalc"]
    calls = {
        "integral": lambda args: jc.integral_decomposition(*args),
        "indec": lambda args: jc.is_sum_indecomposable(*args),
        "idem": lambda args: jc.lift_idempotent(*args),
        "family": lambda args: jc.lift_orthogonal_family(*args),
        "iso": lambda args: jc.lift_isomorphism(*args),
        "sl": lambda args: jc.sl_lift(*args),
        "crt": lambda args: _crt(jc, *args),
    }
    return [("%d:%s" % (i, label), (lambda f=calls[kind], a=case["args"]: f(a)))
            for i, (kind, label, case) in enumerate(inp["cases"])]


def digest(outcome) -> str:
    kind, value = outcome
    return repr(value) if kind == "ok" else "%s:%s" % (type(value).__name__, value)


def is_failure(label: str, outcome) -> bool:
    """NoDivisor is a correct answer here; any other exception is a failure."""
    return outcome[0] != "ok" and type(outcome[1]).__name__ != "NoDivisor"


def _entries(x):
    return O.mat(x.entries) if hasattr(x, "entries") else O.mat(x)


def check(inp: dict, label: str, outcome):
    kind, _label, case = inp["cases"][int(label.split(":")[0])]
    result = outcome[1]
    if kind == "integral":
        return _check_integral(case, outcome)
    if kind == "indec":
        return None if result is case["expect"] else "indecomposable = %r" % (result,)
    m = case["m"]
    p = min(f for f in range(2, m + 1) if m % f == 0)
    if kind == "idem":
        e = _entries(result)
        if O.mmul(e, e, m) != e or O.mat(e, p) != O.mat(case["a"], p):
            return "lift is not an idempotent over the input"
    elif kind == "family":
        es = [_entries(x) for x in result]
        total = O.zero(len(es[0]))
        for i, e in enumerate(es):
            total = O.madd(total, e, m)
            if O.mmul(e, e, m) != e or O.mat(e, p) != O.mat(case["family"][i], p):
                return "member %d is not an idempotent over its input" % i
            for f in es[i + 1:]:
                if O.mmul(e, f, m) != O.zero(len(e)) or O.mmul(f, e, m) != O.zero(len(e)):
                    return "members are not orthogonal"
        if total != O.identity(len(es[0])):
            return "family does not sum to the identity"
    elif kind == "iso":
        t12, t21 = (_entries(x) for x in result)
        if O.mmul(t21, t12, m) != case["phi1"] or O.mmul(t12, t21, m) != case["phi2"]:
            return "theta21 theta12 != phi1 or theta12 theta21 != phi2"
    elif kind == "sl":
        lift = O.mat(result)
        if O.mat(lift, m) != case["a"] or O.int_det(lift) != 1:
            return "SL lift has the wrong reduction or determinant"
    elif kind == "crt":
        factors, parts, back = result
        prod = 1
        for q, e in factors:
            prod *= q ** e
            if not O.is_prime(q):
                return "factor %d is not prime" % q
        qs = [q ** e for q, e in factors]
        if prod != m or [_entries(x) for x in parts] != [O.mat(case["a"], q) for q in qs]:
            return "CRT parts are not the reductions of the input"
        if _entries(back) != case["a"]:
            return "CRT combine does not give the input back"
    return None


def _check_integral(case: dict, outcome):
    total, summands = case["total"], case["summands"]
    if outcome[0] != "ok":
        if any(O.pdiv(total, s) is None for _p, s in summands):
            return None
        return "NoDivisor although every summand divides the total"
    f, mult = (list(x.coeffs) for x in outcome[1])
    if O.pmul(f, mult) != O.trim(total):
        return "f * multiplicities != total"
    for p, s in summands:
        q = O.pdiv(f, s)
        if q is None or min(q) < 0:
            return "f is not divisible by the mod-%d summand with a nonnegative quotient" % p
    if case["expect"] is not None and (f != case["expect"] or mult != S2):
        return "paper example: f = %s, multiplicities = %s" % (f, mult)
    return None
