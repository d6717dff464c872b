"""Workload `sweep`: the table-wide divisibility sweep.

One operation is ``run_divisibility_sweep(8)``.  At rank bound 8 the
classical rows (about 1.1 s) outweigh the fixed exceptional part (about
0.5 s at any bound).  The load is mostly ``Poly.exact_div`` plus
``root_data``, ``jinvariant`` and ``kac_table``; it reaches
``truncated_ring`` only through ``lucas_binom``, and never sympy or
``idempotent_lab``.

The seed picks the sample of sweep cases that the check recomputes with
the list arithmetic of ``oracle``.
"""

from __future__ import annotations

import random

import oracle as O

RANK = 8
SAMPLE = 150
TAIL_PCT = 100   # about 12 operations per run: no percentile has ten beyond it


def build(seed: int, trace: bool = False) -> dict:
    import jcalc
    return {"jcalc": jcalc, "seed": seed}


def warm(inp: dict) -> None:
    jc = inp["jcalc"]
    e8 = jc.parse_form("E8")
    jc.enumerate_admissible(e8, 2)
    jc.poincare_complete_flag(e8.base).exact_div(jc.poincare_weyl_subgroup(e8.base, [1]))


def ops(inp: dict):
    jc = inp["jcalc"]
    return [("sweep%d" % RANK, lambda: jc.run_divisibility_sweep(RANK))]


def digest(outcome) -> str:
    kind, value = outcome
    if kind != "ok":
        return "%s:%s" % (type(value).__name__, value)
    return "%d/%d/%d/%r" % (value.rows, value.cases, value.divisions, value.failures)


def is_failure(label: str, outcome) -> bool:
    return outcome[0] != "ok"


def check(inp: dict, label: str, outcome):
    report = outcome[1]
    if report.failures:
        return "sweep reported %d failures, first %r" % (len(report.failures),
                                                         report.failures[0])
    if report.cases <= 0 or report.divisions <= 0 or report.divisions > report.cases:
        return "implausible counts %d cases, %d divisions" % (report.cases, report.divisions)
    return check_sample(inp["jcalc"], random.Random(inp["seed"]), SAMPLE)


def check_sample(jc, rng, n: int):
    """Recompute n seeded sweep cases: summand * quotient = flag polynomial
    with a nonnegative quotient, and P(1) = |W| / |W_theta|."""
    rows = list(jc.table_rows(RANK))
    for _ in range(n):
        form, p = rng.choice(rows)
        data = jc.torsion_data(form, p)
        J = rng.choice(jc.enumerate_admissible(form, p))
        theta = sorted(rng.choice(list(jc.consistent_split_thetas(form, p, J))))
        s, n_rank = form.base.series, form.base.rank
        flag = O.flag_poincare(s, n_rank, theta)
        quot = O.pdiv(flag, O.summand(p, data.d, J.j))
        where = "%s p=%d J=%s theta=%s" % (form.name, p, J.j, theta)
        levi_poly = jc.poincare_complete_flag(form.base).exact_div(
            jc.poincare_weyl_subgroup(form.base, theta))
        if list(levi_poly.coeffs) != flag:
            return "the sweep's flag polynomial differs from the reference at " + where
        if quot is None or min(quot) < 0:
            return "summand does not divide the flag polynomial at " + where
        levi = 1
        for cs, cn in O.component_types(s, n_rank, theta):
            levi *= O.weyl_order(cs, cn)
        if sum(flag) * levi != O.weyl_order(s, n_rank):
            return "P(1) is not |W|/|W_theta| at " + where
    return None
