"""The sweep against the code it replaced.

``_per_series_split_vertices`` is the hand-instantiated vertex table the
sweep used before it called ``root_data.is_generically_split`` at
consistent Tits data.  ``_per_theta_sweep`` is the sweep as it was before
it grouped parabolics by Levi type: one ``exact_div`` per deduplicated
(summand, flag polynomial) pair, theta by theta, with the polynomials
built as products of geometric sums.  ``_per_row_sweep`` is the sweep as
it was before verdicts were shared across rows and certified by geometric
pairing: one verdict memo per row, each verdict by
``twist_multiplicities``, with the masks grouped by a ``flag_degrees``
call per mask (``_per_mask_flag_groups``).  All stay here as
differential oracles.
"""

import re
import time
from collections import defaultdict
from typing import Sequence, Set

import pytest

import jcalc.sweep
from jcalc.errors import NegativeCoefficient, NotDivisible, SearchBudgetExceeded
from jcalc.jinvariant import enumerate_admissible
from jcalc.kac_table import GroupForm, table_rows, torsion_data
from jcalc.motive import summand_degrees, twist_multiplicities
from jcalc.polynomial import Poly, cyclotomic, cyclotomic_exponents
from jcalc.root_data import (DynkinType, flag_degrees, poincare_homogeneous, theta_components,
                             weyl_degrees)
from jcalc.sweep import (SweepReport, consistent_split_thetas, consistent_split_vertices,
                         run_divisibility_sweep)


def _flag(t: DynkinType) -> Poly:
    out = Poly.one()
    for d in weyl_degrees(t):
        out = out * Poly.geometric(1, d)
    return out


def _levi(t: DynkinType, theta) -> Poly:
    out = Poly.one()
    for comp in theta_components(t, theta):
        out = out * _flag(comp)
    return out


def _summand(data, j) -> Poly:
    out = Poly.one()
    for d, ji in zip(data.d, j):
        if ji:
            out = out * Poly.geometric(d, data.p ** ji)
    return out


def _per_theta_sweep(max_rank: int) -> SweepReport:
    report = SweepReport()
    for form, p in table_rows(max_rank):
        data = torsion_data(form, p)
        report.rows += 1
        flag = _flag(form.base)
        levi_cache, quotient_cache = {}, {}
        for J in enumerate_admissible(form, p):
            summand = _summand(data, J.j)
            for theta in consistent_split_thetas(form, p, J):
                if theta not in levi_cache:
                    levi_cache[theta] = flag.exact_div(_levi(form.base, theta))
                total = levi_cache[theta]
                report.cases += 1
                key = (summand.coeffs, total.coeffs)
                if key not in quotient_cache:
                    report.divisions += 1
                    try:
                        quotient_cache[key] = total.exact_div(summand).is_nonnegative
                    except NotDivisible:
                        quotient_cache[key] = False
                if not quotient_cache[key]:
                    report.failures.append(
                        (form.name, p, J.j, tuple(sorted(theta)), "no exact quotient"))
    return report


def _per_mask_flag_groups(t: DynkinType):
    by_total = defaultdict(list)
    for mask in range(1 << t.rank):
        theta = [v for v in t.vertices if mask >> (v - 1) & 1]
        by_total[flag_degrees(t, theta)].append(mask)
    return [(total, cyclotomic_exponents(*total), masks) for total, masks in by_total.items()]


def _per_row_sweep(max_rank: int) -> SweepReport:
    report = SweepReport()
    groups, passing = {}, {}
    for form, p in table_rows(max_rank):
        data, t = torsion_data(form, p), form.base
        report.rows += 1
        if t not in groups:
            groups[t] = _per_mask_flag_groups(t)
        verdicts = {}
        for J in enumerate_admissible(form, p):
            good = sum(1 << (v - 1)
                       for v in jcalc.sweep.consistent_split_vertices(form, p, J.j))
            if (t, good) not in passing:
                passing[t, good] = [[m for m in masks if not m or ~m & good]
                                    for _, _, masks in groups[t]]
            summand = summand_degrees(data, J)
            need = cyclotomic_exponents(*summand)
            for (total, have, _), thetas in zip(groups[t], passing[t, good]):
                if not thetas:
                    continue
                report.cases += len(thetas)
                if (need, have) not in verdicts:
                    report.divisions += 1
                    try:
                        twist_multiplicities(summand, total, need, have)
                        verdicts[need, have] = None
                    except (NotDivisible, NegativeCoefficient) as exc:
                        verdicts[need, have] = str(exc)
                if verdicts[need, have] is not None:
                    report.failures += [
                        (form.name, p, J.j, tuple(v for v in t.vertices if m >> (v - 1) & 1),
                         verdicts[need, have]) for m in thetas]
    return report


def _multiplicity(poly: Poly, n: int) -> int:
    e = 0
    while True:
        try:
            poly = poly.exact_div(cyclotomic(n))
        except NotDivisible:
            return e
        e += 1


def _failure_cases(report: SweepReport):
    return {failure[:4] for failure in report.failures}


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def _per_series_split_vertices(form: GroupForm, p: int,
                               j: Sequence[int]) -> Set[int]:
    """Vertices k for which some group realizing (p, j) splits over F(X)
    whenever k lies outside theta, instantiated series by series:

    * series A: d has p-part p^{j_1}, so k must be coprime to p;
    * series C: odd k, unconditionally;
    * series B/D: the quadratic-form case d = 1 certifies the end
      vertices; a Pfister form or maximal neighbor (dimension 2^m or
      2^m - 1 with value (0,...,0,1)) certifies every vertex; the PGO
      rows couple j_1 to the vector algebra class, so their end-vertex
      certificate needs j_1 = 0;
    * exceptional series: the d = 1 and small-q escapes are enabled
      exactly when a group with this value can have them.

    For the zero value every vertex qualifies: the group may be split.
    """
    s, n = form.base.series, form.base.rank
    everything = set(range(1, n + 1))
    if not any(j):
        return everything
    if s == "A":
        return {k for k in everything if k % p != 0}
    if s == "C":
        return {k for k in everything if k % 2 == 1}
    if s == "G":
        return everything
    if s == "F":
        return everything if p == 3 else {1, 2, 3}
    if s == "E" and n == 6:
        if p == 2:
            return {2, 3, 4, 5}
        if form.isogeny == "ad" and j[0] > 0:
            return {1, 3, 5, 6}
        return everything
    if s == "E" and n == 7:
        if p == 3:
            return {1, 2, 3, 4, 5, 6}
        if form.isogeny == "ad" and j[0] > 0:
            return {2, 5}
        return {2, 3, 4, 5}
    if s == "E" and n == 8:
        return everything if p == 5 else {2, 3, 4, 5}
    dim = 2 * n + 1 if s == "B" else 2 * n
    pfister_shape = (all(x == 0 for x in j[:-1]) and j[-1] == 1
                     and form.isogeny in ("so", "spin")
                     and (_is_power_of_two(dim) or _is_power_of_two(dim + 1)))
    if pfister_shape:
        return everything
    if form.isogeny == "pgo" and n % 2 == 0 and j[0] > 0:
        return set()
    return {n} if s == "B" else {n - 1, n}


def test_split_vertices_match_per_series_table():
    values = 0
    for form, p in table_rows(12):
        for J in enumerate_admissible(form, p):
            assert consistent_split_vertices(form, p, J.j) == \
                _per_series_split_vertices(form, p, J.j), (form.name, p, J.j)
            values += 1
    assert values == 1817


def test_sweep_matches_per_theta_oracle():
    new, old = jcalc.sweep.run_divisibility_sweep(8), _per_theta_sweep(8)
    assert (new.rows, new.cases, new.divisions) == (old.rows, old.cases, old.divisions)
    assert new.failures == old.failures == []


def test_failures_match_per_theta_oracle(monkeypatch):
    # Certify every vertex for every value: theta that are not generically
    # split then meet summands that do not divide their flag polynomial.
    monkeypatch.setattr(jcalc.sweep, "consistent_split_vertices",
                        lambda form, p, j: set(form.base.vertices))
    new, old = jcalc.sweep.run_divisibility_sweep(4), _per_theta_sweep(4)
    assert (new.rows, new.cases, new.divisions) == (old.rows, old.cases, old.divisions)
    assert len(new.failures) == len(_failure_cases(new))
    assert _failure_cases(new) == _failure_cases(old)
    assert new.failures
    forms = {form.name: form for form, _p in table_rows(4)}
    kinds = set()
    for name, p, j, theta, reason in new.failures:
        form = forms[name]
        summand = _summand(torsion_data(form, p), j)
        total = _flag(form.base).exact_div(_levi(form.base, theta))
        numbers = [int(x) for x in re.findall(r"-?\d+", reason)]
        if reason.startswith("Phi_"):       # Phi_n divides the summand a times, the flag b times
            n, a, b = numbers
            assert (_multiplicity(summand, n), _multiplicity(total, n)) == (a, b) and a > b
        else:                               # quotient coefficient of t^k is c
            k, c = numbers
            quotient = total.exact_div(summand).coeffs
            assert quotient[k] == c < 0 and min(quotient[:k], default=0) >= 0
        kinds.add(reason.split()[0])
    assert kinds == {"Phi_2", "Phi_3", "Phi_4", "Phi_6", "quotient"}, kinds


@pytest.mark.parametrize("t", [DynkinType(s, n) for s, n in
                               [("A", 1), ("A", 5), ("B", 5), ("C", 4), ("D", 4), ("D", 6),
                                ("G", 2), ("F", 4), ("E", 6)]], ids=str)
def test_flag_polynomial_matches_exact_division(t):
    flag = _flag(t)
    for mask in range(1 << t.rank):
        theta = [v for v in t.vertices if mask >> (v - 1) & 1]
        assert poincare_homogeneous(t, theta) == flag.exact_div(_levi(t, theta)), theta


def test_flag_groups_match_per_mask_flag_degrees():
    types = {form.base for form, _p in table_rows(12)}
    assert {DynkinType("D", 4), DynkinType("B", 12), DynkinType("C", 12), DynkinType("F", 4),
            DynkinType("G", 2), DynkinType("E", 6), DynkinType("E", 7),
            DynkinType("E", 8)} <= types
    for t in sorted(types, key=str):
        assert jcalc.sweep._flag_groups(t) == _per_mask_flag_groups(t), t


@pytest.mark.parametrize("max_rank, failures", [(4, 191), (8, 4282)])
def test_sweep_matches_per_row_oracle_with_every_vertex_certified(monkeypatch, max_rank,
                                                                   failures):
    monkeypatch.setattr(jcalc.sweep, "consistent_split_vertices",
                        lambda form, p, j: set(form.base.vertices))
    new, old = run_divisibility_sweep(max_rank), _per_row_sweep(max_rank)
    assert (new.rows, new.cases, new.divisions) == (old.rows, old.cases, old.divisions)
    assert new.failures == old.failures        # witness texts and order included
    assert len(new.failures) == failures
    assert 0 < new.certified < new.verdicts <= new.divisions


@pytest.mark.parametrize("max_rank, counts", [
    (8, (71, 49_694, 8_123, 4_247)),
    (10, (89, 245_577, 22_176, 11_859)),
    (12, (110, 1_638_895, 67_310, 35_871)),
])
def test_sweep_pins(max_rank, counts):
    report = run_divisibility_sweep(max_rank)
    assert (report.rows, report.cases, report.divisions, report.verdicts) == counts
    assert report.failures == []
    # some verdicts need the fallback, and every one of them passes there
    assert 0 < report.certified < report.verdicts


def test_sweep_keeps_no_state_between_calls():
    first, second = run_divisibility_sweep(4), run_divisibility_sweep(4)
    assert first == second and first.verdicts > 0


def test_sweep_refuses_a_rank_over_budget_before_any_row(monkeypatch):
    def no_rows(max_rank):
        raise AssertionError("a row was built")

    monkeypatch.setattr(jcalc.sweep, "table_rows", no_rows)
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match=r"rank 23 .* 8388608 .*budget 4194304"):
        run_divisibility_sweep(23)
    assert time.perf_counter() - start < 1.0


def test_sweep_budget_counts_at_least_the_exceptional_rank(monkeypatch):
    monkeypatch.setattr(jcalc.sweep, "_SEARCH_BUDGET", 2 ** 8 - 1)
    with pytest.raises(SearchBudgetExceeded, match="rank 1 .* 256 "):
        run_divisibility_sweep(1)
    monkeypatch.setattr(jcalc.sweep, "_SEARCH_BUDGET", 2 ** 8)
    assert run_divisibility_sweep(1).ok
