"""The sweep against the code it replaced.

``_per_series_split_vertices`` is the hand-instantiated vertex table the
sweep used before it called ``root_data.is_generically_split`` at
consistent Tits data.  ``_per_theta_sweep`` is the sweep as it was before
it grouped parabolics by Levi type: one ``exact_div`` per deduplicated
(summand, flag polynomial) pair, theta by theta, with the polynomials
built as products of geometric sums.  Both stay here as differential
oracles.
"""

import re
from typing import Sequence, Set

import pytest

import jcalc.sweep
from jcalc.errors import NotDivisible
from jcalc.jinvariant import enumerate_admissible
from jcalc.kac_table import GroupForm, table_rows, torsion_data
from jcalc.polynomial import Poly, cyclotomic
from jcalc.root_data import DynkinType, poincare_homogeneous, theta_components, weyl_degrees
from jcalc.sweep import SweepReport, consistent_split_thetas, consistent_split_vertices


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
