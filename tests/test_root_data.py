import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from jcalc.errors import InvalidInput, UnsupportedForm
from jcalc.kac_table import GroupForm, parse_form
from jcalc.motive import decompose
from jcalc.polynomial import Poly
from jcalc.root_data import (
    UNKNOWN,
    DynkinType,
    _split_vertices,
    _theta_set,
    dynkin_edges,
    flag_degrees,
    is_generically_split,
    poincare_complete_flag,
    poincare_homogeneous,
    poincare_weyl_subgroup,
    theta_components,
    weyl_degrees,
    weyl_order,
)

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]


def _types(max_rank=9):
    for s, lo in (("A", 1), ("B", 1), ("C", 1), ("D", 3)):
        for r in range(lo, max_rank + 1):
            yield DynkinType(s, r)
    yield DynkinType("G", 2)
    yield DynkinType("F", 4)
    for r in (6, 7, 8):
        yield DynkinType("E", r)


def test_rank_bounds_enforced():
    with pytest.raises(ValueError):
        DynkinType("E", 5)
    with pytest.raises(ValueError):
        DynkinType("D", 2)
    with pytest.raises(ValueError):
        DynkinType("G", 3)
    with pytest.raises(ValueError):
        DynkinType("X", 4)


def test_degree_examples():
    assert weyl_degrees(DynkinType("G", 2)) == (2, 6)
    assert weyl_degrees(DynkinType("A", 1)) == (2,)
    assert weyl_degrees(DynkinType("E", 8)) == (2, 8, 12, 14, 18, 20, 24, 30)
    assert weyl_order(DynkinType("E", 8)) == 696729600
    assert weyl_order(DynkinType("G", 2)) == 12


def _closed_form_order_and_root_count(t):
    """|W| and the number of positive roots, written out independently of
    the degree table."""
    n = t.rank
    if t.series == "A":
        return math.factorial(n + 1), n * (n + 1) // 2
    if t.series in ("B", "C"):
        return 2 ** n * math.factorial(n), n * n
    if t.series == "D":
        return 2 ** (n - 1) * math.factorial(n), n * n - n
    return {("G", 2): (12, 6), ("F", 4): (1152, 24), ("E", 6): (51840, 36),
            ("E", 7): (2903040, 63), ("E", 8): (696729600, 120)}[(t.series, n)]


@pytest.mark.parametrize("t", list(_types()), ids=str)
def test_degree_product_and_root_count(t):
    degs = weyl_degrees(t)
    assert list(degs) == sorted(degs)
    order, roots = _closed_form_order_and_root_count(t)
    assert math.prod(degs) == weyl_order(t) == order
    assert sum(d - 1 for d in degs) == roots


@pytest.mark.parametrize("series,rank", SMALL_TYPES)
def test_weyl_order_against_bruteforce(series, rank, weyl_oracle):
    assert weyl_oracle["order"](series, rank) == weyl_order(DynkinType(series, rank))


@pytest.mark.parametrize("series,rank", SMALL_TYPES)
def test_flag_poincare_against_length_enumeration(series, rank, weyl_oracle):
    hist = weyl_oracle["by_length"](series, rank)
    assert Poly(hist) == poincare_complete_flag(DynkinType(series, rank))


def test_positive_root_count_examples():
    # the complete flag's dimension is the number of positive roots
    assert poincare_complete_flag(DynkinType("A", 1)).degree == 1
    assert poincare_complete_flag(DynkinType("G", 2)).degree == 6
    assert poincare_complete_flag(DynkinType("F", 4)).degree == 24


def test_flag_poincare_examples():
    assert poincare_complete_flag(DynkinType("A", 1)) == Poly([1, 1])
    assert poincare_complete_flag(DynkinType("A", 2)) == Poly([1, 2, 2, 1])
    assert poincare_complete_flag(DynkinType("G", 2)) == Poly([1, 2, 2, 2, 2, 2, 1])


@pytest.mark.parametrize("t", list(_types()), ids=str)
def test_flag_poincare_palindromic(t):
    p = poincare_complete_flag(t)
    assert p.coeffs == p.coeffs[::-1]
    assert p(1) == weyl_order(t)
    assert p.degree == sum(d - 1 for d in weyl_degrees(t))


def test_homogeneous_examples():
    assert poincare_homogeneous(DynkinType("A", 2), {2}) == Poly([1, 1, 1])
    assert poincare_homogeneous(DynkinType("B", 2), {1}) == Poly([1, 1, 1, 1])
    for k in (1, 2, 4):
        t = DynkinType("A", k)
        assert poincare_homogeneous(t, None) == poincare_complete_flag(t)
    t = DynkinType("D", 5)
    assert poincare_homogeneous(t, set(t.vertices)) == Poly.one()


ORACLE_QUOTIENTS = [
    ("A", 3, (1, 3)), ("A", 4, (2, 3, 4)), ("B", 3, (1, 2)), ("B", 3, (2, 3)),
    ("C", 3, (1, 3)), ("D", 4, (1, 3, 4)), ("F", 4, (1, 2, 3)), ("G", 2, (1,)),
]


@pytest.mark.parametrize("series,rank,theta", ORACLE_QUOTIENTS)
def test_homogeneous_against_coset_enumeration(series, rank, theta, weyl_oracle):
    hist = weyl_oracle["coset"](series, rank, theta)
    assert Poly(hist) == poincare_homogeneous(DynkinType(series, rank), set(theta))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_homogeneous_divides_flag(params, data):
    series, rank = params
    t = DynkinType(series, rank)
    theta = data.draw(st.frozensets(st.integers(1, rank)))
    q = poincare_homogeneous(t, theta)
    assert q.is_nonnegative
    assert q * poincare_weyl_subgroup(t, theta) == poincare_complete_flag(t)


@pytest.mark.parametrize("call", [
    poincare_homogeneous,
    flag_degrees,
    lambda t, theta: is_generically_split(t, theta, 1, 2),
    lambda t, theta: decompose(GroupForm(t, "so"), 2, (1, 1), theta),
], ids=["poincare_homogeneous", "flag_degrees", "is_generically_split", "decompose"])
def test_theta_is_a_vertex_set(call):
    t = DynkinType("B", 3)
    for bad in ({0}, {4}, (1, 4)):
        with pytest.raises(ValueError):
            call(t, bad)
    borel = call(t, None)
    assert call(t, ()) == borel and call(t, set()) == borel


class TestComponents:
    def test_path_components(self):
        t = DynkinType("A", 6)
        comps = theta_components(t, {1, 2, 4, 6})
        assert sorted(str(c) for c in comps) == ["A1", "A1", "A2"]

    def test_b_series_end(self):
        t = DynkinType("B", 5)
        assert [str(c) for c in theta_components(t, {4, 5})] == ["B2"]
        assert [str(c) for c in theta_components(t, {1, 2})] == ["A2"]
        assert [str(c) for c in theta_components(t, {3, 4, 5})] == ["B3"]

    def test_d_series_fork(self):
        t = DynkinType("D", 5)
        assert [str(c) for c in theta_components(t, {2, 3, 4, 5})] == ["D4"]
        # the two short legs are not adjacent to each other
        assert sorted(str(c) for c in theta_components(t, {4, 5})) == ["A1", "A1"]
        # D3 tail normalizes to A3
        assert [str(c) for c in theta_components(t, {3, 4, 5})] == ["A3"]

    def test_e8_subdiagrams(self):
        t = DynkinType("E", 8)
        assert [str(c) for c in theta_components(t, {1, 3, 4, 5, 6, 7, 8})] == ["A7"]
        assert [str(c) for c in theta_components(t, {2, 3, 4, 5})] == ["D4"]
        assert [str(c) for c in theta_components(t, {1, 2, 3, 4, 5})] == ["D5"]
        assert [str(c) for c in theta_components(t, {1, 2, 3, 4, 5, 6})] == ["E6"]
        assert [str(c) for c in theta_components(t, {1, 2, 3, 4, 5, 6, 7})] == ["E7"]

    def test_f4_and_g2(self):
        f4 = DynkinType("F", 4)
        assert [str(c) for c in theta_components(f4, {2, 3})] == ["B2"]
        assert [str(c) for c in theta_components(f4, {1, 2, 3, 4})] == ["F4"]
        assert [str(c) for c in theta_components(f4, {2, 3, 4})] == ["B3"]
        g2 = DynkinType("G", 2)
        assert [str(c) for c in theta_components(g2, {1, 2})] == ["G2"]

    def test_edges_shape(self):
        assert dynkin_edges(DynkinType("E", 6)) == (
            (1, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (2, 4, 1))
        assert dynkin_edges(DynkinType("B", 1)) == ()


class TestGenericSplitness:
    def test_g2_any_vertex(self):
        assert is_generically_split(parse_form("G2"), {1}, 1, 2) is True

    def test_a_series_gcd(self):
        form = parse_form("A4mu5")
        assert is_generically_split(form, {2, 3, 4}, 5, 5) is True
        # every uncovered vertex shares a factor with d
        assert is_generically_split(DynkinType("A", 3), {1, 3}, 2, 4) is False

    def test_e8_vertex_list(self):
        e8 = parse_form("E8")
        theta = frozenset(range(1, 9)) - {7}
        assert is_generically_split(e8, theta, 1, 8) is False
        assert is_generically_split(e8, theta, 1, 5) is True
        assert is_generically_split(e8, {1, 6, 7, 8}, 1, 1) is True

    def test_pfister_rows_unknown(self):
        b3 = DynkinType("B", 3)
        assert is_generically_split(b3, {3}, 1, 2) is UNKNOWN
        assert is_generically_split(b3, {3}, 1, 2, pfister=True) is True
        assert is_generically_split(b3, {3}, 1, 2, pfister=False) is False
        assert is_generically_split(b3, {1, 2}, 1, 2) is True  # vertex n uncovered
        d4 = DynkinType("D", 4)
        assert is_generically_split(d4, {3, 4}, 1, 2) is UNKNOWN
        assert is_generically_split(d4, {1, 2}, 1, 2) is True
        assert is_generically_split(d4, {1, 2}, 2, 2) is UNKNOWN

    def test_c_series_odd_vertices(self):
        c4 = DynkinType("C", 4)
        assert is_generically_split(c4, {1, 3}, 1, 2) is False
        assert is_generically_split(c4, {2, 4}, 1, 2) is True

    def test_full_theta_never_splits(self):
        assert is_generically_split(DynkinType("G", 2), {1, 2}, 1, 1) is False

    def test_unknown_has_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(UNKNOWN)

    def test_rejects_garbage(self):
        with pytest.raises(UnsupportedForm):
            is_generically_split("E8", {1}, 1, 1)

    def test_tits_data_must_be_positive(self):
        e8 = parse_form("E8")
        for d, q in ((0, 8), (-3, 8), (1, 0), (1, -5)):
            with pytest.raises(InvalidInput, match="must both be positive"):
                is_generically_split(e8, {1}, d, q)
            with pytest.raises(ValueError):         # InvalidInput is a ValueError
                _split_vertices(e8.base, d, q)


def old_is_generically_split(form, theta, tits_index, splitting_degree, pfister=None):
    """The vertex table as it was before it returned its vertex set: the
    per-series criterion tested against each vertex outside theta."""
    t = form.base if hasattr(form, "base") else form
    if not isinstance(t, DynkinType):
        raise UnsupportedForm("expected a Dynkin type or group form, got %r" % (form,))
    d, q = tits_index, splitting_degree
    outside = sorted(frozenset(t.vertices) - _theta_set(t, theta))
    if not outside:
        return False
    n = t.rank
    s = t.series

    if s == "A":
        return any(math.gcd(k, d) == 1 for k in outside)
    if s == "C":
        return any(k % 2 == 1 for k in outside)
    if s == "G":
        return True
    if s == "F":
        return q == 3 or any(k in (1, 2, 3) for k in outside)
    if s == "E" and n == 6:
        good = {3, 5}
        if d == 1:
            good |= {2, 4}
        if q % 2 == 1:
            good |= {1, 6}
        return any(k in good for k in outside)
    if s == "E" and n == 7:
        good = {2, 5}
        if d == 1:
            good |= {3, 4}
        if q == 3:
            good |= {1, 2, 3, 4, 5, 6}
        return any(k in good for k in outside)
    if s == "E" and n == 8:
        return q == 5 or any(k in (2, 3, 4, 5) for k in outside)

    if s == "B":
        plain = n in outside
    else:  # D
        plain = d == 1 and any(k in (n - 1, n) for k in outside)
    if plain:
        return True
    if pfister is None:
        return UNKNOWN
    return bool(pfister)


def test_split_vertices_match_per_vertex_oracle():
    types = ([DynkinType(s, n) for s in "ABC" for n in range(1, 7)]
             + [DynkinType("D", n) for n in range(3, 7)]
             + [DynkinType("E", n) for n in (6, 7, 8)]
             + [DynkinType("F", 4), DynkinType("G", 2)])
    cases, outcomes = 0, set()
    for t in types:
        thetas = [frozenset(v for v, b in zip(t.vertices, bits) if b)
                  for bits in itertools.product((False, True), repeat=t.rank)]
        for theta, d, q, pfister in itertools.product(thetas, (1, 2, 3, 4, 6), (1, 2, 3, 5),
                                                      (None, True, False)):
            new = is_generically_split(t, theta, d, q, pfister)
            old = old_is_generically_split(t, theta, d, q, pfister)
            assert new is old, (t, sorted(theta), d, q, pfister)
            outcomes.add(new)
            cases += 1
    assert cases == 57_960
    assert outcomes == {True, False, UNKNOWN}
