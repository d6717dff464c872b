import functools

import pytest
from hypothesis import example, given, strategies as st

from jcalc import polynomial
from jcalc.errors import NotDivisible, SearchBudgetExceeded
from jcalc.polynomial import (Poly, cyclotomic, cyclotomic_degrees, cyclotomic_exponents,
                              degree_ratio)

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert not Poly([])
    assert Poly([]).degree == -1


def test_basic_arithmetic():
    a, b = Poly([1, 1]), Poly([1, -1])
    assert a * b == Poly([1, 0, -1])
    assert a + b == Poly([2])
    assert a - a == Poly.zero()
    assert (a ** 3) == Poly([1, 3, 3, 1])
    assert 3 * a == Poly([3, 3])
    assert a(10) == 11


def test_geometric_and_monomial():
    assert Poly.geometric(3, 2) == Poly([1, 0, 0, 1])
    assert Poly.geometric(1, 4) == Poly([1, 1, 1, 1])
    assert Poly.monomial(2, 5) == Poly([0, 0, 5])
    with pytest.raises(ValueError):
        Poly.geometric(0, 2)


def test_exact_division_examples():
    num = Poly.geometric(1, 12)
    assert num.exact_div(Poly([1, 0, 0, 1])) == Poly([1, 1, 1, 0, 0, 0, 1, 1, 1])
    with pytest.raises(NotDivisible):
        Poly([1, 1, 1]).exact_div(Poly([1, 1]))
    with pytest.raises(ZeroDivisionError):
        Poly([1]).exact_div(Poly.zero())
    assert Poly.zero().exact_div(Poly([1, 1])) == Poly.zero()


@given(coeff_lists, coeff_lists)
def test_product_then_divide_roundtrip(a_c, b_c):
    a, b = Poly(a_c), Poly(b_c)
    if not b:
        return
    assert (a * b).exact_div(b) == a


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a_c, b_c, c_c):
    a, b, c = Poly(a_c), Poly(b_c), Poly(c_c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_cyclotomic_basics():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])
    assert cyclotomic(12) == Poly([1, 0, -1, 0, 1])


def test_cyclotomic_rejects_n_below_1():
    for n in (0, -3):
        with pytest.raises(ValueError):
            cyclotomic(n)


@functools.lru_cache(maxsize=None)
def _cyclotomic_by_division(n):
    """Phi_n as t^n - 1 divided exactly by each Phi_d, d | n, d < n: the
    construction cyclotomic used before the Moebius degree ratio."""
    num = Poly.monomial(n, 1) - Poly.one()
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(_cyclotomic_by_division(d))
    return num


def test_cyclotomic_matches_the_division_oracle():
    assert cyclotomic(1) == _cyclotomic_by_division(1) == Poly([-1, 1])
    assert [n for n in range(1, 501) if cyclotomic(n) != _cyclotomic_by_division(n)] == []


def test_degree_ratio_refuses_a_degree_over_budget():
    budget = polynomial._DEGREE_BUDGET
    assert degree_ratio((budget + 1,), (1,)).degree == budget
    with pytest.raises(SearchBudgetExceeded, match="degree %d exceeds budget %d"
                       % (budget + 1, budget)):
        degree_ratio((budget + 2,), (1,))
    with pytest.raises(SearchBudgetExceeded, match="degree above 2\\^64"):
        degree_ratio((2 ** 200,), ())


@pytest.mark.parametrize("n", [1, 2, 6, 8, 12, 30])
def test_cyclotomic_product_is_t_n_minus_1(n):
    prod = Poly.one()
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == Poly.monomial(n) - Poly.one()


def test_degree_ratio_examples():
    assert cyclotomic_exponents((), ()) == ()
    assert degree_ratio((), ()) == Poly.one()
    assert cyclotomic_exponents((6,), (2,)) == (0, 0, 1, 0, 0, 1)
    assert degree_ratio((6,), (2,)) == Poly([1, 0, 1, 0, 1])
    assert degree_ratio((2, 4, 6), (1, 1, 1))(1) == 48      # |W(B3)|


# A geometric factor (b, m) is (1 - t^(b m)) / (1 - t^b) = 1 + t^b + ... + t^(b (m-1)):
# with b = 1 a flag polynomial's factor, with b = d_i and m = p^j_i a summand's.
geometric_factors = st.lists(st.tuples(st.integers(1, 6), st.integers(2, 5)), max_size=4)


def _as_ratio(factors):
    return [b * m for b, m in factors], [b for b, _m in factors]


def _as_poly(factors):
    out = Poly.one()
    for b, m in factors:
        out = out * Poly.geometric(b, m)
    return out


@given(geometric_factors, geometric_factors)
@example([(1, 2), (1, 3), (1, 4)], [(1, 2), (2, 2)])     # (1 + t^2) divides [4]_t
@example([(1, 2), (1, 3)], [(2, 2)])                     # ... but not [2]_t [3]_t
def test_exponent_containment_is_exact_division(total, summand):
    (t_num, t_den), (s_num, s_den) = _as_ratio(total), _as_ratio(summand)
    have, need = cyclotomic_exponents(t_num, t_den), cyclotomic_exponents(s_num, s_den)
    assert min(have, default=0) >= 0 and min(need, default=0) >= 0
    expected = Poly.one()
    for n, e in enumerate(have, 1):
        expected = expected * cyclotomic(n) ** e
    assert expected == _as_poly(total) == degree_ratio(t_num, t_den)
    contained = all(s <= t for s, t in zip(need, have + (0,) * len(need)))
    try:
        quotient = _as_poly(total).exact_div(_as_poly(summand))
    except NotDivisible:
        assert not contained
    else:
        assert contained
        assert degree_ratio(t_num + s_den, t_den + s_num) == quotient


def old_cyclotomic_exponents(num, den):
    """cyclotomic_exponents as it was before the signed degree counts:
    e_n counted by trial of every n up to the largest degree."""
    num, den = list(num), list(den)
    e = [sum(a % n == 0 for a in num) - sum(b % n == 0 for b in den)
         for n in range(1, max(num + den, default=0) + 1)]
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


degree_lists = st.lists(st.integers(1, 60), max_size=12)


@given(degree_lists, degree_lists)
@example([], [])
@example([2, 8, 12, 14, 18, 20, 24, 30], [1] * 8)               # E8 complete flag
@example([6, 4, 6], [4, 6, 6])                                  # fully cancelling
def test_cyclotomic_exponents_match_old_counting(num, den):
    assert cyclotomic_exponents(num, den) == old_cyclotomic_exponents(num, den)
    assert cyclotomic_exponents(num + den, den + num) == ()


@given(st.dictionaries(st.integers(1, 30), st.integers(0, 3), max_size=5))
@example({})
@example({1: 1})
@example({1: 2, 6: 1})
@example({30: 2})
def test_cyclotomic_degrees_invert_cyclotomic_exponents(exponents):
    e = tuple(exponents.get(n, 0) for n in range(1, max(exponents, default=0) + 1))
    sign, num, den = cyclotomic_degrees(e)
    stripped = list(e)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    assert cyclotomic_exponents(num, den) == tuple(stripped)
    expected = Poly.one()
    for n, k in exponents.items():
        expected = expected * cyclotomic(n) ** k
    assert sign * degree_ratio(num, den) == expected


def test_str():
    assert str(Poly([1, 0, 2])) == "1 + 2*t^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly([0, 1])) == "t"
