"""The shared integer primitives against brute force."""

import pytest
from hypothesis import given, strategies as st

import jcalc.integers
from jcalc.errors import SearchBudgetExceeded
from jcalc.idempotent_lab import ModMatrix
from jcalc.integers import factorize, int_det, is_prime, mobius, padic_valuation, prime_power

from test_acceptance import _int_determinant


def brute_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, n))


@given(st.integers(min_value=-5, max_value=5000))
def test_primality(n):
    assert is_prime(n) == brute_is_prime(n)


@given(st.integers(min_value=1, max_value=3000))
def test_mobius_sums_to_zero_over_divisors(n):
    # sum_{d | n} mu(d) is 1 for n = 1 and 0 otherwise, which fixes mu
    assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == (n == 1)


def test_mobius_examples():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@given(st.integers(min_value=-5, max_value=100000))
def test_factorization(n):
    factors = factorize(n)
    primes = [p for p, _e in factors]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and e >= 1 for p, e in factors)
    product = 1
    for p, e in factors:
        product *= p ** e
    assert product == (n if n >= 2 else 1)


def test_factorization_refuses_a_cofactor_beyond_the_trial_budget():
    n = 2 ** 64 + 13   # no prime factor up to the budget
    for call in (factorize, is_prime, prime_power, mobius):
        with pytest.raises(SearchBudgetExceeded, match="factoring %d .* budget %d"
                           % (n, jcalc.integers._TRIAL_BUDGET)):
            call(n)


def test_factorization_finishes_up_to_the_square_of_the_budget():
    budget = jcalc.integers._TRIAL_BUDGET
    # 10^12 + 39 is prime and below (budget + 1)^2; 2^80 and 10^30 shrink
    # to 1 long before the budget
    assert (budget + 1) ** 2 > 10 ** 12 + 39 and is_prime(10 ** 12 + 39)
    assert factorize(2 ** 80 * (10 ** 12 + 39)) == [(2, 80), (10 ** 12 + 39, 1)]
    assert factorize(10 ** 30) == [(2, 30), (5, 30)]


@given(st.integers(min_value=2, max_value=5000))
def test_a_small_budget_factors_exactly_or_refuses(n):
    # with budget 10, n is refused exactly when its part prime to 2..10
    # is at least 11^2
    full, rest = factorize(n), n
    for p, e in full:
        if p <= 10:
            rest //= p ** e
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jcalc.integers, "_TRIAL_BUDGET", 10)
        if rest >= 121:
            with pytest.raises(SearchBudgetExceeded):
                factorize(n)
        else:
            assert factorize(n) == full


@given(st.integers(min_value=-5, max_value=5000))
def test_prime_power(m):
    prime_divisors = [p for p in range(2, m + 1) if m % p == 0 and brute_is_prime(p)]
    expected = None
    if len(prime_divisors) == 1:
        p, e = prime_divisors[0], 1
        while p ** e < m:
            e += 1
        expected = (p, e)
    assert prime_power(m) == expected


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_padic_valuation(n, p):
    v = padic_valuation(n, p)
    assert n % p ** v == 0 and n % p ** (v + 1) != 0
    assert padic_valuation(-n, p) == v


def test_padic_valuation_of_zero_is_rejected():
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


@pytest.mark.parametrize("p", [1, 0, -1, -2])
def test_padic_valuation_needs_p_at_least_two(p):
    with pytest.raises(ValueError):
        padic_valuation(5, p)


square = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(square, st.integers(min_value=2, max_value=60))
def test_det_against_cofactor_expansion(rows, m):
    assert int_det(rows) == _int_determinant(rows)
    assert ModMatrix(m, rows).det() == _int_determinant(rows) % m


def test_det_of_the_empty_matrix_is_one():
    assert int_det([]) == 1
    assert ModMatrix.zero(7, 0).det() == 1
