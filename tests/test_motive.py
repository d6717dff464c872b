import itertools
import math
import random
import time

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from jcalc import motive
from jcalc.errors import (
    InvalidInput,
    MissingPrime,
    NegativeCoefficient,
    NoDivisor,
    NonIntegralRank,
    NotDivisible,
    NotGenericallySplit,
    SearchBudgetExceeded,
)
from jcalc.jinvariant import JInvariant, enumerate_admissible
from jcalc.kac_table import TorsionData, parse_form, table_rows, torsion_data
from jcalc.motive import (
    MotiveDecomposition,
    canonical_p_dimension,
    decompose,
    integral_decomposition,
    is_m_positive,
    is_sum_indecomposable,
    rational_cycle_counts,
    rost_poincare,
    torsion_index_bound,
)
from jcalc.integers import factorize
from jcalc.polynomial import Poly, cyclotomic, cyclotomic_exponents, degree_ratio
from jcalc.root_data import (
    DynkinType,
    poincare_complete_flag,
    poincare_homogeneous,
    weyl_degrees,
)

S2 = Poly([1, 0, 0, 1])                    # 1 + t^3
S3 = Poly([1, 0, 0, 0, 1, 0, 0, 0, 1])    # 1 + t^4 + t^8
SUMMANDS = [(2, S2), (3, S3)]


class TestRostPoincare:
    def test_examples(self):
        assert rost_poincare(TorsionData(2, (3,), (1,)), (1,)) == S2
        assert rost_poincare(TorsionData(3, (4,), (1,)), (1,)) == S3
        assert rost_poincare(TorsionData(2, (3, 5), (1, 1)), (0, 0)) == Poly.one()

    def test_value_at_one_and_degree(self):
        for form, p in table_rows(6):
            data = torsion_data(form, p)
            for J in enumerate_admissible(form, p):
                poly = rost_poincare(data, J)
                assert poly(1) == p ** J.weight == torsion_index_bound(J)
                assert poly.degree == canonical_p_dimension(data, J)
                assert poly.coeffs == poly.coeffs[::-1]

    def test_base_change_monotonicity(self):
        # J' componentwise below J makes the smaller summand divide the
        # larger with nonnegative quotient
        for name, p in (("E8", 2), ("Spin13", 2), ("SO12", 2), ("E6ad", 3)):
            form = parse_form(name)
            data = torsion_data(form, p)
            values = enumerate_admissible(form, p)
            for small in values:
                for big in values:
                    if small.precedes(big):
                        q = rost_poincare(data, big).exact_div(rost_poincare(data, small))
                        assert q.is_nonnegative


class TestDecompose:
    def test_f4_flag_mod2(self):
        dec = decompose(parse_form("F4"), 2, (1,))
        assert dec.summand_poincare == S2
        assert dec.summand_count == 1152 // 2
        assert dec.total_poincare == poincare_complete_flag(DynkinType("F", 4))

    def test_severi_brauer_projective_space(self):
        # SB(D_p) for a degree-5 algebra: X = P^4, one copy of the summand
        form = parse_form("A4ad")
        dec = decompose(form, 5, (1,), theta={2, 3, 4})
        assert dec.total_poincare == Poly.geometric(1, 5)
        assert dec.multiplicities == Poly.one()

    def test_zero_j_gives_tate_points(self):
        dec = decompose(parse_form("E8"), 2, (0, 0, 0, 0))
        assert dec.summand_poincare == Poly.one()
        assert dec.multiplicities == dec.total_poincare

    def test_impossible_combination_signals(self):
        # a point (full theta) cannot carry a nontrivial summand; the error
        # names the cyclotomic factor the point lacks
        e8 = parse_form("E8")
        with pytest.raises(NotDivisible) as exc:
            decompose(e8, 5, (1,), theta=set(range(1, 9)))
        assert str(exc.value) == ("Phi_5 divides the summand 1 times, "
                                  "the flag polynomial 0 times")
        with pytest.raises(NegativeCoefficient) as exc:
            decompose(parse_form("D4pgo"), 2, (1, 1, 0), theta={1, 2, 3})
        assert str(exc.value) == "quotient coefficient of t^1 is -1"

    def test_generic_splitness_gate(self):
        e8 = parse_form("E8")
        theta = set(range(1, 9)) - {7}
        with pytest.raises(NotGenericallySplit) as exc:
            decompose(e8, 5, (1,), theta=theta, tits_index=1, splitting_degree=8)
        assert str(exc.value) == ("the splitting vertices 2, 3, 4, 5 of E8 at d=1, q=8 "
                                  "all lie in theta")
        # q = 5 makes any vertex split E8
        dec = decompose(e8, 5, (1,), theta=theta, tits_index=1, splitting_degree=5)
        assert dec.multiplicities.is_nonnegative
        b3 = parse_form("SO7")
        with pytest.raises(NotGenericallySplit):
            decompose(b3, 2, (0, 0), theta={3}, tits_index=1, splitting_degree=2)
        dec = decompose(b3, 2, (0, 0), theta={3}, tits_index=1, splitting_degree=2,
                        pfister=True)
        assert dec.summand_poincare == Poly.one()
        d4 = parse_form("D4so")
        with pytest.raises(NotGenericallySplit) as exc:
            decompose(d4, 2, (0, 0), theta={1}, tits_index=2, splitting_degree=2,
                      pfister=False)
        assert str(exc.value) == "D4so at d=2, q=2 has no splitting vertex"

    def test_tits_data_is_checked(self):
        e8 = parse_form("E8")
        for tits in ({"tits_index": 1}, {"splitting_degree": 2},
                     {"tits_index": 0, "splitting_degree": 2},
                     {"tits_index": -3, "splitting_degree": 2},
                     {"tits_index": 1, "splitting_degree": 0}):
            with pytest.raises(InvalidInput):
                decompose(e8, 2, (1, 1, 1, 1), **tits)
            with pytest.raises(ValueError):
                decompose(e8, 2, (1, 1, 1, 1), **tits)

    def test_pfister_needs_tits_data(self):
        b3 = parse_form("SO7")
        for pfister in (True, False):
            with pytest.raises(InvalidInput) as exc:
                decompose(b3, 2, (0, 0), theta={3}, pfister=pfister)
            assert str(exc.value) == ("pfister needs the Tits data tits_index and "
                                      "splitting_degree")
        assert decompose(b3, 2, (0, 0), theta={3}).summand_poincare == Poly.one()

    def test_twists(self):
        dec = decompose(parse_form("A4ad"), 5, (1,), theta={1, 3, 4})
        # Gr(2,5): [5 choose 2]_t / (1 + t + ... + t^4) = 1 + t^2
        assert dec.multiplicities == Poly([1, 0, 1])
        assert dec.multiplicities(1) * 5 == dec.total_poincare(1)


def _product(degrees) -> Poly:
    out = Poly.one()
    for a in degrees:
        out = out * (Poly.one() - Poly.monomial(a))
    return out


# A quotient with a geometric pairing, (b m) over b, shuffled in with common
# degrees and with stray degrees on either side that may or may not pair.
paired_degrees = st.tuples(
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), max_size=4),
    st.lists(st.integers(1, 12), max_size=3),
    st.lists(st.integers(1, 12), max_size=3),
    st.lists(st.integers(1, 12), max_size=3),
    st.randoms(use_true_random=False))


@given(paired_degrees)
@example(([(2, 3), (1, 6)], [], [], [], random.Random(0)))
@example(([(3, 3), (2, 3)], [], [], [], random.Random(0)))     # greedy: 6 to 3, 9 left for 2
@example(([], [4], [6, 1], [2, 3], random.Random(0)))           # Phi_6, not paired
def test_geometric_pairing_certifies_only_nonnegative_polynomials(case):
    pairs, common, extra_num, extra_den, rng = case
    num = [b * m for b, m in pairs] + common + extra_num
    den = [b for b, _m in pairs] + common + extra_den
    rng.shuffle(num)
    rng.shuffle(den)
    if motive._geometric_pairing(num, den):
        quotient = degree_ratio(num, den)
        assert quotient * _product(den) == _product(num)
        assert quotient.is_nonnegative
    # the planted pairs and common degrees are a full pairing, so a maximum
    # matching finds one
    assert motive._geometric_pairing(num, den) or extra_num or extra_den


def test_geometric_pairing_is_sufficient_only():
    assert motive._geometric_pairing((6, 4), (2, 3))         # 6 over 3, 4 over 2
    assert motive._geometric_pairing((2, 3, 5), (1, 5, 1))   # 5 cancels
    # no polynomial: nothing pairs 15
    assert not motive._geometric_pairing((6, 10), (2, 15))
    # 1 - t + t^2 (that is Phi_6), negative
    assert not motive._geometric_pairing((6, 1), (2, 3))
    # unmatched numerator degrees are no geometric sums
    assert not motive._geometric_pairing((4, 6), (2,))
    # 1 + t^2 + t^3 + t^4 + t^6 is nonnegative, but 5 pairs with neither 2 nor 3
    assert not motive._geometric_pairing((5, 6), (2, 3))
    assert degree_ratio((5, 6), (2, 3)) == Poly([1, 0, 1, 1, 1, 0, 1])
    # 9 over 3 and 6 over 2, although 3 divides 6 too
    assert motive._geometric_pairing((6, 9), (2, 3))
    assert motive._geometric_pairing((6, 9, 12), (2, 3, 4))


def _pairing_by_permutations(num, den):
    """Some order of num puts a multiple of den[i] at every place i."""
    return len(num) == len(den) and any(
        all(a % b == 0 for a, b in zip(order, den)) for order in itertools.permutations(num))


def test_geometric_pairing_matches_permutation_oracle():
    multisets = [m for size in range(4)
                 for m in itertools.combinations_with_replacement(range(1, 9), size)]
    found = 0
    for num in multisets:
        for den in multisets:
            expected = _pairing_by_permutations(num, den)
            assert motive._geometric_pairing(num, den) == expected, (num, den)
            found += expected
    assert found > 1000


# Each (b, m, r) puts b in the denominator and b m in the numerator, or r
# in its place when r is drawn, so some lists pair and some do not.
near_pairings = st.tuples(
    st.lists(st.tuples(st.integers(1, 8), st.integers(1, 4),
                       st.one_of(st.none(), st.integers(1, 24))), max_size=6),
    st.randoms(use_true_random=False))


@given(near_pairings)
@example(([(2, 3, None), (3, 3, None)], random.Random(0)))
@example(([(2, 2, 12), (3, 2, None), (4, 3, None), (5, 2, None), (6, 1, 9)],
          random.Random(0)))
def test_geometric_pairing_matches_permutation_oracle_on_longer_lists(case):
    triples, rng = case
    num = [b * m if r is None else r for b, m, r in triples]
    den = [b for b, _m, _r in triples]
    rng.shuffle(num)
    assert motive._geometric_pairing(num, den) == _pairing_by_permutations(num, den)


def _decompose_by_division(form, p, J, theta):
    """decompose as it was before exponent vectors: the summand as a product
    of geometric sums, the multiplicities by exact division."""
    data = torsion_data(form, p)
    total = poincare_homogeneous(form.base, theta)
    summand = Poly.one()
    for d, j in zip(data.d, J.j):
        summand = summand * Poly.geometric(d, p ** j)
    multiplicities = total.exact_div(summand)  # raises NotDivisible
    if not multiplicities.is_nonnegative:
        raise NegativeCoefficient("negative multiplicity")
    return MotiveDecomposition(summand, multiplicities, total)


def _outcome(decomposer, case):
    try:
        dec = decomposer(*case)
        return dec.summand_poincare, dec.multiplicities, dec.total_poincare
    except (NotDivisible, NegativeCoefficient) as exc:
        return type(exc)


def test_decompose_matches_exact_division():
    # every theta of the rows of rank <= 4 (D4pgo gives both failure kinds),
    # and a seeded sample of the larger exceptional rows
    cases = [(form, p, J, theta) for form, p in table_rows(4)
             for J in enumerate_admissible(form, p)
             for r in range(form.base.rank + 1)
             for theta in itertools.combinations(form.base.vertices, r)]
    small = [case for case in cases if case[0].base.rank <= 4]
    large = [case for case in cases if case[0].base.rank > 4]
    sample = small + random.Random(8).sample(large, 600)
    outcomes = [_outcome(decompose, case) for case in sample]
    assert outcomes == [_outcome(_decompose_by_division, case) for case in sample]
    assert NotDivisible in outcomes and NegativeCoefficient in outcomes


class TestNumericShadows:
    def test_canonical_p_dimension_examples(self):
        assert canonical_p_dimension(TorsionData(2, (3, 5), (1, 1)), (0, 0)) == 0
        assert canonical_p_dimension(torsion_data(parse_form("E8"), 5), (1,)) == 24

    def test_torsion_index_bound_examples(self):
        e8_2 = torsion_data(parse_form("E8"), 2)
        assert torsion_index_bound(JInvariant(e8_2, (3, 2, 1, 1))) == 128
        assert torsion_index_bound(JInvariant(e8_2, (0, 0, 0, 0))) == 1
        assert torsion_index_bound(JInvariant(torsion_data(parse_form("F4"), 3), (1,))) == 3

    def test_rational_cycle_counts_f4(self):
        data = torsion_data(parse_form("F4"), 2)
        counts = rational_cycle_counts(data, (1,), 1152)
        assert counts == {"rk_R": 576, "rank_A_rat": 576,
                          "rank_B_rat": 2 * 576 ** 2}

    def test_rational_cycle_counts_extremes(self):
        data = torsion_data(parse_form("E8"), 5)
        flag_rank = math.prod(weyl_degrees(DynkinType("E", 8)))
        at_max = rational_cycle_counts(data, (1,), flag_rank)
        assert at_max["rank_A_rat"] == at_max["rk_R"]
        at_zero = rational_cycle_counts(data, (0,), flag_rank)
        assert at_zero["rank_A_rat"] == flag_rank

    def test_rational_cycle_counts_rejects_bad_rank(self):
        data = torsion_data(parse_form("F4"), 2)
        with pytest.raises(NonIntegralRank):
            rational_cycle_counts(data, (1,), 1151)


class TestMPositive:
    def test_examples(self):
        assert is_m_positive(Poly.geometric(1, 12), 6, SUMMANDS)
        assert not is_m_positive(S2, 6, SUMMANDS)
        assert not is_m_positive(Poly.zero(), 6, SUMMANDS)

    def test_missing_prime(self):
        with pytest.raises(MissingPrime):
            is_m_positive(Poly.one(), 6, [(2, S2)])

    def test_non_positive_m_rejected(self):
        # factorize(m) is empty below 2, which would make every divisor
        # m-positive for m = 0 or m < 0
        for m in (0, -6):
            with pytest.raises(ValueError):
                is_m_positive(Poly.one(), m, SUMMANDS)
            with pytest.raises(ValueError):
                integral_decomposition(Poly([1, 1]), m, [(2, Poly.one())])
        assert is_m_positive(Poly([1, 1]), 1, [])

    def test_a_repeated_prime_is_invalid_input(self):
        summands = [(2, S2), (3, S3), (2, Poly.one())]
        calls = [lambda: is_m_positive(Poly.geometric(1, 12), 6, summands),
                 lambda: integral_decomposition(S2 * S3, 6, summands),
                 lambda: is_sum_indecomposable(Poly.geometric(1, 12), 6, summands)]
        for call in calls:
            with pytest.raises(InvalidInput, match="^the prime 2 has more than one summand"):
                call()

    def test_zero_summand_divides_nothing(self):
        assert not is_m_positive(Poly.one(), 2, [(2, Poly.zero())])
        with pytest.raises(NoDivisor):
            integral_decomposition(Poly([1, 1]), 2, [(2, Poly.zero())])

    def test_nonnegative_quotients_required(self):
        # lcm of the two summands divides this, but the quotient by 1+t^3
        # has a negative coefficient
        lcm = cyclotomic(2) * cyclotomic(3) * cyclotomic(6) * cyclotomic(12)
        assert not is_m_positive(lcm, 6, SUMMANDS)


class TestIntegralDecomposition:
    def test_f4_z_coefficients(self):
        total = S2 * S3 * Poly([1, 1, 1, 1])
        f, mult = integral_decomposition(total, 6, SUMMANDS)
        assert f == Poly.geometric(1, 12)
        assert mult == S2
        assert f.exact_div(S2) == Poly([1, 1, 1, 0, 0, 0, 1, 1, 1])
        assert f.exact_div(S3) == Poly([1, 1, 1, 1])

    def test_all_candidates(self):
        total = S2 * S3 * Poly([1, 1, 1, 1])
        results = integral_decomposition(total, 6, SUMMANDS, all_candidates=True)
        assert [f for f, _ in results] == [Poly.geometric(1, 12), S2 * S3]

    def test_prime_case_returns_summand(self):
        total = S2 * Poly([1, 0, 1])
        f, mult = integral_decomposition(total, 2, [(2, S2)])
        assert f == S2
        assert mult == Poly([1, 0, 1])

    def test_unit_divisor(self):
        f, mult = integral_decomposition(Poly([1, 1]), 2, [(2, Poly.one())])
        assert f == Poly.one()
        assert mult == Poly([1, 1])

    def test_no_divisor(self):
        with pytest.raises(NoDivisor):
            integral_decomposition(Poly([1, 1]), 3, [(3, S3)])

    def test_indecomposability_detection(self):
        assert is_sum_indecomposable(Poly.geometric(1, 12), 6, SUMMANDS)
        assert is_sum_indecomposable(S2 * S3, 6, SUMMANDS)
        two_copies = Poly([2]) * Poly.geometric(1, 12)
        assert not is_sum_indecomposable(two_copies, 6, SUMMANDS)

    def test_lq_candidates_are_counted_against_the_budget(self, monkeypatch):
        # 2 (1 + ... + t^11) at m = 6: the coefficient box holds 3^12 = 531,441
        # polynomials, but the multiples of the summands' lcm L (degree 9) are
        # fixed by their three lowest coefficients, 3^3 = 27 candidates
        monkeypatch.setattr(motive, "_SEARCH_BUDGET", 2 ** 10)
        two_copies = Poly([2]) * Poly.geometric(1, 12)
        assert not is_sum_indecomposable(two_copies, 6, SUMMANDS)
        with pytest.raises(SearchBudgetExceeded) as exc:
            _box_indecomposable(two_copies, 6, SUMMANDS)
        assert str(exc.value) == "coefficient box of 531441 exceeds budget 1024"
        # with m = 1 the lcm is 1, so every coefficient is free
        with pytest.raises(SearchBudgetExceeded) as exc:
            is_sum_indecomposable(Poly.geometric(1, 11), 1, [])
        assert str(exc.value) == "coefficient box of 2048 exceeds budget 1024"

    def test_f_that_is_not_m_positive_is_invalid_input(self):
        # 1 + t is not divisible by 1 + t^3, so no decomposition question arises
        with pytest.raises(InvalidInput) as exc:
            is_sum_indecomposable(Poly([1, 1]), 2, SUMMANDS)
        assert str(exc.value) == "f is not m-positive, indecomposability is moot"

    def test_non_cyclotomic_total_names_its_cofactor(self):
        # (1 + t)(1 + 2t): Phi_2 comes out, 1 + 2t is no product of Phi_n
        with pytest.raises(NotDivisible) as exc:
            integral_decomposition(Poly([1, 3, 2]), 2, [(2, Poly.one())])
        assert str(exc.value) == "no Phi_n divides the cofactor 1 + 2*t of the total"

    def test_e8_flags_end_before_any_lattice(self):
        # E8 at m = 30 with generic J: three flags lack a Phi_2 the mod-2
        # summand needs, and each ends before any divisor is ranked.  The
        # fourth has a coefficient box of ~10^126, but its first candidate
        # is the lcm L of the three summands, whose only multiples in the
        # box are 0 and L.  L is minimal, but total / L has negative
        # coefficients, so it is no decomposition and the call ends there
        e8 = parse_form("E8")
        generic = {2: (3, 2, 1, 1), 3: (1, 1), 5: (1,)}
        data = {p: torsion_data(e8, p) for p in generic}
        summands = [(p, rost_poincare(data[p], j)) for p, j in generic.items()]
        expected = {8: "Phi_2 divides the p = 2 summand 4 times, the total 1 time",
                    1: "Phi_2 divides the p = 2 summand 4 times, the total 2 times",
                    7: "Phi_2 divides the p = 2 summand 4 times, the total 3 times"}
        for vertex, text in expected.items():
            total = poincare_homogeneous(DynkinType("E", 8), set(range(1, 9)) - {vertex})
            start = time.perf_counter()
            with pytest.raises(NoDivisor) as exc:
                integral_decomposition(total, 30, summands)
            assert time.perf_counter() - start < 5
            assert str(exc.value) == text
        needs = [cyclotomic_exponents(*motive.summand_degrees(data[p], JInvariant(data[p], j)))
                 for p, j in generic.items()]
        lcm = Poly.one()
        for n, e in enumerate(itertools.zip_longest(*needs, fillvalue=0), 1):
            lcm = lcm * cyclotomic(n) ** max(e)
        total = poincare_homogeneous(DynkinType("E", 8), set(range(1, 9)) - {2})
        assert lcm.degree == 76 and lcm(1) == 2 ** 7 * 3 ** 2 * 5
        cofactor = total.exact_div(lcm)
        assert [i for i, c in enumerate(cofactor) if c < 0][0] == 1 and cofactor[1] == -1
        for all_candidates in (False, True):
            start = time.perf_counter()
            with pytest.raises(NoDivisor) as exc:
                integral_decomposition(total, 30, summands, all_candidates=all_candidates)
            assert time.perf_counter() - start < 5
            assert str(exc.value) == ("the cofactor of the minimal m-positive divisor "
                                      "(degree 76) has coefficient -1 at t^1")

    def test_costly_trial_division_is_refused_first(self):
        # (1 + 3t + t^2)^150 * Phi_30, degree 308: trial division by the
        # 590 Phi_n with phi(n) <= 308 would cost 27.6M coefficient steps
        total = Poly([1, 3, 1]) ** 150 * cyclotomic(30)
        start = time.perf_counter()
        with pytest.raises(SearchBudgetExceeded) as exc:
            integral_decomposition(total, 2, [(2, Poly.one())])
        assert time.perf_counter() - start < 1
        assert "costs 27606656, over budget" in str(exc.value)


def test_cyclotomic_factors_of_the_largest_flag_fit_the_budget():
    # the E8 complete flag, degree 120, costs 1.81M of the 4.19M
    e8 = DynkinType("E", 8)
    degrees = (weyl_degrees(e8), (1,) * 8)
    assert motive._cyclotomic_factors(poincare_complete_flag(e8), "E8") == (
        1, cyclotomic_exponents(*degrees))


def old_cyclotomic_factors(f, name):
    """_cyclotomic_factors as it was before each Phi_n ran as a degree
    ratio: every trial is Poly.exact_div by cyclotomic(n)."""
    candidates = motive._totients(f.degree)
    work = f.degree * sum(t for _n, t in candidates)
    if work > motive._DIVISION_BUDGET:
        raise SearchBudgetExceeded("dividing %s by each Phi_n with phi(n) <= %d costs %d, "
                                   "over budget %d"
                                   % (name, f.degree, work, motive._DIVISION_BUDGET))
    e = []
    for n, t in candidates:
        if t <= f.degree:
            e += [0] * (n - len(e))
            try:
                while True:
                    f = f.exact_div(cyclotomic(n))
                    e[-1] += 1
            except NotDivisible:
                pass
    if f.degree > 0:
        raise NotDivisible("no Phi_n divides the cofactor %s of %s" % (f, name))
    return f[0], tuple(e)


def _factor_outcome(factor, f):
    try:
        return factor(f, "the total")
    except (NotDivisible, SearchBudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@example({1: 1}, -1, [])
@example({1: 2, 2: 1, 60: 1}, 6, [])
@example({}, 5, [(3, 1)])
@example({6: 1}, 1, [(1, 1)])
@given(st.dictionaries(st.integers(1, 60), st.integers(1, 3), max_size=4),
       st.integers(-6, 6).filter(bool),
       st.lists(st.tuples(st.integers(0, 60), st.integers(-2, 2).filter(bool)), max_size=2))
def test_degree_ratio_division_matches_exact_div(exponents, content, perturbation):
    # +-c * prod Phi_n^{e_n}, Phi_1 included; a perturbation adds a few
    # coefficients, which leaves a cofactor that NotDivisible must name
    coeffs = list((Poly([content]) * math.prod(
        (cyclotomic(n) ** k for n, k in exponents.items()), start=Poly.one())).coeffs)
    for i, delta in perturbation:
        coeffs += [0] * (i + 1 - len(coeffs))
        coeffs[i] += delta
    f = Poly(coeffs)
    assert (_factor_outcome(motive._cyclotomic_factors, f)
            == _factor_outcome(old_cyclotomic_factors, f))


def test_degree_ratio_division_matches_exact_div_on_flags():
    e8 = DynkinType("E", 8)
    for theta in ((), (1,), (2,), (1, 8), (3, 4, 5), (2, 3, 4, 5, 6, 7, 8)):
        f = poincare_homogeneous(e8, theta)
        assert motive._cyclotomic_factors(f, "E8") == old_cyclotomic_factors(f, "E8")


@pytest.mark.parametrize("D", [-1, 0, 1, 2, 6, 7, 30, 61])
def test_totients_are_every_n_with_small_phi(D):
    def phi(n):
        return math.prod((q - 1) * q ** (k - 1) for q, k in factorize(n))
    # phi(n) >= sqrt(n) for n > 6 bounds the brute-force search
    brute = [(n, phi(n)) for n in range(1, max(6, D * D) + 1) if phi(n) <= D]
    assert motive._totients(D) == tuple(brute)


def _divisors_by_sympy(total):
    """Every divisor of total over Z with positive leading coefficient,
    from sympy's factorization: the lattice integral_decomposition
    filtered before cyclotomic exponent vectors."""
    t = sympy.Symbol("t")
    expr = sum(c * t ** i for i, c in enumerate(total.coeffs))
    content, factors = sympy.factor_list(sympy.Poly(expr, t))
    content = abs(int(content))
    ints = [d for d in range(1, content + 1) if content % d == 0]
    if math.prod(mult + 1 for _base, mult in factors) * len(ints) > motive._SEARCH_BUDGET:
        raise SearchBudgetExceeded("divisor lattice exceeds budget")
    divisors = [Poly.one()]
    for base, mult in factors:
        base = Poly([int(base.coeff_monomial(t ** i)) for i in range(base.degree() + 1)])
        powers = [base ** e for e in range(mult + 1)]
        divisors = [d * power for d in divisors for power in powers]
    out = {}
    for d in (d * c for d in divisors for c in ints):
        d = -d if d.coeffs[-1] < 0 else d
        out[d.coeffs] = d
    return list(out.values())


def _divisors_by_exact_division(total, m, summands):
    """The m-positive divisors of total with positive leading coefficient,
    as the search found them before it ranked exponent vectors: every
    divisor of the sub-box join <= g <= e, times each positive divisor of
    the content, built by Poly products and kept when an exact division
    by each summand leaves a nonnegative quotient."""
    table = motive._summand_map(m, summands)
    c, e = motive._cyclotomic_factors(total, "the total")
    join = [0] * len(e)
    for p, poly in table.items():
        _c, need = motive._cyclotomic_factors(poly, "the p = %d summand" % p)
        if any(k > have for k, have in itertools.zip_longest(need, e, fillvalue=0)):
            raise NoDivisor("the p = %d summand has a Phi_n the total lacks" % p)
        join = [max(j, k) for j, k in itertools.zip_longest(join, need, fillvalue=0)]
    atoms = ([(cyclotomic(n), lo, hi) for n, (lo, hi) in enumerate(zip(join, e), 1)]
             + [(Poly([q]), 0, k) for q, k in factorize(abs(c))])
    if math.prod(hi - lo + 1 for _base, lo, hi in atoms) > motive._SEARCH_BUDGET:
        raise SearchBudgetExceeded("divisor sub-box exceeds budget")
    divisors = [Poly.one()]
    for base, lo, hi in atoms:
        powers = [base ** i for i in range(lo, hi + 1)]
        divisors = [d * power for d in divisors for power in powers]
    return [d for d in divisors if is_m_positive(d, m, summands)]


def _box_indecomposable(f, m, summands):
    """is_sum_indecomposable as it was before the L * q search: every g in
    the coefficient box 0 <= g <= f is tried as one part."""
    if not is_m_positive(f, m, summands):
        raise ValueError("f is not m-positive, indecomposability is moot")
    box = math.prod(c + 1 for c in f.coeffs)
    if box > motive._SEARCH_BUDGET:
        raise SearchBudgetExceeded("coefficient box of %d exceeds budget %d"
                                   % (box, motive._SEARCH_BUDGET))
    for combo in itertools.product(*(range(c + 1) for c in f.coeffs)):
        g = Poly(combo)
        if g and g != f and is_m_positive(g, m, summands) and is_m_positive(f - g, m, summands):
            return False
    return True


def _preference(f):
    return f.degree, -f(1), f.coeffs


def _integral_by_lattice(total, m, summands):
    """integral_decomposition(..., all_candidates=True) over the sympy
    lattice, with the coefficient-box search."""
    if not total:
        raise NoDivisor("the zero polynomial has no m-positive divisor")
    candidates = sorted((d for d in _divisors_by_sympy(total) if is_m_positive(d, m, summands)),
                        key=_preference)
    found = []
    for f in candidates:
        if found and f.degree > found[0].degree:
            break
        if _box_indecomposable(f, m, summands):
            found.append(f)
    if not found:
        raise NoDivisor("no m-positive divisor, or every one splits as a sum")
    return [(f, total.exact_div(f)) for f in found]


def _integral_outcomes(total, m, summands):
    """(first, every) from integral_decomposition, each a result or an error class."""
    outcomes = []
    for every in (False, True):
        try:
            outcomes.append(integral_decomposition(total, m, summands, all_candidates=every))
        except (NoDivisor, SearchBudgetExceeded) as exc:
            outcomes.append(type(exc))
    return tuple(outcomes)


def _oracle_outcomes(total, m, summands):
    """(first, every) from the lattice oracle.  A cofactor total / f with a
    negative coefficient is no decomposition: the first candidate's ends
    the call with NoDivisor, and the list drops every such candidate."""
    try:
        every = _integral_by_lattice(total, m, summands)
    except (NoDivisor, SearchBudgetExceeded) as exc:
        return type(exc), type(exc)
    kept = [(f, mult) for f, mult in every if mult.is_nonnegative]
    return (every[0] if every[0][1].is_nonnegative else NoDivisor), (kept or NoDivisor)


def _agree(new, old):
    """Identical outcomes, except where the oracle ran out of budget: the
    L * q search counts fewer candidates than the coefficient box, so it
    may answer there, but it never runs out where the oracle answered."""
    return new == old or old == (SearchBudgetExceeded, SearchBudgetExceeded)


def _ranked(total, m, summands):
    """Every m-positive divisor in the search's order, or the error class."""
    try:
        table = motive._summand_map(m, summands)
        return list(motive._m_positive_divisors(*motive._factor_all(total, table)))
    except (NoDivisor, SearchBudgetExceeded) as exc:
        return type(exc)


def _ranked_by_exact_division(total, m, summands):
    try:
        return sorted(_divisors_by_exact_division(total, m, summands), key=_preference)
    except (NoDivisor, SearchBudgetExceeded) as exc:
        return type(exc)


def _flag_cases(series, rank, thetas):
    for theta in thetas:
        total = poincare_homogeneous(DynkinType(series, rank), set(theta))
        for m in (2, 3, 6):
            yield total, m, [(p, s) for p, s in SUMMANDS if m % p == 0]


def _all_thetas(rank):
    return [c for r in range(rank + 1) for c in itertools.combinations(range(1, rank + 1), r)]


# every theta of G2 and F4, and a seeded sample of E6, at m = 2, 3, 6
FLAG_CASES = (list(_flag_cases("G", 2, _all_thetas(2))) + list(_flag_cases("F", 4, _all_thetas(4)))
              + list(_flag_cases("E", 6, random.Random(9).sample(_all_thetas(6), 6))))


@pytest.fixture
def box_search_once(monkeypatch):
    """The oracle sends many candidates to the coefficient-box search more
    than once; run each search once."""
    search, seen = _box_indecomposable, {}

    def cached(f, m, summands):
        key = (f.coeffs, m, tuple((p, s.coeffs) for p, s in summands))
        if key not in seen:
            seen[key] = search(f, m, summands)
        return seen[key]

    monkeypatch.setitem(globals(), "_box_indecomposable", cached)


def test_integral_matches_sympy_lattice_on_flags(box_search_once):
    outcomes = [_integral_outcomes(*case) for case in FLAG_CASES]
    assert all(map(_agree, outcomes, [_oracle_outcomes(*case) for case in FLAG_CASES]))
    assert NoDivisor in {first for first, _every in outcomes}
    assert SearchBudgetExceeded not in {first for first, _every in outcomes}
    assert any(isinstance(every, list) and len(every) > 1 for _first, every in outcomes)


def test_ranked_divisors_match_exact_division_on_flags():
    ranked = [_ranked(*case) for case in FLAG_CASES]
    assert ranked == [_ranked_by_exact_division(*case) for case in FLAG_CASES]
    assert sum(isinstance(r, list) and len(r) > 1 for r in ranked) > 10


# Phi_n exponents of the summands 1 + t^3 and 1 + t^4 + t^8
NEEDS = {2: {2: 1, 6: 1}, 3: {3: 1, 6: 1, 12: 1}}


@settings(max_examples=60, deadline=None)
@example({2: 1, 6: 1}, 2, 2, 2, False)
@example({4: 1}, 1, 6, 1, True)
@example({4: 1}, 2, 6, 1, True)
@example({1: 1}, 1, 2, 1, True)     # total / (1 + t^3) = t - 1: no decomposition
@given(st.dictionaries(st.integers(1, 12), st.integers(1, 2), max_size=4),
       st.integers(1, 6), st.sampled_from([2, 3, 6]), st.sampled_from([1, 2]), st.booleans())
def test_integral_matches_sympy_lattice_on_cyclotomic_products(exponents, content, m,
                                                              summand_content, over_join):
    # c * prod Phi_n^{e_n}, Phi_1 and contents above 1 included; a summand
    # with content 2 makes the content's divisors decide the answer.  With
    # over_join the summands' own Phi_n are multiplied in, so that the
    # search gets past the containment check
    if over_join:
        exponents = dict(exponents)
        for n in {n for p in (2, 3) if m % p == 0 for n in NEEDS[p]}:
            exponents[n] = exponents.get(n, 0) + 1
    total = Poly([content])
    for n, e in exponents.items():
        total = total * cyclotomic(n) ** e
    summands = [(p, s * summand_content) for p, s in SUMMANDS if m % p == 0]
    # keep each coefficient-box search small
    original = motive._SEARCH_BUDGET
    motive._SEARCH_BUDGET = 2 ** 10
    try:
        assert _agree(_integral_outcomes(total, m, summands),
                      _oracle_outcomes(total, m, summands))
        assert _ranked(total, m, summands) == _ranked_by_exact_division(total, m, summands)
    finally:
        motive._SEARCH_BUDGET = original


# The smallest m-positive polynomials for the summands 1 + t^3 and 1 + t^4 + t^8.
M_POSITIVE = {2: [S2], 3: [S3], 6: [Poly.geometric(1, 12), S2 * S3]}


@settings(max_examples=80, deadline=None)
@example(6, 1, [[1]], [])
@example(6, 2, [[0], [1]], [])
@example(2, 1, [[1, 0, 0, 1]], [])
@given(st.sampled_from([2, 3, 6]), st.sampled_from([1, 2]),
       st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(any),
                min_size=1, max_size=2),
       st.lists(st.integers(0, 1), max_size=3))
def test_lq_search_matches_box_search(m, summand_content, parts, shift):
    # f = sum of (m-positive basic) * (nonnegative q), optionally times a
    # nonnegative cofactor; both searches see the same f and budget
    summands = [(p, s * summand_content) for p, s in SUMMANDS if m % p == 0]
    f = Poly.zero()
    for basic, q in zip(itertools.cycle(M_POSITIVE[m]), parts):
        f = f + basic * Poly(q) * summand_content
    f = f * (Poly(shift) if any(shift) else Poly.one())
    original = motive._SEARCH_BUDGET
    motive._SEARCH_BUDGET = 2 ** 12
    try:
        try:
            expected = _box_indecomposable(f, m, summands)
        except SearchBudgetExceeded:
            return
        assert is_sum_indecomposable(f, m, summands) is expected
    finally:
        motive._SEARCH_BUDGET = original
