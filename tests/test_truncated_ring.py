import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from jcalc.errors import ContextMismatch, ParseError, SearchBudgetExceeded
from jcalc.kac_table import TorsionData
from jcalc.truncated_ring import (
    RingElement,
    codim,
    deglex_key,
    j_from_generators,
    lucas_binom,
    subring_closure,
)

D35 = TorsionData(2, (3, 5), (2, 1))
D11 = TorsionData(2, (1, 1), (2, 2))
F2X4 = TorsionData(2, (1,), (2,))       # (Z/2)[x]/(x^4)
F2PAIR = TorsionData(2, (3, 5), (1, 1))  # (Z/2)[x1,x2]/(x1^2,x2^2)
R256 = TorsionData(2, (1, 3), (4, 4))


class TestLucas:
    def test_examples(self):
        assert lucas_binom(10, 4, 3) == 0
        assert lucas_binom(17, 0, 5) == 1
        for m in range(8):
            assert lucas_binom(7, m, 2) != 0

    @given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([2, 3, 5, 7]))
    def test_against_exact_binomial(self, n, m, p):
        assert lucas_binom(n, m, p) == math.comb(n, m) % p

    @pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (5, 3)])
    def test_all_digits_maximal_never_vanish(self, p, k):
        n = p ** k - 1
        for m in range(0, n + 1, max(1, n // 97)):
            assert lucas_binom(n, m, p) != 0


def oracle_lead(elem):
    """The DegLex-greatest monomial of elem, searched afresh on every call."""
    terms = elem.terms
    return max(terms, key=lambda m: deglex_key(m, elem.data)) if terms else None


def deglex_compare(a, b, data):
    """-1, 0 or 1 as a is below, equal to or above b in DegLex."""
    ka, kb = deglex_key(a, data), deglex_key(b, data)
    return (ka > kb) - (ka < kb)


class TestDegLex:
    def test_codim(self):
        assert codim((2, 0), D35) == 6
        assert codim((0, 1), D35) == 5

    def test_spec_examples(self):
        assert deglex_compare((2, 0), (0, 1), D35) == 1
        assert deglex_compare((1, 1), (1, 1), D35) == 0
        assert deglex_compare((2, 0), (0, 2), D11) == -1

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            deglex_compare((1,), (1, 0), D35)

    monomials = st.tuples(st.integers(0, 3), st.integers(0, 1))

    @given(monomials, monomials, monomials)
    def test_total_order(self, a, b, c):
        ab = deglex_compare(a, b, D35)
        ba = deglex_compare(b, a, D35)
        assert ab == -ba
        assert (ab == 0) == (a == b)
        if deglex_compare(a, b, D35) <= 0 and deglex_compare(b, c, D35) <= 0:
            assert deglex_compare(a, c, D35) <= 0

    @given(monomials, monomials)
    def test_refines_componentwise_order(self, a, b):
        if all(x <= y for x, y in zip(a, b)):
            assert deglex_compare(a, b, D35) <= 0


class TestRingElement:
    def test_truncation_relation(self):
        x = RingElement.generator(F2X4, 1)
        assert not x * x ** 3
        assert x ** 3

    def test_identity(self):
        one = RingElement.one(D35)
        a = RingElement(D35, {(1, 0): 1, (0, 1): 1})
        assert one * a == a

    def test_geometric_example_mod2(self):
        x = RingElement.generator(F2X4, 1)
        one = RingElement.one(F2X4)
        a = one + x
        b = one + x + x ** 2 + x ** 3
        assert a * b == one  # (1+x)(1+x+x^2+x^3) = 1 + x^4 = 1

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            RingElement.one(D35) * RingElement.one(D11)

    small_elements = st.builds(
        lambda terms: RingElement(D11, terms),
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.integers(0, 1), max_size=4))

    @given(small_elements, small_elements, small_elements)
    @settings(max_examples=80)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_leading_monomial(self):
        a = RingElement(D35, {(0, 0): 1, (1, 1): 1, (2, 0): 1})
        assert a.leading_monomial() == (1, 1)  # codim 8 beats 6
        assert RingElement.zero(D35).leading_monomial() is None

    @given(small_elements, small_elements)
    @settings(max_examples=60)
    def test_cached_lead_matches_the_oracle(self, a, b):
        for elem in (a, b, a * b, a + b):
            assert elem.leading_monomial() == oracle_lead(elem)
            assert elem.leading_monomial() == oracle_lead(elem)    # the kept lead


class TestTextFormat:
    def test_round_trip(self):
        data = TorsionData(3, (1, 4), (2, 1))
        a = RingElement(data, {(0, 0): 1, (3, 1): 2, (1, 0): 1})
        assert RingElement.parse(data, a.to_text()) == a

    def test_examples(self):
        data = TorsionData(3, (1, 4), (2, 1))
        e = RingElement.parse(data, "1 + 2*x1^3*x2")
        assert e.coefficient((0, 0)) == 1
        assert e.coefficient((3, 1)) == 2
        assert not RingElement.parse(data, "0")

    def test_rejects_exponent_at_cap(self):
        with pytest.raises(ParseError):
            RingElement.parse(F2X4, "x1^4")
        with pytest.raises(ParseError):
            RingElement.parse(F2X4, "x1^2*x1^2")

    def test_rejects_noncanonical_coefficient(self):
        with pytest.raises(ParseError):
            RingElement.parse(F2X4, "2*x1")
        with pytest.raises(ParseError):
            RingElement.parse(F2X4, "x3")


class TestSubringClosure:
    def test_empty_generators(self):
        basis = subring_closure([], F2X4)
        assert len(basis) == 1
        assert basis[0] == RingElement.one(F2X4)

    def test_x_squared_example(self):
        x = RingElement.generator(F2X4, 1)
        basis = subring_closure([x ** 2])
        leads = {e.leading_monomial() for e in basis}
        assert leads == {(0,), (2,)}

    def test_nilpotent_product_example(self):
        x1x2 = RingElement.monomial(F2PAIR, (1, 1))
        basis = subring_closure([x1x2])
        leads = {e.leading_monomial() for e in basis}
        assert leads == {(0, 0), (1, 1)}

    def test_full_ring_from_generators(self):
        gens = [RingElement.generator(D11, 1), RingElement.generator(D11, 2)]
        basis = subring_closure(gens)
        assert len(basis) == D11.ring_rank

    def test_descending_order_and_distinct_leads(self):
        gens = [RingElement.generator(D11, 1) + RingElement.generator(D11, 2)]
        basis = subring_closure(gens)
        keys = [deglex_key(e.leading_monomial(), D11) for e in basis]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)

    def test_whole_ring_closure_builds_no_validated_element(self, monkeypatch):
        gens = [RingElement.generator(R256, 1), RingElement.generator(R256, 2)]
        calls = []
        init = RingElement.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RingElement, "__init__", counted)
        basis = subring_closure(gens, R256)
        assert len(basis) == R256.ring_rank == 256
        assert {e.leading_monomial() for e in basis} == {oracle_lead(e) for e in basis}
        assert calls == []

    def test_work_budget(self):
        # x1 and x2 each plus ten terms drawn by random.Random(1): a closure
        # to the whole ring of rank 1,024 that ran 11-13 s with no work budget
        data, gens = _elements(
            TorsionData(2, (1, 3), (5, 5)),
            "x1 + x1^8*x2^4 + x1^13*x2^6 + x1^31*x2 + x1^16*x2^7 + x1^17*x2^14 + x1^6*x2^20"
            " + x2^28 + x1^30*x2^24 + x1^24*x2^27 + x1^31*x2^28",
            "x1 + x2 + x1*x2 + x1^18*x2 + x1^27*x2 + x1^26*x2^6 + x1^24*x2^13 + x1^22*x2^14"
            " + x1^31*x2^14 + x1^14*x2^29 + x1^14*x2^28")
        with pytest.raises(SearchBudgetExceeded,
                           match=r"would form (\d+) coefficient products, past the budget "
                                 r"of 524288") as info:
            subring_closure(gens, data)
        assert int(re.search(r"form (\d+)", str(info.value)).group(1)) > 2 ** 19

    def test_ring_rank_budget(self):
        at_budget = TorsionData(2, (1,), (12,))            # rank 4096
        assert subring_closure([RingElement.generator(at_budget, 1) ** 4095]) == [
            RingElement.generator(at_budget, 1) ** 4095, RingElement.one(at_budget)]
        for data in (TorsionData(2, (1,), (13,)), TorsionData(3, (1, 4), (4, 4)),
                     TorsionData(2, (1,), (10 ** 6,))):
            with pytest.raises(SearchBudgetExceeded, match=r"rank %d\^%d .* budget of 4096"
                               % (data.p, sum(data.k))):
                subring_closure([], data)


def _reduce(elem, pivots):
    """Eliminate leading monomials against monic pivots keyed by their leads."""
    while True:
        lead = elem.leading_monomial()
        if lead is None or lead not in pivots:
            return elem
        elem = elem - pivots[lead].scale(elem.coefficient(lead))


def _closure_by_elements(gens, data):
    """Oracle: the closure on RingElement rows, as subring_closure computed it before.

    The same V <- V + sum g_i V growth and the same top-only elimination,
    with every product a RingElement and every leading monomial found
    through deglex_key; returns the monic pivots in descending DegLex.
    """
    p = data.p
    pivots = {}

    def insert(elem):
        elem = _reduce(elem, pivots)
        lead = elem.leading_monomial()
        if lead is None:
            return None
        pivots[lead] = elem.scale(pow(elem.coefficient(lead), p - 2, p))
        return pivots[lead]

    frontier = [insert(RingElement.one(data))]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                added = insert(a * g)
                if added is not None:
                    fresh.append(added)
        frontier = fresh
    return sorted(pivots.values(), key=lambda e: deglex_key(e.leading_monomial(), data),
                  reverse=True)


def _closure_by_basis_products(gens, data):
    """Oracle: the subring closure that multiplies the frontier by the whole basis.

    Seeds the span with 1 and the generators, then adjoins the product of
    every new basis vector with every basis vector until nothing new
    appears.  Returns the pivots keyed by leading monomial.
    """
    p = data.p
    pivots = {}

    def insert(elem):
        elem = _reduce(elem, pivots)
        lead = elem.leading_monomial()
        if lead is None:
            return None
        pivots[lead] = elem.scale(pow(elem.coefficient(lead), p - 2, p))
        return pivots[lead]

    frontier = [insert(RingElement.one(data))]
    frontier += [e for e in map(insert, gens) if e is not None]
    while frontier:
        basis_now = list(pivots.values())
        fresh = []
        for a in frontier:
            for b in basis_now:
                added = insert(a * b)
                if added is not None:
                    fresh.append(added)
        frontier = fresh
    return pivots


# Small rings take dense generators; the rings of rank >= 256 take
# binomials, which keeps the oracle's basis-times-basis products affordable.
DIFFERENTIAL_CONTEXTS = [
    (D11, 6),                                   # rank 16
    (TorsionData(3, (1, 4), (1, 2)), 4),        # rank 27
    (R256, 2),                                  # rank 256
    (TorsionData(2, (1, 1, 3), (3, 3, 2)), 2),  # rank 256
    (TorsionData(3, (1, 2, 4), (2, 2, 2)), 2),  # rank 729
]


@st.composite
def closure_cases(draw):
    data, max_terms = draw(st.sampled_from(DIFFERENTIAL_CONTEXTS))
    monomial = st.tuples(*[st.integers(0, cap - 1) for cap in data.caps])
    element = st.dictionaries(monomial, st.integers(1, data.p - 1),
                              min_size=1, max_size=max_terms)
    return data, [RingElement(data, terms) for terms in draw(st.lists(element, max_size=3))]


class TestClosureAgainstBasisProducts:
    @given(closure_cases())
    @example((R256, [RingElement.generator(R256, 1), RingElement.generator(R256, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_same_span(self, case):
        data, gens = case
        old = _closure_by_basis_products(gens, data)
        new = subring_closure(gens, data)
        assert len(new) == len(old)
        assert {e.leading_monomial() for e in new} == set(old)
        assert not any(_reduce(e, old) for e in new)


# Dense generator sets over rings of rank 16 to 243, p = 2 and p = 3: the
# packed-key closure must return the oracle's basis element for element.
DENSE_CONTEXTS = [
    (D11, 8),                                   # rank 16
    (TorsionData(3, (1, 4), (1, 2)), 8),        # rank 27
    (TorsionData(2, (1, 3, 5), (2, 2, 2)), 6),  # rank 64
    (TorsionData(3, (4, 10), (2, 2)), 6),       # rank 81
    (TorsionData(2, (3, 5, 9), (3, 2, 2)), 4),  # rank 128
    (TorsionData(3, (1, 4, 10), (2, 1, 2)), 4), # rank 243
]
C4_8 = TorsionData(2, (1, 3), (2, 3))           # x1^4 = x2^8 = 0
C9_3 = TorsionData(3, (1, 4), (2, 1))           # x1^9 = x2^3 = 0


def _elements(data, *texts):
    return data, [RingElement.parse(data, t) for t in texts]


@st.composite
def dense_cases(draw):
    """Up to three generators x_i^e + (extra terms), e in {1, p}: closures
    from a few elements to the whole ring, through dense products."""
    data, max_terms = draw(st.sampled_from(DENSE_CONTEXTS))
    monomial = st.tuples(*[st.integers(0, cap - 1) for cap in data.caps])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        i, e = draw(st.integers(0, data.r - 1)), draw(st.sampled_from([1, data.p]))
        terms = {tuple(e if t == i else 0 for t in range(data.r)): 1}
        terms.update(draw(st.dictionaries(monomial, st.integers(1, data.p - 1),
                                          max_size=max_terms)))
        gens.append(RingElement(data, terms))
    return data, gens


class TestClosureAgainstElementRows:
    @given(dense_cases())
    # exponent sums that reach the cap exactly: 2 + 2 = 4 and 4 + 4 = 8 at
    # p = 2, where the cap is a power of two; 4 + 5 = 9 and 3 + 6 = 9 at p = 3
    @example(_elements(C4_8, "x1^2*x2^4", "x1^3 + x1*x2^4"))
    @example(_elements(C4_8, "x1^2 + x2^4 + x1^3*x2^7"))
    @example(_elements(C9_3, "x1^4 + x2", "x1^5 + 2*x1^8*x2^2"))
    @example(_elements(C9_3, "x1^3 + 2*x1^6*x2"))
    # sums one below the cap: 1 + 2 = 3 and 3 + 4 = 7 at p = 2, 4 + 4 = 8 at p = 3
    @example(_elements(C4_8, "x1 + x2^3", "x1^2 + x2^4"))
    @example(_elements(C9_3, "x1^4 + x2^2"))
    @settings(max_examples=100, deadline=None)
    def test_same_basis_in_the_same_order(self, case):
        data, gens = case
        assert subring_closure(gens, data) == _closure_by_elements(gens, data)


class TestDecodedBasis:
    """Each basis element comes from its pivot row with no validation and a
    recorded lead: it must equal the validated element of the same terms
    and carry the lead a fresh search finds."""

    @given(st.one_of(dense_cases(), closure_cases()))
    @example(_elements(C4_8, "x1^2*x2^4", "x1^3 + x1*x2^4"))
    @example(_elements(C9_3, "x1^4 + x2", "x1^5 + 2*x1^8*x2^2"))
    @settings(max_examples=100, deadline=None)
    def test_elements_keep_the_invariants_and_their_leads(self, case):
        data, gens = case
        for e in subring_closure(gens, data):
            checked = RingElement(data, e.terms)
            assert checked == e and hash(checked) == hash(e)
            assert e.leading_monomial() == oracle_lead(e) == checked.leading_monomial()


class TestJFromSubring:
    def test_trivial_subring_gives_k(self):
        assert j_from_generators([], D35) == (2, 1)

    def test_x_squared_gives_one(self):
        x = RingElement.generator(F2X4, 1)
        assert j_from_generators([x ** 2], F2X4) == (1,)

    def test_generator_itself_gives_zero(self):
        x = RingElement.generator(F2X4, 1)
        assert j_from_generators([x], F2X4) == (0,)

    def test_inhomogeneous_leading_term(self):
        # 1 + x^2 has leading monomial x^2 = x^(2^1)
        one = RingElement.one(F2X4)
        x = RingElement.generator(F2X4, 1)
        assert j_from_generators([one + x ** 2], F2X4) == (1,)

    @given(st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]),
                    max_size=3),
           st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 2)]), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_larger_subring_smaller_j(self, monos_s, monos_t):
        s = [RingElement.monomial(D11, m) for m in monos_s]
        t = [RingElement.monomial(D11, m) for m in monos_t]
        j_small = j_from_generators(s, D11)
        j_big = j_from_generators(s + t, D11)
        assert all(a <= b for a, b in zip(j_big, j_small))
