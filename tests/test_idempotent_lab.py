import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from jcalc.errors import (
    DeterminantNotOne,
    HypothesisViolated,
    InternalInconsistency,
    InvalidInput,
    NotAFamily,
    NotAlmostIdempotent,
    ParseError,
    SearchBudgetExceeded,
)
from jcalc.idempotent_lab import (
    ModMatrix,
    _crt,
    _idempotent_iteration,
    _transvection_word,
    _unimodular_pair,
    crt_split,
    lift_idempotent,
    lift_isomorphism,
    lift_orthogonal_family,
    random_idempotent_family,
    random_isomorphism_instance,
    random_unimodular,
    sl_lift,
)
from jcalc.integers import factorize, prime_power


def all_idempotents(modulus, size):
    cells = itertools.product(range(modulus), repeat=size * size)
    for flat in cells:
        m = ModMatrix(modulus, tuple(tuple(flat[i * size:(i + 1) * size])
                                     for i in range(size)))
        if m.is_idempotent:
            yield m


def old_prime_power_inverse(matrix):
    """Gauss-Jordan over Z/p^e, where units are exactly non-residues of p."""
    n, mod = matrix.size, matrix.modulus
    p = prime_power(mod)[0]
    work = [list(row) + [1 if i == j else 0 for j in range(n)]
            for i, row in enumerate(matrix.entries)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c] % p), None)
        if pivot is None:
            raise HypothesisViolated("matrix is not invertible mod %d" % mod)
        work[c], work[pivot] = work[pivot], work[c]
        inv = pow(work[c][c], -1, mod)
        work[c] = [(x * inv) % mod for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                coef = work[r][c]
                work[r] = [(x - coef * y) % mod for x, y in zip(work[r], work[c])]
    return ModMatrix(mod, tuple(tuple(row[n:]) for row in work))


def old_mod_inverse(matrix):
    """The inverse through the prime-power factors and CRT transport, an
    oracle for the U^-1 built alongside U."""
    if prime_power(matrix.modulus) is not None:
        return old_prime_power_inverse(matrix)
    splitting = crt_split(matrix.modulus)
    return splitting.combine([old_prime_power_inverse(part)
                              for part in splitting.split(matrix)])


def old_random_unimodular(rng, modulus, size):
    """U alone, by row steps: the draws random_unimodular made before it
    built U^-1 alongside U."""
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        a = rng.randrange(modulus)
        rows[i] = [(x + a * y) % modulus for x, y in zip(rows[i], rows[j])]
    return ModMatrix(modulus, rows)


def recursive_family_lift(family):
    """The family lift as a recursion that re-corners every remaining
    member at each level, which the one-pass loop replaced."""
    n = prime_power(family[0].modulus)[1]

    def rec(members, unit):
        if len(members) == 1:
            return [unit]
        e = _idempotent_iteration(unit * members[0] * unit, n)
        rest_unit = unit - e
        return [e] + rec([rest_unit * x * rest_unit for x in members[1:]], rest_unit)

    return rec(list(family), ModMatrix.identity(family[0].modulus, family[0].size))


def old_transvection_word(matrix):
    """The elimination with the last column cleared in its own block,
    which the one column loop replaced."""
    m = matrix.modulus
    size = matrix.size
    work = [list(row) for row in matrix.entries]
    ops = []

    def apply(i, j, a):
        a %= m
        if a == 0 or i == j:
            return
        work[i] = [(x + a * y) % m for x, y in zip(work[i], work[j])]
        ops.append((i, j, a))

    factors = factorize(m)
    primes = [p for p, _e in factors]

    def make_pivot_unit(c):
        needed = {}
        for p in primes:
            if work[c][c] % p == 0:
                row = next((r for r in range(c + 1, size) if work[r][c] % p != 0), None)
                if row is None:
                    raise InternalInconsistency(
                        "no unit combination in column %d despite det = 1" % c)
                needed[p] = row
        for row in set(needed.values()):
            coeff = _crt([1 if needed.get(p) == row else 0 for p in primes],
                         [p ** e for p, e in factors])
            apply(c, row, coeff)

    def make_pivot_one(c):
        if work[c][c] % m == 1:
            return
        helper = next((r for r in range(c + 1, size) if math.gcd(work[r][c], m) == 1), None)
        if helper is None:
            helper = c + 1
            u = work[c][c] % m
            apply(helper, c, (1 - work[helper][c]) * pow(u, -1, m))
        v = work[helper][c] % m
        apply(c, helper, (1 - work[c][c]) * pow(v, -1, m))

    for c in range(size - 1):
        make_pivot_unit(c)
        make_pivot_one(c)
        for r in range(size):
            if r != c and work[r][c] % m:
                apply(r, c, -work[r][c])
    last = size - 1
    if size and work[last][last] % m != 1:
        raise InternalInconsistency("trailing pivot is %d, determinant bookkeeping broken"
                                    % work[last][last])
    for r in range(last):
        if work[r][last] % m:
            apply(r, last, -work[r][last])
    if work != [list(row) for row in ModMatrix.identity(m, size).entries]:
        raise InternalInconsistency("elimination did not reach the identity")
    return ops


def triple_loop_product(a, b):
    """The product as one dot product per entry, as ModMatrix.__mul__
    computed it before rows were packed into ints."""
    cols = list(zip(*b.entries))
    return ModMatrix(a.modulus, tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
        for row in a.entries))


PRODUCT_MODULI = [2, 6, 125, 2 ** 64 + 13, 10 ** 30]


@st.composite
def square_matrices(draw, modulus, size):
    """Random canonical entries; one time in three an idempotent
    [[I_r, X], [0, 0]] with random X, its rows and columns permuted
    alike, so that is_idempotent is asked both ways."""
    entry = st.integers(0, modulus - 1)
    if draw(st.integers(0, 2)) or size == 0:
        return ModMatrix(modulus, draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                                                min_size=size, max_size=size)))
    rank = draw(st.integers(0, size))
    rows = [[int(i == j) if j < rank else draw(entry) for j in range(size)]
            if i < rank else [0] * size for i in range(size)]
    perm = draw(st.permutations(range(size)))
    return ModMatrix(modulus, [[rows[perm[i]][perm[j]] for j in range(size)]
                               for i in range(size)])


@st.composite
def matrix_pairs(draw):
    modulus = draw(st.sampled_from(PRODUCT_MODULI))
    size = draw(st.integers(0, 10))
    return draw(square_matrices(modulus, size)), draw(square_matrices(modulus, size))


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_packed_product_matches_the_triple_loop(pair):
    a, b = pair
    assert a * b == triple_loop_product(a, b)
    assert b * a == triple_loop_product(b, a)
    for x in pair:
        assert x.is_idempotent == (triple_loop_product(x, x) == x)


def test_product_fields_at_their_largest():
    # every entry m - 1, so every field of the packed sum reaches size*(m-1)**2
    for modulus in PRODUCT_MODULI:
        for size in range(11):
            top = ModMatrix(modulus, [[modulus - 1] * size] * size)
            assert top * top == triple_loop_product(top, top)
            assert (top * top).entries == ((size % modulus,) * size,) * size


@st.composite
def arithmetic_cases(draw):
    modulus = draw(st.integers(2, 125))
    size = draw(st.integers(1, 10))
    rows = st.lists(st.lists(st.integers(0, modulus - 1), min_size=size, max_size=size),
                    min_size=size, max_size=size)
    return (ModMatrix(modulus, draw(rows)), ModMatrix(modulus, draw(rows)),
            draw(st.integers(-2 * modulus, 2 * modulus)))


def _same_value(got, want):
    """Equal, with the tuple-of-tuples entries the validating constructor makes."""
    return (got == want and hash(got) == hash(want) and repr(got) == repr(want)
            and type(got.entries) is tuple and all(type(row) is tuple for row in got.entries))


@settings(max_examples=300, deadline=None)
@given(arithmetic_cases())
def test_arithmetic_matches_the_validating_constructor(case):
    # results built unchecked (ModMatrix._canonical) against the same
    # integers reduced by ModMatrix(...); products run twice, so the
    # second reads the right operand's kept packed rows
    a, b, c = case
    m, rows_a, rows_b = a.modulus, a.entries, b.entries
    expected = {
        "a + b": ModMatrix(m, [[x + y for x, y in zip(r, q)] for r, q in zip(rows_a, rows_b)]),
        "a - b": ModMatrix(m, [[x - y for x, y in zip(r, q)] for r, q in zip(rows_a, rows_b)]),
        "-a": ModMatrix(m, [[-x for x in r] for r in rows_a]),
        "c * a": ModMatrix(m, [[c * x for x in r] for r in rows_a]),
        "a * b": triple_loop_product(a, b),
        "b * a": triple_loop_product(b, a),
    }
    for _ in range(2):
        results = {"a + b": a + b, "a - b": a - b, "-a": -a, "c * a": c * a,
                   "a * b": a * b, "b * a": b * a}
        assert _same_value(a * c, expected["c * a"])
        for name, got in results.items():
            assert _same_value(got, expected[name]), name


def _constructor_callers(monkeypatch):
    """Names of the functions that call ModMatrix(...) from now on."""
    callers = []
    validate = ModMatrix.__post_init__

    def recording(self):
        callers.append(sys._getframe(2).f_code.co_name)   # past the dataclass __init__
        validate(self)

    monkeypatch.setattr(ModMatrix, "__post_init__", recording)
    return callers


ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__"}


def test_lifts_validate_no_arithmetic_result(monkeypatch):
    rng = random.Random(5)
    family = random_idempotent_family(rng, 27, 8, 3)
    instance = random_isomorphism_instance(rng, 25, 6)
    callers = _constructor_callers(monkeypatch)
    lift_orthogonal_family(family)
    lift_isomorphism(*instance)
    # only the public constructors the lifts call for reductions,
    # identities and zeros validate; every product and sum is built unchecked
    assert callers and set(callers) <= {"reduce", "identity", "zero"}
    assert not set(callers) & ARITHMETIC


def test_packed_rows_are_not_part_of_the_value():
    a, b = ModMatrix(7, ((1, 2), (3, 4))), ModMatrix(7, ((1, 2), (3, 4)))
    assert b * a == a * a    # a is now a right operand and keeps its packed rows
    assert a._packed is not None and b._packed is None
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "ModMatrix(modulus=7, entries=((1, 2), (3, 4)))"


class TestModMatrix:
    def test_reduce_to_a_non_divisor_is_invalid_input(self):
        a = ModMatrix(12, ((5, 7), (11, 1)))
        assert a.reduce(4) == ModMatrix(4, ((1, 3), (3, 1)))
        for modulus in (5, 24, 0, -3, 1):     # modulus 1 divides 12, but is below 2
            with pytest.raises(InvalidInput):
                a.reduce(modulus)

    def test_canonical_entries(self):
        m = ModMatrix(4, ((5, -1), (8, 3)))
        assert m.entries == ((1, 3), (0, 3))

    def test_mismatched_operands_are_invalid_input(self):
        a = ModMatrix.identity(4, 2)
        for other in (ModMatrix.identity(4, 1), ModMatrix.identity(8, 2)):
            for op in (a.__mul__, a.__add__, a.__sub__):
                with pytest.raises(InvalidInput, match="mismatch: size 2 mod 4 against"):
                    op(other)

    def test_det(self):
        assert ModMatrix(6, ((2, 1), (3, 2))).det() == 1
        assert ModMatrix(6, ((2, 4), (1, 2))).det() == 0
        assert ModMatrix(12, ((1, 2, 3), (0, 1, 4), (0, 0, 1))).det() == 1

    def test_text_round_trip(self):
        m = ModMatrix(6, ((1, 2), (3, 4)))
        assert ModMatrix.parse(m.to_text()) == m
        assert ModMatrix.parse("1,2;3,4", modulus=6) == m
        with pytest.raises(ParseError):
            ModMatrix.parse("1,2;3,4")
        with pytest.raises(ParseError):
            ModMatrix.parse("mod 6 size 3\n1,2;3,4")

    def test_mod_inverse(self):
        rng = random.Random(7)
        for _ in range(25):
            u, u_inv = _unimodular_pair(rng, 12, 3)
            assert u * u_inv == ModMatrix.identity(12, 3)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 8, 9, 25, 27, 6, 10, 12, 30, 36, 60, 210])
    def test_mod_inverse_matches_prime_power_gauss_jordan(self, modulus):
        rng = random.Random(modulus)
        for trial in range(150):
            size = trial % 5
            u, u_inv = _unimodular_pair(rng, modulus, size)
            expected = old_mod_inverse(u)
            assert u_inv == expected
            assert u * expected == ModMatrix.identity(modulus, size)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 8, 9, 25, 27, 6, 10, 12, 30, 36, 60, 210])
    def test_unimodular_pair(self, modulus):
        for seed in range(30):
            size = seed % 6
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            u, u_inv = _unimodular_pair(rng, modulus, size)
            assert u == old_random_unimodular(oracle_rng, modulus, size)
            assert rng.getstate() == oracle_rng.getstate()
            assert u == random_unimodular(random.Random(seed), modulus, size)
            ident = ModMatrix.identity(modulus, size)
            assert u * u_inv == ident and u_inv * u == ident


class TestLiftIdempotent:
    def test_mod2_count_is_eight(self):
        assert sum(1 for _ in all_idempotents(2, 2)) == 8

    @pytest.mark.parametrize("target", [4, 8])
    def test_exhaustive_2x2(self, target):
        for a in all_idempotents(2, 2):
            seed = ModMatrix(target, a.entries)
            e = lift_idempotent(seed)
            assert e.is_idempotent
            assert e.reduce(2) == a

    def test_trivial_fixed_points(self):
        for m in (ModMatrix.identity(8, 3), ModMatrix.zero(8, 3)):
            assert lift_idempotent(m) == m

    def test_high_power_modulus(self):
        a = ModMatrix(2 ** 10, ((1, 3), (0, 0)))
        e = lift_idempotent(a)
        assert e.is_idempotent and e.reduce(2) == a.reduce(2)

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotAlmostIdempotent):
            lift_idempotent(ModMatrix(4, ((1, 0), (1, 1))))

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            lift_idempotent(ModMatrix(6, ((1, 0), (0, 0))))


class TestLiftFamily:
    def test_identity_family(self):
        assert lift_orthogonal_family([ModMatrix.identity(8, 2)]) == [
            ModMatrix.identity(8, 2)]

    def test_exact_family_kept_orthogonal(self):
        fam = [ModMatrix(4, ((1, 0), (0, 0))), ModMatrix(4, ((0, 0), (0, 1)))]
        lifted = lift_orthogonal_family(fam)
        assert lifted[0] + lifted[1] == ModMatrix.identity(4, 2)

    def test_randomized_families(self):
        rng = random.Random(11)
        for _ in range(40):
            parts = rng.choice([2, 3])
            fam = random_idempotent_family(rng, 8, 3, parts)
            lifted = lift_orthogonal_family(fam)
            total = lifted[0]
            for e in lifted[1:]:
                total = total + e
            assert total == ModMatrix.identity(8, 3)
            for i, e in enumerate(lifted):
                assert e.is_idempotent
                assert e.reduce(2) == fam[i].reduce(2)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 8), st.data())
    def test_matches_the_recursive_lift(self, p, n, size, data):
        parts = data.draw(st.integers(1, size))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        family = random_idempotent_family(rng, p ** n, size, parts)
        assert lift_orthogonal_family(family) == recursive_family_lift(family)

    def test_rejects_non_family(self):
        fam = [ModMatrix(4, ((1, 0), (0, 0))), ModMatrix(4, ((1, 0), (0, 1)))]
        with pytest.raises(NotAFamily):
            lift_orthogonal_family(fam)

    def test_names_the_first_defect(self):
        e, nil = ((1, 0), (0, 0)), ((0, 1), (0, 0))
        cases = {
            "member 0 is not idempotent mod 2": [nil, ((1, 3), (0, 1))],
            "members 0 and 1 are not orthogonal mod 2": [e, e, ((1, 0), (0, 1))],
        }
        for message, rows in cases.items():
            with pytest.raises(NotAFamily) as exc:
                lift_orthogonal_family([ModMatrix(4, r) for r in rows])
            assert str(exc.value) == message


class TestLiftIsomorphism:
    def test_exact_inputs_pass_through(self):
        phi = ModMatrix(4, ((1, 0), (0, 0)))
        psi = ModMatrix(4, ((3, 0), (0, 0)))
        t12, t21 = lift_isomorphism(phi, phi, psi, psi)
        assert t12 * t21 == phi and t21 * t12 == phi
        assert t12 == psi  # alpha vanished, the corner map survives

    def test_randomized_planted_instances(self):
        rng = random.Random(5)
        for _ in range(60):
            modulus = rng.choice([4, 8, 9, 27])
            size = rng.choice([2, 3])
            phi1, phi2, psi12, psi21 = random_isomorphism_instance(rng, modulus, size)
            t12, t21 = lift_isomorphism(phi1, phi2, psi12, psi21)
            assert t21 * t12 == phi1
            assert t12 * t21 == phi2

    def test_hypothesis_violations_reported(self):
        phi = ModMatrix(4, ((1, 0), (0, 0)))
        bad = ModMatrix(4, ((0, 1), (0, 0)))
        with pytest.raises(HypothesisViolated):
            lift_isomorphism(phi, phi, bad, bad)
        not_idem = ModMatrix(4, ((1, 1), (1, 1)))
        with pytest.raises(HypothesisViolated):
            lift_isomorphism(not_idem, phi, phi, phi)


class TestCrt:
    def test_factorizations(self):
        assert crt_split(6).factors == ((2, 1), (3, 1))
        assert crt_split(4).factors == ((2, 2),)

    def test_spec_example(self):
        s = crt_split(6)
        parts = s.split(ModMatrix(6, ((5, 0), (0, 1))))
        assert parts[0] == ModMatrix(2, ((1, 0), (0, 1)))
        assert parts[1] == ModMatrix(3, ((2, 0), (0, 1)))

    def test_mismatched_moduli_and_parts_are_invalid_input(self):
        s = crt_split(12)
        with pytest.raises(InvalidInput, match="matrix modulus 4 is not 12"):
            s.split(ModMatrix.identity(4, 2))
        with pytest.raises(InvalidInput, match="prime-power moduli"):
            s.combine([ModMatrix.identity(4, 2)])
        with pytest.raises(InvalidInput, match="mismatched sizes"):
            s.combine([ModMatrix.identity(4, 2), ModMatrix.identity(3, 1)])

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randrange(2, 1000)
            s = crt_split(m)
            mat = ModMatrix(m, tuple(tuple(rng.randrange(m) for _ in range(2))
                                     for _ in range(2)))
            assert s.combine(s.split(mat)) == mat

    def test_transport_is_multiplicative(self):
        rng = random.Random(9)
        s = crt_split(60)
        for _ in range(25):
            a = ModMatrix(60, tuple(tuple(rng.randrange(60) for _ in range(2))
                                    for _ in range(2)))
            b = ModMatrix(60, tuple(tuple(rng.randrange(60) for _ in range(2))
                                    for _ in range(2)))
            prods = [x * y for x, y in zip(s.split(a), s.split(b))]
            sums = [x + y for x, y in zip(s.split(a), s.split(b))]
            assert s.combine(prods) == a * b
            assert s.combine(sums) == a + b


class TestSlLift:
    def test_identity_and_elementary(self):
        assert sl_lift(ModMatrix(6, ((1, 0), (0, 1)))) == ((1, 0), (0, 1))
        assert sl_lift(ModMatrix(6, ((1, 1), (0, 1)))) == ((1, 1), (0, 1))

    def test_random_sl2_and_sl3(self):
        rng = random.Random(17)
        trials = 0
        while trials < 300:
            size = rng.choice([2, 3])
            modulus = rng.choice([4, 6, 12, 30])
            cand = ModMatrix(modulus, tuple(
                tuple(rng.randrange(modulus) for _ in range(size))
                for _ in range(size)))
            if cand.det() != 1 % modulus:
                continue
            trials += 1
            lifted = sl_lift(cand)
            assert ModMatrix(modulus, lifted) == cand

    def test_rejects_wrong_determinant(self):
        with pytest.raises(DeterminantNotOne):
            sl_lift(ModMatrix(6, ((2, 0), (0, 1))))

    def test_size_one(self):
        assert sl_lift(ModMatrix(5, ((1,),))) == ((1,),)

    def test_size_zero(self):
        assert sl_lift(ModMatrix(5, ())) == ()
        assert sl_lift(ModMatrix.zero(12, 0)) == ()

    def test_word_matches_the_trailing_pivot_block(self):
        # random products of transvections, and dense det-1 draws that
        # need the CRT pivot repair
        rng = random.Random(27)
        moduli = [2, 4, 6, 8, 12, 30, 36, 60, 90, 125, 210]
        cases = [random_unimodular(rng, rng.choice(moduli), rng.randint(1, 6))
                 for _ in range(600)]
        while len(cases) < 900:
            modulus, size = rng.choice(moduli), rng.randint(1, 4)
            cand = ModMatrix(modulus, tuple(tuple(rng.randrange(modulus) for _ in range(size))
                                            for _ in range(size)))
            if cand.det() == 1 % modulus:
                cases.append(cand)
        for matrix in cases:
            assert _transvection_word(matrix) == old_transvection_word(matrix), matrix


def test_matrix_size_budget():
    rng = random.Random(1)
    assert ModMatrix.identity(8, 128).size == 128
    assert random_unimodular(rng, 8, 128).size == 128
    too_big = "a matrix of size 129 exceeds the budget of size 128"
    for build in (lambda: ModMatrix.identity(8, 129),
                  lambda: ModMatrix.parse(";".join(["0"] * 129), modulus=8),
                  lambda: random_unimodular(rng, 8, 129),
                  lambda: random_isomorphism_instance(rng, 8, 129)):
        with pytest.raises(SearchBudgetExceeded, match=too_big):
            build()
