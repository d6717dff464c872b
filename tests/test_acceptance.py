"""Acceptance suite: one test per numbered requirement, exact tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion with its elapsed time.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from jcalc.idempotent_lab import (
    ModMatrix,
    lift_idempotent,
    lift_isomorphism,
    random_isomorphism_instance,
    sl_lift,
)
from jcalc.jinvariant import enumerate_admissible
from jcalc.kac_table import (
    _so_row,
    TorsionData,
    parse_form,
    table_rows,
    torsion_data,
)
from jcalc.motive import (
    canonical_p_dimension,
    decompose,
    integral_decomposition,
    is_m_positive,
    rost_poincare,
)
from jcalc.polynomial import Poly
from jcalc.root_data import DynkinType, poincare_homogeneous
from jcalc.sweep import run_divisibility_sweep
from jcalc.truncated_ring import (
    RingElement,
    deglex_key,
    j_from_generators,
    lucas_binom,
)


def _all_monomials(data):
    """Every nonzero monomial of the ring, p^{|K|} of them."""
    return itertools.product(*[range(cap) for cap in data.caps])


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("FAIL criterion %d: %s" % (number, label))
        raise
    elapsed = time.perf_counter() - start
    print("PASS criterion %d: %s (%.2f s)" % (number, label, elapsed))
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %.0f s" % (number, budget)


# ---------------------------------------------------------------------------
# 1. F4 golden values with integer coefficients
# ---------------------------------------------------------------------------

def test_criterion_1_f4_golden():
    with criterion(1, "F4 integral golden test", budget=1.0):
        s2 = rost_poincare(TorsionData(2, (3,), (1,)), (1,))
        s3 = rost_poincare(TorsionData(3, (4,), (1,)), (1,))
        assert s2 == Poly([1, 0, 0, 1])                      # 1 + t^3
        assert s3 == Poly([1, 0, 0, 0, 1, 0, 0, 0, 1])      # 1 + t^4 + t^8
        summands = [(2, s2), (3, s3)]
        total = s2 * s3 * Poly([1, 1, 1, 1])
        f, mult = integral_decomposition(total, 6, summands)
        assert f == Poly.geometric(1, 12)                    # 1 + t + ... + t^11
        assert mult == s2
        assert is_m_positive(f, 6, summands)
        # the two mod-p quotients carry exactly the displayed twist multisets
        q2 = f.exact_div(s2)
        q3 = f.exact_div(s3)
        assert [i for i, c in enumerate(q2.coeffs) for _ in range(c)] == [0, 1, 2, 6, 7, 8]
        assert [i for i, c in enumerate(q3.coeffs) for _ in range(c)] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# 2. Main-theorem divisibility sweep over the whole table
# ---------------------------------------------------------------------------

def test_criterion_2_divisibility_sweep():
    with criterion(2, "table-wide divisibility sweep (ranks <= 8)", budget=120.0):
        report = run_divisibility_sweep(max_rank=8)
        assert (report.rows, report.cases, report.divisions) == (71, 49694, 8123)
        assert report.failures == []


# ---------------------------------------------------------------------------
# 3. E8 at p = 5
# ---------------------------------------------------------------------------

def test_criterion_3_e8_p5():
    with criterion(3, "E8 / p=5 row, summand and flag multiplicity sum", budget=1.0):
        e8 = parse_form("E8")
        data = torsion_data(e8, 5)
        assert data == TorsionData(5, (6,), (1,))
        poly = rost_poincare(data, (1,))
        assert poly == Poly.geometric(6, 5)  # 1 + t^6 + t^12 + t^18 + t^24
        dec = decompose(e8, 5, (1,))
        assert dec.summand_count == 696729600 // 5 == 139345920


# ---------------------------------------------------------------------------
# 4. Severi-Brauer consistency
# ---------------------------------------------------------------------------

def test_criterion_4_severi_brauer():
    with criterion(4, "rank-one rows match projective spaces"):
        for p in (2, 3, 5, 7):
            data = TorsionData(p, (1,), (3,))
            for j1 in range(0, 4):
                dim = p ** j1 - 1
                expected = Poly.geometric(1, p ** j1)  # P(projective space of dim p^j - 1)
                assert rost_poincare(data, (j1,)) == expected
                # cross-check against the flag quotient at desk scale
                if 0 < dim <= 26:
                    t = DynkinType("A", dim)
                    theta = set(range(2, dim + 1))
                    assert poincare_homogeneous(t, theta) == expected


# ---------------------------------------------------------------------------
# 5. Lucas oracle
# ---------------------------------------------------------------------------

def _pascal_table_mod_p(n_max, p):
    """Exhaustive binomial table mod p from the additive recurrence."""
    table = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    table[:, 0] = 1
    for n in range(1, n_max + 1):
        table[n, 1:n + 1] = (table[n - 1, 1:n + 1] + table[n - 1, 0:n]) % p
    return table


def _lucas_table_mod_p(n_max, p):
    """The same table from digit-wise Lucas evaluation, vectorized."""
    small = np.array([[math.comb(a, b) % p if b <= a else 0
                       for b in range(p)] for a in range(p)], dtype=np.int64)
    n = np.arange(n_max + 1)[:, None] + np.zeros(n_max + 1, dtype=np.int64)[None, :]
    m = np.zeros(n_max + 1, dtype=np.int64)[:, None] + np.arange(n_max + 1)[None, :]
    out = np.ones_like(n)
    while n.any() or m.any():
        out = out * small[n % p, m % p] % p
        n, m = n // p, m // p
    return out


def test_criterion_5_lucas_oracle():
    with criterion(5, "Lucas vs exact binomials and the p^k-1 gate", budget=30.0):
        rng = random.Random(20260809)
        for p in (2, 3, 5, 7):
            pascal = _pascal_table_mod_p(1000, p)
            lucas = _lucas_table_mod_p(1000, p)
            assert np.array_equal(pascal, lucas), "mod %d table mismatch" % p
            # tie the scalar implementation to the exhaustive tables
            for _ in range(3000):
                n = rng.randrange(0, 1001)
                m = rng.randrange(0, 1001)
                assert lucas_binom(n, m, p) == int(pascal[n, m])
            for _ in range(300):
                n = rng.randrange(0, 500)
                m = rng.randrange(0, 500)
                assert lucas_binom(n, m, p) == math.comb(n, m) % p
        # gate: p never divides C(p^k - 1, m) for 0 <= m <= p^k - 1
        for p in (2, 3, 5):
            for k in range(1, 11):
                top = p ** k - 1
                m = np.arange(top + 1, dtype=np.int64)
                n = np.full_like(m, top)
                residue = np.ones_like(m)
                small = np.array([[math.comb(a, b) % p if b <= a else 0
                                   for b in range(p)] for a in range(p)],
                                 dtype=np.int64)
                nn, mm = n, m
                while nn.any() or mm.any():
                    residue = residue * small[nn % p, mm % p] % p
                    nn, mm = nn // p, mm // p
                assert int((residue == 0).sum()) == 0, (p, k)
                for _ in range(50):
                    sample = rng.randrange(0, top + 1)
                    assert lucas_binom(top, sample, p) != 0


# ---------------------------------------------------------------------------
# 6. J-from-generators against a dense linear-algebra oracle
# ---------------------------------------------------------------------------

class _DenseRingOracle:
    """Brute-force subring closure on dense coefficient vectors."""

    def __init__(self, data):
        self.data = data
        self.monomials = sorted(_all_monomials(data), key=lambda m: deglex_key(m, data))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        caps = data.caps
        # mult[i, j] = index of the product monomial, or dim for truncated
        self.mult = np.full((self.dim, self.dim), self.dim, dtype=np.int64)
        for i, a in enumerate(self.monomials):
            for j, b in enumerate(self.monomials):
                prod = tuple(x + y for x, y in zip(a, b))
                if all(e < cap for e, cap in zip(prod, caps)):
                    self.mult[i, j] = self.index[prod]

    def vector(self, element):
        v = np.zeros(self.dim, dtype=np.int64)
        for mono, c in element.terms.items():
            v[self.index[mono]] = c % self.data.p
        return v

    def _echelon(self, rows):
        """Row space basis by left-to-right elimination (no pivot order tricks)."""
        p = self.data.p
        if not len(rows):
            return np.zeros((0, self.dim), dtype=np.int64)
        work = np.array(rows, dtype=np.int64) % p
        rank = 0
        for c in range(self.dim):
            pivots = np.nonzero(work[rank:, c])[0]
            if pivots.size == 0:
                continue
            pivot = rank + int(pivots[0])
            work[[rank, pivot]] = work[[pivot, rank]]
            work[rank] = work[rank] * pow(int(work[rank, c]), p - 2, p) % p
            mask = np.ones(work.shape[0], dtype=bool)
            mask[rank] = False
            work[mask] = (work[mask] - np.outer(work[mask, c], work[rank])) % p
            rank += 1
            if rank == work.shape[0]:
                break
        return work[:rank]

    def _products(self, basis):
        """Every product u * v of two basis rows, as distinct nonzero rows mod p.

        by_u[u] is the matrix of multiplication by u: row j holds u * x_j,
        so basis @ by_u[u] lists u * v for every v, one integer matrix
        product per u.  Fixing j, i -> mult[i, j] is injective away from
        the truncated column, so plain assignment fills by_u exactly.
        Every sum stays below dim * p^2, exact in int64.
        """
        i, j = np.indices(self.mult.shape)
        by_u = np.zeros((len(basis), self.dim, self.dim + 1), dtype=np.int64)
        by_u[:, j, self.mult] = basis[:, i]
        rows = (basis @ by_u[:, :, :self.dim]).reshape(-1, self.dim) % self.data.p
        distinct = {row.tobytes(): row for row in rows if row.any()}
        return np.array(list(distinct.values()), dtype=np.int64).reshape(-1, self.dim)

    def closure(self, gens):
        one = np.zeros(self.dim, dtype=np.int64)
        one[self.index[(0,) * self.data.r]] = 1
        basis = self._echelon([one] + [self.vector(g) for g in gens])
        while True:
            bigger = self._echelon(np.vstack([basis, self._products(basis)]))
            if bigger.shape[0] == basis.shape[0]:
                return basis
            basis = bigger

    def _rank_from_column(self, basis, start):
        """Rank of the basis restricted to coordinates >= start."""
        p = self.data.p
        chopped = basis[:, start:]
        if chopped.size == 0:
            return 0
        work = chopped.copy()
        rank = 0
        for c in range(work.shape[1]):
            pivots = np.nonzero(work[rank:, c])[0]
            if pivots.size == 0:
                continue
            pivot = rank + int(pivots[0])
            work[[rank, pivot]] = work[[pivot, rank]]
            work[rank] = work[rank] * pow(int(work[rank, c]), p - 2, p) % p
            mask = np.ones(work.shape[0], dtype=bool)
            mask[rank] = False
            work[mask] = (work[mask] - np.outer(work[mask, c], work[rank])) % p
            rank += 1
            if rank == work.shape[0]:
                break
        return rank

    def j_tuple(self, basis):
        """j_i from ranks of column-chopped matrices.

        dim(V meet U_<=T) = dim V - rank(V restricted to coordinates > T),
        so the span contains an element with greatest coordinate exactly T
        iff rank(V[:, T:]) - rank(V[:, T+1:]) = 1.
        """
        p = self.data.p
        out = []
        for i in range(1, self.data.r + 1):
            found = None
            for j in range(self.data.k[i - 1]):
                target = tuple(p ** j if a == i - 1 else 0 for a in range(self.data.r))
                t_idx = self.index[target]
                at = self._rank_from_column(basis, t_idx)
                above = self._rank_from_column(basis, t_idx + 1)
                if at - above == 1:
                    found = j
                    break
            out.append(found if found is not None else self.data.k[i - 1])
        return tuple(out)


def _generator_pool(data):
    """Monomials with small exponents plus a few two-term sums."""
    monos = [m for m in _all_monomials(data)
             if any(m) and all(e <= 2 for e in m)]
    monos.sort(key=lambda m: deglex_key(m, data))
    pool = [RingElement.monomial(data, m) for m in monos]
    for a, b in zip(monos, monos[1:]):
        pool.append(RingElement(data, {a: 1, b: data.p - 1}))
    return pool


def test_criterion_6_j_from_generators_oracle():
    with criterion(6, "subring J extraction vs dense span closure"):
        checked = 0
        for p, d_choices in ((2, ((1,), (1, 3))), (3, ((1,), (1, 4)))):
            for d in d_choices:
                for k in itertools.product((1, 2), repeat=len(d)):
                    data = TorsionData(p, d, k)
                    oracle = _DenseRingOracle(data)
                    pool = _generator_pool(data)
                    gen_sets = [[]] + [[g] for g in pool]
                    gen_sets += [list(pair) for pair in itertools.combinations(pool, 2)]
                    for gens in gen_sets:
                        expected = oracle.j_tuple(oracle.closure(gens))
                        got = j_from_generators(gens, data)
                        assert got == expected, (data, [g.to_text() for g in gens])
                        checked += 1
        assert checked > 400
        print("  (criterion 6 compared %d generator sets)" % checked)


# ---------------------------------------------------------------------------
# 7. Idempotent lab
# ---------------------------------------------------------------------------

def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _int_determinant(rows):
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return _det3(rows)


def test_criterion_7_idempotent_lab():
    with criterion(7, "exhaustive and randomized lifting checks", budget=30.0):
        idempotents = []
        for flat in itertools.product(range(2), repeat=4):
            m = ModMatrix(2, ((flat[0], flat[1]), (flat[2], flat[3])))
            if m.is_idempotent:
                idempotents.append(m)
        assert len(idempotents) == 8
        for target in (4, 8):
            for a in idempotents:
                e = lift_idempotent(ModMatrix(target, a.entries))
                assert e * e == e
                assert e.reduce(2) == a

        rng = random.Random(715)
        for _ in range(1000):
            modulus = rng.choice([4, 8, 9, 27, 25])
            size = rng.choice([2, 3])
            phi1, phi2, psi12, psi21 = random_isomorphism_instance(rng, modulus, size)
            t12, t21 = lift_isomorphism(phi1, phi2, psi12, psi21)
            assert t21 * t12 == phi1
            assert t12 * t21 == phi2

        produced = 0
        while produced < 1000:
            modulus = rng.choice([4, 6, 12, 30])
            size = rng.choice([2, 3])
            cand = ModMatrix(modulus, tuple(
                tuple(rng.randrange(modulus) for _ in range(size))
                for _ in range(size)))
            if cand.det() != 1 % modulus:
                continue
            produced += 1
            lifted = sl_lift(cand)
            assert _int_determinant([list(r) for r in lifted]) == 1
            assert ModMatrix(modulus, lifted) == cand


# ---------------------------------------------------------------------------
# 8. Canonical p-dimension
# ---------------------------------------------------------------------------

def test_criterion_8_canonical_p_dimension():
    with criterion(8, "canonical p-dimension identities"):
        pairs = 0
        for form, p in table_rows(8):
            data = torsion_data(form, p)
            for J in enumerate_admissible(form, p):
                assert canonical_p_dimension(data, J) == rost_poincare(data, J).degree
                pairs += 1
        assert pairs > 500
        # Pfister forms: J = (0,...,0,1) for SO of a 2^k-dimensional form
        for k in range(2, 6):
            # SO_{2^k} at p = 2; SO_4's A1 x A1 has no simple-type form
            data = TorsionData(2, *_so_row(2 ** k)[:2])
            j = (0,) * (data.r - 1) + (1,)
            assert canonical_p_dimension(data, j) == 2 ** (k - 1) - 1
