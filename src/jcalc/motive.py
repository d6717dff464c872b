"""Motivic decomposition bookkeeping at the level of Poincare polynomials.

For a group with torsion data (p; d_i; k_i) and J-invariant (j_i), the
indecomposable summand appearing in the mod-p motive of any generically
split flag variety has Poincare polynomial

    prod_i (1 - t^{d_i p^{j_i}}) / (1 - t^{d_i}),

and the variety's own polynomial factors exactly through it; the
quotient records the twist multiplicities.  This module computes those
quotients, the canonical p-dimension and torsion-index bound carried by
the same data, rational-cycle rank counts, and integral lifts through
m-positive polynomials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import sub
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import (
    InvalidInput,
    MissingPrime,
    NegativeCoefficient,
    NoDivisor,
    NonIntegralRank,
    NotDivisible,
    NotGenericallySplit,
    SearchBudgetExceeded,
)
from .integers import factorize, is_prime, prime_power
from .jinvariant import JInvariant, JLike, as_jinvariant
from .kac_table import GroupForm, TorsionData, torsion_data
from .polynomial import (Poly, _cancel_common, _from_exponents, _mobius_divisors,
                         cyclotomic_degrees, cyclotomic_exponents, degree_ratio)
from .root_data import UNKNOWN, ThetaLike, _split_vertices, flag_degrees, is_generically_split

# Nothing here reads this name; perfbench/tracer.py swaps a traced proxy in at it.
sympy = None

Degrees = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class MotiveDecomposition:
    """total = summand * multiplicities, all coefficients nonnegative:
    decompose guarantees this identity, and the type does not check it."""

    summand_poincare: Poly
    multiplicities: Poly
    total_poincare: Poly

    @property
    def summand_count(self) -> int:
        """Number of twisted copies, the multiplicity value at t = 1."""
        return self.multiplicities(1)

    def to_dict(self) -> Dict:
        return {
            "summand": list(self.summand_poincare.coeffs),
            "multiplicities": list(self.multiplicities.coeffs),
            "total": list(self.total_poincare.coeffs),
        }


# ---------------------------------------------------------------------------
# The repeated summand and its numeric shadows
# ---------------------------------------------------------------------------

def summand_degrees(data: TorsionData, J: JInvariant) -> Degrees:
    """Degrees (num, den) with the summand polynomial prod (1 - t^a) /
    prod (1 - t^b): a_i = d_i p^{j_i} over b_i = d_i."""
    return tuple(d * data.p ** j for d, j in zip(data.d, J.j)), data.d


def rost_poincare(data: TorsionData, J: JLike) -> Poly:
    """Poincare polynomial of the indecomposable summand over a splitting field.

    prod_i (1 - t^{d_i p^{j_i}}) / (1 - t^{d_i}); the i-th factor is the
    geometric sum 1 + t^{d_i} + ... with p^{j_i} terms, so the value at
    t = 1 is p^{j_1 + ... + j_r}.
    """
    return degree_ratio(*summand_degrees(data, as_jinvariant(data, J)))


def canonical_p_dimension(data: TorsionData, J: JLike) -> int:
    """sum d_i (p^{j_i} - 1), the degree of the summand polynomial; refused
    like torsion_index_bound when p^{|J|} exceeds _BOUND_BITS."""
    J = as_jinvariant(data, J)
    _power_bound(J.p, J.weight)
    num, den = summand_degrees(data, J)
    return sum(num) - sum(den)


# Largest bit length of p^{|J|}; its decimal form stays under str()'s 4,300 digits.
_BOUND_BITS = 2 ** 13


def torsion_index_bound(J: JInvariant) -> int:
    """Upper bound p^{sum j_i} for the p-part of the torsion index."""
    return _power_bound(J.p, J.weight)


def _power_bound(p: int, weight: int) -> int:
    """p^weight, refused first when weight * (bit length of p) > _BOUND_BITS."""
    if weight * p.bit_length() > _BOUND_BITS:
        raise SearchBudgetExceeded("p^|J| with p = %d and |J| = %d exceeds the budget of "
                                   "%d bits" % (p, weight, _BOUND_BITS))
    return p ** weight


def rational_cycle_counts(data: TorsionData, J: JLike, flag_rank: int) -> Dict[str, int]:
    """Ranks of the rational graded cycles on X and on X x X.

    ``flag_rank`` is the total rank of the Chow ring of the split
    complete flag variety; the rank of the invariant subring R is
    derived from flag_rank = p^{|K|} * rk R and must come out integral.
    Returns rank_A_rat = p^{|K - J|} rk R and
    rank_B_rat = p^{|2K - J|} (rk R)^2.
    """
    J = as_jinvariant(data, J)
    p = data.p
    full = data.ring_rank
    if flag_rank <= 0 or flag_rank % full:
        raise NonIntegralRank("flag rank %d is not a positive multiple of p^|K| = %d"
                              % (flag_rank, full))
    rk_r = flag_rank // full
    k_minus_j = sum(k - j for k, j in zip(data.k, J.j))
    twok_minus_j = sum(2 * k - j for k, j in zip(data.k, J.j))
    return {
        "rk_R": rk_r,
        "rank_A_rat": p ** k_minus_j * rk_r,
        "rank_B_rat": p ** twok_minus_j * rk_r * rk_r,
    }


# ---------------------------------------------------------------------------
# Decomposition of a generically split flag variety
# ---------------------------------------------------------------------------

def twist_multiplicities(summand: Degrees, total: Degrees,
                         need: Tuple[int, ...], have: Tuple[int, ...]) -> Poly:
    """total / summand for degree ratios (num, den) whose cyclotomic
    exponent vectors are need and have.  NotDivisible names the first
    Phi_n with need_n > have_n, NegativeCoefficient the lowest negative
    quotient coefficient."""
    for n, (e_s, e_t) in enumerate(itertools.zip_longest(need, have, fillvalue=0), 1):
        if e_s > e_t:
            raise NotDivisible("Phi_%d divides the summand %d times, the flag polynomial "
                               "%d times" % (n, e_s, e_t))
    quotient = degree_ratio(total[0] + summand[1], total[1] + summand[0])
    for i, c in enumerate(quotient):
        if c < 0:
            raise NegativeCoefficient("quotient coefficient of t^%d is %d" % (i, c))
    return quotient


def _geometric_pairing(num: Iterable[int], den: Iterable[int]) -> bool:
    """Is prod (1 - t^a) / prod (1 - t^b) a product of geometric sums
    (1 - t^a) / (1 - t^b) = 1 + t^b + ... + t^(a - b) with b | a?

    Common degrees cancel; then each remaining b, largest first, takes the
    smallest free a that it divides, or an augmenting path (Kuhn) frees
    one, so the matching found is a maximum one.  True proves the ratio a
    polynomial with nonnegative coefficients.  False says only that no
    such pairing exists: the ratio can still be nonnegative, as
    (5, 6) / (2, 3) is.

    >>> _geometric_pairing((6, 9), (2, 3))    # 9 over 3 and 6 over 2
    True
    """
    tops, bottoms = _cancel_common(num, den)
    if len(tops) != len(bottoms):
        return False
    tops.sort()
    bottoms.sort(reverse=True)
    holder: List[Optional[int]] = [None] * len(tops)   # the b that holds tops[i]
    for j, b in enumerate(bottoms):
        for i, a in enumerate(tops):
            if holder[i] is None and a % b == 0:
                holder[i] = j
                break
        else:
            if not _augment(tops, bottoms, holder, j, set()):
                return False
    return True


def _augment(tops: List[int], bottoms: List[int], holder: List[Optional[int]], j: int,
             seen: set) -> bool:
    """Give bottoms[j] a multiple among tops, moving the b holding one on
    along a path that ends at a free multiple; seen marks the tops tried."""
    b = bottoms[j]
    for i, a in enumerate(tops):
        if i not in seen and a % b == 0:
            seen.add(i)
            if holder[i] is None or _augment(tops, bottoms, holder, holder[i], seen):
                holder[i] = j
                return True
    return False


def decompose(form: GroupForm, p: int, J: JLike, theta: ThetaLike = None,
              tits_index: Optional[int] = None,
              splitting_degree: Optional[int] = None,
              pfister: Optional[bool] = None) -> MotiveDecomposition:
    """Split P(X_theta, t) into twisted copies of the mod-p summand.

    The quotient by rost_poincare must be exact with nonnegative
    coefficients; NotDivisible or NegativeCoefficient means the supplied
    J cannot occur for a group split generically by X_theta.  When Tits
    data (tits_index, splitting_degree) is supplied, both positive, the
    generic splitness table is consulted first and a definite or
    unresolved failure raises NotGenericallySplit, naming the splitting
    vertices that theta covers; without Tits data the caller vouches for
    splitness.  Half the Tits data, a value below 1, or pfister without
    Tits data is InvalidInput.
    """
    data = torsion_data(form, p)
    J = as_jinvariant(data, J)
    tits = (tits_index, splitting_degree)
    if tits.count(None) == 1:
        raise InvalidInput("supply both tits_index and splitting_degree or neither")
    if tits == (None, None) and pfister is not None:
        raise InvalidInput("pfister needs the Tits data tits_index and splitting_degree")
    if None not in tits:
        verdict = is_generically_split(form, theta, tits_index, splitting_degree, pfister)
        if verdict is UNKNOWN:
            raise NotGenericallySplit(
                "splitness depends on the Pfister case; pass pfister=True/False")
        if not verdict:
            where = "%s at d=%d, q=%d" % (form, tits_index, splitting_degree)
            split = sorted(_split_vertices(form.base, tits_index, splitting_degree))
            if not split:
                raise NotGenericallySplit("%s has no splitting vertex" % where)
            raise NotGenericallySplit("the splitting vertices %s of %s all lie in theta"
                                      % (", ".join(map(str, split)), where))
    flag, summand = flag_degrees(form.base, theta), summand_degrees(data, J)
    multiplicities = twist_multiplicities(summand, flag, cyclotomic_exponents(*summand),
                                          cyclotomic_exponents(*flag))
    return MotiveDecomposition(degree_ratio(*summand), multiplicities, degree_ratio(*flag))


# ---------------------------------------------------------------------------
# Integral lifting via m-positive polynomials
# ---------------------------------------------------------------------------

# Largest divisor sub-box or L * q candidate count an exhaustive search may cover.
_SEARCH_BUDGET = 2 ** 22
# Largest worst-case coefficient work, sum phi(n) * deg f, of factoring f
# into cyclotomic polynomials by schoolbook trial division; an E8 complete
# flag (degree 120) needs 1.8M.  Each trial runs Phi_n as a degree ratio,
# 2^omega(n) strided passes over the coefficients, so this overstates it.
_DIVISION_BUDGET = 2 ** 22

Exponents = Tuple[int, ...]


def _summand_map(m: int, summands: Iterable[Tuple[int, Poly]]) -> Dict[int, Poly]:
    if m < 1:
        raise InvalidInput("m must be positive, got %d" % m)
    table = {}
    for p, poly in summands:
        if p in table:
            raise InvalidInput("the prime %d has more than one summand polynomial" % p)
        table[p] = poly
    primes = [p for p, _e in factorize(m)]
    missing = [p for p in primes if p not in table]
    if missing:
        raise MissingPrime("no summand polynomial for primes %s dividing %d"
                           % (missing, m))
    return {p: table[p] for p in primes}


def _divides_nonnegatively(g: Poly, polys: Iterable[Poly]) -> bool:
    try:
        return bool(g) and all(g.exact_div(poly).is_nonnegative for poly in polys)
    except (NotDivisible, ZeroDivisionError):
        return False


def is_m_positive(g: Poly, m: int, summands: Iterable[Tuple[int, Poly]]) -> bool:
    """Is g nonzero and exactly divisible, with nonnegative quotient,
    by the mod-p summand polynomial for every prime p dividing m?"""
    return _divides_nonnegatively(g, _summand_map(m, summands).values())


@functools.lru_cache(maxsize=None)
def _totients(D: int) -> Tuple[Tuple[int, int], ...]:
    """Every (n, phi(n)) with phi(n) <= D, n increasing.  phi is
    multiplicative and phi(q^k) >= q - 1, so each such n is a product of
    powers of primes q <= D + 1; no n is factorized."""
    pairs = [(1, 1)] if D >= 1 else []
    for q in filter(is_prime, range(2, D + 2)):
        for n, phi in list(pairs):
            qk, t = q, phi * (q - 1)
            while t <= D:
                pairs.append((n * qk, t))
                qk, t = qk * q, t * q
    return tuple(sorted(pairs))


def _over_cyclotomic(f: List[int], n: int) -> Optional[List[int]]:
    """The coefficients of f / Phi_n, or None when Phi_n does not divide f.

    Phi_n is the degree ratio prod_{d | n} (1 - t^d)^{mu(n/d)}, negated
    for n = 1.  f is multiplied by each 1 - t^d with mu = -1, then divided
    by each 1 - t^d with mu = +1 as a strided prefix sum, q_i = f_i +
    q_{i-d}, which is exact when its top d coefficients come out zero.
    """
    f = list(f)
    for d, mu in _mobius_divisors(n):
        if mu < 0:
            f += [0] * d
            f[d:] = map(sub, f[d:], f)
    for d, mu in _mobius_divisors(n):
        if mu > 0:
            for r in range(d):
                f[r::d] = itertools.accumulate(f[r::d])
            if any(f[-d:]):
                return None
            del f[-d:]
    return f if n > 1 else [-x for x in f]


def _cyclotomic_factors(f: Poly, name: str) -> Tuple[int, Exponents]:
    """(c, e) with the nonzero f = c * prod Phi_n^{e_n}, by trial division
    by each Phi_n with phi(n) <= the remaining degree, n increasing; each
    trial runs Phi_n as a degree ratio (_over_cyclotomic).  Before the
    first trial, the worst case of a schoolbook trial division, sum
    phi(n) * D over phi(n) <= D = deg f, is checked against
    _DIVISION_BUDGET.  NotDivisible names a cofactor that no Phi_n divides."""
    candidates = _totients(f.degree)
    work = f.degree * sum(t for _n, t in candidates)
    if work > _DIVISION_BUDGET:
        raise SearchBudgetExceeded("dividing %s by each Phi_n with phi(n) <= %d costs %d, "
                                   "over budget %d" % (name, f.degree, work, _DIVISION_BUDGET))
    e: List[int] = []
    rest = list(f.coeffs)
    for n, t in candidates:
        if t < len(rest):
            e += [0] * (n - len(e))
            quotient = _over_cyclotomic(rest, n)
            while quotient is not None:
                rest, e[-1] = quotient, e[-1] + 1
                quotient = _over_cyclotomic(rest, n)
    cofactor = Poly(rest)
    if cofactor.degree > 0:
        raise NotDivisible("no Phi_n divides the cofactor %s of %s" % (cofactor, name))
    return cofactor[0], tuple(e)


def _factor_all(total: Poly, table: Dict[int, Poly]
                ) -> Tuple[int, Exponents, List[Tuple[int, Exponents]]]:
    """(c, e, factors): total = c * prod Phi_n^{e_n} and, for each summand,
    (c_s, need) with the summand c_s * prod Phi_n^{need_n}.  NoDivisor
    names a Phi_n that a summand has more often than the total."""
    c, e = _cyclotomic_factors(total, "the total")
    factors = []
    for p, poly in table.items():
        c_s, need = _cyclotomic_factors(poly, "the p = %d summand" % p)
        for n, (k, have) in enumerate(itertools.zip_longest(need, e, fillvalue=0), 1):
            if k > have:
                raise NoDivisor("Phi_%d divides the p = %d summand %s, the total %s"
                                % (n, p, _times(k), _times(have)))
        factors.append((c_s, need))
    return c, e, factors


def _join(vectors: Iterable[Exponents]) -> List[int]:
    """The componentwise maximum of exponent vectors."""
    return [max(col) for col in itertools.zip_longest(*vectors, fillvalue=0)]


def _lcm(factors: List[Tuple[int, Exponents]]) -> Poly:
    """L = lcm(c_s) * prod Phi_n^{join_n} of the summands c_s * prod
    Phi_n^{need_n}: every m-positive polynomial is a multiple of L."""
    return _from_exponents(math.lcm(*(c for c, _need in factors)),
                           _join(need for _c, need in factors))


def _value_at_one(n: int) -> int:
    """Phi_n(1): 0 for n = 1, q for n a power of the prime q, else 1."""
    power = prime_power(n)
    return power[0] if power else int(n > 1)


def _quotients_nonnegative(d: int, g: Exponents, factors: List[Tuple[int, Exponents]]
                           ) -> bool:
    """Is g = d * prod Phi_n^{g_n} divisible, with nonnegative quotient, by
    every summand c_s * prod Phi_n^{need_n}, given need <= g?

    The quotient (d / c_s) * prod Phi_n^{g_n - need_n} lies in Z[t]
    exactly when c_s divides d, and then needs c_s > 0 and no Phi_1 left
    (a nonzero polynomial vanishing at t = 1 has a negative coefficient).
    The cyclotomic part is a degree ratio prod (1 - t^a) / prod (1 - t^b);
    a geometric pairing proves it nonnegative unbuilt, else its
    coefficients are built and scanned."""
    for c, need in factors:
        if c < 1 or d % c:
            return False
        k = [a - b for a, b in itertools.zip_longest(g, need, fillvalue=0)]
        if k and k[0]:
            return False
        _sign, num, den = cyclotomic_degrees(k)
        if not (_geometric_pairing(num, den) or degree_ratio(num, den).is_nonnegative):
            return False
    return True


def _m_positive_divisors(c: int, e: Exponents, factors: List[Tuple[int, Exponents]]
                         ) -> Iterator[Poly]:
    """The m-positive divisors of c * prod Phi_n^{e_n} with positive
    leading coefficient, lowest degree first, then largest value at
    t = 1, then lexicographically smallest coefficients.

    Each is d * prod Phi_n^{g_n} with the summands' join <= g <= e and d
    a positive divisor of c; the sub-box size is checked against
    _SEARCH_BUDGET first.  Both ranking keys come from the vector alone,
    the degree as sum phi(n) g_n and the value as d * prod Phi_n(1)^{g_n},
    and only the group of equal keys being walked is sign-checked and
    built."""
    phi = dict(_totients(len(e)))
    join = _join(need for _c, need in factors)
    atoms = [(phi[n], _value_at_one(n), range(lo, hi + 1))
             for n, (lo, hi) in enumerate(itertools.zip_longest(join, e, fillvalue=0), 1)]
    contents = [1]
    for q, k in factorize(abs(c)):
        contents = [d * q ** i for d in contents for i in range(k + 1)]
    size = len(contents) * math.prod(len(powers) for _deg, _val, powers in atoms)
    if size > _SEARCH_BUDGET:
        raise SearchBudgetExceeded("divisor sub-box of %d exceeds budget %d"
                                   % (size, _SEARCH_BUDGET))
    items = [(0, d, d, ()) for d in contents]
    for degree, value, powers in atoms:
        items = [(deg + i * degree, val * value ** i, d, g + (i,))
                 for deg, val, d, g in items for i in powers]
    items.sort(key=lambda item: (item[0], -item[1]))
    for _key, group in itertools.groupby(items, key=lambda item: (item[0], -item[1])):
        yield from sorted((_from_exponents(d, g) for _deg, _val, d, g in group
                           if _quotients_nonnegative(d, g, factors)),
                          key=lambda f: f.coeffs)


def _times(k: int) -> str:
    return "%d time%s" % (k, "" if k == 1 else "s")


def _multiples_in_box(f: Poly, L: Poly) -> Iterator[Poly]:
    """Every g = L * q with 0 <= g <= f coefficientwise, for L dividing f.

    With D = deg f - deg L, the coefficients g_0, ..., g_D, each in
    [0, f_i], fix q_i = (g_i - sum_{j >= 1} L_j q_{i-j}) / L_0 one at a
    time (a g_i that L_0 does not divide is skipped); the higher g_i
    follow from q and must lie in the box."""
    N, dl, lead = f.degree, L.degree, L[0]
    D = N - dl
    q = [0] * (D + 1)

    def extend(i: int) -> Iterator[Poly]:
        if i > D:
            tail = [sum(L[k - j] * q[j] for j in range(max(0, k - dl), D + 1))
                    for k in range(D + 1, N + 1)]
            if all(0 <= x <= f[k] for k, x in enumerate(tail, D + 1)):
                yield L * Poly(q)
            return
        known = sum(L[j] * q[i - j] for j in range(1, min(i, dl) + 1))
        for g_i in range(f[i] + 1):
            if (g_i - known) % lead == 0:
                q[i] = (g_i - known) // lead
                yield from extend(i + 1)

    return extend(0)


def _splits(f: Poly, L: Poly, polys: List[Poly]) -> bool:
    """Is the m-positive f a sum of two m-positive polynomials?  Both
    parts are multiples of L inside the box 0 <= g <= f; the
    prod_{i <= D} (f_i + 1) choices of their low coefficients are
    checked against _SEARCH_BUDGET first."""
    count = math.prod(f[i] + 1 for i in range(f.degree - L.degree + 1))
    if count > _SEARCH_BUDGET:
        raise SearchBudgetExceeded("coefficient box of %d exceeds budget %d"
                                   % (count, _SEARCH_BUDGET))
    return any(g != f and _divides_nonnegatively(g, polys)
               and _divides_nonnegatively(f - g, polys) for g in _multiples_in_box(f, L))


def is_sum_indecomposable(f: Poly, m: int, summands: Iterable[Tuple[int, Poly]]) -> bool:
    """Can f not be written as a sum of two m-positive polynomials?

    Any m-positive part has nonnegative coefficients, so both parts of a
    decomposition sit inside the coefficient box 0 <= g <= f, and each is
    a multiple L * q of the summands' least common multiple
    L = lcm(c_s) * prod Phi_n^{join_n}.  The low coefficients g_0..g_D,
    D = deg f - deg L, fix q, so prod_{i <= D} (f_i + 1) candidates are
    searched exhaustively after that count is checked against the
    budget: 8 instead of the box's 4,096 for the paper's
    1 + t + ... + t^11 at m = 6, where L has degree 9.  Each summand
    must be c_s * prod Phi_n^{need_n}; NotDivisible names any other
    cofactor.  An f that is not m-positive is InvalidInput.
    """
    table = _summand_map(m, summands)
    polys = list(table.values())
    if not _divides_nonnegatively(f, polys):
        raise InvalidInput("f is not m-positive, indecomposability is moot")
    factors = [_cyclotomic_factors(poly, "the p = %d summand" % p) for p, poly in table.items()]
    return not _splits(f, _lcm(factors), polys)


def integral_decomposition(total: Poly, m: int,
                           summands: Iterable[Tuple[int, Poly]],
                           all_candidates: bool = False):
    """Minimal m-positive divisor of total and its twist multiplicities.

    total and the summands must be c * prod Phi_n^{e_n} (NotDivisible
    names any other cofactor).  The m-positive divisors contain the
    summands' join; they are ranked by their exponent vectors alone in
    deterministic preference order (lowest degree first, then largest
    value at t = 1), and only the group being walked is sign-checked
    and built, then ordered by lexicographically smallest coefficients.
    The first that is not a sum of two m-positive polynomials (the L * q
    search of is_sum_indecomposable) wins.  Returns (f, total / f); with
    all_candidates=True, the list of every minimal candidate of the best
    degree is returned instead, since minimal divisors need not be unique.
    A candidate whose cofactor total / f has a negative coefficient is no
    decomposition and is dropped; with none left, NoDivisor names the
    first one's lowest negative cofactor coefficient.
    """
    if not total:
        raise NoDivisor("the zero polynomial has no m-positive divisor")
    table = _summand_map(m, summands)
    c, e, factors = _factor_all(total, table)
    L, polys = _lcm(factors), list(table.values())
    found: List[Poly] = []
    positive = False
    for f in _m_positive_divisors(c, e, factors):
        positive = True
        if found and f.degree > found[0].degree:
            break
        if not _splits(f, L, polys):
            found.append(f)
            if not all_candidates:
                break
    if not positive:
        raise NoDivisor("no m-positive divisor of the given polynomial")
    if not found:
        raise NoDivisor("every m-positive divisor splits as a sum")
    results = [(f, total.exact_div(f)) for f in found]
    kept = [(f, mult) for f, mult in results if mult.is_nonnegative]
    if not kept:
        f, mult = results[0]
        i, c = next((i, c) for i, c in enumerate(mult) if c < 0)
        raise NoDivisor("the cofactor of the minimal m-positive divisor (degree %d) has "
                        "coefficient %d at t^%d" % (f.degree, c, i))
    return kept if all_candidates else kept[0]
