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

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

# Unused here; perfbench/tracer.py swaps a traced proxy in at motive.sympy.
import sympy  # noqa: F401

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
from .integers import factorize, is_prime
from .jinvariant import JInvariant, JLike, as_jinvariant
from .kac_table import GroupForm, TorsionData, torsion_data
from .polynomial import Poly, cyclotomic, cyclotomic_exponents, degree_ratio
from .root_data import UNKNOWN, ThetaLike, _split_vertices, flag_degrees, is_generically_split

Degrees = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class MotiveDecomposition:
    """total = summand * multiplicities, all coefficients nonnegative."""

    summand_poincare: Poly
    multiplicities: Poly
    total_poincare: Poly

    def __post_init__(self):
        if self.summand_poincare * self.multiplicities != self.total_poincare:
            raise NotDivisible("summand times multiplicities is not the total")
        if not self.multiplicities.is_nonnegative:
            raise NegativeCoefficient("negative twist multiplicity")
        if self.multiplicities[0] < 1:
            raise NegativeCoefficient("the untwisted copy is missing")

    @property
    def summand_count(self) -> int:
        """Number of twisted copies, the multiplicity value at t = 1."""
        return self.multiplicities(1)

    def twists(self) -> List[int]:
        """The multiset of twists, each i repeated multiplicities[i] times."""
        out = []
        for i, c in enumerate(self.multiplicities.coeffs):
            out.extend([i] * c)
        return out

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
    """sum d_i (p^{j_i} - 1), the degree of the summand polynomial."""
    num, den = summand_degrees(data, as_jinvariant(data, J))
    return sum(num) - sum(den)


def torsion_index_bound(J: JInvariant) -> int:
    """Upper bound p^{sum j_i} for the p-part of the torsion index."""
    return J.p ** J.weight


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
    first remaining a that it divides.  True proves the ratio a polynomial
    with nonnegative coefficients.  False proves nothing: the greedy
    matching can miss, and a ratio without one can still be nonnegative.
    """
    tops, bottoms = list(num), []
    for b in den:
        if b in tops:
            tops.remove(b)
        else:
            bottoms.append(b)
    if len(tops) != len(bottoms):
        return False
    tops.sort()
    for b in sorted(bottoms, reverse=True):
        for i, a in enumerate(tops):
            if a % b == 0:
                del tops[i]
                break
        else:
            return False
    return True


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
    splitness.  Half the Tits data, or a value below 1, is InvalidInput.
    """
    data = torsion_data(form, p)
    J = as_jinvariant(data, J)
    if tits_index is not None or splitting_degree is not None:
        if tits_index is None or splitting_degree is None:
            raise InvalidInput("supply both tits_index and splitting_degree or neither")
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

# Largest divisor sub-box or coefficient box an exhaustive search may cover.
_SEARCH_BUDGET = 2 ** 22
# Largest worst-case coefficient work, sum phi(n) * deg f, of factoring
# f into cyclotomic polynomials; an E8 complete flag (degree 120) needs 1.8M.
_DIVISION_BUDGET = 2 ** 22


def _summand_map(m: int, summands: Iterable[Tuple[int, Poly]]) -> Dict[int, Poly]:
    if m < 1:
        raise ValueError("m must be positive, got %d" % m)
    table = {p: poly for p, poly in summands}
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


def _totients(D: int) -> List[Tuple[int, int]]:
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
    return sorted(pairs)


def _cyclotomic_factors(f: Poly, name: str) -> Tuple[int, Tuple[int, ...]]:
    """(c, e) with the nonzero f = c * prod Phi_n^{e_n}, by exact division
    by each Phi_n with phi(n) <= the remaining degree.  Before the first
    division, the worst case of that trial division, sum phi(n) * D over
    phi(n) <= D = deg f, is checked against _DIVISION_BUDGET.
    NotDivisible names a cofactor that no Phi_n divides."""
    candidates = _totients(f.degree)
    work = f.degree * sum(t for _n, t in candidates)
    if work > _DIVISION_BUDGET:
        raise SearchBudgetExceeded("dividing %s by each Phi_n with phi(n) <= %d costs %d, "
                                   "over budget %d" % (name, f.degree, work, _DIVISION_BUDGET))
    e: List[int] = []
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


def _m_positive_divisors(total: Poly, table: Dict[int, Poly]) -> List[Poly]:
    """The m-positive divisors of total with positive leading coefficient.

    Each contains the join of the summands' cyclotomic exponent vectors,
    so only the sub-box join <= g <= e of the total's vector e, times the
    positive divisors of its content, is built."""
    c, e = _cyclotomic_factors(total, "the total")
    join = [0] * len(e)
    for p, poly in table.items():
        _c, need = _cyclotomic_factors(poly, "the p = %d summand" % p)
        for n, (k, have) in enumerate(itertools.zip_longest(need, e, fillvalue=0), 1):
            if k > have:
                raise NoDivisor("Phi_%d divides the p = %d summand %s, the total %s"
                                % (n, p, _times(k), _times(have)))
        join = [max(j, k) for j, k in itertools.zip_longest(join, need, fillvalue=0)]
    atoms = ([(cyclotomic(n), lo, hi) for n, (lo, hi) in enumerate(zip(join, e), 1)]
             + [(Poly([q]), 0, k) for q, k in factorize(abs(c))])
    size = math.prod(hi - lo + 1 for _base, lo, hi in atoms)
    if size > _SEARCH_BUDGET:
        raise SearchBudgetExceeded("divisor sub-box of %d exceeds budget %d"
                                   % (size, _SEARCH_BUDGET))
    divisors = [Poly.one()]
    for base, lo, hi in atoms:
        powers = [base ** i for i in range(lo, hi + 1)]
        divisors = [d * power for d in divisors for power in powers]
    return [d for d in divisors if _divides_nonnegatively(d, table.values())]


def _times(k: int) -> str:
    return "%d time%s" % (k, "" if k == 1 else "s")


def is_sum_indecomposable(f: Poly, m: int, summands: Iterable[Tuple[int, Poly]]) -> bool:
    """Can f not be written as a sum of two m-positive polynomials?

    Any m-positive summand has nonnegative coefficients, so both parts
    of a decomposition sit inside the coefficient box 0 <= g <= f; the
    box is searched exhaustively, which is feasible at desk scale.
    """
    polys = list(_summand_map(m, summands).values())
    if not _divides_nonnegatively(f, polys):
        raise ValueError("f is not m-positive, indecomposability is moot")
    box = math.prod(c + 1 for c in f.coeffs)
    if box > _SEARCH_BUDGET:
        raise SearchBudgetExceeded("coefficient box of %d exceeds budget %d"
                                   % (box, _SEARCH_BUDGET))
    ranges = [range(c + 1) for c in f.coeffs]
    for combo in itertools.product(*ranges):
        g = Poly(combo)
        if not g or g == f:
            continue
        if _divides_nonnegatively(g, polys) and _divides_nonnegatively(f - g, polys):
            return False
    return True


def integral_decomposition(total: Poly, m: int,
                           summands: Iterable[Tuple[int, Poly]],
                           all_candidates: bool = False):
    """Minimal m-positive divisor of total and its twist multiplicities.

    total must be c * prod Phi_n^{e_n} (NotDivisible names any other
    cofactor).  Its m-positive divisors are searched in deterministic
    preference order (lowest degree first, then largest value at t = 1,
    then lexicographically smallest coefficients) for one that is not a
    sum of two m-positive polynomials.  Returns (f, total / f); with
    all_candidates=True, the list of every minimal candidate of the best
    degree is returned instead, since minimal divisors need not be unique.
    """
    if not total:
        raise NoDivisor("the zero polynomial has no m-positive divisor")
    table = _summand_map(m, summands)
    candidates = _m_positive_divisors(total, table)
    if not candidates:
        raise NoDivisor("no m-positive divisor of the given polynomial")
    candidates.sort(key=lambda f: (f.degree, -f(1), f.coeffs))
    found: List[Poly] = []
    for f in candidates:
        if found and f.degree > found[0].degree:
            break
        if is_sum_indecomposable(f, m, table.items()):
            found.append(f)
            if not all_candidates:
                break
    if not found:
        raise NoDivisor("every m-positive divisor splits as a sum")
    if all_candidates:
        return [(f, total.exact_div(f)) for f in found]
    f = found[0]
    return f, total.exact_div(f)
