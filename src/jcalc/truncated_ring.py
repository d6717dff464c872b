"""Arithmetic in the truncated polynomial ring (Z/p)[x_1..x_r]/(x_i^{p^{k_i}}).

Monomials are exponent tuples M = (m_1, ..., m_r) with m_i < p^{k_i};
anything at or above a truncation bound is zero.  The codimension of a
monomial is |M| = sum d_i m_i, and monomials are well-ordered by DegLex:
first by codimension, ties broken at the greatest index where the
exponents differ.  Ring elements are finite Z/p-linear combinations.

The module also provides the digit-wise Lucas evaluation of binomial
coefficients mod p, the subring closure used to read off J-invariants
from generating cycles, and a small text format for elements.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ContextMismatch, ParseError
from .kac_table import TorsionData

Monomial = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Binomial coefficients mod p
# ---------------------------------------------------------------------------

def lucas_binom(n: int, m: int, p: int) -> int:
    """C(n, m) mod p via base-p digits.

    The binomial is the digit-wise product of C(n_i, m_i) over the base-p
    presentations of n and m; any digit with m_i > n_i kills the product.

    >>> lucas_binom(10, 4, 3)
    0
    >>> lucas_binom(7, 3, 2)
    1
    """
    if n < 0 or m < 0:
        raise ValueError("nonnegative arguments required")
    if m > n:
        return 0
    result = 1
    while m:
        result = result * math.comb(n % p, m % p) % p
        n //= p
        m //= p
    return result % p


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------

def codim(monomial: Monomial, data: TorsionData) -> int:
    """Codimension |M| = sum d_i m_i."""
    if len(monomial) != data.r:
        raise ContextMismatch("monomial length %d, context r = %d" % (len(monomial), data.r))
    return sum(d * m for d, m in zip(data.d, monomial))


def deglex_key(monomial: Monomial, data: TorsionData) -> Tuple[int, Tuple[int, ...]]:
    """Sort key realizing the DegLex well-order.

    Ties in codimension are broken at the greatest differing index, the
    smaller exponent there losing, which is exactly lexicographic
    comparison of the reversed exponent tuples.
    """
    return (codim(monomial, data), tuple(reversed(monomial)))


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------

class RingElement:
    """A finite F_p-linear combination of monomials in a fixed context."""

    __slots__ = ("data", "_terms")

    def __init__(self, data: TorsionData, terms: Optional[Mapping[Monomial, int]] = None):
        self.data = data
        caps = data.caps
        clean: Dict[Monomial, int] = {}
        for mono, c in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != data.r:
                raise ContextMismatch("monomial %r in context r = %d" % (mono, data.r))
            if any(m < 0 for m in mono):
                raise ValueError("negative exponent in %r" % (mono,))
            if any(m >= cap for m, cap in zip(mono, caps)):
                continue  # at or beyond truncation: zero
            c %= data.p
            if c:
                clean[mono] = c
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, data: TorsionData) -> "RingElement":
        return cls(data, {})

    @classmethod
    def one(cls, data: TorsionData) -> "RingElement":
        return cls(data, {(0,) * data.r: 1})

    @classmethod
    def generator(cls, data: TorsionData, i: int) -> "RingElement":
        """x_i, 1-based."""
        if not 1 <= i <= data.r:
            raise ValueError("generator index %d outside 1..%d" % (i, data.r))
        mono = tuple(1 if j == i - 1 else 0 for j in range(data.r))
        return cls(data, {mono: 1})

    @classmethod
    def monomial(cls, data: TorsionData, exponents: Sequence[int], coeff: int = 1) -> "RingElement":
        return cls(data, {tuple(exponents): coeff})

    # -- accessors --------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        return dict(self._terms)

    def coefficient(self, monomial: Monomial) -> int:
        return self._terms.get(tuple(monomial), 0)

    def leading_monomial(self) -> Optional[Monomial]:
        """Greatest monomial in DegLex order; None for the zero element."""
        if not self._terms:
            return None
        return max(self._terms, key=lambda m: deglex_key(m, self.data))

    def leading_coefficient(self) -> int:
        lead = self.leading_monomial()
        return 0 if lead is None else self._terms[lead]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.data == other.data and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.data, tuple(sorted(self._terms.items()))))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RingElement") -> None:
        if self.data != other.data:
            raise ContextMismatch("elements live in different truncated rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, 0) + c
        return RingElement(self.data, out)

    def __neg__(self) -> "RingElement":
        return RingElement(self.data, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, c: int) -> "RingElement":
        return RingElement(self.data, {m: c * v for m, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        caps = self.data.caps
        out: Dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                prod = tuple(a + b for a, b in zip(m1, m2))
                if any(e >= cap for e, cap in zip(prod, caps)):
                    continue  # truncation relation x_i^{p^{k_i}} = 0
                out[prod] = out.get(prod, 0) + c1 * c2
        return RingElement(self.data, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise ValueError("negative power")
        result = RingElement.one(self.data)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- text format --------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms ascending in DegLex, e.g. ``1 + 2*x1^3*x2``."""
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms, key=lambda m: deglex_key(m, self.data)):
            c = self._terms[mono]
            factors = []
            for idx, e in enumerate(mono, start=1):
                if e == 1:
                    factors.append("x%d" % idx)
                elif e > 1:
                    factors.append("x%d^%d" % (idx, e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("%d*%s" % (c, "*".join(factors)))
        return " + ".join(parts)

    @classmethod
    def parse(cls, data: TorsionData, text: str) -> "RingElement":
        """Parse the ``c*x1^a1*...*xr^ar + ...`` format.

        Coefficients must be canonical residues and exponents must stay
        below the truncation bounds p^{k_i}; anything else is rejected.
        """
        text = text.strip()
        if text == "0":
            return cls.zero(data)
        terms: Dict[Monomial, int] = {}
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty term in %r" % (text,))
            coeff = 1
            exps = [0] * data.r
            saw_coeff = False
            for factor in (f.strip() for f in chunk.split("*")):
                if factor.isdigit():
                    if saw_coeff:
                        raise ParseError("two coefficients in term %r" % (chunk,))
                    coeff = int(factor)
                    saw_coeff = True
                    continue
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if not m:
                    raise ParseError("bad factor %r" % (factor,))
                idx = int(m.group(1))
                e = int(m.group(2) or 1)
                if not 1 <= idx <= data.r:
                    raise ParseError("variable x%d outside x1..x%d" % (idx, data.r))
                exps[idx - 1] += e
            if not 0 <= coeff < data.p:
                raise ParseError("coefficient %d not a canonical residue mod %d"
                                 % (coeff, data.p))
            for i, (e, cap) in enumerate(zip(exps, data.caps), start=1):
                if e >= cap:
                    raise ParseError("exponent %d of x%d reaches the truncation bound %d"
                                     % (e, i, cap))
            mono = tuple(exps)
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(data, terms)

    def __repr__(self) -> str:
        return "RingElement(p=%d, %s)" % (self.data.p, self.to_text())


# ---------------------------------------------------------------------------
# Subring closure and J-invariant extraction
# ---------------------------------------------------------------------------

def _reduce_against(elem: RingElement, pivots: Dict[Monomial, RingElement]) -> RingElement:
    """Eliminate the leading monomial of elem against the pivot set."""
    while True:
        lead = elem.leading_monomial()
        if lead is None or lead not in pivots:
            return elem
        elem = elem - pivots[lead].scale(elem.leading_coefficient())


def subring_closure(gens: Sequence[RingElement],
                    data: Optional[TorsionData] = None) -> List[RingElement]:
    """Basis of the smallest unital subring containing the generators.

    Grows span{1} by V <- V + sum_i g_i V: every new basis vector is
    multiplied by each generator once, and each product is
    Gaussian-eliminated over F_p, keyed by the DegLex leading monomial.
    The final span contains 1 and is closed under multiplication by
    every g_i, so it is the subring; the ring is finite, so this
    terminates.  Basis vectors are monic with pairwise distinct leading
    monomials, returned in descending DegLex order.
    """
    if data is None:
        if not gens:
            raise ValueError("need a context when no generators are given")
        data = gens[0].data
    for g in gens:
        if g.data != data:
            raise ContextMismatch("generators live in different truncated rings")
    p = data.p
    pivots: Dict[Monomial, RingElement] = {}

    def insert(elem: RingElement) -> Optional[RingElement]:
        elem = _reduce_against(elem, pivots)
        lead = elem.leading_monomial()
        if lead is None:
            return None
        inv = pow(elem.leading_coefficient(), p - 2, p)
        monic = elem.scale(inv)
        pivots[lead] = monic
        return monic

    frontier = [insert(RingElement.one(data))]
    while frontier:
        fresh: List[RingElement] = []
        for a in frontier:
            for g in gens:
                added = insert(a * g)
                if added is not None:
                    fresh.append(added)
        frontier = fresh
    return sorted(pivots.values(),
                  key=lambda e: deglex_key(e.leading_monomial(), data),
                  reverse=True)


def j_from_generators(gens: Sequence[RingElement], data: TorsionData) -> Tuple[int, ...]:
    """The J-invariant of the subring the generators span with 1.

    j_i is the least j such that some subring element has DegLex leading
    monomial exactly x_i^{p^j}.  Because the closure basis is
    row-reduced, the leading monomials of subring elements are exactly
    its pivots.  When no j < k_i works the answer is k_i: the vanishing
    power x_i^{p^{k_i}} = 0 lies in every subring.
    """
    leads = {e.leading_monomial() for e in subring_closure(list(gens), data)}

    def power(i: int, j: int) -> Monomial:        # x_{i+1}^{p^j}
        return tuple(data.p ** j if m == i else 0 for m in range(data.r))

    return tuple(next((j for j in range(ki) if power(i, j) in leads), ki)
                 for i, ki in enumerate(data.k))
