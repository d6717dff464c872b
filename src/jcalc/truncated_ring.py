"""Arithmetic in the truncated polynomial ring (Z/p)[x_1..x_r]/(x_i^{p^{k_i}}).

Monomials are exponent tuples M = (m_1, ..., m_r) with m_i < p^{k_i};
anything at or above a truncation bound is zero.  The codimension of a
monomial is |M| = sum d_i m_i, and monomials are well-ordered by DegLex:
first by codimension, ties broken at the greatest index where the
exponents differ.  Ring elements are finite Z/p-linear combinations.

An element is stored as {packed key: nonzero residue mod p}, one int per
monomial: key(M) = (|M| << TOP) | sum m_i << shift_i, x_r in the top
field, each field cap_i.bit_length() bits plus a guard bit.  Keys compare
in DegLex order, key(M) + key(N) is the key of MN, and adding BIAS
(2^width - cap_i per field) sets a GUARD bit exactly when some m_i + n_i
reaches p^{k_i}.  So the lead of an element is its greatest key, a
product adds keys and drops the sums that set a guard bit, and the
subring closure eliminates on the stored rows as they are:

>>> data = TorsionData(3, (1, 4), (2, 1))          # x1^9 = x2^3 = 0
>>> key, bias, guard, monomial = _packing(data)
>>> monos = [(a, b) for a in range(9) for b in range(3)]
>>> sorted(monos, key=key) == sorted(monos, key=lambda m: deglex_key(m, data))
True
>>> monomial(key((4, 0)) + key((4, 1)))
(8, 1)
>>> [bool((key(m) + key((4, 1)) + bias) & guard) for m in [(4, 0), (5, 0)]]
[False, True]

Keys are decoded to exponent tuples only for terms, leads and text.  The
module also provides the subring closure that reads J-invariants off
generating cycles, and a small text format for elements.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ContextMismatch, ParseError, SearchBudgetExceeded
from .kac_table import TorsionData

Monomial = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Monomial orders and packed keys
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


@functools.lru_cache(maxsize=64)
def _packing(data: TorsionData):
    """key, BIAS, GUARD and the inverse of key on the monomials of data,
    built once per context: every element operation asks for them."""
    fields, top, bias, guard = [], 0, 0, 0         # fields: (shift, mask), x_1 lowest
    for cap in data.caps:
        width = cap.bit_length()
        fields.append((top, (1 << width) - 1))
        bias += ((1 << width) - cap) << top
        guard |= 1 << (top + width)
        top += width + 1

    def key(mono: Monomial) -> int:
        return (codim(mono, data) << top) + sum(m << s for m, (s, _) in zip(mono, fields))

    def monomial(key: int) -> Monomial:
        return tuple([key >> s & mask for s, mask in fields])

    return key, bias, guard, monomial


def _product(a: Dict[int, int], b: Dict[int, int], p: int, bias: int, guard: int) -> Dict[int, int]:
    """The product of two stored rows, as a stored row; a pair of monomials
    whose exponent sum reaches a cap sets a GUARD bit and is dropped."""
    row: Dict[int, int] = {}
    for ka, ca in a.items():
        biased = ka + bias
        for kb, cb in b.items():
            if not (biased + kb) & guard:
                row[ka + kb] = row.get(ka + kb, 0) + ca * cb
    return {k: c % p for k, c in row.items() if c % p}


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------

class RingElement:
    """A finite F_p-linear combination of monomials in a fixed context,
    stored as {packed key: nonzero residue mod p}."""

    __slots__ = ("data", "_terms")

    def __init__(self, data: TorsionData, terms: Optional[Mapping[Monomial, int]] = None):
        self.data = data
        key, caps, p = _packing(data)[0], data.caps, data.p
        clean: Dict[int, int] = {}
        for mono, c in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != data.r:
                raise ContextMismatch("monomial %r in context r = %d" % (mono, data.r))
            if any(m < 0 for m in mono):
                raise ValueError("negative exponent in %r" % (mono,))
            if any(m >= cap for m, cap in zip(mono, caps)):
                continue  # at or beyond truncation: zero
            c %= p
            if c:
                clean[key(mono)] = c
        self._terms = clean

    @classmethod
    def _from_row(cls, data: TorsionData, row: Dict[int, int]) -> "RingElement":
        """An element stored as row, unchecked: in-ring keys to nonzero residues."""
        elem = object.__new__(cls)
        elem.data, elem._terms = data, row
        return elem

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
        return cls(data, {tuple(1 if j == i - 1 else 0 for j in range(data.r)): 1})

    @classmethod
    def monomial(cls, data: TorsionData, exponents: Sequence[int], coeff: int = 1) -> "RingElement":
        return cls(data, {tuple(exponents): coeff})

    # -- accessors --------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        monomial = _packing(self.data)[3]
        return {monomial(k): c for k, c in self._terms.items()}

    def coefficient(self, monomial: Monomial) -> int:
        """0 outside the ring, tested before encoding: an outside key may alias an inside one."""
        mono, data = tuple(monomial), self.data
        if len(mono) != data.r or not all(0 <= m < cap for m, cap in zip(mono, data.caps)):
            return 0
        return self._terms.get(_packing(data)[0](mono), 0)

    def leading_monomial(self) -> Optional[Monomial]:
        """Greatest monomial in DegLex order, decoded from the greatest key; None for 0."""
        return _packing(self.data)[3](max(self._terms)) if self._terms else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.data == other.data and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.data, frozenset(self._terms.items())))

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
        p, out = self.data.p, dict(self._terms)
        for k, c in other._terms.items():
            out[k] = (out.get(k, 0) + c) % p
        return RingElement._from_row(self.data, {k: c for k, c in out.items() if c})

    def __neg__(self) -> "RingElement":
        return self.scale(-1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, c: int) -> "RingElement":
        p = self.data.p
        row = {k: c * v % p for k, v in self._terms.items()} if c % p else {}
        return RingElement._from_row(self.data, row)   # p is prime: no c v vanishes

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        row = _product(self._terms, other._terms, self.data.p, *_packing(self.data)[1:3])
        return RingElement._from_row(self.data, row)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise ValueError("negative power")
        result, base = RingElement.one(self.data), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- text format --------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms ascending in DegLex, e.g. ``1 + 2*x1^3*x2``."""
        monomial, parts = _packing(self.data)[3], []
        for k in sorted(self._terms):
            c, mono = self._terms[k], monomial(k)
            factors = ["x%d" % i if e == 1 else "x%d^%d" % (i, e)
                       for i, e in enumerate(mono, start=1) if e]
            parts.append("*".join(factors if c == 1 and factors else [str(c)] + factors))
        return " + ".join(parts) or "0"

    @classmethod
    def parse(cls, data: TorsionData, text: str) -> "RingElement":
        """Parse the ``c*x1^a1*...*xr^ar + ...`` format.

        Coefficients must be canonical residues and exponents must stay
        below the truncation bounds p^{k_i}; anything else is rejected.
        """
        text = text.strip()                      # "0" parses as the term 0 * 1
        terms: Dict[Monomial, int] = {}
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty term in %r" % (text,))
            coeff, exps, saw_coeff = 1, [0] * data.r, False
            for factor in (f.strip() for f in chunk.split("*")):
                if factor.isdecimal():
                    if saw_coeff:
                        raise ParseError("two coefficients in term %r" % (chunk,))
                    coeff, saw_coeff = int(factor), True
                    continue
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if not m:
                    raise ParseError("bad factor %r" % (factor,))
                idx, e = int(m.group(1)), int(m.group(2) or 1)
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

# Largest ring rank p^{k_1 + ... + k_r} in which a subring closure is attempted.
_RING_RANK_BUDGET = 2 ** 12
# Most coefficient products one subring closure forms, counted as
# len(basis vector) * len(generator) per pass.  Closures in the tests and
# the benchmark stay under 30,000 and dense whole rings of rank 256 under
# 270,000; a dense rank-1,024 set reaches the budget in about 0.3 s.
_CLOSURE_WORK_BUDGET = 2 ** 19


def subring_closure(gens: Sequence[RingElement],
                    data: Optional[TorsionData] = None) -> List[RingElement]:
    """Basis of the smallest unital subring containing the generators.

    Grows span{1} by V <- V + sum_i g_i V: each new basis vector times
    each generator, eliminated over F_p on its greatest key.  The span
    then contains 1 and is closed under every g_i, so it is the subring.
    Basis vectors are monic pivot rows with distinct leading monomials,
    in descending DegLex order.  Rings of rank above
    _RING_RANK_BUDGET are refused before any product, and a closure stops
    before the (basis vector, generator) pass that would take its count
    of coefficient products past _CLOSURE_WORK_BUDGET.
    """
    if data is None:
        if not gens:
            raise ValueError("need a context when no generators are given")
        data = gens[0].data
    for g in gens:
        if g.data != data:
            raise ContextMismatch("generators live in different truncated rings")
    p, total = data.p, sum(data.k)
    if total >= _RING_RANK_BUDGET.bit_length() or p ** total > _RING_RANK_BUDGET:
        raise SearchBudgetExceeded("a subring closure in a ring of rank %d^%d exceeds the "
                                   "budget of %d monomials" % (p, total, _RING_RANK_BUDGET))
    _key, bias, guard, _monomial = _packing(data)
    pivots: Dict[int, Dict[int, int]] = {0: {0: 1}}     # lead key -> monic row; 1 has key 0
    basis = [pivots[0]]                            # pivot rows in the order they appear
    work = 0                                       # coefficient products formed so far
    for a in basis:                                # basis grows while it is read
        for g in gens:
            work += len(a) * len(g._terms)
            if work > _CLOSURE_WORK_BUDGET:
                raise SearchBudgetExceeded(
                    "a subring closure would form %d coefficient products, past the budget "
                    "of %d" % (work, _CLOSURE_WORK_BUDGET))
            row = _product(a, g._terms, p, bias, guard)
            while row and (lead := max(row)) in pivots:
                c = row[lead]
                for k, v in pivots[lead].items():
                    v = (row.get(k, 0) - c * v) % p
                    if v:
                        row[k] = v
                    else:                          # only a key already in row cancels
                        del row[k]
            if row:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {k: c * inv % p for k, c in row.items()}
                basis.append(pivots[lead])
    return [RingElement._from_row(data, pivots[lead]) for lead in sorted(pivots, reverse=True)]


def j_from_generators(gens: Sequence[RingElement], data: TorsionData) -> Tuple[int, ...]:
    """The J-invariant of the subring the generators span with 1.

    j_i is the least j such that some subring element has DegLex leading
    monomial exactly x_i^{p^j}.  Because the closure basis is
    row-reduced, the leading monomials of subring elements are exactly
    its pivots, read here as keys.  When no j < k_i works the answer is
    k_i: the vanishing power x_i^{p^{k_i}} = 0 lies in every subring.
    """
    leads = {max(e._terms) for e in subring_closure(list(gens), data)}
    key, p, r = _packing(data)[0], data.p, data.r
    power = lambda i, j: key(tuple(p ** j if m == i else 0 for m in range(r)))  # noqa: E731
    return tuple(next((j for j in range(ki) if power(i, j) in leads), ki)
                 for i, ki in enumerate(data.k))
