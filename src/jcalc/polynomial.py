"""Exact integer polynomials in one variable t.

Poincare polynomials of cell structures are the bookkeeping currency of
this package: coefficients count Tate twists, so all arithmetic is exact
over the integers and division failures are meaningful domain signals,
never numerical noise.

A polynomial is stored as a tuple of coefficients indexed by degree,
with no trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import sub
from typing import Iterable, Iterator, List, Tuple

from .errors import NotDivisible, SearchBudgetExceeded
from .integers import mobius


class Poly:
    """Immutable integer polynomial.

    >>> Poly([1, 1]) * Poly([1, -1])
    Poly([1, 0, -1])
    >>> (Poly([1, 0, -1])).exact_div(Poly([1, 1]))
    Poly([1, -1])
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for x in c:
            if not isinstance(x, int):
                raise TypeError("integer coefficients required, got %r" % (x,))
        self._c = tuple(c)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "Poly":
        """coeff * t^degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def geometric(cls, step: int, terms: int) -> "Poly":
        """1 + t^step + t^(2 step) + ... with the given number of terms.

        Equals (1 - t^(step*terms)) / (1 - t^step) as an exact quotient.
        """
        if step <= 0 or terms <= 0:
            raise ValueError("step and terms must be positive")
        c = [0] * (step * (terms - 1) + 1)
        for i in range(terms):
            c[step * i] = 1
        return cls(c)

    # -- basic accessors ----------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._c) - 1

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __getitem__(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return "Poly(%s)" % (list(self._c),)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            mono = "t" if i == 1 else "t^%d" % i
            parts.append({1: "", -1: "-"}.get(c, "%d*" % c) + mono)
        return " + ".join(parts).replace("+ -", "- ")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-x for x in self._c))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(tuple(other * x for x in self._c))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._c or not other._c:
            return Poly.zero()
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, x in enumerate(self._c):
            if x == 0:
                continue
            for j, y in enumerate(other._c):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    # -- division ------------------------------------------------------

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor over the integers.

        Synthetic division from the top degree down, aborting on the
        first coefficient that fails to divide; raises NotDivisible if
        any remainder survives.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._c:
            return Poly.zero()
        dd = divisor.degree
        if self.degree < dd:
            raise NotDivisible("degree %d < %d" % (self.degree, dd))
        lead = divisor._c[-1]
        rem = list(self._c)
        q = [0] * (self.degree - dd + 1)
        for i in range(len(q) - 1, -1, -1):
            c = rem[i + dd]
            if c == 0:
                continue
            if c % lead:
                raise NotDivisible("coefficient %d not divisible by %d" % (c, lead))
            f = c // lead
            q[i] = f
            for j, y in enumerate(divisor._c):
                rem[i + j] -= f * y
        if any(rem):
            raise NotDivisible("nonzero remainder")
        return Poly(q)

    # -- predicates -----------------------------------------------------

    @property
    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._c)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, _from_exponents at the unit vector e_n.

    >>> str(cyclotomic(6))
    '1 - t + t^2'
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _from_exponents(1, (0,) * (n - 1) + (1,))


def cyclotomic_exponents(num: Iterable[int], den: Iterable[int]) -> Tuple[int, ...]:
    """Exponents (e_1, e_2, ...) of Phi_n in prod_{a in num} (1 - t^a) /
    prod_{b in den} (1 - t^b), trailing zeros dropped: e_n = #{n | a} -
    #{n | b}.  The ratio is a polynomial exactly when no e_n is negative,
    and is then fixed by the tuple (its constant term is 1).  With the
    signed count c[a] of each degree, e_n is the sum of c over the
    multiples of n.

    >>> cyclotomic_exponents((2, 3), (1, 1))
    (0, 1, 1)
    """
    num, den = list(num), list(den)
    c = [0] * (max(num + den, default=0) + 1)
    for a in num:
        c[a] += 1
    for b in den:
        c[b] -= 1
    e = [sum(c[n::n]) for n in range(1, len(c))]
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


@functools.lru_cache(maxsize=None)
def _mobius_divisors(n: int) -> Tuple[Tuple[int, int], ...]:
    """(d, mu(n / d)) for each divisor d of n with mu(n / d) != 0."""
    return tuple((d, mobius(n // d)) for d in range(1, n + 1)
                 if n % d == 0 and mobius(n // d))


def cyclotomic_degrees(e: Iterable[int]) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(sign, num, den) with prod Phi_n^{e_n} = sign * prod_{a in num}
    (1 - t^a) / prod_{b in den} (1 - t^b), the inverse of
    cyclotomic_exponents.  By Phi_n = prod_{d | n} (1 - t^d)^{mu(n/d)}
    for n >= 2 and Phi_1 = -(1 - t), degree d appears c_d = sum over the
    multiples n of d of mu(n/d) e_n times, and sign = (-1)^{e_1}.

    >>> cyclotomic_degrees((0, 1, 1))
    (1, (2, 3), (1, 1))
    >>> cyclotomic_degrees((1, 0, 0, 0, 0, 1))
    (-1, (1, 1, 6), (2, 3))
    """
    e = tuple(e)
    c = [0] * (len(e) + 1)
    for n, k in enumerate(e, 1):
        if k:
            for d, mu in _mobius_divisors(n):
                c[d] += mu * k
    num = tuple(d for d, k in enumerate(c) for _ in range(k))
    den = tuple(d for d, k in enumerate(c) for _ in range(-k))
    return (-1 if e and e[0] % 2 else 1), num, den


def _from_exponents(c: int, e: Iterable[int]) -> Poly:
    """c * prod Phi_n^{e_n}, built as a degree ratio."""
    sign, num, den = cyclotomic_degrees(e)
    return degree_ratio(num, den) * (sign * c)


def _cancel_common(num: Iterable[int], den: Iterable[int]) -> Tuple[List[int], List[int]]:
    """num and den less the degrees they share, one copy per match; on a
    dozen degrees list.remove is several times faster than a Counter.

    >>> _cancel_common((2, 3, 6, 2), (1, 2, 6))
    ([3, 2], [1])
    """
    num, rest = list(num), []
    for b in den:
        if b in num:
            num.remove(b)
        else:
            rest.append(b)
    return num, rest


# Largest degree a degree ratio may have; flag poincare A300 --theta 1
# has degree 45,150, an E8 complete flag 120.
_DEGREE_BUDGET = 2 ** 20


def degree_ratio(num: Iterable[int], den: Iterable[int]) -> Poly:
    """prod_{a in num} (1 - t^a) / prod_{b in den} (1 - t^b), which must be
    a polynomial.  Common degrees cancel; the rest is a power series up to
    degree sum(num) - sum(den), O(degree) per factor, checked against
    _DEGREE_BUDGET before the first coefficient.

    >>> degree_ratio((2, 3), (1, 1))
    Poly([1, 2, 2, 1])
    """
    num, den = _cancel_common(num, den)
    degree = sum(num) - sum(den)
    if degree > _DEGREE_BUDGET:     # str() raises on an int of over 4,300 digits
        raise SearchBudgetExceeded("a polynomial of degree %s exceeds budget %d" % (
            degree if degree < 2 ** 64 else "above 2^64", _DEGREE_BUDGET))
    f = [1] + [0] * degree
    for a in num:
        f[a:] = map(sub, f[a:], f)          # times 1 - t^a
    for b in den:
        for r in range(b):
            f[r::b] = accumulate(f[r::b])   # over 1 - t^b: q_i = f_i + q_{i-b}
    return Poly(f)
