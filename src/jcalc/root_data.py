"""Dynkin diagram bookkeeping.

Invariant degrees of Weyl groups, positive root counts, Poincare
polynomials of complete and partial flag varieties, and the table of
vertices whose absence from a parabolic makes the corresponding flag
variety generically split.

Vertex numbering follows Bourbaki throughout:

* A_n, B_n, C_n: the chain 1 - 2 - ... - n, with the double edge of
  B_n/C_n between n-1 and n;
* D_n: the chain 1 - ... - (n-2) with both n-1 and n attached to n-2;
* E_n: the chain 1 - 3 - 4 - 5 - 6 (- 7 (- 8)) with 2 attached to 4;
* F_4: 1 - 2 = 3 - 4 (double edge in the middle);
* G_2: 1 ~ 2 (triple edge).

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from .errors import InternalInconsistency, InvalidInput, UnsupportedForm
from .polynomial import Poly, cyclotomic_exponents, degree_ratio

SERIES = ("A", "B", "C", "D", "E", "F", "G")


@dataclass(frozen=True)
class DynkinType:
    """A connected Dynkin diagram: series letter plus rank.

    Rank bounds are enforced at construction: E is restricted to ranks
    6..8, F to 4, G to 2 and D starts at 3.  D3 shares its diagram with
    A3 and is normalized to A3 wherever only degrees matter.
    """

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in SERIES:
            raise ValueError("unknown series %r" % (self.series,))
        low, high = {
            "A": (1, None), "B": (1, None), "C": (1, None), "D": (3, None),
            "E": (6, 8), "F": (4, 4), "G": (2, 2),
        }[self.series]
        if self.rank < low or (high is not None and self.rank > high):
            raise ValueError("rank %d invalid for series %s" % (self.rank, self.series))

    def normalized(self) -> "DynkinType":
        """D3 is the same diagram as A3; identify them for degree lookups."""
        if self.series == "D" and self.rank == 3:
            return DynkinType("A", 3)
        return self

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    def __str__(self) -> str:
        return "%s%d" % (self.series, self.rank)

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in SERIES or not text[1:].isdecimal():
            raise InvalidInput("cannot parse Dynkin type from %r" % (text,))
        return cls(text[0].upper(), int(text[1:]))


# ---------------------------------------------------------------------------
# Weyl group degrees
# ---------------------------------------------------------------------------

_EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def weyl_degrees(t: DynkinType) -> Tuple[int, ...]:
    """Degrees of the basic polynomial invariants of the Weyl group.

    The product of the degrees is the order of the Weyl group and the
    sum of (degree - 1) is the number of positive roots.
    """
    t = t.normalized()
    n = t.rank
    if t.series == "A":
        return tuple(range(2, n + 2))
    if t.series in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if t.series == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return _EXCEPTIONAL_DEGREES[(t.series, n)]


def poincare_complete_flag(t: DynkinType) -> Poly:
    """Poincare polynomial of the complete flag variety of the given type.

    prod_i (1 - t^{d_i}) / (1 - t) over the invariant degrees d_i; the
    value at t = 1 is the Weyl group order and the degree is the number
    of positive roots.
    """
    return degree_ratio(weyl_degrees(t), (1,) * t.rank)


# ---------------------------------------------------------------------------
# Diagram combinatorics
# ---------------------------------------------------------------------------

def dynkin_edges(t: DynkinType) -> Tuple[Tuple[int, int, int], ...]:
    """Edges (a, b, multiplicity) of the Dynkin diagram, a < b."""
    n = t.rank
    if t.series == "A":
        return tuple((i, i + 1, 1) for i in range(1, n))
    if t.series in ("B", "C"):
        return tuple((i, i + 1, 1) for i in range(1, n - 1)) + (((n - 1, n, 2),) if n >= 2 else ())
    if t.series == "D":
        chain = tuple((i, i + 1, 1) for i in range(1, n - 2))
        return chain + ((n - 2, n - 1, 1), (n - 2, n, 1))
    if t.series == "G":
        return ((1, 2, 3),)
    if t.series == "F":
        return ((1, 2, 1), (2, 3, 2), (3, 4, 1))
    # E series
    edges = [(1, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (2, 4, 1)]
    if n >= 7:
        edges.append((6, 7, 1))
    if n == 8:
        edges.append((7, 8, 1))
    return tuple(edges)


ThetaLike = Optional[Iterable[int]]


def _theta_set(t: DynkinType, theta: ThetaLike) -> FrozenSet[int]:
    """theta as a vertex set of t; None (like the empty set) is the Borel."""
    theta = frozenset(theta or ())
    bad = sorted(v for v in theta if not 1 <= v <= t.rank)
    if bad:
        raise ValueError("vertices %s outside 1..%d" % (bad, t.rank))
    return theta


def _adjacency(t: DynkinType) -> List[int]:
    """Neighbours of each vertex v of t as a bitmask at index v; vertex w is bit w - 1."""
    adjacent = [0] * (t.rank + 1)
    for a, b, _m in dynkin_edges(t):
        adjacent[a] |= 1 << (b - 1)
        adjacent[b] |= 1 << (a - 1)
    return adjacent


def _join(components: List[int], v: int, adjacent: List[int]) -> List[int]:
    """Component masks once vertex v joins those adjacent to it; its own comes last."""
    joined, rest = 1 << (v - 1), []
    for c in components:
        if c & adjacent[v]:
            joined |= c
        else:
            rest.append(c)
    rest.append(joined)
    return rest


def _component_type(t: DynkinType, comp: int) -> DynkinType:
    """Type of a connected vertex mask comp of t, read off where it sits: a
    chain unless it holds the multiple edge or the branch of t (C reads as B)."""
    k, s, n = comp.bit_count(), t.series, t.rank
    if s in "FG" and k == n:
        return t
    if k >= 2 and (s in "BC" and comp >> (n - 1) or s == "F" and comp & 0b110 == 0b110):
        return DynkinType("B", k)
    if s == "D" and comp >> (n - 2) == 0b11:
        return DynkinType("D", k).normalized()
    if s == "E" and comp & 0b11110 == 0b11110:
        return DynkinType("E" if comp & 1 and k >= 6 else "D", k)
    return DynkinType("A", k)


def theta_components(t: DynkinType, theta: ThetaLike) -> List[DynkinType]:
    """Types of the connected components of theta, in order of least vertex,
    each read off where it sits in t; a vertex outside 1..rank raises
    ValueError and None is the Borel."""
    adjacent, components = _adjacency(t), []
    for v in sorted(_theta_set(t, theta)):
        components = _join(components, v, adjacent)
    return [_component_type(t, c) for c in sorted(components, key=lambda c: c & -c)]


def flag_degrees(t: DynkinType, theta: ThetaLike) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Degrees (num, den) with P(G/P_theta) = prod (1 - t^a) / prod (1 - t^b):
    the Weyl degrees over the Levi degrees (those of the components of
    theta, sorted) padded with 1 up to the rank."""
    levi = sorted(d for comp in theta_components(t, theta) for d in weyl_degrees(comp))
    return weyl_degrees(t), tuple(levi) + (1,) * (t.rank - len(levi))


def poincare_weyl_subgroup(t: DynkinType, theta: ThetaLike) -> Poly:
    """Length generating polynomial of the parabolic Weyl subgroup W_theta.

    W_theta is the direct product of the Weyl groups of the connected
    components of theta, so its Poincare polynomial is
    prod (1 - t^b) / (1 - t) over the Levi degrees b, which is the
    padded den of flag_degrees over (1 - t)^rank.
    """
    return degree_ratio(flag_degrees(t, theta)[1], (1,) * t.rank)


def poincare_homogeneous(t: DynkinType, theta: ThetaLike = None) -> Poly:
    """Poincare polynomial of the flag variety G/P_theta.

    P(W) / P(W_theta), the degree ratio of flag_degrees; the Borel gives
    the complete flag and the full vertex set the constant 1.
    """
    num, den = flag_degrees(t, theta)
    if min(cyclotomic_exponents(num, den), default=0) < 0:  # corrupted degree data
        raise InternalInconsistency(
            "P(W_theta) does not divide P(W) for %s, theta=%s" % (t, theta))
    q = degree_ratio(num, den)
    if not q.is_nonnegative:
        raise InternalInconsistency("negative flag quotient for %s" % (t,))
    return q


# ---------------------------------------------------------------------------
# Generic splitness
# ---------------------------------------------------------------------------

class _Unknown:
    """Outcome of a test that depends on data beyond (d, q)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unknown"

    def __bool__(self) -> bool:
        raise TypeError("Unknown splitness outcome has no truth value; "
                        "compare with `is UNKNOWN`")


UNKNOWN = _Unknown()


def _split_vertices(t: DynkinType, d: int, q: int) -> FrozenSet[int]:
    """Vertices k of t such that the group splits over F(X_theta) whenever
    k lies outside theta, for Tits index d and splitting degree q
    (Petrov-Semenov).  For B and D this leaves out the Pfister escape.

    >>> sorted(_split_vertices(DynkinType("E", 8), 1, 8))
    [2, 3, 4, 5]
    """
    if d < 1 or q < 1:
        raise InvalidInput("Tits index d=%d and splitting degree q=%d must both be "
                           "positive" % (d, q))
    n, s = t.rank, t.series
    if s == "A":
        return frozenset(k for k in t.vertices if math.gcd(k, d) == 1)
    if s == "C":
        return frozenset(k for k in t.vertices if k % 2 == 1)
    if s == "G":
        return frozenset({1, 2})
    if s == "F":
        return frozenset({1, 2, 3, *(t.vertices if q == 3 else ())})
    if s == "E" and n == 6:
        return frozenset({3, 5, *((2, 4) if d == 1 else ()), *((1, 6) if q % 2 == 1 else ())})
    if s == "E" and n == 7:
        return frozenset({2, 5, *((3, 4) if d == 1 else ()), *(range(1, 7) if q == 3 else ())})
    if s == "E":
        return frozenset({2, 3, 4, 5, *(t.vertices if q == 5 else ())})
    if s == "B":
        return frozenset({n})
    return frozenset({n - 1, n} if d == 1 else ())


def is_generically_split(form, theta: ThetaLike, tits_index: int,
                         splitting_degree: int,
                         pfister: Optional[bool] = None):
    """Does the group split over the function field of the flag X_theta?

    ``tits_index`` is the index d of the Tits algebra (for D_n, of the
    algebra associated with the vector representation) and
    ``splitting_degree`` is the degree q of a splitting field, both
    positive (InvalidInput otherwise).  Returns True when theta leaves
    out a vertex of the table _split_vertices.  Otherwise, for series B
    and D with some vertex outside theta, the answer depends on whether
    the underlying form is a Pfister form or its maximal neighbor, which
    (d, q) cannot decide: the ``pfister`` flag settles it, and without
    it the answer is UNKNOWN.  Every other case is False.

    Accepts a GroupForm or a bare DynkinType; only the type matters.
    """
    t = form.base if hasattr(form, "base") else form
    if not isinstance(t, DynkinType):
        raise UnsupportedForm("expected a Dynkin type or group form, got %r" % (form,))
    outside = frozenset(t.vertices) - _theta_set(t, theta)
    if outside & _split_vertices(t, tits_index, splitting_degree):
        return True
    # B and D carry the Pfister escape: a Pfister form or maximal
    # neighbor splits over any X_theta.
    if not outside or t.series not in ("B", "D"):
        return False
    return UNKNOWN if pfister is None else bool(pfister)
