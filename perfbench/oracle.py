"""Reference arithmetic for checking jcalc outputs, written apart from jcalc.

Nothing here imports jcalc.  Polynomials are plain coefficient lists
(index = degree), matrices are tuples of rows, ring elements are dicts
from exponent tuples to residues.  Each routine is the textbook method,
chosen for being easy to trust rather than fast.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Integer polynomials as coefficient lists
# ---------------------------------------------------------------------------


def trim(a: Sequence[int]) -> List[int]:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def pmul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def pdiv(a: Sequence[int], b: Sequence[int]) -> Optional[List[int]]:
    """Exact quotient a / b over Z, or None when b does not divide a."""
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return []
    if len(a) < len(b):
        return None
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c % lead:
            return None
        q[i] = c // lead
        if q[i]:
            for j, y in enumerate(b):
                rem[i + j] -= q[i] * y
    return trim(q) if not any(rem) else None


def geometric(step: int, terms: int) -> List[int]:
    """1 + t^step + ... with the given number of terms."""
    out = [0] * (step * (terms - 1) + 1)
    for i in range(terms):
        out[step * i] = 1
    return out


def summand(p: int, d: Sequence[int], j: Sequence[int]) -> List[int]:
    """prod_i (1 - t^{d_i p^{j_i}}) / (1 - t^{d_i})."""
    out = [1]
    for di, ji in zip(d, j):
        out = pmul(out, geometric(di, p ** ji))
    return out


# ---------------------------------------------------------------------------
# Dynkin diagrams, Weyl degrees and flag Poincare polynomials
# ---------------------------------------------------------------------------

_EXC_DEGREES = {
    ("G", 2): (2, 6), ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12), ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def degrees(series: str, n: int) -> Tuple[int, ...]:
    if series == "A" or (series == "D" and n == 3):
        return tuple(range(2, n + 2))
    if series in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if series == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return _EXC_DEGREES[(series, n)]


def weyl_order(series: str, n: int) -> int:
    """Closed-form group orders, independent of the degree lists."""
    if series == "A":
        return math.factorial(n + 1)
    if series in ("B", "C"):
        return 2 ** n * math.factorial(n)
    if series == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840,
            ("E", 7): 2903040, ("E", 8): 696729600}[(series, n)]


def edges(series: str, n: int) -> List[Tuple[int, int, int]]:
    """(u, v, bond multiplicity) in Bourbaki numbering."""
    if series in ("A", "B", "C"):
        out = [(i, i + 1, 1) for i in range(1, n)]
        if series != "A" and n >= 2:
            out[-1] = (n - 1, n, 2)
        return out
    if series == "D":
        return [(i, i + 1, 1) for i in range(1, n - 1)] + [(n - 2, n, 1)]
    if series == "E":
        return [(1, 3, 1), (3, 4, 1), (2, 4, 1)] + [(i, i + 1, 1) for i in range(4, n)]
    if series == "F":
        return [(1, 2, 1), (2, 3, 2), (3, 4, 1)]
    if series == "G":
        return [(1, 2, 3)]
    raise ValueError(series)


def component_types(series: str, n: int, theta: Sequence[int]) -> List[Tuple[str, int]]:
    """Dynkin types of the connected components of the subdiagram theta."""
    theta = set(theta)
    if not theta <= set(range(1, n + 1)):
        raise ValueError("theta %s outside 1..%d" % (sorted(theta), n))
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in theta}
    for u, v, m in edges(series, n):
        if u in theta and v in theta:
            adj[u].append((v, m))
            adj[v].append((u, m))
    seen, out = set(), []
    for start in sorted(theta):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(w for w, _m in adj[v])
        seen |= comp
        size = len(comp)
        bonds = [m for v in comp for _w, m in adj[v] if m > 1]
        branch = [v for v in comp if len(adj[v]) == 3]
        if 3 in bonds:
            out.append(("G", 2))
        elif bonds and size == 4 and series == "F":
            out.append(("F", 4))
        elif bonds:
            out.append(("B", size))
        elif branch:
            arms = sorted(_arm_length(adj, branch[0], w) for w, _m in adj[branch[0]])
            out.append(("D", size) if arms[1] == 1 else ("E", size))
        else:
            out.append(("A", size))
    return out


def _arm_length(adj, root: int, first: int) -> int:
    length, prev, cur = 1, root, first
    while True:
        nxt = [w for w, _m in adj[cur] if w != prev]
        if not nxt:
            return length
        prev, cur, length = cur, nxt[0], length + 1


def _divide_by_bracket(a: List[int], d: int) -> List[int]:
    """a / (1 + t + ... + t^{d-1}) = a (1 - t) / (1 - t^d), exactly."""
    b = pmul(a, [1, -1])
    q = list(b)
    for i in range(d, len(q)):
        q[i] += q[i - d]
    return trim(q)


def flag_poincare(series: str, n: int, theta: Sequence[int] = ()) -> List[int]:
    """P(G/P_theta, t) = prod [d]_t over G / prod [d]_t over the Levi."""
    num = [1]
    for d in degrees(series, n):
        num = pmul(num, [1] * d)
    for cs, cn in component_types(series, n, theta):
        for d in degrees(cs, cn):
            num = _divide_by_bracket(num, d)
    return num


# Kac's table (torsion primes of the exceptional forms): (d, k) per (form, p).
EXCEPTIONAL_TORSION = {
    ("G2", 2): ((3,), (1,)),
    ("F4", 2): ((3,), (1,)), ("F4", 3): ((4,), (1,)),
    ("E6sc", 2): ((3,), (1,)), ("E6sc", 3): ((4,), (1,)),
    ("E6ad", 2): ((3,), (1,)), ("E6ad", 3): ((1, 4), (2, 1)),
    ("E7sc", 2): ((3, 5, 9), (1, 1, 1)), ("E7sc", 3): ((4,), (1,)),
    ("E7ad", 2): ((1, 3, 5, 9), (1, 1, 1, 1)), ("E7ad", 3): ((4,), (1,)),
    ("E8", 2): ((3, 5, 9, 15), (3, 2, 1, 1)), ("E8", 3): ((4, 10), (1, 1)),
    ("E8", 5): ((6,), (1,)),
}


# ---------------------------------------------------------------------------
# Dense truncated ring over F_p and span closure
# ---------------------------------------------------------------------------

class DenseRing:
    """(Z/p)[x_1..x_r]/(x_i^{p^{k_i}}) with monomials numbered in DegLex order."""

    def __init__(self, p: int, d: Sequence[int], k: Sequence[int]):
        self.p, self.d, self.k = p, tuple(d), tuple(k)
        self.caps = tuple(p ** ki for ki in k)
        monos = list(itertools.product(*[range(c) for c in self.caps]))
        monos.sort(key=lambda m: (sum(a * b for a, b in zip(self.d, m)), m[::-1]))
        self.monos = monos
        self.index = {m: i for i, m in enumerate(monos)}
        n = len(monos)
        self.table = [[-1] * n for _ in range(n)]
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                prod = tuple(x + y for x, y in zip(a, b))
                if all(e < c for e, c in zip(prod, self.caps)):
                    self.table[i][j] = self.index[prod]

    def vector(self, terms: Dict[Tuple[int, ...], int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for mono, c in terms.items():
            if all(e < cap for e, cap in zip(mono, self.caps)) and c % self.p:
                i = self.index[tuple(mono)]
                out[i] = (out.get(i, 0) + c) % self.p
        return {i: c for i, c in out.items() if c}

    def mul(self, u: Dict[int, int], v: Dict[int, int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for a, ca in u.items():
            row = self.table[a]
            for b, cb in v.items():
                c = row[b]
                if c >= 0:
                    out[c] = (out.get(c, 0) + ca * cb) % self.p
        return {i: c for i, c in out.items() if c}

    def closure_leads(self, gens: Sequence[Dict[int, int]]) -> List[int]:
        """Leading monomials (as DegLex indices) of the subring spanned by
        all products of the generators, by V <- V + V*g until stable."""
        p = self.p
        pivots: Dict[int, Dict[int, int]] = {}
        queue: List[Dict[int, int]] = []

        def insert(v: Dict[int, int]) -> None:
            v = dict(v)
            while v:
                top = max(v)
                if top not in pivots:
                    inv = pow(v[top], p - 2, p)
                    v = {i: c * inv % p for i, c in v.items()}
                    pivots[top] = v
                    queue.append(v)
                    return
                f = v[top]
                for i, c in pivots[top].items():
                    x = (v.get(i, 0) - f * c) % p
                    if x:
                        v[i] = x
                    else:
                        v.pop(i, None)

        insert({0: 1})
        for g in gens:
            insert(g)
        while queue:
            v = queue.pop()
            for g in gens:
                insert(self.mul(v, g))
        return sorted(pivots)

    def j_tuple(self, leads: Sequence[int]) -> Tuple[int, ...]:
        """Least j with x_i^{p^j} a leading monomial, else k_i."""
        have = {self.monos[i] for i in leads}
        out = []
        for i in range(len(self.k)):
            for j in range(self.k[i]):
                mono = tuple(self.p ** j if t == i else 0 for t in range(len(self.k)))
                if mono in have:
                    out.append(j)
                    break
            else:
                out.append(self.k[i])
        return tuple(out)


# ---------------------------------------------------------------------------
# Matrices over Z/m and Z
# ---------------------------------------------------------------------------

Matrix = Tuple[Tuple[int, ...], ...]


def mat(rows, m: Optional[int] = None) -> Matrix:
    if m is None:
        return tuple(tuple(int(x) for x in r) for r in rows)
    return tuple(tuple(int(x) % m for x in r) for r in rows)


def mmul(a: Matrix, b: Matrix, m: Optional[int] = None) -> Matrix:
    cols = list(zip(*b))
    return mat([[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a], m)


def madd(a: Matrix, b: Matrix, m: int) -> Matrix:
    return mat([[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], m)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zero(n: int) -> Matrix:
    return tuple((0,) * n for _ in range(n))


def diag_block(n: int, start: int, stop: int) -> Matrix:
    return tuple(tuple(int(i == j and start <= i < stop) for j in range(n)) for i in range(n))


def unimodular_pair(rng, m: int, n: int, steps: int) -> Tuple[Matrix, Matrix]:
    """A product U of random transvections and its inverse, both mod m."""
    u, u_inv = [list(r) for r in identity(n)], [list(r) for r in identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        a = rng.randrange(1, m)
        u[i] = [(x + a * y) % m for x, y in zip(u[i], u[j])]
        # (I + a E_ij)^{-1} = I - a E_ij, applied on the right of the inverse
        for r in u_inv:
            r[j] = (r[j] - a * r[i]) % m
    return mat(u), mat(u_inv)


def int_det(rows: Matrix) -> int:
    """Determinant over Q by Gaussian elimination with exact fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def matrix_text(rows: Matrix) -> str:
    """The CLI's matrix syntax: rows split by ';', entries by ','."""
    return ";".join(",".join(str(x) for x in r) for r in rows)
