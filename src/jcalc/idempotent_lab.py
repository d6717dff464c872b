"""Constructive lifting lemmas over matrix rings with finite coefficients.

Desk-scale, brute-force-verifiable models of idempotent lifting along
ring surjections with nilpotent kernel: single idempotents and
orthogonal families mod p lifted exactly to Z/p^n, lifting of mutually
inverse isomorphisms between idempotents, the Chinese-remainder
splitting of Z/m coefficients, and integer lifts of SL_l(Z/m) matrices
through elementary transvections.

Every construction returns objects whose defining identities hold as
exact matrix equations, and every public function verifies them before
returning; nothing is approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DeterminantNotOne,
    HypothesisViolated,
    InternalInconsistency,
    InvalidInput,
    NotAFamily,
    NotAlmostIdempotent,
    ParseError,
    SearchBudgetExceeded,
)
from .integers import factorize, int_det, prime_power

IntMatrix = Tuple[Tuple[int, ...], ...]


def _require_prime_power(m: int) -> Tuple[int, int]:
    """(p, n) with m = p^n; InvalidInput when m is not a prime power."""
    pp = prime_power(m)
    if pp is None:
        raise InvalidInput("modulus %d is not a prime power" % m)
    return pp


def _require_modulus(m: int) -> None:
    if m < 2:
        raise InvalidInput("modulus must be at least 2, got %d" % m)


# Largest matrix size built or lifted; elimination is O(size^3), about 1.4 s
# at size 200.  Tests, scripts and benchmarks use sizes up to 10.
_MATRIX_SIZE_BUDGET = 128


def _require_size(size: int) -> None:
    if size > _MATRIX_SIZE_BUDGET:
        raise SearchBudgetExceeded("a matrix of size %d exceeds the budget of size %d"
                                   % (size, _MATRIX_SIZE_BUDGET))


@dataclass(frozen=True, slots=True)
class ModMatrix:
    """A square matrix with canonical entries in 0..m-1.

    Public construction reduces and checks its entries; arithmetic
    reduces while it builds its result and skips that check (_canonical).
    """

    modulus: int
    entries: IntMatrix
    # Rows packed for __mul__, kept the first time this is a right operand.
    _packed: Optional[List[int]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.modulus
        _require_modulus(m)
        rows = tuple(self.entries)
        _require_size(len(rows))
        rows = tuple([tuple([int(x) % m for x in row]) for row in rows])
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise InvalidInput("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _canonical(cls, modulus: int, entries: IntMatrix) -> "ModMatrix":
        """A matrix whose entries are already square tuples of residues.

        The caller vouches for what __post_init__ would check and reduce.
        """
        mat = object.__new__(cls)
        object.__setattr__(mat, "modulus", modulus)
        object.__setattr__(mat, "entries", entries)
        object.__setattr__(mat, "_packed", None)
        return mat

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, modulus: int, size: int) -> "ModMatrix":
        return cls(modulus, tuple(tuple(1 if i == j else 0 for j in range(size))
                                  for i in range(size)))

    @classmethod
    def zero(cls, modulus: int, size: int) -> "ModMatrix":
        return cls(modulus, tuple((0,) * size for _ in range(size)))

    # -- accessors --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "ModMatrix") -> None:
        if self.modulus != other.modulus or self.size != other.size:
            raise InvalidInput("matrix shape or modulus mismatch: size %d mod %d against size "
                               "%d mod %d" % (self.size, self.modulus, other.size, other.modulus))

    def _entrywise(self, op, other: "ModMatrix") -> "ModMatrix":
        self._check(other)
        m = self.modulus
        return ModMatrix._canonical(m, tuple([tuple([x % m for x in map(op, r1, r2)])
                                              for r1, r2 in zip(self.entries, other.entries)]))

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "ModMatrix":
        m = self.modulus
        return ModMatrix._canonical(m, tuple([tuple([-a % m for a in row])
                                              for row in self.entries]))

    def __mul__(self, other):
        """Scalar multiple for an int, else the matrix product mod m.

        Row k of ``other`` is packed into one int, b_kj in the w-bit field
        at bit w*j, so row i of the product is sum_k a_ik * packed_k:
        ``size`` big-int multiply-adds instead of ``size**2`` dot products.
        Entries lie in 0..m-1, so field j ends as sum_k a_ik b_kj <=
        size*(m-1)**2 < 2**w for w = (size*(m-1)**2).bit_length() and never
        carries; it is read back by shift and mask and reduced mod m.
        ``other`` keeps its packed rows, as w depends only on its shape.
        """
        m = self.modulus
        if isinstance(other, int):
            return ModMatrix._canonical(m, tuple([tuple([other * a % m for a in row])
                                                  for row in self.entries]))
        self._check(other)
        w = (self.size * (m - 1) ** 2).bit_length()
        shifts = [w * j for j in range(self.size)]
        packed = other._packed
        if packed is None:
            packed = [sum([b << s for b, s in zip(row, shifts)]) for row in other.entries]
            object.__setattr__(other, "_packed", packed)
        mask = (1 << w) - 1
        return ModMatrix._canonical(m, tuple([tuple([((v >> s) & mask) % m for s in shifts])
                                              for v in [sum(map(mul, row, packed))
                                                        for row in self.entries]]))

    __rmul__ = __mul__

    @property
    def is_idempotent(self) -> bool:
        return self * self == self

    def reduce(self, modulus: int) -> "ModMatrix":
        """The matrix mod a positive divisor of the modulus; InvalidInput
        for any other modulus, as for ModMatrix(...) below 2."""
        if modulus < 1 or self.modulus % modulus:
            raise InvalidInput("can only reduce to a divisor of the modulus %d, got %d"
                               % (self.modulus, modulus))
        return ModMatrix(modulus, self.entries)

    def det(self) -> int:
        """Determinant mod modulus, by exact integer expansion."""
        return int_det(self.entries) % self.modulus

    # -- text format --------------------------------------------------------

    def to_text(self) -> str:
        """Header line ``mod m size l`` then rows ';'-separated, entries ','."""
        body = ";".join(",".join(str(x) for x in row) for row in self.entries)
        return "mod %d size %d\n%s" % (self.modulus, self.size, body)

    @classmethod
    def parse(cls, text: str, modulus: Optional[int] = None) -> "ModMatrix":
        """Parse either the headered format or a bare row string plus modulus."""
        text = text.strip()
        if text.startswith("mod"):
            try:
                header, body = text.split("\n", 1)
                _mod, m_text, _size, l_text = header.split()
                m, size = int(m_text), int(l_text)
            except ValueError as exc:
                raise ParseError("bad matrix header in %r" % (text,)) from exc
        else:
            if modulus is None:
                raise ParseError("bare matrix text needs an explicit modulus")
            m, size, body = modulus, None, text
        try:
            rows = [[int(x) for x in row.split(",")] for row in body.strip().split(";")]
        except ValueError as exc:
            raise ParseError("bad matrix body in %r" % (text,)) from exc
        mat = cls(m, rows)
        if size is not None and mat.size != size:
            raise ParseError("header says size %d, body has %d rows" % (size, mat.size))
        return mat


# ---------------------------------------------------------------------------
# Idempotent lifting
# ---------------------------------------------------------------------------

def _idempotent_iteration(e: ModMatrix, n: int) -> ModMatrix:
    """Iterate e <- 3e^2 - 2e^3 over Z/p^n until e is idempotent.

    The iteration fixes e mod p and squares the nilpotency order of
    e^2 - e at each step, so at most ceil(log2 n) + 1 rounds are needed.
    It has no constant term, so it stays inside any corner ring u A u
    that contains e.
    """
    for _ in range(max(1, n).bit_length() + 1):
        e2 = e * e
        if e2 == e:
            return e
        e = 3 * e2 - 2 * (e2 * e)
    if not e.is_idempotent:
        raise InternalInconsistency("idempotent iteration failed to converge")
    return e


def lift_idempotent(a: ModMatrix) -> ModMatrix:
    """Lift an idempotent mod p to an exact idempotent over Z/p^n.

    Uses the polynomial iteration e <- 3e^2 - 2e^3 (see
    _idempotent_iteration).  No division occurs, so the construction is
    valid for every prime including 2.
    """
    p, n = _require_prime_power(a.modulus)
    reduced = a.reduce(p)
    if not reduced.is_idempotent:
        raise NotAlmostIdempotent("matrix is not idempotent mod %d" % p)
    e = _idempotent_iteration(a, n)
    if e.reduce(p) != reduced:
        raise InternalInconsistency("lift does not reduce to the input mod p")
    return e


def _family_defect(members: Sequence[ModMatrix]) -> Optional[str]:
    """The first way members fail to be a complete orthogonal idempotent
    family: a sum other than the identity, a member that is not
    idempotent, or two members that are not orthogonal."""
    m, size = members[0].modulus, members[0].size
    if sum(members[1:], members[0]) != ModMatrix.identity(m, size):
        return "family does not sum to the identity mod %d" % m
    zero = ModMatrix.zero(m, size)
    for i, e in enumerate(members):
        if not e.is_idempotent:
            return "member %d is not idempotent mod %d" % (i, m)
        for j, f in enumerate(members[i + 1:], i + 1):
            if e * f != zero or f * e != zero:
                return "members %d and %d are not orthogonal mod %d" % (i, j, m)
    return None


def lift_orthogonal_family(family: Sequence[ModMatrix]) -> List[ModMatrix]:
    """Lift a complete orthogonal idempotent family mod p to Z/p^n.

    The inputs must reduce mod p to pairwise orthogonal idempotents
    summing to the identity.  Each member but the last is cut down to the
    corner uAu of the unit u that the earlier lifts leave (u = 1 minus
    their sum) and lifted exactly there; the last output is whatever
    unit remains, which makes the sum exactly the identity.
    """
    if not family:
        raise NotAFamily("empty family")
    mod = family[0].modulus
    size = family[0].size
    p, n = _require_prime_power(mod)
    if any(f.modulus != mod or f.size != size for f in family):
        raise NotAFamily("family members have mismatched shape or modulus")
    reductions = [f.reduce(p) for f in family]
    defect = _family_defect(reductions)
    if defect:
        raise NotAFamily(defect)

    unit = ModMatrix.identity(mod, size)
    lifted = []
    for x in family[:-1]:
        e = _idempotent_iteration(unit * x * unit, n)
        lifted.append(e)
        unit = unit - e
    lifted.append(unit)
    # verify the advertised exact identities before returning
    defect = _family_defect(lifted)
    if defect:
        raise InternalInconsistency("lifted " + defect)
    if [e.reduce(p) for e in lifted] != reductions:
        raise InternalInconsistency("lifted family has the wrong reduction")
    return lifted


# ---------------------------------------------------------------------------
# Isomorphism lifting
# ---------------------------------------------------------------------------

def lift_isomorphism(phi1: ModMatrix, phi2: ModMatrix,
                     psi12: ModMatrix, psi21: ModMatrix) -> Tuple[ModMatrix, ModMatrix]:
    """Upgrade a mod-p isomorphism between exact idempotents to an exact one.

    Hypotheses over Z/p^n: phi1 and phi2 are idempotent, and mod p the
    corner maps invert each other, psi21 psi12 = phi1 and
    psi12 psi21 = phi2.  The outputs

        theta12 = phi2 psi12 phi1,
        theta21 = (phi1 psi21 phi2) alpha*,

    where alpha = theta12 (phi1 psi21 phi2) - phi2 vanishes mod p, so
    alpha^n = 0, and alpha* = phi2 (1 - alpha + ... + (-alpha)^{n-1}),
    satisfy theta21 theta12 = phi1 and theta12 theta21 = phi2 exactly.
    """
    mod = phi1.modulus
    p, n_exp = _require_prime_power(mod)
    size = phi1.size
    for m in (phi2, psi12, psi21):
        phi1._check(m)
    if not phi1.is_idempotent:
        raise HypothesisViolated("phi1 is not idempotent")
    if not phi2.is_idempotent:
        raise HypothesisViolated("phi2 is not idempotent")
    if (psi21 * psi12).reduce(p) != phi1.reduce(p):
        raise HypothesisViolated("psi21 psi12 != phi1 mod %d" % p)
    if (psi12 * psi21).reduce(p) != phi2.reduce(p):
        raise HypothesisViolated("psi12 psi21 != phi2 mod %d" % p)

    theta12 = phi2 * psi12 * phi1
    pre21 = phi1 * psi21 * phi2
    alpha = theta12 * pre21 - phi2
    if alpha.reduce(p) != ModMatrix.zero(p, size):
        raise HypothesisViolated("alpha does not vanish mod %d" % p)
    alpha_star = power = phi2
    minus_alpha = -alpha
    for _ in range(1, n_exp):
        power = power * minus_alpha
        alpha_star = alpha_star + power
    theta21 = pre21 * alpha_star

    if theta12 * theta21 != phi2 or theta21 * theta12 != phi1:
        raise InternalInconsistency("lifted isomorphisms fail their defining identities")
    return theta12, theta21


# ---------------------------------------------------------------------------
# Chinese remainder splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrtSplitting:
    """Transport between Z/m matrices and tuples of prime-power reductions."""

    modulus: int
    factors: Tuple[Tuple[int, int], ...]

    @property
    def prime_power_moduli(self) -> Tuple[int, ...]:
        return tuple(p ** e for p, e in self.factors)

    def split(self, matrix: ModMatrix) -> Tuple[ModMatrix, ...]:
        if matrix.modulus != self.modulus:
            raise InvalidInput("matrix modulus %d is not %d" % (matrix.modulus, self.modulus))
        return tuple(matrix.reduce(q) for q in self.prime_power_moduli)

    def combine(self, parts: Sequence[ModMatrix]) -> ModMatrix:
        moduli = self.prime_power_moduli
        if len(parts) != len(moduli) or any(
                part.modulus != q for part, q in zip(parts, moduli)):
            raise InvalidInput("parts do not match the prime-power moduli %s" % (moduli,))
        size = parts[0].size
        if any(part.size != size for part in parts):
            raise InvalidInput("parts have mismatched sizes")
        return ModMatrix(self.modulus, [[_crt(cell, moduli) for cell in zip(*rows)]
                                        for rows in zip(*(part.entries for part in parts))])


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        # solve x' = x mod m, x' = r mod q with gcd(m, q) = 1
        inv = pow(m % q, -1, q)
        x = x + m * ((r - x) * inv % q)
        m *= q
    return x % m


def crt_split(m: int) -> CrtSplitting:
    """Prime factorization of m with invertible residue transport."""
    _require_modulus(m)
    return CrtSplitting(m, tuple(factorize(m)))


# ---------------------------------------------------------------------------
# SL lifting through elementary matrices
# ---------------------------------------------------------------------------

def _transvection_word(matrix: ModMatrix) -> List[Tuple[int, int, int]]:
    """Row additions (i, j, a), row_i += a * row_j in this order, that
    drive a determinant-1 matrix to the identity over Z/m: Z/m is
    semi-local, so a CRT combination of rows always reaches a unit pivot.
    """
    m = matrix.modulus
    size = matrix.size
    work = [list(row) for row in matrix.entries]
    ops: List[Tuple[int, int, int]] = []

    def apply(i: int, j: int, a: int) -> None:
        a %= m
        if a == 0 or i == j:
            return
        work[i] = [(x + a * y) % m for x, y in zip(work[i], work[j])]
        ops.append((i, j, a))

    factors = factorize(m)
    primes = [p for p, _e in factors]

    def make_pivot_unit(c: int) -> None:
        # choose, for each prime where the pivot vanishes, a row below
        # carrying a unit contribution, and add the CRT combination
        needed: Dict[int, int] = {}
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

    def make_pivot_one(c: int) -> None:
        if work[c][c] % m == 1:
            return
        helper = next((r for r in range(c + 1, size) if math.gcd(work[r][c], m) == 1), None)
        if helper is None:
            # drive some lower entry to 1 using the unit pivot itself
            helper = c + 1
            u = work[c][c] % m
            apply(helper, c, (1 - work[helper][c]) * pow(u, -1, m))
        v = work[helper][c] % m
        apply(c, helper, (1 - work[c][c]) * pow(v, -1, m))

    for c in range(size):
        make_pivot_unit(c)
        make_pivot_one(c)
        for r in range(size):
            if r != c and work[r][c] % m:
                apply(r, c, -work[r][c])
    if work != [list(row) for row in ModMatrix.identity(m, size).entries]:
        raise InternalInconsistency("elimination did not reach the identity")
    return ops


def sl_lift(matrix: ModMatrix) -> IntMatrix:
    """Integer matrix with determinant exactly 1 reducing to the input.

    Requires det = 1 mod m.  The matrix is driven to the identity over
    Z/m by _transvection_word, and that word of elementary matrices is
    then lifted letter by letter to Z with canonical representatives,
    giving determinant exactly 1.
    """
    m = matrix.modulus
    size = matrix.size
    if matrix.det() != 1 % m:
        raise DeterminantNotOne("determinant is %d mod %d" % (matrix.det(), m))

    # T_s ... T_1 M = I over Z/m, so M itself is the word
    # E(b_1) ... E(b_s) with b_t = -a_t; lift each letter with its canonical
    # representative and multiply over Z.  Right-multiplying by I + b E_{ij}
    # is the column operation col_j += b col_i.
    lifted = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j, a in _transvection_word(matrix):
        b = (-a) % m
        for r in range(size):
            lifted[r][j] += b * lifted[r][i]
    out = tuple(tuple(x for x in row) for row in lifted)
    if ModMatrix(m, out) != matrix:
        raise InternalInconsistency("integer lift has the wrong reduction")
    if int_det(out) != 1:
        raise InternalInconsistency("integer lift does not have determinant 1")
    return out


# ---------------------------------------------------------------------------
# Instance generators for demos and randomized verification
# ---------------------------------------------------------------------------

def _unimodular_pair(rng, modulus: int, size: int) -> Tuple[ModMatrix, ModMatrix]:
    """(U, U^-1) for U a random product of 3 * size transvections.

    Each row step row_i += a row_j on U multiplies it on the left by
    I + a E_ij, so U^-1 takes the column step col_j -= a col_i.
    """
    _require_modulus(modulus)
    _require_size(size)
    u = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        a = rng.randrange(modulus)
        u[i] = [(x + a * y) % modulus for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] = (row[j] - a * row[i]) % modulus
    return ModMatrix(modulus, u), ModMatrix(modulus, u_inv)


def random_unimodular(rng, modulus: int, size: int) -> ModMatrix:
    """Random product of 3 * size transvections; determinant 1 by construction."""
    return _unimodular_pair(rng, modulus, size)[0]


def _noise(rng, p: int, modulus: int, size: int) -> ModMatrix:
    """A random matrix in p M_l(Z/p^n): it vanishes mod p."""
    return ModMatrix(modulus, tuple(tuple(p * rng.randrange(modulus) for _ in range(size))
                                    for _ in range(size)))


def _part_diagonal(modulus: int, size: int, start: int, stop: int) -> ModMatrix:
    return ModMatrix(modulus, tuple(
        tuple(1 if i == j and start <= i < stop else 0 for j in range(size))
        for i in range(size)))


def random_idempotent_family(rng, modulus: int, size: int, parts: int) -> List[ModMatrix]:
    """Conjugated block family, perturbed inside p M_l(Z/p^n).

    The perturbation vanishes mod p, so the family still satisfies the
    lifting hypotheses without being exactly idempotent.
    """
    p, _n = _require_prime_power(modulus)
    cuts = sorted(rng.sample(range(1, size), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [size]
    u, u_inv = _unimodular_pair(rng, modulus, size)
    return [u * _part_diagonal(modulus, size, a, b) * u_inv + _noise(rng, p, modulus, size)
            for a, b in zip(bounds, bounds[1:])]


def random_isomorphism_instance(rng, modulus: int, size: int):
    """(phi1, phi2, psi12, psi21) satisfying the lifting hypotheses.

    phi's are exact conjugate idempotents of equal rank; the psi's invert
    each other exactly, then psi12 is perturbed inside p M_l(Z/p^n) so
    the hypotheses only survive mod p.
    """
    p, _n = _require_prime_power(modulus)
    if size < 2:
        raise InvalidInput("an isomorphism instance needs size at least 2, got %d" % size)
    _require_size(size)
    rank = rng.randrange(1, size)
    diag = _part_diagonal(modulus, size, 0, rank)
    g, g_inv = _unimodular_pair(rng, modulus, size)
    h, h_inv = _unimodular_pair(rng, modulus, size)
    return (g * diag * g_inv, h * diag * h_inv,
            h * diag * g_inv + _noise(rng, p, modulus, size), g * diag * h_inv)
