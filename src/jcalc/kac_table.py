"""Torsion data of split simple groups, after Kac's Table II.

For each supported (group form, prime) pair this module produces the
triple (r, d_1..d_r, k_1..k_r): the mod-p Chow ring of the compact group
is a truncated polynomial ring

    (Z/p)[x_1, ..., x_r] / (x_1^{p^{k_1}}, ..., x_r^{p^{k_r}})

on generators x_i of codimension d_i coprime to p.  The d_i * p^{k_i}
are the p-exceptional degrees of the group.  Alongside the numbers, each
row carries the known necessary constraints on J-invariant values
(chains like j_1 >= j_2 and Steenrod-derived bounds j_i <= j_target + 1,
with binomial gates evaluated mod p at check time).

Rows for the classical families SO_n, Spin_n, PGO_2n, half-spin and
PGSp_n are generated from closed formulas in n; the exceptional rows are
embedded literals.  The PGO_2n and half-spin rows are built from the
SO_2n row: PGO_2n puts a generator of codimension 1 and exponent v_2(n)
in front of it (absent for n odd, where the row is exactly SO_2n's),
and half-spin gives its first generator the exponent v_2(n).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import InternalInconsistency, InvalidInput, SearchBudgetExceeded, UnsupportedForm
from .integers import factorize, is_prime, padic_valuation
from .root_data import DynkinType

# isogeny tags, normalized per series:
#   A: "slmu" with mu | rank+1  (mu = 1 is SL, mu = rank+1 is PGL)
#   B: "spin" (simply connected) or "so" (adjoint)
#   C: "sc" (symplectic) or "pgsp" (adjoint)
#   D: "spin", "so", "halfspin", "pgo"
#   E6, E7: "sc" or "ad";  G2, F4, E8: "sc" (trivial center)
_ALIASES = {
    "A": {"sc": "slmu", "ad": "slmu", "slmu": "slmu"},
    "B": {"sc": "spin", "spin": "spin", "ad": "so", "so": "so"},
    "C": {"sc": "sc", "sp": "sc", "ad": "pgsp", "pgsp": "pgsp"},
    "D": {"sc": "spin", "spin": "spin", "so": "so",
          "halfspin": "halfspin", "hs": "halfspin", "ad": "pgo", "pgo": "pgo"},
    "E": {"sc": "sc", "ad": "ad"},
    "F": {"sc": "sc", "ad": "sc"},
    "G": {"sc": "sc", "ad": "sc"},
}


@dataclass(frozen=True)
class GroupForm:
    """A simple group of inner type: Dynkin type plus isogeny class.

    For the A series the isogeny is SL_{n+1}/mu_m, recorded in ``mu``
    (with mu = 1 the simply connected and mu = n+1 the adjoint group).
    Half-spin forms exist only in even D rank.
    """

    base: DynkinType
    isogeny: str
    mu: int = 1

    def __post_init__(self):
        s = self.base.series
        raw = self.isogeny
        alias = _ALIASES[s].get(raw)
        if alias is None:
            raise UnsupportedForm("isogeny %r not defined for series %s" % (raw, s))
        object.__setattr__(self, "isogeny", alias)
        if s == "A":
            n = self.base.rank + 1
            mu = n if raw == "ad" else self.mu
            object.__setattr__(self, "mu", mu)
            if mu < 1 or n % mu != 0:
                raise UnsupportedForm("mu = %d does not divide %d" % (mu, n))
        else:
            object.__setattr__(self, "mu", 1)
        if s == "E" and self.base.rank == 8:
            object.__setattr__(self, "isogeny", "sc")
        if self.isogeny == "halfspin" and self.base.rank % 2 != 0:
            raise UnsupportedForm(
                "half-spin forms need even D rank, got %s" % (self.base,))

    @classmethod
    def adjoint(cls, base: DynkinType) -> "GroupForm":
        return cls(base, "ad")

    @property
    def quadratic_dimension(self) -> int:
        """n in SO_n / Spin_n, for B and D series forms."""
        if self.base.series == "B":
            return 2 * self.base.rank + 1
        if self.base.series == "D":
            return 2 * self.base.rank
        raise UnsupportedForm("%s is not an orthogonal form" % (self,))

    @property
    def name(self) -> str:
        s, r = self.base.series, self.base.rank
        if s == "A":
            if self.mu == 1:
                return "A%d" % r
            if self.mu == r + 1:
                return "A%dad" % r
            return "A%dmu%d" % (r, self.mu)
        if s in ("B", "C", "D"):
            return "%s%d%s" % (s, r, self.isogeny)
        if (s, r) in (("G", 2), ("F", 4), ("E", 8)):
            return "%s%d" % (s, r)
        return "%s%d%s" % (s, r, self.isogeny)

    def __str__(self) -> str:
        return self.name


_FORM_SUFFIXES = ("halfspin", "pgsp", "spin", "pgo", "so", "sc", "ad", "hs")

# Classical aliases: a prefix that is also the isogeny tag (but for sl
# and pgl), the dimension n, then "mu" and whatever follows it (_mu
# judges that text, as it does a Dynkin "mu" tag).
_CLASSICAL = re.compile(r"(halfspin|pgsp|spin|pgo|pgl|so|sl|sp)(\d+)(?:mu(.*))?", re.DOTALL)
_DYNKIN = re.compile(r"([A-Ga-g])(\d+)(.*)", re.DOTALL)


def _mu(tail: str, text: str) -> int:
    try:
        return int(tail)
    except ValueError:
        raise InvalidInput("the mu tag of form %r needs an integer, got %r"
                           % (text, tail)) from None


def parse_form(text: str) -> GroupForm:
    """Parse a compact form name such as E7sc, A4mu5, D6halfspin or Spin11.

    Classical aliases SLn, PGLn, SOn, Spinn, HalfSpinN, PGOn, Spn and
    PGSpn (n the dimension of the defining representation) are accepted.
    """
    raw = text.strip()
    match = _CLASSICAL.fullmatch(raw.lower())
    if match:
        prefix, n, mu_text = match.group(1), int(match.group(2)), match.group(3)
        mu = 1 if mu_text is None else _mu(mu_text, text)
        if mu != 1 and prefix != "sl":
            raise UnsupportedForm("mu only applies to SL forms")
        if prefix in ("sl", "pgl"):
            return GroupForm(DynkinType("A", n - 1), "slmu", n if prefix == "pgl" else mu)
        if prefix in ("sp", "pgsp"):
            if n % 2:
                raise UnsupportedForm("symplectic dimension must be even")
            return GroupForm(DynkinType("C", n // 2), prefix)
        base = DynkinType("B", (n - 1) // 2) if n % 2 else DynkinType("D", n // 2)
        return GroupForm(base, prefix)
    match = _DYNKIN.fullmatch(raw)
    if not match:
        raise UnsupportedForm("cannot parse form %r" % (text,))
    base = DynkinType(match.group(1).upper(), int(match.group(2)))
    tag = match.group(3).strip().lower()
    if tag.startswith("mu"):
        return GroupForm(base, "slmu", _mu(tag[2:], text))
    if tag in _FORM_SUFFIXES or not tag:
        return GroupForm(base, tag or "sc")
    raise UnsupportedForm("cannot parse form %r" % (text,))


# ---------------------------------------------------------------------------
# Torsion data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorsionData:
    """The numbers (p; d_1..d_r; k_1..k_r) of one table row.

    d is nondecreasing with every entry coprime to p, and every k_i is
    at least 1 (zero exponents denote absent generators and never occur
    in stored data); r = 0 exactly when p is not a torsion prime.
    """

    p: int
    d: Tuple[int, ...]
    k: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "k", tuple(self.k))
        if not is_prime(self.p):
            raise ValueError("p = %r is not prime" % (self.p,))
        if len(self.d) != len(self.k):
            raise InvalidInput("d and k must have equal length")
        if any(di <= 0 or di % self.p == 0 for di in self.d):
            raise InvalidInput("codimensions must be positive and coprime to p")
        if any(self.d[i] > self.d[i + 1] for i in range(len(self.d) - 1)):
            raise InvalidInput("codimensions must be nondecreasing")
        if any(ki < 1 for ki in self.k):
            raise InvalidInput("exponents k_i must be >= 1")

    @property
    def r(self) -> int:
        return len(self.d)

    @functools.cached_property
    def caps(self) -> Tuple[int, ...]:
        """Truncation bounds p^{k_i}; exponent m_i ranges over 0..p^{k_i}-1."""
        return tuple(self.p ** ki for ki in self.k)

    @property
    def ring_rank(self) -> int:
        """Number of monomials of the truncated ring, p^{k_1 + ... + k_r}."""
        return self.p ** sum(self.k)


@dataclass(frozen=True)
class ConstraintRule:
    """One constraint on admissible J-invariant values.

    kind "ge": j_i >= j_j, required only when the gate binomial
    C(gate[0], gate[1]) is nonzero mod p (ungated when gate is None).
    kind "le": j_i <= j_j + offset.
    """

    kind: str
    i: int
    j: int
    offset: int = 0
    gate: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.kind not in ("ge", "le"):
            raise ValueError("rule kind must be 'ge' or 'le'")

    def as_dict(self) -> Dict:
        return {"kind": self.kind, "i": self.i, "j": self.j,
                "offset": self.offset,
                "gate": list(self.gate) if self.gate else None}

    def __str__(self) -> str:
        if self.kind == "ge":
            text = "j%d >= j%d" % (self.i, self.j)
            if self.gate:
                text += " if C(%d,%d) != 0 mod p" % self.gate
            return text
        tail = " + %d" % self.offset if self.offset else ""
        return "j%d <= j%d%s" % (self.i, self.j, tail)


def _ge(i: int, j: int, gate: Optional[Tuple[int, int]] = None) -> ConstraintRule:
    return ConstraintRule("ge", i, j, 0, gate)


def _le(i: int, j: int, offset: int = 1) -> ConstraintRule:
    return ConstraintRule("le", i, j, offset)


Row = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[ConstraintRule, ...]]


def _chain_rules(gate_shift: int, first: int, r: int,
                 le_target) -> Tuple[ConstraintRule, ...]:
    """Gated chain rules shared by the orthogonal family rows.

    GE rules j_i >= j_{i+l} gated by C(i + gate_shift, l) mod 2, for
    i >= first, plus the bounds j_i <= j_{le_target(i)} + 1 whenever the
    target index exists and differs from i.
    """
    rules: List[ConstraintRule] = []
    for i in range(first, r + 1):
        for l in range(1, r - i + 1):
            rules.append(_ge(i, i + l, gate=(i + gate_shift, l)))
    for i in range(first, r + 1):
        target = le_target(i)
        if 1 <= target <= r and target != i:
            rules.append(_le(i, target))
    return tuple(rules)


def _so_row(n: int) -> Row:
    r = (n + 1) // 4
    d = [2 * i - 1 for i in range(1, r + 1)]
    k = [_log2_floor((n - 1) // (2 * i - 1)) for i in range(1, r + 1)]
    return tuple(d), tuple(k), _chain_rules(-1, 1, r, lambda i: 2 * i - 1)


def _spin_row(n: int) -> Row:
    r = (n - 3) // 4
    d = [2 * i + 1 for i in range(1, r + 1)]
    k = [_log2_floor((n - 1) // (2 * i + 1)) for i in range(1, r + 1)]
    return tuple(d), tuple(k), _chain_rules(0, 1, r, lambda i: 2 * i)


def _pgo_row(n: int) -> Row:
    # PGO_{2n}: the codimension-1 generator of exponent v_2(n) in front of
    # the SO_{2n} row, every rule index shifted past it; absent for n odd.
    d, k, rules = _so_row(2 * n)
    k1 = padic_valuation(n, 2)
    if k1 == 0:
        return d, k, rules
    return ((1,) + d, (k1,) + k,
            tuple(replace(rule, i=rule.i + 1, j=rule.j + 1) for rule in rules))


def _halfspin_row(n: int) -> Row:
    # Spin^{+/-}_{2n} with n even: the SO_{2n} row with k_1 = v_2(n).
    d, k, rules = _so_row(2 * n)
    return d, (padic_valuation(n, 2),) + k[1:], rules


def _log2_floor(x: int) -> int:
    """floor(log2 x) for x >= 1, and -1 for x = 0."""
    return x.bit_length() - 1


_EXCEPTIONAL_ROWS: Dict[Tuple[str, int], Row] = {
    ("G2", 2): ((3,), (1,), ()),
    ("F4", 2): ((3,), (1,), ()),
    ("F4", 3): ((4,), (1,), ()),
    ("E6", 2): ((3,), (1,), ()),           # both isogenies
    ("E6sc", 3): ((4,), (1,), ()),
    ("E6ad", 3): ((1, 4), (2, 1), ()),
    ("E7", 3): ((4,), (1,), ()),           # both isogenies
    ("E7sc", 2): ((3, 5, 9), (1, 1, 1), (_ge(1, 2), _ge(2, 3))),
    ("E7ad", 2): ((1, 3, 5, 9), (1, 1, 1, 1), (_ge(2, 3), _ge(3, 4))),
    ("E8", 2): ((3, 5, 9, 15), (3, 2, 1, 1),
                (_ge(1, 2), _ge(2, 3), _le(1, 2), _le(2, 3))),
    ("E8", 3): ((4, 10), (1, 1), (_ge(1, 2),)),
    ("E8", 5): ((6,), (1,), ()),
}


_NO_ROW: Row = ((), (), ())


def _row(form: GroupForm, p: int) -> Row:
    """The (d, k, rules) of the (form, p) row, _NO_ROW off the table;
    the arguments are checked before the row cache sees them."""
    if not isinstance(form, GroupForm):
        raise UnsupportedForm("expected a GroupForm, got %r" % (form,))
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    return _built_row(form, p)


@functools.lru_cache(maxsize=64)
def _built_row(form: GroupForm, p: int) -> Row:
    """_row for a GroupForm and a prime, built once per pair: a table walk
    asks for each row about six times."""
    s, rank = form.base.series, form.base.rank
    if s == "A":
        if form.mu % p != 0:
            return _NO_ROW
        n = rank + 1
        k1 = padic_valuation(n, p)
        if k1 == 0:
            raise InternalInconsistency("p | mu | n forces a positive valuation")
        return ((1,), (k1,), ())
    if s == "C":
        if form.isogeny != "pgsp" or p != 2:
            return _NO_ROW
        return ((1,), (padic_valuation(2 * rank, 2),), ())
    if s in ("B", "D"):
        if p != 2:
            return _NO_ROW
        if form.isogeny == "so":
            return _so_row(form.quadratic_dimension)
        if form.isogeny == "spin":
            return _spin_row(form.quadratic_dimension)
        return (_pgo_row if form.isogeny == "pgo" else _halfspin_row)(rank)
    # E, F, G: a row keyed by the form's name, else one both isogenies share
    return (_EXCEPTIONAL_ROWS.get((form.name, p))
            or _EXCEPTIONAL_ROWS.get((str(form.base), p), _NO_ROW))


def torsion_primes(form: GroupForm) -> List[int]:
    """Primes p for which the form has a nontrivial table row: those of
    mu in the A series, else among 2, 3 and 5 (mu is 1 off the A series;
    _row rejects anything but a GroupForm)."""
    return [p for p, _e in factorize(30 * getattr(form, "mu", 1))
            if _row(form, p)[0]]


def torsion_data(form: GroupForm, p: int) -> TorsionData:
    """The (r, d, k) data of the (form, p) table row; r = 0 off-table."""
    d, k, _rules = _row(form, p)
    return TorsionData(p, d, k)


def constraint_rules(form: GroupForm, p: int) -> Tuple[ConstraintRule, ...]:
    """The constraint set of the (form, p) row, gates left symbolic."""
    return _row(form, p)[2]


# ---------------------------------------------------------------------------
# Enumeration and dump
# ---------------------------------------------------------------------------

def classical_forms(max_rank: int) -> Iterator[GroupForm]:
    """All classical-series forms with a table row, rank <= max_rank."""
    for rank in range(1, max_rank + 1):
        n = rank + 1
        for mu in range(2, n + 1):
            if n % mu == 0:
                yield GroupForm(DynkinType("A", rank), "slmu", mu)
    for rank in range(1, max_rank + 1):
        yield GroupForm(DynkinType("C", rank), "pgsp")
    for rank in range(1, max_rank + 1):
        yield GroupForm(DynkinType("B", rank), "so")
        yield GroupForm(DynkinType("B", rank), "spin")
    for rank in range(3, max_rank + 1):
        yield GroupForm(DynkinType("D", rank), "spin")
        yield GroupForm(DynkinType("D", rank), "so")
        yield GroupForm(DynkinType("D", rank), "pgo")
        if rank % 2 == 0:
            yield GroupForm(DynkinType("D", rank), "halfspin")


def exceptional_forms() -> Iterator[GroupForm]:
    yield GroupForm(DynkinType("G", 2), "sc")
    yield GroupForm(DynkinType("F", 4), "sc")
    for tag in ("sc", "ad"):
        yield GroupForm(DynkinType("E", 6), tag)
        yield GroupForm(DynkinType("E", 7), tag)
    yield GroupForm(DynkinType("E", 8), "sc")


# Largest classical rank a table walk reaches.  A dump's work grows about
# as the cube of the rank: at rank 64 it prints 2 MB of text.
_TABLE_RANK_BUDGET = 64


def table_rows(max_rank: int = 8) -> Iterator[Tuple[GroupForm, int]]:
    """All (form, p) pairs with a nontrivial row, classical ranks bounded.

    A classical rank above _TABLE_RANK_BUDGET is refused before the walk.
    """
    if max_rank > _TABLE_RANK_BUDGET:
        raise SearchBudgetExceeded("a table walk to classical rank %d exceeds the budget of "
                                   "%d" % (max_rank, _TABLE_RANK_BUDGET))
    return ((form, p) for form in itertools.chain(classical_forms(max_rank), exceptional_forms())
            for p in torsion_primes(form))


def dump_row(form: GroupForm, p: int) -> Dict:
    """The machine-readable dump row of (form, p): {form, p, r, d, k, rules}."""
    data = torsion_data(form, p)
    return {
        "form": form.name,
        "p": p,
        "r": data.r,
        "d": list(data.d),
        "k": list(data.k),
        "rules": [rule.as_dict() for rule in constraint_rules(form, p)],
    }


def expand_table(max_rank: int = 8) -> Iterator[Dict]:
    """Machine-readable dump rows: {form, p, r, d, k, rules}."""
    return (dump_row(form, p) for form, p in table_rows(max_rank))
