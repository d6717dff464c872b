"""J-invariant values: partial order, admissibility, enumeration.

A candidate J-invariant mod p is an r-tuple (j_1, ..., j_r) with
0 <= j_i <= k_i, one entry per generator of the truncated ring.  The
torsion table attaches necessary constraints to each (form, p) row;
values passing all of them are called admissible here.  Admissibility is
a necessary condition for realizability by an actual group, not a
characterization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .errors import ContextMismatch, IndexOutOfRange, SearchBudgetExceeded
from .integers import lucas_binom
from .kac_table import ConstraintRule, GroupForm, TorsionData, constraint_rules, torsion_data


@dataclass(frozen=True)
class JInvariant:
    """An r-tuple of exponents bounded by the k_i of its context."""

    data: TorsionData
    j: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "j", tuple(self.j))
        if len(self.j) != self.data.r:
            raise ContextMismatch("J has %d entries, context has r = %d"
                                  % (len(self.j), self.data.r))
        for i, (ji, ki) in enumerate(zip(self.j, self.data.k), start=1):
            if not 0 <= ji <= ki:
                raise ValueError("j_%d = %d outside 0..%d" % (i, ji, ki))

    @property
    def p(self) -> int:
        return self.data.p

    def precedes(self, other: "JInvariant") -> bool:
        """Componentwise order; the spec's curly-or-equal relation."""
        if self.data != other.data:
            raise ContextMismatch("J-invariants over different contexts")
        return all(a <= b for a, b in zip(self.j, other.j))

    @property
    def weight(self) -> int:
        """The exponent sum |J| = j_1 + ... + j_r."""
        return sum(self.j)

    def to_dict(self) -> Dict:
        return {"p": self.p, "j": list(self.j)}

    def __str__(self) -> str:
        return "(%s)" % ",".join(str(x) for x in self.j)


JLike = Union[JInvariant, Sequence[int]]


def as_jinvariant(data: TorsionData, J: JLike) -> JInvariant:
    if isinstance(J, JInvariant):
        if J.data != data:
            raise ContextMismatch("J-invariant context does not match")
        return J
    return JInvariant(data, tuple(J))


# ---------------------------------------------------------------------------
# Constraint evaluation
# ---------------------------------------------------------------------------

def rule_holds(rule: ConstraintRule, j: Sequence[int], p: int) -> bool:
    """Evaluate one table constraint at a candidate tuple.

    Gated inequalities only apply when their binomial is nonzero mod p;
    rules whose indices exceed the tuple length never arise in stored
    table rows and are rejected loudly.
    """
    r = len(j)
    if not (1 <= rule.i <= r and 1 <= rule.j <= r):
        raise IndexOutOfRange("rule %s outside 1..%d" % (rule, r))
    if rule.kind == "ge":
        if rule.gate is not None and lucas_binom(rule.gate[0], rule.gate[1], p) == 0:
            return True
        return j[rule.i - 1] >= j[rule.j - 1]
    return j[rule.i - 1] <= j[rule.j - 1] + rule.offset


def is_admissible(J: JLike, form: GroupForm, p: int = None) -> bool:
    """Does the candidate satisfy every constraint of its table row?"""
    if isinstance(J, JInvariant):
        if p is not None and p != J.p:
            raise ContextMismatch("p = %d but J lives at p = %d" % (p, J.p))
        p = J.p
    elif p is None:
        raise ValueError("a prime is required when J is a bare tuple")
    J = as_jinvariant(torsion_data(form, p), J)
    return all(rule_holds(rule, J.j, p) for rule in constraint_rules(form, p))


_BOX_BUDGET = 10 ** 6


def enumerate_admissible(form: GroupForm, p: int) -> List[JInvariant]:
    """All admissible values in lexicographic order.

    Exhaustive filter over the box prod [0, k_i]; refuses boxes larger
    than _BOX_BUDGET.
    """
    data = torsion_data(form, p)
    size = math.prod(ki + 1 for ki in data.k)
    if size > _BOX_BUDGET:
        raise SearchBudgetExceeded("box of %d candidates exceeds budget %d" % (size, _BOX_BUDGET))
    rules = constraint_rules(form, p)
    out = []
    for j in itertools.product(*[range(ki + 1) for ki in data.k]):
        if all(rule_holds(rule, j, p) for rule in rules):
            out.append(JInvariant(data, j))
    return out
