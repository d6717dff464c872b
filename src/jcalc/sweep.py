"""Table-wide divisibility sweeps.

Drives the decomposition check across every torsion-table row (classical
series instantiated up to a rank bound, all exceptional rows), every
admissible J-invariant value, and every parabolic subset whose flag
variety is generically split for Tits data consistent with that value.
For each such triple the flag Poincare polynomial must factor exactly
through the summand polynomial with nonnegative multiplicities.

The split parabolics come from the one vertex table,
root_data.is_generically_split, evaluated at Tits data (d, q, pfister)
consistent with J.  Consistency matters because d and q are coupled to
the value: a row whose codimension-1 generator is coupled to the Tits
algebra (SL/mu, PGO_2n with n even, adjoint E6 at 3, adjoint E7 at 2)
has d = p^{j_1}, so pretending d = 1 while j_1 > 0 pairs the value with
parabolics it can never meet; such pairs are exactly the ones the
decomposition calculator reports as NotDivisible.  The complete flag
(empty theta) is certified for every value: a group of inner type splits
over the function field of its Borel variety.

Distinct parabolics with the same Levi polynomial, and distinct values
with the same summand polynomial, are deduplicated before dividing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from .errors import NotDivisible
from .jinvariant import JInvariant, enumerate_admissible
from .kac_table import GroupForm, table_rows, torsion_data
from .motive import rost_poincare
from .polynomial import Poly
from .root_data import (
    UNKNOWN,
    is_generically_split,
    poincare_complete_flag,
    poincare_weyl_subgroup,
)


def generically_split_thetas(form: GroupForm, tits_index: int = 1,
                             splitting_degree: int = 1) -> Iterator[frozenset]:
    """All theta certified generically split by the vertex table as-is.

    UNKNOWN outcomes (the Pfister-dependent rows) are excluded; only
    vertices decidable from (d, q) count.
    """
    vertices = list(form.base.vertices)
    for bits in itertools.product((False, True), repeat=len(vertices)):
        theta = frozenset(v for v, b in zip(vertices, bits) if b)
        verdict = is_generically_split(form, theta, tits_index, splitting_degree)
        if verdict is not UNKNOWN and verdict:
            yield theta


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def _consistent_tits_data(form: GroupForm, p: int,
                          j: Sequence[int]) -> Tuple[int, int, bool]:
    """Tits data (d, q, pfister) of a group realizing the value j at p.

    d = p^{j_1} exactly when the row's codimension-1 generator is coupled
    to the Tits algebra (SL/mu, PGO_2n with n even, adjoint E6 at 3,
    adjoint E7 at 2), else d = 1; q = p; and the form counts as Pfister
    (or a maximal neighbor) when it is SO/Spin of dimension 2^m or
    2^m - 1 and the value is (0, ..., 0, 1).
    """
    s, n, iso = form.base.series, form.base.rank, form.isogeny
    coupled = (s == "A" or (iso == "pgo" and n % 2 == 0)
               or (s, n, iso, p) in (("E", 6, "ad", 3), ("E", 7, "ad", 2)))
    pfister = (iso in ("so", "spin") and not any(j[:-1]) and j[-1] == 1
               and (_is_power_of_two(form.quadratic_dimension)
                    or _is_power_of_two(form.quadratic_dimension + 1)))
    return (p ** j[0] if coupled else 1), p, pfister


def consistent_split_vertices(form: GroupForm, p: int,
                              j: Sequence[int]) -> Set[int]:
    """Vertices k for which some group realizing (p, j) splits over F(X)
    whenever k lies outside theta.

    The vertex table is_generically_split evaluated at the Tits data
    consistent with the value (see _consistent_tits_data), one vertex at
    a time.  For the zero value every vertex qualifies: the group may be
    split.
    """
    everything = set(form.base.vertices)
    if not any(j):
        return everything
    d, q, pfister = _consistent_tits_data(form, p, j)
    return {k for k in everything
            if is_generically_split(form, everything - {k}, d, q, pfister)}


def consistent_split_thetas(form: GroupForm, p: int,
                            J: JInvariant) -> Iterator[frozenset]:
    """All theta paired with this value in the divisibility sweep.

    The Borel (empty theta) always qualifies; any other theta must leave
    a consistent certificate vertex uncovered.
    """
    vertices = list(form.base.vertices)
    good = consistent_split_vertices(form, p, J.j)
    for bits in itertools.product((False, True), repeat=len(vertices)):
        theta = frozenset(v for v, b in zip(vertices, bits) if b)
        if not theta or (set(vertices) - theta) & good:
            yield theta


@dataclass
class SweepReport:
    rows: int = 0
    cases: int = 0
    divisions: int = 0
    failures: List[Tuple[str, int, Tuple[int, ...], Tuple[int, ...], str]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_divisibility_sweep(max_rank: int = 8) -> SweepReport:
    """Check decomposition divisibility across the whole table.

    Returns a report with the number of (form, p) rows, the number of
    (J, theta) cases covered, the number of deduplicated polynomial
    divisions performed, and any failures (expected: none).
    """
    report = SweepReport()
    for form, p in table_rows(max_rank):
        data = torsion_data(form, p)
        report.rows += 1
        flag = poincare_complete_flag(form.base)

        levi_cache: Dict[FrozenSet[int], Poly] = {}
        quotient_cache: Dict[Tuple[Tuple, Tuple], bool] = {}
        for J in enumerate_admissible(form, p):
            summand = rost_poincare(data, J)
            skey = summand.coeffs
            for theta in consistent_split_thetas(form, p, J):
                if theta not in levi_cache:
                    levi_cache[theta] = flag.exact_div(
                        poincare_weyl_subgroup(form.base, theta))
                total = levi_cache[theta]
                report.cases += 1
                key = (skey, total.coeffs)
                if key in quotient_cache:
                    ok = quotient_cache[key]
                else:
                    report.divisions += 1
                    try:
                        ok = total.exact_div(summand).is_nonnegative
                    except NotDivisible:
                        ok = False
                    quotient_cache[key] = ok
                if not ok:
                    report.failures.append(
                        (form.name, p, J.j, tuple(sorted(theta)),
                         "division failed or went negative"))
    return report


def admissible_census(max_rank: int = 8) -> List[Tuple[str, int, int, int]]:
    """(form, p, box size, admissible count) for every table row."""
    out = []
    for form, p in table_rows(max_rank):
        data = torsion_data(form, p)
        box = 1
        for k in data.k:
            box *= k + 1
        out.append((form.name, p, box, len(enumerate_admissible(form, p))))
    return out
