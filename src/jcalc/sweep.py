"""Table-wide divisibility sweeps.

Drives the decomposition check across every torsion-table row (classical
series instantiated up to a rank bound, all exceptional rows), every
admissible J-invariant value, and every parabolic subset whose flag
variety is generically split for Tits data consistent with that value.
For each such triple the flag Poincare polynomial must factor exactly
through the summand polynomial with nonnegative multiplicities.

The split parabolics come from the one vertex table,
root_data._split_vertices, asked once per value at Tits data (d, q,
pfister) consistent with J.  Consistency matters because d and q are
coupled to the value: a row whose codimension-1 generator is coupled to
the Tits algebra (SL/mu, PGO_2n with n even, adjoint E6 at 3, adjoint
E7 at 2) has d = p^{j_1}, so pretending d = 1 while j_1 > 0 pairs the
value with parabolics it can never meet; such pairs are exactly the ones
the decomposition calculator reports as NotDivisible.  The complete flag
(empty theta) is certified for every value: a group of inner type splits
over the function field of its Borel variety.

Both polynomials are degree ratios prod (1 - t^a) / prod (1 - t^b)
(Chevalley-Solomon), so the sweep mostly builds no polynomial:

* Levi types by mask recurrence.  Once per Dynkin type, the components
  of each of the 2^rank parabolic masks are those of the mask without
  its top vertex, with that vertex joining the components adjacent to
  it; each connected component is classified once.  Masks are grouped
  by flag polynomial and counted per value.
* Verdicts once per sweep.  A verdict and its witness text depend only
  on the cyclotomic exponent vectors (need, have) of summand and flag
  polynomial, so one dict keyed on them serves every row.  `divisions`
  still counts the distinct pairs of each row.
* A geometric-pairing certificate.  After common degrees cancel, if
  every b of the quotient pairs with a distinct a that it divides (a
  maximum matching), the quotient is a product of geometric sums and
  passes unbuilt.
  Otherwise motive.twist_multiplicities decides, and it alone writes
  failure witnesses.

Nothing outlives one call.  perfbench's `sweep` workload measures its
time.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import NegativeCoefficient, NotDivisible, SearchBudgetExceeded
from .jinvariant import JInvariant, enumerate_admissible
from .kac_table import GroupForm, table_rows, torsion_data
from .motive import (_SEARCH_BUDGET, Degrees, _geometric_pairing, summand_degrees,
                     twist_multiplicities)
from .polynomial import cyclotomic_exponents
from .root_data import DynkinType, _split_vertices, dynkin_edges, theta_components, weyl_degrees


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def consistent_split_vertices(form: GroupForm, p: int,
                              j: Sequence[int]) -> FrozenSet[int]:
    """Vertices k for which some group realizing (p, j) splits over F(X)
    whenever k lies outside theta.

    One lookup in the vertex table root_data._split_vertices at the Tits
    data (d, q) of such a group: d = p^{j_1} exactly when the row's
    codimension-1 generator is coupled to the Tits algebra (SL/mu, PGO_2n
    with n even, adjoint E6 at 3, adjoint E7 at 2), else d = 1, and
    q = p.  Every vertex qualifies for the zero value (the group may be
    split) and for a Pfister value: SO/Spin of dimension 2^m or 2^m - 1
    with value (0, ..., 0, 1) may be a Pfister form or a maximal
    neighbor, which splits over any X_theta.
    """
    everything = frozenset(form.base.vertices)
    if not any(j):
        return everything
    s, n, iso = form.base.series, form.base.rank, form.isogeny
    if (iso in ("so", "spin") and not any(j[:-1]) and j[-1] == 1
            and (_is_power_of_two(form.quadratic_dimension)
                 or _is_power_of_two(form.quadratic_dimension + 1))):
        return everything
    coupled = (s == "A" or (iso == "pgo" and n % 2 == 0)
               or (s, n, iso, p) in (("E", 6, "ad", 3), ("E", 7, "ad", 2)))
    return _split_vertices(form.base, p ** j[0] if coupled else 1, p)


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
    verdicts: int = 0       # distinct (summand, flag polynomial) pairs of the sweep
    certified: int = 0      # of those, settled by the geometric pairing

    @property
    def ok(self) -> bool:
        return not self.failures


def _flag_groups(t: DynkinType) -> List[Tuple[Degrees, Tuple[int, ...], List[int]]]:
    """(flag degrees, their cyclotomic exponents, theta bitmasks) for each
    distinct flag polynomial of t, in order of first mask; vertex v is
    bit v - 1.

    The components of a mask are those of the mask without its top vertex
    v, except that v joins every component adjacent to it.  Each connected
    component is classified once."""
    adjacent = [0] * (t.rank + 1)
    for a, b, _m in dynkin_edges(t):
        adjacent[a] |= 1 << (b - 1)
        adjacent[b] |= 1 << (a - 1)
    levi: Dict[int, Tuple[int, ...]] = {}     # connected vertex mask -> Weyl degrees
    components: List[List[int]] = [[]]        # indexed by mask
    num = weyl_degrees(t)
    by_total = defaultdict(list)
    by_total[num, (1,) * t.rank].append(0)
    for mask in range(1, 1 << t.rank):
        v = mask.bit_length()
        joined, comps = 1 << (v - 1), []
        for c in components[mask ^ joined]:
            if c & adjacent[v]:
                joined |= c
            else:
                comps.append(c)
        if joined not in levi:
            comp, = theta_components(t, [w for w in t.vertices if joined >> (w - 1) & 1])
            levi[joined] = weyl_degrees(comp)
        comps.append(joined)
        components.append(comps)
        den = sorted(d for c in comps for d in levi[c])
        by_total[num, tuple(den) + (1,) * (t.rank - len(den))].append(mask)
    return [(total, cyclotomic_exponents(*total), masks) for total, masks in by_total.items()]


def run_divisibility_sweep(max_rank: int = 8) -> SweepReport:
    """Check decomposition divisibility across the whole table.

    Returns a report with the number of (form, p) rows, the number of
    (J, theta) cases covered, the number of distinct (summand, flag
    polynomial) pairs checked per row, the number of those pairs over the
    whole sweep and how many of them the geometric pairing settled, and
    any failures (expected: none) as (form, p, J, theta, reason naming the
    missing cyclotomic factor or the first negative quotient coefficient).

    Each Dynkin type enumerates 2^rank parabolic masks, exceptional types
    up to rank 8; SearchBudgetExceeded is raised before the first row when
    that count exceeds the search budget.
    """
    count = 1 << max(max_rank, 8)
    if count > _SEARCH_BUDGET:
        raise SearchBudgetExceeded("a sweep to rank %d enumerates %d parabolic masks per "
                                   "Dynkin type, over budget %d"
                                   % (max_rank, count, _SEARCH_BUDGET))
    report = SweepReport()
    groups: Dict[DynkinType, list] = {}
    passing: Dict[Tuple[DynkinType, int], List[List[int]]] = {}
    verdicts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Optional[str]] = {}
    for form, p in table_rows(max_rank):
        data, t = torsion_data(form, p), form.base
        report.rows += 1
        if t not in groups:
            groups[t] = _flag_groups(t)
        checked: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
        for J in enumerate_admissible(form, p):
            good = sum(1 << (v - 1) for v in consistent_split_vertices(form, p, J.j))
            if (t, good) not in passing:
                # the Borel passes; any other theta must leave out a good vertex
                passing[t, good] = [[m for m in masks if not m or ~m & good]
                                    for _, _, masks in groups[t]]
            summand = summand_degrees(data, J)
            need = cyclotomic_exponents(*summand)
            for (total, have, _), thetas in zip(groups[t], passing[t, good]):
                if not thetas:
                    continue
                report.cases += len(thetas)
                key = need, have
                if key not in checked:
                    checked.add(key)
                    report.divisions += 1
                if key not in verdicts:
                    verdicts[key] = None
                    if _geometric_pairing(total[0] + summand[1], total[1] + summand[0]):
                        report.certified += 1
                    else:
                        try:
                            twist_multiplicities(summand, total, need, have)
                        except (NotDivisible, NegativeCoefficient) as exc:
                            verdicts[key] = str(exc)
                if verdicts[key] is not None:
                    report.failures += [
                        (form.name, p, J.j, tuple(v for v in t.vertices if m >> (v - 1) & 1),
                         verdicts[key]) for m in thetas]
    report.verdicts = len(verdicts)
    return report


def admissible_census(max_rank: int = 8) -> List[Tuple[str, int, int, int]]:
    """(form, p, box size, admissible count) for every table row."""
    out = []
    for form, p in table_rows(max_rank):
        data = torsion_data(form, p)
        box = math.prod(k + 1 for k in data.k)
        out.append((form.name, p, box, len(enumerate_admissible(form, p))))
    return out
