"""The sweep's split vertices against the per-series table they replaced.

``_per_series_split_vertices`` is the hand-instantiated vertex table the
sweep used before it called ``root_data.is_generically_split`` at
consistent Tits data; it stays here as the differential oracle.
"""

from typing import Sequence, Set

from jcalc.jinvariant import enumerate_admissible
from jcalc.kac_table import GroupForm, table_rows
from jcalc.sweep import consistent_split_vertices


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def _per_series_split_vertices(form: GroupForm, p: int,
                               j: Sequence[int]) -> Set[int]:
    """Vertices k for which some group realizing (p, j) splits over F(X)
    whenever k lies outside theta, instantiated series by series:

    * series A: d has p-part p^{j_1}, so k must be coprime to p;
    * series C: odd k, unconditionally;
    * series B/D: the quadratic-form case d = 1 certifies the end
      vertices; a Pfister form or maximal neighbor (dimension 2^m or
      2^m - 1 with value (0,...,0,1)) certifies every vertex; the PGO
      rows couple j_1 to the vector algebra class, so their end-vertex
      certificate needs j_1 = 0;
    * exceptional series: the d = 1 and small-q escapes are enabled
      exactly when a group with this value can have them.

    For the zero value every vertex qualifies: the group may be split.
    """
    s, n = form.base.series, form.base.rank
    everything = set(range(1, n + 1))
    if not any(j):
        return everything
    if s == "A":
        return {k for k in everything if k % p != 0}
    if s == "C":
        return {k for k in everything if k % 2 == 1}
    if s == "G":
        return everything
    if s == "F":
        return everything if p == 3 else {1, 2, 3}
    if s == "E" and n == 6:
        if p == 2:
            return {2, 3, 4, 5}
        if form.isogeny == "ad" and j[0] > 0:
            return {1, 3, 5, 6}
        return everything
    if s == "E" and n == 7:
        if p == 3:
            return {1, 2, 3, 4, 5, 6}
        if form.isogeny == "ad" and j[0] > 0:
            return {2, 5}
        return {2, 3, 4, 5}
    if s == "E" and n == 8:
        return everything if p == 5 else {2, 3, 4, 5}
    dim = 2 * n + 1 if s == "B" else 2 * n
    pfister_shape = (all(x == 0 for x in j[:-1]) and j[-1] == 1
                     and form.isogeny in ("so", "spin")
                     and (_is_power_of_two(dim) or _is_power_of_two(dim + 1)))
    if pfister_shape:
        return everything
    if form.isogeny == "pgo" and n % 2 == 0 and j[0] > 0:
        return set()
    return {n} if s == "B" else {n - 1, n}


def test_split_vertices_match_per_series_table():
    values = 0
    for form, p in table_rows(12):
        for J in enumerate_admissible(form, p):
            assert consistent_split_vertices(form, p, J.j) == \
                _per_series_split_vertices(form, p, J.j), (form.name, p, J.j)
            values += 1
    assert values == 1817

