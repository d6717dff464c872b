"""Workload `jring`: J-invariants read off subrings of truncated rings.

One operation is ``j_from_generators(gens, data)``.  Ring ranks run from
16 to 256 and closure dimensions from a handful to the whole ring.  The
round is a fixed list of slots; the seed fills each slot with its own
generators, chosen so that a slot's cost hardly depends on the seed:

* ``pow``: scaled powers c_i x_i^{p^{j_i}} for a seeded J of fixed
  weight w, so the closure has dimension p^{|K| - w} whatever J is;
* ``dense``: x_i plus seeded monomials of higher codimension, a closure
  of the whole ring through dense products, kept to rings where one
  closure takes well under a second.

The check compares every J with the dense span closure of ``oracle``.
"""

from __future__ import annotations

import itertools
import random

import oracle as O

RINGS = {
    16: (2, (1, 3), (2, 2)),
    27: (3, (1, 4), (1, 2)),
    32: (2, (3, 5, 9), (1, 1, 3)),
    64: (2, (1, 3, 5), (2, 2, 2)),
    81: (3, (4, 10), (2, 2)),
    128: (2, (3, 5, 9, 15), (3, 2, 1, 1)),
    243: (3, (1, 4, 10), (2, 1, 2)),
    256: (2, (3, 5, 9, 15), (3, 3, 1, 1)),
}
# (kind, ring rank, parameter, copies): the weight w of J for pow, extra
# terms per generator for dense.  The round is built in cost tiers so
# that the median falls inside a block of twelve operations of equal
# cost and the 90th percentile inside a block of ten (whole-ring closures
# at p = 2 from x_1, ..., x_r, which the seed does not change; even the
# order of the generators moves their cost by a tenth): a percentile on
# a gap between two costs would jump from seed to seed.  The dense
# sets (8 to 75 ms) may fall on either side of the median block.
CHEAP = ([("pow", rank, w, 1) for rank, (_p, _d, k) in RINGS.items()
          for w in range(2, sum(k))]
         + [("pow", rank, w, 1) for rank in (27, 32) for w in (0, 1)])
DENSE = [("dense", 16, 2, 2), ("dense", 27, 1, 2)]
MEDIAN_BLOCK = [("pow", 64, 0, 12)]
MIDDLE = [("pow", 81, 0, 6), ("pow", 243, 1, 6)]
TAIL_BLOCK = [("pow", 128, 0, 10)]
TOP = [("pow", 256, 1, 2), ("pow", 243, 0, 1), ("pow", 256, 0, 1)]
SLOTS = [(kind, rank, param) for kind, rank, param, copies
         in CHEAP + DENSE + MEDIAN_BLOCK + MIDDLE + TAIL_BLOCK + TOP for _ in range(copies)]
TAIL_PCT = 90


def _weight_tuples(k, w):
    return [j for j in itertools.product(*[range(x + 1) for x in k]) if sum(j) == w]


def _codim(mono, d):
    return sum(a * b for a, b in zip(mono, d))


def make_gens(rng, kind: str, p: int, d, k, param: int):
    """Generators as {exponent tuple: coefficient} dicts."""
    caps = [p ** x for x in k]
    r = len(k)
    unit = lambda i, e: tuple(e if t == i else 0 for t in range(r))  # noqa: E731
    j = rng.choice(_weight_tuples(k, param)) if kind == "pow" else (0,) * r
    if kind == "pow" and param == 0 and p == 2:
        return [{unit(i, 1): 1} for i in range(r)]
    gens = []
    for i in range(r):
        if j[i] == k[i]:
            continue
        lead = unit(i, p ** j[i])
        g = {lead: rng.randrange(1, p)}
        if kind == "dense":
            higher = [m for m in itertools.product(*[range(c) for c in caps])
                      if _codim(m, d) > _codim(lead, d)]
            for m in rng.sample(higher, min(param, len(higher))):
                g[m] = rng.randrange(1, p)
        gens.append(g)
    return gens


def build(seed: int, trace: bool = False) -> dict:
    import jcalc
    rng = random.Random(seed)
    contexts = {rank: jcalc.TorsionData(*spec) for rank, spec in RINGS.items()}
    cases = []
    for kind, rank, param in SLOTS:
        p, d, k = RINGS[rank]
        terms = make_gens(rng, kind, p, d, k, param)
        data = contexts[rank]
        gens = [jcalc.RingElement(data, t) for t in terms]
        cases.append(("%s%d-%d" % (kind, rank, param), rank, terms, data, gens))
    return {"jcalc": jcalc, "cases": cases}


def warm(inp: dict) -> None:
    jc = inp["jcalc"]
    data = jc.TorsionData(2, (1,), (2,))
    jc.j_from_generators([jc.RingElement.generator(data, 1)], data)


def ops(inp: dict):
    jc = inp["jcalc"]
    return [("%d:%s" % (i, label), (lambda gens=gens, data=data: jc.j_from_generators(gens, data)))
            for i, (label, _rank, _terms, data, gens) in enumerate(inp["cases"])]


def digest(outcome) -> str:
    kind, value = outcome
    return repr(value) if kind == "ok" else "%s:%s" % (type(value).__name__, value)


def is_failure(label: str, outcome) -> bool:
    return outcome[0] != "ok"


def expected_j(rings: dict, rank: int, terms) -> tuple:
    if rank not in rings:
        rings[rank] = O.DenseRing(*RINGS[rank])
    ring = rings[rank]
    return ring.j_tuple(ring.closure_leads([ring.vector(t) for t in terms]))


def check(inp: dict, label: str, outcome):
    _label, rank, terms, _data, _gens = inp["cases"][int(label.split(":")[0])]
    want = expected_j(inp.setdefault("dense", {}), rank, terms)
    if tuple(outcome[1]) != want:
        return "J = %s, dense closure gives %s" % (tuple(outcome[1]), want)
    return None
