"""The decompositions the paper's abstract names, pinned.

Each entry splits the Poincare polynomial of a generically split X_theta
into twisted copies of the mod-p summand: Severi-Brauer varieties,
Pfister quadrics, maximal orthogonal Grassmannians, and G2-, F4- and
E6-varieties.  theta is the vertex set of the parabolic's Levi part, so
V - {i} is the maximal parabolic P_i.  The paper's own E6-E8 examples
are left out: their theta and J need the paper's text.

decompose proves total = summand * multiplicities through exponent
containment and a sign scan and returns the three polynomials without
re-checking them, so the identity is checked here by a product.
"""

import json

import pytest

from jcalc.cli import execute
from jcalc.kac_table import parse_form, torsion_data
from jcalc.motive import canonical_p_dimension, decompose, rost_poincare
from jcalc.polynomial import Poly
from jcalc.root_data import poincare_homogeneous


def _ones(n):
    """1 + t + ... + t^(n - 1)."""
    return Poly([1] * n)


# (label, form, p, J, vertex i of P_i, Tits data, summand, multiplicities)
ENTRIES = [
    ("Severi-Brauer SB(A), deg A = 3", "A2ad", 3, (1,), 1,
     {"tits_index": 3, "splitting_degree": 3}, _ones(3), Poly.one()),
    ("Severi-Brauer SB(A), deg A = 5", "A4ad", 5, (1,), 1,
     {"tits_index": 5, "splitting_degree": 5}, _ones(5), Poly.one()),
    ("Severi-Brauer SB(A), deg A = 7", "A6ad", 7, (1,), 1,
     {"tits_index": 7, "splitting_degree": 7}, _ones(7), Poly.one()),
    # four Rost motives 1 + t^3 of the 3-fold Pfister form
    ("Pfister quadric of SO8", "SO8", 2, (0, 1), 1,
     {"tits_index": 1, "splitting_degree": 2, "pfister": True},
     Poly.geometric(3, 2), _ones(4)),
    ("Pfister quadric of SO16", "SO16", 2, (0, 0, 0, 1), 1, {},
     Poly.geometric(7, 2), _ones(8)),
    ("maximal orthogonal Grassmannian of SO5", "SO5", 2, (2,), 2, {},
     _ones(4), Poly.one()),
    ("maximal orthogonal Grassmannian of SO7", "SO7", 2, (2, 1), 3, {},
     _ones(4) * Poly.geometric(3, 2), Poly.one()),
    ("maximal orthogonal Grassmannian of SO9", "SO9", 2, (3, 1), 4, {},
     _ones(8) * Poly.geometric(3, 2), Poly.one()),
    ("maximal orthogonal Grassmannian of SO11", "SO11", 2, (3, 1, 1), 5, {},
     _ones(8) * Poly.geometric(3, 2) * Poly.geometric(5, 2), Poly.one()),
    ("G2/P1 at p = 2", "G2", 2, (1,), 1, {}, Poly.geometric(3, 2), _ones(3)),
    ("G2/P2 at p = 2", "G2", 2, (1,), 2, {}, Poly.geometric(3, 2), _ones(3)),
    ("F4/P1 at p = 3", "F4", 3, (1,), 1, {}, Poly.geometric(4, 3), _ones(8)),
    ("F4/P4 at p = 3", "F4", 3, (1,), 4, {}, Poly.geometric(4, 3), _ones(8)),
    ("E6sc/P1 at p = 3", "E6sc", 3, (1,), 1, {}, Poly.geometric(4, 3), _ones(9)),
]


def _theta(form, vertex):
    return set(form.base.vertices) - {vertex}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry[0])
def test_named_decomposition(entry):
    _label, name, p, J, vertex, tits, summand, multiplicities = entry
    form = parse_form(name)
    dec = decompose(form, p, J, theta=_theta(form, vertex), **tits)
    assert dec.summand_poincare == summand
    assert dec.multiplicities == multiplicities
    assert dec.total_poincare == poincare_homogeneous(form.base, _theta(form, vertex))
    assert dec.summand_poincare * dec.multiplicities == dec.total_poincare
    assert dec.multiplicities.is_nonnegative and dec.multiplicities[0] >= 1


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry[0])
def test_named_decomposition_through_the_cli(capsys, entry):
    # the calls the README's "Decompositions reproduced" section lists
    _label, name, p, J, vertex, tits, summand, multiplicities = entry
    form = parse_form(name)
    argv = ["motive", "decompose", "--form", name, "--p", str(p),
            "--j", ",".join(map(str, J)),
            "--theta", ",".join(map(str, sorted(_theta(form, vertex))))]
    if tits:
        argv += ["--tits-index", str(tits["tits_index"]),
                 "--splitting-degree", str(tits["splitting_degree"])]
    if "pfister" in tits:
        argv += ["--pfister", "yes" if tits["pfister"] else "no"]
    assert execute(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["summand"], payload["multiplicities"]) == (
        list(summand.coeffs), list(multiplicities.coeffs))


# Canonical p-dimension sum d_i (p^{k_i} - 1) at the generic J = k.  These
# are the code's values; Karpenko-Merkurjev, "Canonical p-dimension of
# algebraic groups", Adv. Math. 205 (2006), is the published table to
# compare them with.
CANONICAL_P_DIMENSIONS = [
    ("G2", 2, 3), ("F4", 2, 3), ("F4", 3, 8), ("E6sc", 3, 8), ("E7sc", 2, 17),
    ("E7sc", 3, 8), ("E8", 2, 60), ("E8", 3, 28), ("E8", 5, 24),
]


@pytest.mark.parametrize("name,p,value", CANONICAL_P_DIMENSIONS)
def test_canonical_p_dimension_at_generic_j(name, p, value):
    data = torsion_data(parse_form(name), p)
    assert canonical_p_dimension(data, data.k) == value
    assert rost_poincare(data, data.k).degree == value
