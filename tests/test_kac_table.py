import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from jcalc.errors import (InternalInconsistency, InvalidInput, SearchBudgetExceeded,
                          UnsupportedForm)
from jcalc import kac_table
from jcalc.integers import factorize, padic_valuation
from jcalc.kac_table import (
    _FORM_SUFFIXES,
    _chain_rules,
    _log2_floor,
    _so_row,
    _spin_row,
    GroupForm,
    TorsionData,
    constraint_rules,
    expand_table,
    parse_form,
    table_rows,
    torsion_data,
    torsion_primes,
)
from jcalc.root_data import DynkinType


class TestForms:
    def test_parse_and_names(self):
        assert parse_form("E7sc").name == "E7sc"
        assert parse_form("E8ad").name == "E8"  # trivial center
        assert parse_form("A4").name == "A4"
        assert parse_form("A4ad").name == "A4ad"
        assert parse_form("A9mu2").name == "A9mu2"
        assert parse_form("SL10mu2") == parse_form("A9mu2")
        assert parse_form("PGL5") == parse_form("A4ad")
        assert parse_form("Spin11").name == "B5spin"
        assert parse_form("SO16").name == "D8so"
        assert parse_form("PGO14").name == "D7pgo"
        assert parse_form("HalfSpin12").name == "D6halfspin"
        assert parse_form("PGSp8").name == "C4pgsp"
        assert parse_form("Sp8").name == "C4sc"

    def test_validation(self):
        with pytest.raises(UnsupportedForm):
            GroupForm(DynkinType("A", 4), "slmu", 3)  # 3 does not divide 5
        with pytest.raises(UnsupportedForm):
            GroupForm(DynkinType("D", 5), "halfspin")  # odd rank
        with pytest.raises(UnsupportedForm):
            GroupForm(DynkinType("B", 3), "pgsp")
        with pytest.raises(UnsupportedForm):
            parse_form("Q7")

    def test_adjoint_a_series_sets_mu(self):
        form = GroupForm.adjoint(DynkinType("A", 4))
        assert form.mu == 5


class TestTorsionPrimes:
    def test_examples(self):
        assert torsion_primes(parse_form("F4")) == [2, 3]
        assert torsion_primes(parse_form("E8")) == [2, 3, 5]
        assert torsion_primes(parse_form("A2")) == []  # SL_3 is special
        assert torsion_primes(parse_form("Sp8")) == []
        assert torsion_primes(parse_form("PGSp8")) == [2]
        assert torsion_primes(parse_form("A5mu6")) == [2, 3]
        assert torsion_primes(parse_form("G2")) == [2]
        assert torsion_primes(parse_form("E6ad")) == [2, 3]


class TestTorsionData:
    def test_exceptional_rows(self):
        e8 = parse_form("E8")
        assert torsion_data(e8, 5) == TorsionData(5, (6,), (1,))
        assert torsion_data(e8, 3) == TorsionData(3, (4, 10), (1, 1))
        assert torsion_data(e8, 2) == TorsionData(2, (3, 5, 9, 15), (3, 2, 1, 1))
        assert torsion_data(parse_form("E6ad"), 3) == TorsionData(3, (1, 4), (2, 1))
        assert torsion_data(parse_form("E7ad"), 2) == TorsionData(2, (1, 3, 5, 9), (1, 1, 1, 1))
        assert torsion_data(parse_form("G2"), 2) == TorsionData(2, (3,), (1,))

    def test_caps_are_computed_once_outside_the_value(self):
        data, twin = TorsionData(2, (3, 5, 9, 15), (3, 2, 1, 1)), torsion_data(parse_form("E8"), 2)
        before = hash(data), repr(data)
        assert data.caps == (8, 4, 2, 2) and data.caps is data.caps
        assert (hash(data), repr(data)) == before and data == twin and hash(data) == hash(twin)
        assert replace(data, k=(1, 1, 1, 1)).caps == (2, 2, 2, 2)

    def test_non_torsion_prime_gives_empty(self):
        assert torsion_data(parse_form("G2"), 5).r == 0
        assert torsion_data(parse_form("A2"), 2).r == 0

    def test_spin_formula(self):
        assert torsion_data(parse_form("Spin7"), 2) == TorsionData(2, (3,), (1,))
        # Spin_17: r = 3, d = (3,5,7), k = (2,1,1)
        assert torsion_data(parse_form("Spin17"), 2) == TorsionData(2, (3, 5, 7), (2, 1, 1))

    def test_so_formula(self):
        # SO_7: r = 2, d = (1,3), k = (2,1)
        assert torsion_data(parse_form("SO7"), 2) == TorsionData(2, (1, 3), (2, 1))
        assert _so_row(7)[:2] == ((1, 3), (2, 1))
        assert _so_row(4)[:2] == ((1,), (1,))     # SO_4, whose A1 x A1 is not simple
        assert _spin_row(7)[:2] == ((3,), (1,))

    def test_low_spin_groups_are_special(self):
        # Spin_3 = SL_2, Spin_5 = Sp_4, Spin_6 = SL_4: no torsion
        for name in ("Spin5", "B1spin", "D3spin"):
            assert torsion_primes(parse_form(name)) == []

    def test_accidental_isogenies_share_rows(self):
        # SO_6 = SL_4 / mu_2 and PGO_6 = PGL_4
        assert torsion_data(parse_form("SO6"), 2) == torsion_data(parse_form("A3mu2"), 2)
        assert torsion_data(parse_form("PGO6"), 2) == torsion_data(parse_form("PGL4"), 2)
        # SO_3 = PGL_2
        assert torsion_data(parse_form("SO3"), 2) == torsion_data(parse_form("PGL2"), 2)

    def test_pgo_odd_drops_trivial_generator(self):
        # PGO_14: n = 7 odd, the codimension-1 generator has k = 0 and is dropped
        data = torsion_data(parse_form("PGO14"), 2)
        assert data.d[0] == 1 and data.k[0] >= 1
        assert all(k >= 1 for k in data.k)

    def test_pgsp_and_slmu_valuations(self):
        assert torsion_data(parse_form("PGSp8"), 2) == TorsionData(2, (1,), (3,))
        assert torsion_data(parse_form("PGSp12"), 2) == TorsionData(2, (1,), (2,))
        assert torsion_data(parse_form("A8ad"), 3) == TorsionData(3, (1,), (2,))
        assert torsion_data(parse_form("A5mu2"), 2) == TorsionData(2, (1,), (1,))

    def test_halfspin(self):
        data = torsion_data(parse_form("HalfSpin8"), 2)
        assert data == TorsionData(2, (1, 3), (2, 1))


class TestConstraintRules:
    def test_e7sc_chain(self):
        rules = constraint_rules(parse_form("E7sc"), 2)
        assert [str(r) for r in rules] == ["j1 >= j2", "j2 >= j3"]

    def test_e8_rules(self):
        rules = constraint_rules(parse_form("E8"), 2)
        assert [str(r) for r in rules] == [
            "j1 >= j2", "j2 >= j3", "j1 <= j2 + 1", "j2 <= j3 + 1"]

    def test_f4_p3_empty(self):
        assert constraint_rules(parse_form("F4"), 3) == ()

    def test_spin_rules_are_gated(self):
        rules = constraint_rules(parse_form("Spin17"), 2)
        ge = [r for r in rules if r.kind == "ge"]
        le = [r for r in rules if r.kind == "le"]
        assert all(r.gate == (r.i, r.j - r.i) for r in ge)
        assert all(r.j == 2 * r.i and r.offset == 1 for r in le)


class TestRowInvariants:
    @pytest.mark.parametrize("form,p", list(table_rows(8)), ids=lambda x: str(x))
    def test_row_sanity(self, form, p):
        data = torsion_data(form, p)
        assert data.r >= 1
        for d, k in zip(data.d, data.k):
            assert math.gcd(d, p) == 1
            assert k >= 1
            assert d * p ** k >= 2
        assert list(data.d) == sorted(data.d)
        # SO and Spin rows have strictly increasing codimensions; PGO and
        # half-spin rows may carry two codimension-1 generators.
        if form.isogeny in ("so", "spin") and form.base.series in ("B", "D"):
            assert all(a < b for a, b in zip(data.d, data.d[1:]))
        for rule in constraint_rules(form, p):
            assert 1 <= rule.i <= data.r
            assert 1 <= rule.j <= data.r

    @pytest.mark.parametrize("max_rank,count", [(8, 71), (12, 110), (20, 194)])
    def test_table_rows_are_distinct(self, max_rank, count):
        rows = list(table_rows(max_rank))
        assert len(set(rows)) == len(rows) == count

    def test_determinism(self):
        e8 = parse_form("E8")
        assert torsion_data(e8, 2) == torsion_data(e8, 2)


class TestDump:
    def test_dump_shape(self):
        rows = list(expand_table(4))
        assert rows, "dump is empty"
        for row in rows:
            assert set(row) == {"form", "p", "r", "d", "k", "rules"}
            assert row["r"] == len(row["d"]) == len(row["k"])
            for rule in row["rules"]:
                assert set(rule) == {"kind", "i", "j", "offset", "gate"}

    def test_walk_budget(self):
        table_rows(64)                      # the budget itself is admitted
        for walk in (table_rows, expand_table):     # refused at the call, before any row
            with pytest.raises(SearchBudgetExceeded, match="rank 65 exceeds the budget of 64"):
                walk(65)

    def test_dump_contains_e8_row(self):
        rows = [r for r in expand_table(4) if r["form"] == "E8" and r["p"] == 5]
        assert rows == [{"form": "E8", "p": 5, "r": 1, "d": [6], "k": [1], "rules": []}]


def test_rows_are_built_once_per_form_and_prime():
    kac_table._built_row.cache_clear()
    rows = {(form, p): (torsion_data(form, p), constraint_rules(form, p))
            for form, p in table_rows(12)}
    info = kac_table._built_row.cache_info()
    # torsion_primes asks once for each prime of 30 * mu; every later ask hits
    forms = itertools.chain(kac_table.classical_forms(12), kac_table.exceptional_forms())
    assert info.misses == sum(len(factorize(30 * form.mu)) for form in forms)
    assert info.hits >= 2 * len(rows)
    for (form, p), (data, rules) in rows.items():
        d, k, uncached = kac_table._built_row.__wrapped__(form, p)
        assert (data.d, data.k, rules) == (d, k, uncached)


def test_row_checks_come_before_the_cache():
    # an unhashable argument never reaches the lru_cache's key
    for form in (["E8"], {"E8": 2}):
        with pytest.raises(UnsupportedForm):
            torsion_data(form, 2)
        with pytest.raises(UnsupportedForm):
            torsion_primes(form)
    with pytest.raises(ValueError, match="is not prime"):
        constraint_rules(parse_form("E8"), 6)


def test_torsion_data_rejects_bad_inputs():
    with pytest.raises(ValueError):
        torsion_data(parse_form("E8"), 4)
    with pytest.raises(UnsupportedForm):
        torsion_data("E8", 2)
    with pytest.raises(ValueError):
        TorsionData(2, (2,), (1,))  # codimension not coprime to p
    with pytest.raises(ValueError):
        TorsionData(2, (3, 1), (1, 1))  # not nondecreasing
    with pytest.raises(ValueError):
        TorsionData(2, (3,), (0,))  # trivial generator


@pytest.mark.parametrize("d,k", [((3, 5), (1,)), ((2,), (1,)), ((0,), (1,)),
                                 ((5, 3), (1, 1)), ((3,), (0,))])
def test_torsion_data_checks_raise_invalid_input(d, k):
    with pytest.raises(InvalidInput):
        TorsionData(2, d, k)


@pytest.mark.parametrize("lookup", [torsion_data, constraint_rules])
@pytest.mark.parametrize("p", [1, 4, 0, -2])
def test_every_lookup_rejects_a_non_prime(lookup, p):
    # constraint_rules(A3ad, 1) once looped in padic_valuation, and (form, 4)
    # returned no rules
    for name in ("A3ad", "E8", "Spin11"):
        with pytest.raises(ValueError):
            lookup(parse_form(name), p)


@pytest.mark.parametrize("lookup", [torsion_primes, lambda form: torsion_data(form, 2),
                                    lambda form: constraint_rules(form, 2)])
def test_every_lookup_rejects_a_non_form(lookup):
    for form in ("E8", None, DynkinType("E", 8)):
        with pytest.raises(UnsupportedForm):
            lookup(form)


# ---------------------------------------------------------------------------
# The hand-written parser that the two regular expressions replaced
# ---------------------------------------------------------------------------

def old_parse_form(text):
    raw = text.strip()
    low = raw.lower()
    classical = [("halfspin", "D", "halfspin"), ("pgsp", "C", "pgsp"),
                 ("spin", None, "spin"), ("pgo", "D", "pgo"), ("pgl", "A", "ad"),
                 ("so", None, "so"), ("sl", "A", "slmu"), ("sp", "C", "sc")]
    for prefix, _series, isogeny in classical:
        if low.startswith(prefix) and low[len(prefix):].split("mu")[0].isdigit():
            rest = low[len(prefix):]
            mu = 1
            if "mu" in rest:
                rest, mu_text = rest.split("mu", 1)
                mu = int(mu_text)
            n = int(rest)
            if mu != 1 and prefix != "sl":
                raise UnsupportedForm("mu only applies to SL forms")
            if prefix in ("sl", "pgl"):
                rank = n - 1
                mu = n if prefix == "pgl" else mu
                return GroupForm(DynkinType("A", rank), "slmu", mu)
            if prefix in ("sp", "pgsp"):
                if n % 2:
                    raise UnsupportedForm("symplectic dimension must be even")
                return GroupForm(DynkinType("C", n // 2), isogeny)
            series_letter = "B" if n % 2 else "D"
            return GroupForm(DynkinType(series_letter, (n - 1) // 2 if n % 2 else n // 2),
                             isogeny)
    head = raw[:1].upper()
    rest = raw[1:]
    digits = ""
    while rest and rest[0].isdigit():
        digits += rest[0]
        rest = rest[1:]
    if head not in "ABCDEFG" or not digits:
        raise UnsupportedForm("cannot parse form %r" % (text,))
    base = DynkinType(head, int(digits))
    tag = rest.strip().lower()
    if not tag:
        return GroupForm(base, "sc")
    if tag.startswith("mu"):
        return GroupForm(base, "slmu", int(tag[2:]))
    if tag == "ad":
        return GroupForm.adjoint(base)
    if tag in _FORM_SUFFIXES:
        return GroupForm(base, tag)
    raise UnsupportedForm("cannot parse form %r" % (text,))


def _outcome(parse, text):
    """The parsed form, or the class of the exception raised instead."""
    try:
        return parse(text)
    except Exception as exc:  # the classes themselves are compared
        return type(exc)


def _same_outcome(text):
    new, old = _outcome(parse_form, text), _outcome(old_parse_form, text)
    if new is InvalidInput:
        # a mu tag that int() rejects: InvalidInput now, a bare ValueError before
        return old is ValueError and "mu" in text.lower()
    return new == old


FORM_TOKENS = ["sl", "SL", "pgl", "so", "SO", "spin", "Spin", "halfspin", "HalfSpin",
               "hs", "pgo", "sp", "Sp", "pgsp", "sc", "ad", "mu", "MU", "A", "a", "B",
               "C", "D", "d", "E", "e", "F", "G", "H", "x", " ", "+", "-", "_"]
DIGIT_TOKENS = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "12", "16"]


def test_parse_form_matches_old_parser_on_short_token_strings():
    # every string of up to three tokens, then every token + digits + token + digits
    tokens = FORM_TOKENS + DIGIT_TOKENS
    texts = ["".join(word) for size in range(4) for word in itertools.product(tokens, repeat=size)]
    texts += ["".join(word) for word in itertools.product(
        FORM_TOKENS, DIGIT_TOKENS, ["mu", "MU", "ad", "sc", " mu", "mu "], DIGIT_TOKENS + [""])]
    differ = [t for t in texts if not _same_outcome(t)]
    assert differ == []
    assert _outcome(parse_form, "SL10mu") is _outcome(parse_form, "A9mux") is InvalidInput


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FORM_TOKENS + DIGIT_TOKENS + DIGIT_TOKENS), max_size=7))
def test_parse_form_matches_old_parser_on_token_strings(word):
    assert _same_outcome("".join(word))


# The PGO_2n and half-spin rows as they were written before both were
# built from the SO_2n row: their own closed formulas, with generators of
# exponent 0 dropped and the rule indices renumbered.

def _drop_trivial_generators(d, k, rules):
    keep = [idx for idx, ki in enumerate(k) if ki > 0]
    if len(keep) == len(k):
        return tuple(d), tuple(k), tuple(rules)
    remap = {old + 1: new + 1 for new, old in enumerate(keep)}
    out_rules = []
    for rule in rules:
        if rule.i not in remap or rule.j not in remap:
            raise InternalInconsistency(
                "constraint %s touches a dropped k=0 generator" % (rule,))
        out_rules.append(replace(rule, i=remap[rule.i], j=remap[rule.j]))
    return (tuple(d[i] for i in keep), tuple(k[i] for i in keep), tuple(out_rules))


def old_pgo_row(n):
    r = (n + 2) // 2
    d = [1] + [2 * i - 3 for i in range(2, r + 1)]
    k = [padic_valuation(n, 2)] + \
        [_log2_floor((2 * n - 1) // (2 * i - 3)) for i in range(2, r + 1)]
    return _drop_trivial_generators(d, k, _chain_rules(-2, 2, r, lambda i: 2 * i - 2))


def old_halfspin_row(n):
    r = n // 2
    d = [1] + [2 * i - 1 for i in range(2, r + 1)]
    k = [padic_valuation(n, 2)] + \
        [_log2_floor((2 * n - 1) // (2 * i - 1)) for i in range(2, r + 1)]
    return _drop_trivial_generators(d, k, _chain_rules(-1, 1, r, lambda i: 2 * i - 1))


def _row_of(form):
    data = torsion_data(form, 2)
    return data.d, data.k, constraint_rules(form, 2)


@pytest.mark.parametrize("n", range(3, 65))
def test_pgo_row_matches_its_own_formula(n):
    assert _row_of(GroupForm(DynkinType("D", n), "pgo")) == old_pgo_row(n)


@pytest.mark.parametrize("n", range(4, 65, 2))
def test_halfspin_row_matches_its_own_formula(n):
    assert _row_of(GroupForm(DynkinType("D", n), "halfspin")) == old_halfspin_row(n)


def test_dump_matches_the_old_formulas():
    old = {"pgo": old_pgo_row, "halfspin": old_halfspin_row}
    for (form, p), row in zip(table_rows(12), expand_table(12)):
        if form.isogeny in old:
            d, k, rules = old[form.isogeny](form.base.rank)
            assert (row["d"], row["k"]) == (list(d), list(k))
            assert row["rules"] == [rule.as_dict() for rule in rules]
