import itertools
import math

import pytest

from jcalc import jinvariant
from jcalc.errors import ContextMismatch, SearchBudgetExceeded
from jcalc.jinvariant import (
    JInvariant,
    enumerate_admissible,
    is_admissible,
    rule_holds,
)
from jcalc.kac_table import constraint_rules, parse_form, table_rows, torsion_data


def J(form_name, p, j):
    return JInvariant(torsion_data(parse_form(form_name), p), tuple(j))


class TestOrder:
    def test_examples(self):
        assert J("E8", 3, (0, 0)).precedes(J("E8", 3, (1, 1)))
        assert not J("E8", 3, (1, 0)).precedes(J("E8", 3, (0, 1)))

    def test_k_dominates(self):
        for form, p in table_rows(6):
            data = torsion_data(form, p)
            for value in enumerate_admissible(form, p):
                assert value.precedes(JInvariant(data, data.k))

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            J("E8", 3, (0, 0)).precedes(J("E8", 5, (0,)))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            J("E8", 5, (2,))
        with pytest.raises(ContextMismatch):
            J("E8", 5, (1, 1))


class TestAdmissibility:
    def test_e7sc_examples(self):
        form = parse_form("E7sc")
        assert is_admissible((1, 1, 0), form, 2)
        assert not is_admissible((0, 1, 1), form, 2)

    def test_zero_always_admissible(self):
        for form, p in table_rows(8):
            r = torsion_data(form, p).r
            assert is_admissible((0,) * r, form, p)

    def test_max_always_admissible(self):
        for form, p in table_rows(8):
            data = torsion_data(form, p)
            assert is_admissible(data.k, form, p)

    def test_e8_le_rule(self):
        assert not is_admissible((3, 1, 1, 1), parse_form("E8"), 2)
        assert is_admissible((3, 2, 1, 1), parse_form("E8"), 2)

    def test_bare_tuple_is_range_checked(self):
        e7sc = parse_form("E7sc")
        for j in ((5, 5, 5), (1, 1, 2), (-1, 0, 0)):
            with pytest.raises(ValueError):
                is_admissible(j, e7sc, 2)
        for j in ((7,), (-3,)):
            with pytest.raises(ValueError):
                is_admissible(j, parse_form("E8"), 5)
        with pytest.raises(ValueError):
            is_admissible((1,), parse_form("E8"), 4)
        with pytest.raises(ContextMismatch):
            is_admissible((1, 1), parse_form("E8"), 5)

    def test_jinvariant_object_input(self):
        assert is_admissible(J("E7sc", 2, (1, 1, 1)), parse_form("E7sc"))
        with pytest.raises(ContextMismatch):
            is_admissible(J("E7sc", 2, (1, 1, 1)), parse_form("E8"))

    def test_gates_match_exact_binomials(self):
        # evaluate every gated rule both through Lucas and through comb
        for name in ("Spin17", "SO16", "PGO16", "HalfSpin16"):
            form = parse_form(name)
            data = torsion_data(form, 2)
            rules = constraint_rules(form, 2)
            for j in itertools.islice(
                    itertools.product(*[range(k + 1) for k in data.k]), 0, None, 7):
                for rule in rules:
                    got = rule_holds(rule, j, 2)
                    if rule.kind == "ge" and rule.gate is not None:
                        fires = math.comb(*rule.gate) % 2 != 0 if rule.gate[1] <= rule.gate[0] else False
                        expected = (not fires) or j[rule.i - 1] >= j[rule.j - 1]
                        assert got == expected


class TestEnumeration:
    def test_examples(self):
        assert [v.j for v in enumerate_admissible(parse_form("E8"), 5)] == [(0,), (1,)]
        assert [v.j for v in enumerate_admissible(parse_form("F4"), 3)] == [(0,), (1,)]
        assert [v.j for v in enumerate_admissible(parse_form("E7sc"), 2)] == [
            (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_lexicographic_order(self):
        values = [v.j for v in enumerate_admissible(parse_form("E8"), 2)]
        assert values == sorted(values)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(jinvariant, "_BOX_BUDGET", 3)
        with pytest.raises(SearchBudgetExceeded):
            enumerate_admissible(parse_form("E8"), 2)

    def test_ge_only_rows_meet_closed_and_connected(self):
        # rows whose rules are all ungated GE chains: the admissible set is
        # closed under componentwise min and every value walks down to zero
        for name, p in (("E7sc", 2), ("E7ad", 2), ("E8", 3)):
            form = parse_form(name)
            rules = constraint_rules(form, p)
            assert all(r.kind == "ge" and r.gate is None for r in rules)
            values = {v.j for v in enumerate_admissible(form, p)}
            for a in values:
                for b in values:
                    assert tuple(map(min, a, b)) in values
            for a in values:
                while sum(a) > 0:
                    steps = [a[:i] + (a[i] - 1,) + a[i + 1:]
                             for i in range(len(a)) if a[i] > 0]
                    nxt = [s for s in steps if s in values]
                    assert nxt, "no admissible step down from %s" % (a,)
                    a = nxt[0]


class TestSteenrodRule:
    def test_e8_shape(self):
        rules = constraint_rules(parse_form("E8"), 2)
        rule = next(r for r in rules if r.kind == "le" and r.i == 1)  # j_1 <= j_2 + 1
        assert (rule.i, rule.j, rule.offset) == (1, 2, 1)
        assert str(rule) == "j1 <= j2 + 1"
        assert rule_holds(rule, (3, 2, 1, 1), 2)
        assert not rule_holds(rule, (3, 1, 1, 1), 2)


class TestJson:
    def test_round_trip(self):
        value = J("E7sc", 2, (1, 1, 0))
        packed = value.to_dict()
        assert packed == {"p": 2, "j": [1, 1, 0]}
        data = torsion_data(parse_form("E7sc"), 2)
        assert JInvariant(data, packed["j"]) == value
