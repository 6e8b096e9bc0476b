import random
from decimal import Decimal

import pytest

from dbnet import dsl
from dbnet.datatypes import (
    DataType,
    Kind,
    TypeDomain,
    Value,
    Variable,
    apply_substitution,
    bool_value,
    canon_decimal,
    format_decimal,
    fresh_value,
    int_value,
    real_value,
    render_literal,
    string_value,
)
from dbnet.errors import BindingError, DefinitionError


class TestEvalPredicate:
    def test_integer_order(self, catalog):
        assert catalog.eval_predicate("<_int", (int_value(1), int_value(2)))
        assert not catalog.eval_predicate("<_int", (int_value(2), int_value(1)))

    def test_successor(self, catalog):
        assert catalog.eval_predicate("succ", (int_value(3), int_value(4)))
        assert not catalog.eval_predicate("succ", (int_value(4), int_value(3)))

    def test_string_equality(self, catalog):
        assert not catalog.eval_predicate("=_s", (string_value("a"), string_value("b")))
        assert catalog.eval_predicate("=_s", (string_value("a"), string_value("a")))

    def test_real_comparison(self, catalog):
        assert catalog.eval_predicate("<_r", (real_value("1.5"), real_value("2.0")))
        assert catalog.eval_predicate("=_r", (real_value("1.50"), real_value("1.5")))

    def test_unknown_predicate(self, catalog):
        with pytest.raises(DefinitionError):
            catalog.eval_predicate("nope", ())

    def test_arity_mismatch(self, catalog):
        with pytest.raises(DefinitionError):
            catalog.eval_predicate("succ", (int_value(1),))

    def test_type_mismatch(self, catalog):
        with pytest.raises(DefinitionError):
            catalog.eval_predicate("<_int", (int_value(1), string_value("x")))

    def test_determinism(self, catalog):
        args = (int_value(2), int_value(3))
        results = {catalog.eval_predicate("succ", args) for _ in range(20)}
        assert results == {True}


class TestMismatches:
    def test_fitting_tuple(self, catalog):
        assert catalog.mismatches((int_value(1), Variable("s", "string")), ("int", "string")) == []

    def test_count(self, catalog):
        assert catalog.mismatches((int_value(1),), ("int", "int")) == ["expected 2 components, got 1"]
        assert catalog.mismatches((), ("int",)) == ["expected 1 components, got 0"]

    def test_type_of_each_component(self, catalog):
        assert catalog.mismatches((string_value("a"), int_value(1), bool_value(True)), ("int", "int", "real")) == [
            "component 1 is 'string', expected 'int'",
            "component 3 is 'bool', expected 'real'",
        ]

    def test_value_outside_its_domain(self, catalog):
        # The same words as `check_value`.
        assert catalog.mismatches((Value("int", "x"),), ("int",)) == [
            "payload 'x' is not in the domain of type 'int'"
        ]

    def test_variable_is_checked_by_type_only(self, catalog):
        assert catalog.mismatches((Variable("x", "int"),), ("int",)) == []
        assert catalog.mismatches((Variable("x", "int", fresh=True),), ("string",)) == [
            "component 1 is 'int', expected 'string'"
        ]

    def test_unknown_column_type(self, catalog):
        assert catalog.mismatches((Value("blob", 1),), ("blob",)) == ["unknown type 'blob'"]


def test_duplicate_type_name():
    with pytest.raises(DefinitionError, match="^duplicate type name 'int'$"):
        TypeDomain([DataType("int", Kind.INT), DataType("int", Kind.STRING)])


class TestDomains:
    def test_disjointness_probe(self, catalog):
        # Any payload belongs to at most one type of the domain.
        for payload in ("x", 3, Decimal("1.5"), True, 0, False, ""):
            owners = catalog.owner_of_payload(payload)
            assert len(owners) <= 1

    def test_int_bool_disjoint(self, catalog):
        assert [t.name for t in catalog.owner_of_payload(True)] == ["bool"]
        assert [t.name for t in catalog.owner_of_payload(1)] == ["int"]

    def test_value_identity_is_typed(self):
        assert int_value(1) != bool_value(True)
        assert int_value(1) != real_value("1.0")

    def test_check_value_rejects_foreign_payload(self, catalog):
        with pytest.raises(DefinitionError):
            catalog.check_value(Value("int", "oops"))

    def test_predicate_lookup_unambiguous(self, catalog):
        assert catalog.type_of_predicate("succ").name == "int"
        assert catalog.type_of_predicate("=_s").name == "string"


class TestSubstitution:
    def test_value_is_fixed_point(self):
        assert apply_substitution(int_value(7), {}) == int_value(7)

    def test_variable_lookup(self):
        x = Variable("x", "string")
        assert apply_substitution(x, {x: string_value("ann")}) == string_value("ann")

    def test_unbound_variable(self):
        x = Variable("x", "int")
        y = Variable("y", "int")
        with pytest.raises(BindingError):
            apply_substitution(y, {x: int_value(1)})


class TestFreshValue:
    def test_int_max_plus_one(self, catalog):
        excluded = {int_value(1), int_value(2), int_value(5)}
        got = fresh_value(catalog.type("int"), excluded)
        assert got == int_value(6)

    def test_int_empty_exclusions(self, catalog):
        assert fresh_value(catalog.type("int"), set()) == int_value(0)

    def test_string_counter_with_skip(self, catalog):
        got = fresh_value(catalog.type("string"), {string_value("ann")})
        assert got == string_value("ν0")
        colliding = {got, string_value("ν1")}
        assert fresh_value(catalog.type("string"), colliding) == string_value("ν2")

    def test_bool_rejected(self, catalog):
        with pytest.raises(DefinitionError):
            fresh_value(catalog.type("bool"), set())

    def test_deterministic_for_fixed_state(self, catalog):
        excluded = {int_value(3), int_value(9)}
        outs = {fresh_value(catalog.type("int"), excluded) for _ in range(5)}
        assert outs == {int_value(10)}

    def test_soundness_randomized(self, catalog):
        # Spec-level property: 10,000 randomized exclusion sets.
        rng = random.Random(1)
        string_type = catalog.type("string")
        int_type = catalog.type("int")
        for trial in range(10_000):
            if trial % 2:
                excluded = {int_value(rng.randint(-20, 20)) for _ in range(rng.randint(0, 12))}
                dtype = int_type
            else:
                excluded = {
                    string_value(rng.choice(["ann", "bob", "ν0", "ν1", "ν2"]))
                    for _ in range(rng.randint(0, 4))
                }
                dtype = string_type
            got = fresh_value(dtype, excluded)
            assert got not in excluded
            assert dtype.contains(got.payload)


class TestDecimalsAndLiterals:
    def test_canonical_decimal(self):
        assert canon_decimal("1.50") == canon_decimal("1.5")
        assert format_decimal(canon_decimal("1.50")) == "1.5"
        assert format_decimal(canon_decimal("3.0")) == "3.0"
        assert format_decimal(canon_decimal("-0.50")) == "-0.5"

    @pytest.mark.parametrize(
        "value",
        [string_value('a "quoted" \\ line\nnext'), int_value(-7), real_value("2.25"), bool_value(False)],
    )
    def test_literal_round_trip(self, value):
        (term,) = dsl.parse_formula(f"R({render_literal(value)})").args
        assert term.value == value
