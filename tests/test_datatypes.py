import random
import re
from decimal import Decimal

import pytest

from dbnet import dsl
from dbnet.datatypes import (
    DataType,
    Kind,
    Predicate,
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
from dbnet.persistence import DatabaseInstance
from dbnet.query import And, Exists, Not, PredicateAtom, RelationAtom, entails
from oracles import PREDICATES

EMPTY = DatabaseInstance()


#: A few values per catalog type: negative numbers, 1.5 against a
#: non-canonical 1.50, non-ASCII and generated-looking strings.
POOLS = {
    "string": [string_value(s) for s in ("", "a", "ann", "b", "Ärger", "ν0", "日本")],
    "int": [int_value(i) for i in (-7, -1, 0, 1, 2, 3)],
    "real": [real_value(t) for t in ("-2.5", "-0.1", "0", "1.5", "2")] + [Value("real", Decimal("1.50"))],
    "bool": [bool_value(False), bool_value(True)],
}


class TestPredicatesInPlans:
    """Every catalog predicate, decided by a compiled plan, against the
    oracles' own predicate table; ill-formed atoms fail when compiled."""

    def test_every_catalog_predicate_is_covered(self, catalog):
        assert sorted(PREDICATES) == sorted(p for dt in catalog.types.values() for p in dt.predicates)

    @pytest.mark.parametrize("pred", sorted(PREDICATES))
    def test_agrees_with_oracle(self, catalog, pred):
        type_name = catalog.type_of_predicate(pred).name
        x, y = Variable("x", type_name), Variable("y", type_name)
        for a in POOLS[type_name]:
            for b in POOLS[type_name]:
                want = PREDICATES[pred](a.payload, b.payload)
                assert entails(EMPTY, {x: a, y: b}, PredicateAtom(pred, (x, y))) is want, (a, b)
                assert entails(EMPTY, {}, PredicateAtom(pred, (a, b))) is want, (a, b)
                assert entails(EMPTY, {x: a}, Not(PredicateAtom(pred, (x, b)))) is not want, (a, b)

    def test_custom_predicate_result_is_a_bool(self):
        text = DataType("string", Kind.STRING, {"has": Predicate("has", 2, lambda a, b: b in a and a.count(b))})
        atom = PredicateAtom("has", (string_value("banana"), string_value("an")))
        assert entails(EMPTY, {}, atom, types=TypeDomain([text])) is True

    @pytest.mark.parametrize(
        "atom, message",
        [
            (PredicateAtom("nope", (int_value(1), int_value(1))), "unknown predicate 'nope'"),
            (PredicateAtom("succ", (int_value(1),)), "predicate 'succ': expected 2 components, got 1"),
            (
                PredicateAtom("<_int", (int_value(1), string_value("x"))),
                "predicate '<_int': component 2 is 'string', expected 'int'",
            ),
            (
                PredicateAtom("<_int", (Variable("s", "string"), int_value(1))),
                "predicate '<_int': component 1 is 'string', expected 'int'",
            ),
            (
                PredicateAtom("=_int", (int_value(1), Value("int", "1"))),
                "predicate '=_int': payload '1' is not in the domain of type 'int'",
            ),
        ],
        ids=["unknown", "arity", "ill-typed", "ill-typed-var", "out-of-domain"],
    )
    def test_ill_formed_atom_fails_when_compiled(self, atom, message):
        s = Variable("s", "string")
        with pytest.raises(DefinitionError, match=f"^{re.escape(message)}$"):
            entails(EMPTY, {s: string_value("a")}, atom)

    def test_atom_that_no_evaluation_reaches_still_fails(self):
        # Over the empty instance the generator yields no candidate, so the
        # predicate atom is never evaluated: only compiling can reject it.
        x = Variable("x", "int")
        query = Exists(x, And(RelationAtom("R", (x,)), PredicateAtom("nope", (x, x))))
        with pytest.raises(DefinitionError, match="unknown predicate 'nope'"):
            entails(EMPTY, {}, query)


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
    @pytest.mark.parametrize("text", ["abc", "", "1.2.3", "NaN", "Infinity"])
    def test_malformed_decimal_is_a_definition_error(self, text):
        with pytest.raises(DefinitionError, match=re.escape(repr(text))):
            canon_decimal(text)

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
