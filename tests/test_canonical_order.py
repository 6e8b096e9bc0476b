"""Values, variables and facts are tuples, and their natural order is the
canonical order: the per-kind sort keys it replaced are written out here
and compared with it."""

from decimal import Decimal

from hypothesis import given
from hypothesis import strategies as st

from dbnet.datatypes import Value, Variable, bool_value, int_value, real_value, string_value
from dbnet.persistence import Fact

PAYLOADS = {
    "int": st.integers(-(10**12), 10**12).map(int_value),
    "real": st.decimals(allow_nan=False, allow_infinity=False, places=3).map(real_value),
    "bool": st.booleans().map(bool_value),
    # An explicit alphabet: ASCII, Latin-1, BMP and astral code points, and
    # a combining mark.
    "string": st.text("aZ é\u0301ν€\uffff😀", max_size=4).map(string_value),
}
TYPE_NAMES = sorted(PAYLOADS)
SCHEMA = {"R": ("int", "string"), "S": ("real",), "T": ("bool", "real", "int")}


def old_token_key(token):
    return tuple((v.type_name, v.payload) for v in token)


def old_fact_key(fact):
    return (fact.relation, tuple(v.payload for v in fact.args))


def old_var_key(v):
    return (v.name, v.type_name)


def tokens_of(color):
    return st.tuples(*(PAYLOADS[type_name] for type_name in color))


def fact_of(relation):
    return tokens_of(SCHEMA[relation]).map(lambda args: Fact(relation, args))


@given(
    st.lists(st.sampled_from(TYPE_NAMES), min_size=1, max_size=3).flatmap(
        lambda color: st.lists(tokens_of(color), max_size=12)
    )
)
def test_tokens_of_one_color_sort_as_the_token_key_did(tokens):
    assert sorted(tokens) == sorted(tokens, key=old_token_key)


@given(st.lists(st.sampled_from(sorted(SCHEMA)).flatmap(fact_of), max_size=12))
def test_facts_sort_as_the_fact_key_did(facts):
    assert sorted(facts) == sorted(facts, key=old_fact_key)


@given(
    st.sets(st.tuples(st.sampled_from("xyzé"), st.sampled_from(TYPE_NAMES)), max_size=8),
    st.booleans(),
)
def test_variables_of_one_kind_sort_as_the_variable_key_did(pairs, fresh):
    variables = [Variable(name, type_name, fresh) for name, type_name in pairs]
    assert sorted(variables) == sorted(variables, key=old_var_key)


def test_kinds_never_compare_equal():
    v = string_value("x")
    items = [v, Variable("x", "string"), Fact("x", (v,)), (v,), (v, v)]
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            assert a != b
    assert len(set(items)) == len(items)


def test_equal_payloads_of_different_types_differ():
    one = [Value("int", 1), Value("bool", True), Value("real", Decimal(1))]
    assert one[0] != one[1] and one[0] != one[2] and one[1] != one[2]
    assert len(set(one)) == 3


def test_separately_built_equal_values_are_equal_and_hash_equal():
    pairs = [
        (int_value(-5), Value("int", -5)),
        (real_value("1.50"), real_value(Decimal("1.5"))),
        (string_value("é"), Value("string", "é")),
        (Fact("R", (int_value(1), string_value("a"))), Fact("R", (Value("int", 1), Value("string", "a")))),
        (Variable("x", "int"), Variable("x", "int", False)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)


def test_variables_are_not_fresh_by_default():
    assert Variable("x", "int").fresh is False
    assert repr(Variable("x", "int", True)) == "nu x:int"
    assert repr(Value("int", 3)) == "Value(int, 3)"
    assert repr(Fact("R", (int_value(1), string_value("a")))) == "R(1, 'a')"
