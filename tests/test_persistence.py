import random

import pytest

from dbnet.datatypes import Variable, int_value, real_value, string_value
from dbnet.dsl import _lex
from dbnet.errors import DefinitionError
from dbnet.persistence import (
    Constraint,
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    PersistenceLayer,
    RelationSchema,
    check_compliance,
    instance_to_json,
    instance_to_text,
    validate_instance,
)
from dbnet.query import And, PredicateAtom, RelationAtom, entails, forall, implies

from generators import random_instance, random_schema


@pytest.fixture(scope="module")
def schema():
    return DatabaseSchema(
        [
            RelationSchema("Emp", ("string",)),
            RelationSchema("Ticket", ("int", "string")),
            RelationSchema("Resp", ("string", "int")),
            RelationSchema("Log", ("int", "string", "string")),
        ]
    )


def emp(name):
    return Fact("Emp", (string_value(name),))


def resp(name, t):
    return Fact("Resp", (string_value(name), int_value(t)))


def ticket(t, d):
    return Fact("Ticket", (int_value(t), string_value(d)))


def one_ticket_key():
    e = Variable("e", "string")
    t1 = Variable("t1", "int")
    t2 = Variable("t2", "int")
    body = implies(
        And(RelationAtom("Resp", (e, t1)), RelationAtom("Resp", (e, t2))),
        PredicateAtom("=_int", (t1, t2)),
    )
    return Constraint("one_ticket_per_employee", forall(e, forall(t1, forall(t2, body))))


class TestActiveDomain:
    def test_reads_off_facts(self):
        inst = DatabaseInstance([emp("ann"), resp("bob", 1)])
        assert inst.active_domain("int") == {int_value(1)}

    def test_empty_instance(self):
        assert DatabaseInstance().active_domain("int") == frozenset()
        assert DatabaseInstance().active_domain("string") == frozenset()

    def test_string_positions(self):
        inst = DatabaseInstance([ticket(1, "bug"), resp("bob", 1)])
        assert inst.active_domain("string") == {string_value("bug"), string_value("bob")}

    def test_matches_independent_scan(self, catalog):
        rng = random.Random(5)
        for _ in range(50):
            schema = random_schema(rng)
            inst = random_instance(rng, schema)
            for type_name in ("string", "int", "real"):
                scan = {
                    v
                    for f in inst.facts
                    for v in f.args
                    if v.type_name == type_name
                }
                assert inst.active_domain(type_name) == scan
                assert all(catalog.type(type_name).contains(v.payload) for v in scan)


class TestInstance:
    def test_set_semantics(self):
        base = DatabaseInstance([emp("ann")])
        again = base.with_changes(add=[emp("ann")])
        assert again == base
        assert again.canonical() == base.canonical()

    def test_canonical_order_is_stable(self):
        a = DatabaseInstance([resp("bob", 1), emp("ann"), ticket(1, "bug")])
        b = DatabaseInstance([ticket(1, "bug"), resp("bob", 1), emp("ann")])
        assert a.canonical() == b.canonical()
        assert hash(a) == hash(b)

    def test_validate_instance(self, schema, catalog):
        validate_instance(schema, catalog, DatabaseInstance([emp("ann")]))
        bad_arity = DatabaseInstance([Fact("Emp", (string_value("x"), string_value("y")))])
        with pytest.raises(DefinitionError):
            validate_instance(schema, catalog, bad_arity)
        bad_type = DatabaseInstance([Fact("Emp", (int_value(3),))])
        with pytest.raises(DefinitionError):
            validate_instance(schema, catalog, bad_type)
        unknown_rel = DatabaseInstance([Fact("Nope", (int_value(3),))])
        with pytest.raises(DefinitionError):
            validate_instance(schema, catalog, unknown_rel)


class TestCompliance:
    def test_single_resp_ok(self, schema):
        layer = PersistenceLayer(schema, [one_ticket_key()])
        report = check_compliance(layer, DatabaseInstance([resp("ann", 1), ticket(1, "a")]))
        assert report.ok and report.violated == ()

    def test_double_resp_violates(self, schema):
        layer = PersistenceLayer(schema, [one_ticket_key()])
        inst = DatabaseInstance([resp("ann", 1), resp("ann", 2)])
        report = check_compliance(layer, inst)
        assert not report.ok
        assert report.violated == ("one_ticket_per_employee",)

    def test_no_constraints_always_ok(self, schema):
        layer = PersistenceLayer(schema, [])
        assert check_compliance(layer, DatabaseInstance([resp("a", 1), resp("a", 2)])).ok

    def test_open_constraint_rejected(self, schema):
        e = Variable("e", "string")
        with pytest.raises(DefinitionError):
            PersistenceLayer(schema, [Constraint("open", RelationAtom("Emp", (e,)))])

    def test_constraint_is_compiled_on_the_first_check(self, schema):
        # `prefix` is not a catalog predicate: the layer builds (a net over a
        # domain that has it would rebind it), and only evaluating fails.
        x = Variable("x", "string")
        some_a = Constraint("some_a", forall(x, PredicateAtom("prefix", (string_value("a"), x))))
        layer = PersistenceLayer(schema, [some_a])
        with pytest.raises(DefinitionError, match="unknown predicate 'prefix'"):
            check_compliance(layer, DatabaseInstance())

    def test_agrees_with_conjunction_query(self, schema):
        # ok iff the conjunction of all constraints holds as one boolean query.
        e = Variable("e", "string")
        t = Variable("t", "int")
        fk = Constraint(
            "resp_has_employee",
            forall(e, forall(t, implies(RelationAtom("Resp", (e, t)), RelationAtom("Emp", (e,))))),
        )
        layer = PersistenceLayer(schema, [one_ticket_key(), fk])
        first, second = (c.query for c in layer.constraints)
        conjunction = And(first, second)
        rng = random.Random(11)
        pool = [
            emp("ann"), emp("bob"), resp("ann", 1), resp("ann", 2),
            resp("bob", 1), ticket(1, "bug"), ticket(2, "feat"),
        ]
        for _ in range(100):
            inst = DatabaseInstance(rng.sample(pool, rng.randint(0, len(pool))))
            assert check_compliance(layer, inst).ok == entails(inst, {}, conjunction)


class TestSerialization:
    def test_text_escapes_strings(self):
        cases = {
            'say "hi"\n': '"say \\"hi\\"\\n"',
            "a\\b": '"a\\\\b"',
            "a\tb": '"a\\tb"',
            "a\rb": '"a\\rb"',
            "ν0": '"ν0"',  # not escaped
        }
        for payload, literal in cases.items():
            assert instance_to_text(DatabaseInstance([ticket(1, payload)])) == f"Ticket(1, {literal})\n"
            token = _lex(literal)[0]
            assert (token.kind, token.value) == ("STRING", payload)

    def test_text_form_lines(self, schema, catalog):
        inst = DatabaseInstance([emp("ann"), resp("bob", 1)])
        assert instance_to_text(inst) == 'Emp("ann")\nResp("bob", 1)\n'

    def test_json_writes_reals_as_decimal_strings(self):
        inst = DatabaseInstance([Fact("Price", (int_value(2), real_value("2.50")))])
        assert instance_to_json(inst) == {"Price": [[2, "2.5"]]}


class TestCustomTypeDomain:
    """Constraints are evaluated over the net's own type domain, not over the
    built-in catalog: a predicate registered on a custom type must resolve."""

    @staticmethod
    def types():
        from dbnet.datatypes import DataType, Kind, Predicate, TypeDomain

        string = DataType(
            "string",
            Kind.STRING,
            {
                "=_s": Predicate("=_s", 2, lambda a, b: a == b),
                "prefix": Predicate("prefix", 2, lambda a, b: b.startswith(a)),
            },
        )
        return TypeDomain([string, DataType("int", Kind.INT)])

    @staticmethod
    def some_a_name():
        from dbnet.query import Exists

        x = Variable("x", "string")
        body = And(RelationAtom("Emp", (x,)), PredicateAtom("prefix", (string_value("a"), x)))
        return Constraint("some_a_name", Exists(x, body))

    def test_check_compliance(self, schema):
        layer = PersistenceLayer(schema, [self.some_a_name()], self.types())
        assert check_compliance(layer, DatabaseInstance([emp("ann"), emp("bob")])).ok
        report = check_compliance(layer, DatabaseInstance([emp("bob")]))
        assert report.violated == ("some_a_name",)

    def test_snapshot_and_firing(self, schema):
        from dbnet.control import ActionBinding, DbNet, Place, Transition
        from dbnet.datalogic import Action, DataLogicLayer, FactTemplate
        from dbnet.multiset import Multiset
        from dbnet.query import Truth
        from dbnet.semantics import fire, make_snapshot

        e = Variable("e", "string")
        types = self.types()
        leave = Action("leave", (e,), (), (FactTemplate("Emp", (e,)),))
        net = DbNet(
            types,
            # No type domain given: the net rebinds the layer to its own.
            PersistenceLayer(schema, [self.some_a_name()]),
            DataLogicLayer(actions=[leave]),
            [Place("staff", "control", ("string",))],
            [
                Transition(
                    "leave",
                    inputs={"staff": Multiset([(e,)])},
                    guard=Truth(),
                    action=ActionBinding("leave", (e,)),
                )
            ],
        )
        assert net.persistence.types is types
        staff = Multiset([(string_value("ann"),), (string_value("bob"),)])
        snap = make_snapshot(net, DatabaseInstance([emp("ann"), emp("bob")]), {"staff": staff})
        with pytest.raises(DefinitionError, match="violates constraints"):
            make_snapshot(net, DatabaseInstance([emp("bob")]))
        t = net.transitions["leave"]
        _, committed = fire(net, snap, t, {e: string_value("bob")})
        assert committed
        _, committed = fire(net, snap, t, {e: string_value("ann")})
        assert not committed
