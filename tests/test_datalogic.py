import random

import pytest

from dbnet.datalogic import (
    Action,
    DataLogicLayer,
    FactTemplate,
    apply_raw,
    instantiate,
)
from dbnet.datatypes import Variable, int_value, string_value
from dbnet.errors import DefinitionError
from dbnet.persistence import (
    Constraint,
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    PersistenceLayer,
    RelationSchema,
    check_compliance,
)
from dbnet.query import And, PredicateAtom, RelationAtom, forall, implies

from generators import (
    random_action,
    random_compliant_instance,
    random_constraints,
    random_schema,
)
from firings import fire_action
from oracles import brute_compliant, naive_apply

E = Variable("e", "string")
T = Variable("t", "int")
D = Variable("d", "string")

RELEASE = Action(
    "release", (E, T), adds=(), dels=(FactTemplate("Resp", (E, T)),)
)
LOG = Action(
    "log",
    (T, E, D),
    adds=(FactTemplate("Log", (T, E, D)),),
    dels=(FactTemplate("Ticket", (T, D)), FactTemplate("Resp", (E, T))),
)
ASSIGN = Action(
    "assign", (E, T), adds=(FactTemplate("Resp", (E, T)),), dels=()
)
NOOP = Action("noop", (), adds=(), dels=())


def schema():
    return DatabaseSchema(
        [
            RelationSchema("Emp", ("string",)),
            RelationSchema("Ticket", ("int", "string")),
            RelationSchema("Resp", ("string", "int")),
            RelationSchema("Log", ("int", "string", "string")),
        ]
    )


def one_ticket_layer():
    e, t1, t2 = Variable("e", "string"), Variable("t1", "int"), Variable("t2", "int")
    body = implies(
        And(RelationAtom("Resp", (e, t1)), RelationAtom("Resp", (e, t2))),
        PredicateAtom("=_int", (t1, t2)),
    )
    key = Constraint("one_ticket_per_employee", forall(e, forall(t1, forall(t2, body))))
    return PersistenceLayer(schema(), [key])


def resp(name, t):
    return Fact("Resp", (string_value(name), int_value(t)))


def emp(name):
    return Fact("Emp", (string_value(name),))


def ticket(t, d):
    return Fact("Ticket", (int_value(t), string_value(d)))


def log(t, e, d):
    return Fact("Log", (int_value(t), string_value(e), string_value(d)))


class TestInstantiate:
    def test_release_grounding(self):
        inst = instantiate(RELEASE, {E: string_value("bob"), T: int_value(1)})
        assert inst.deleted_facts == {resp("bob", 1)}
        assert inst.added_facts == frozenset()

    def test_log_grounding(self):
        inst = instantiate(
            LOG, {T: int_value(1), E: string_value("bob"), D: string_value("bug")}
        )
        assert inst.deleted_facts == {ticket(1, "bug"), resp("bob", 1)}
        assert inst.added_facts == {log(1, "bob", "bug")}

    def test_noop_instance(self):
        inst = instantiate(NOOP, {})
        assert inst.added_facts == inst.deleted_facts == frozenset()

    def test_missing_binding(self):
        with pytest.raises(DefinitionError):
            instantiate(RELEASE, {E: string_value("bob")})

    def test_ill_typed_binding(self):
        with pytest.raises(DefinitionError):
            instantiate(RELEASE, {E: string_value("bob"), T: string_value("1")})

    def test_duplicate_params_rejected(self):
        with pytest.raises(DefinitionError):
            Action("dup", (E, E), (), ())


class TestApplyRaw:
    def test_addition_wins_over_deletion(self):
        x = Variable("x", "int")
        tpl = FactTemplate("Ticket", (x, string_value("d")))
        act = Action("both", (x,), adds=(tpl,), dels=(tpl,))
        inst = instantiate(act, {x: int_value(1)})
        db = DatabaseInstance([ticket(1, "d")])
        assert apply_raw(inst, db) == db

    def test_release(self):
        inst = instantiate(RELEASE, {E: string_value("bob"), T: int_value(1)})
        db = DatabaseInstance([emp("ann"), resp("bob", 1)])
        assert apply_raw(inst, db) == DatabaseInstance([emp("ann")])

    def test_log(self):
        inst = instantiate(
            LOG, {T: int_value(1), E: string_value("bob"), D: string_value("bug")}
        )
        db = DatabaseInstance([ticket(1, "bug"), resp("bob", 1)])
        assert apply_raw(inst, db) == DatabaseInstance([log(1, "bob", "bug")])

    def test_input_instance_unchanged(self):
        inst = instantiate(RELEASE, {E: string_value("bob"), T: int_value(1)})
        db = DatabaseInstance([resp("bob", 1)])
        apply_raw(inst, db)
        assert db == DatabaseInstance([resp("bob", 1)])

    def test_deleting_absent_fact_is_noop(self):
        inst = instantiate(RELEASE, {E: string_value("zoe"), T: int_value(9)})
        db = DatabaseInstance([emp("ann")])
        assert apply_raw(inst, db) == db


class TestApplyTransactional:
    """The commit-or-rollback rule, as `fire` applies it to an action."""

    def test_assign_violating_key_rolls_back(self):
        layer = one_ticket_layer()
        db = DatabaseInstance([emp("ann"), ticket(1, "a"), ticket(2, "b"), resp("ann", 1)])
        got, committed = fire_action(layer, ASSIGN, {E: string_value("ann"), T: int_value(2)}, db)
        assert not committed
        assert got.instance == db

    def test_release_commits(self):
        layer = one_ticket_layer()
        db = DatabaseInstance([emp("ann"), resp("bob", 1)])
        got, committed = fire_action(layer, RELEASE, {E: string_value("bob"), T: int_value(1)}, db)
        assert committed
        assert got.instance == DatabaseInstance([emp("ann")])

    def test_noop_commits(self):
        layer = one_ticket_layer()
        db = DatabaseInstance([resp("ann", 1)])
        got, committed = fire_action(layer, NOOP, {}, db)
        assert committed and got.instance == db

    def test_randomized_transactionality(self):
        rng = random.Random(99)
        for _ in range(150):
            sch = random_schema(rng)
            constraints = random_constraints(rng, sch)
            layer = PersistenceLayer(sch, constraints)
            db = random_compliant_instance(rng, layer)
            assert brute_compliant(constraints, db)
            action, theta = random_action(rng, sch)
            got, committed = fire_action(layer, action, theta, db)
            raw = naive_apply(action, theta, db.facts)
            # Commit decision agrees with the brute-force oracle on the raw result.
            assert committed == brute_compliant(constraints, DatabaseInstance(raw))
            if committed:
                assert got.instance.facts == raw
                assert check_compliance(layer, got.instance).ok
            else:
                assert got.instance == db


class TestLayer:
    def test_duplicate_action_names(self):
        with pytest.raises(DefinitionError):
            DataLogicLayer(actions=[NOOP, Action("noop", (), (), ())])
