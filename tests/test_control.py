import random

import pytest

from dbnet.control import (
    ActionBinding,
    DbNet,
    Place,
    Transition,
    validate_net,
)
from dbnet.datalogic import Action, DataLogicLayer, FactTemplate, validate_action
from dbnet.datatypes import Value, Variable, builtin_catalog, int_value, string_value
from dbnet.errors import DefinitionError
from dbnet.multiset import Multiset
from dbnet.persistence import (
    Constraint,
    DatabaseSchema,
    Fact,
    PersistenceLayer,
    RelationSchema,
    check_fact,
)
from dbnet.query import And, Exists, NamedQuery, PredicateAtom, RelationAtom, Truth, validate_query
from dbnet.semantics import enumerate_bindings, fire, make_snapshot, check_tokens
from dbnet.persistence import DatabaseInstance

E = Variable("e", "string")
T = Variable("t", "int")
D = Variable("d", "string")
NU = Variable("nu_t", "int", fresh=True)


def insc(*tuples):
    return Multiset(tuples)


class TestVariableSets:
    def test_plain_read_and_copy(self):
        t = Transition("t", inputs={"v": insc((E,))}, outputs={"p": insc((E,))})
        assert t.in_vars() == {E}
        assert t.out_vars() == {E}
        assert t.fresh_vars() == frozenset()
        assert t.external_vars() == frozenset()

    def test_fresh_and_external(self):
        t = Transition("t", inputs={}, outputs={"p": insc((NU, D))})
        assert t.fresh_vars() == {NU}
        assert t.external_vars() == {NU, D}

    def test_action_binding_counts_toward_out_vars(self):
        t = Transition("t", action=ActionBinding("release", (E, T)))
        assert t.out_vars() == {E, T}
        assert t.in_vars() == frozenset()

    def test_rollback_arcs_count_toward_out_vars(self):
        t = Transition(
            "t",
            inputs={"p": insc((E,))},
            rollbacks={"q": insc((E, T))},
            action=ActionBinding("release", (E, T)),
        )
        assert T in t.out_vars()

    def test_agrees_with_brute_scan(self):
        rng = random.Random(4)
        vars_pool = [E, T, D, NU, Variable("x", "int"), Variable("y", "string")]
        for _ in range(100):
            def rand_insc():
                return Multiset(
                    [
                        tuple(rng.choice(vars_pool) for _ in range(rng.randint(0, 2)))
                        for _ in range(rng.randint(0, 2))
                    ]
                )

            t = Transition(
                "t",
                inputs={"a": rand_insc()},
                outputs={"b": rand_insc()},
                rollbacks={"c": rand_insc()},
                action=ActionBinding("act", tuple(rng.sample(vars_pool, rng.randint(0, 3))))
                if rng.random() < 0.5
                else None,
            )
            scan_in = {
                v for tup in t.inputs["a"].distinct() for v in tup if isinstance(v, Variable)
            }
            scan_out = {
                v
                for insc_ in (t.outputs["b"], t.rollbacks["c"])
                for tup in insc_.distinct()
                for v in tup
                if isinstance(v, Variable)
            }
            if t.action:
                scan_out |= {v for v in t.action.args if isinstance(v, Variable)}
            assert t.in_vars() == scan_in
            assert t.out_vars() == scan_out
            assert t.fresh_vars() == {v for v in scan_out if v.fresh}


def ticket_like_net(**overrides):
    """A small, valid net used as the base for validation tests."""
    types = builtin_catalog()
    schema = DatabaseSchema(
        [RelationSchema("Emp", ("string",)), RelationSchema("Resp", ("string", "int"))]
    )
    persistence = PersistenceLayer(schema, [])
    from dbnet.query import And, NamedQuery, Not

    idle = NamedQuery(
        "IdleEmp",
        (E,),
        And(RelationAtom("Emp", (E,)), Not(Exists(T, RelationAtom("Resp", (E, T))))),
    )
    logic = DataLogicLayer(
        queries=[idle],
        actions=[
            Action("assign", (E, T), (FactTemplate("Resp", (E, T)),), ())
        ],
    )
    places = overrides.get(
        "places",
        [
            Place("pool", "control", ("string", "int")),
            Place("idle", "view", ("string",), "IdleEmp"),
        ],
    )
    transitions = overrides.get(
        "transitions",
        [
            Transition(
                "take",
                inputs={"idle": insc((E,))},
                outputs={"pool": insc((E, T))},
                rollbacks={},
                guard=Truth(),
                action=ActionBinding("assign", (E, T)),
            )
        ],
    )
    return DbNet(types, persistence, logic, places, transitions)


class TestValidateNet:
    def test_valid_net_has_no_diagnostics(self):
        assert validate_net(ticket_like_net()) == []

    def test_unknown_predicate_is_reported_not_raised(self):
        # Constraints and view queries are compiled on their first
        # evaluation, so a net that names an unknown predicate still builds.
        x = Variable("x", "int")
        body = And(RelationAtom("R", (x,)), PredicateAtom("nope", (x, x)))
        net = DbNet(
            builtin_catalog(),
            PersistenceLayer(DatabaseSchema([RelationSchema("R", ("int",))]), [Constraint("c", Exists(x, body))]),
            DataLogicLayer(queries=[NamedQuery("Q", (x,), body)]),
            [Place("v", "view", ("int",), "Q")],
            [],
        )
        assert [(d.path, d.message) for d in validate_net(net)] == [
            (("constraints", "c"), "unknown predicate 'nope'"),
            (("queries", "Q"), "unknown predicate 'nope'"),
        ]
        with pytest.raises(DefinitionError, match="unknown predicate 'nope'"):
            make_snapshot(net, DatabaseInstance())

    def test_guard_variable_not_on_input(self):
        x = Variable("x", "int")
        net = ticket_like_net(
            transitions=[
                Transition(
                    "take",
                    inputs={"idle": insc((E,))},
                    guard=PredicateAtom("=_int", (x, x)),
                )
            ]
        )
        diags = validate_net(net)
        assert any("guard variable 'x'" in d.message for d in diags)

    def test_output_arc_to_view_place(self):
        net = ticket_like_net(
            transitions=[
                Transition("t", inputs={}, outputs={"idle": insc((E,))})
            ]
        )
        diags = validate_net(net)
        assert any("control places only" in d.message for d in diags)

    def test_rollback_without_action(self):
        net = ticket_like_net(
            transitions=[
                Transition("t", inputs={"idle": insc((E,))}, rollbacks={"pool": insc((E, T))})
            ]
        )
        diags = validate_net(net)
        assert any("rollback arcs require an action binding" in d.message for d in diags)

    def test_view_multiplicity_warning(self):
        net = ticket_like_net(
            transitions=[
                Transition("t", inputs={"idle": Multiset([(E,), (E,)])})
            ]
        )
        diags = validate_net(net)
        assert any(d.severity == "warning" and "multiplicity 2" in d.message for d in diags)

    def test_fresh_variable_on_input_arc(self):
        net = ticket_like_net(
            transitions=[Transition("t", inputs={"pool": insc((E, NU))})]
        )
        diags = validate_net(net)
        assert any("not allowed on an input arc" in d.message for d in diags)

    def test_fresh_variable_of_finite_type(self):
        nub = Variable("b", "bool", fresh=True)
        net = ticket_like_net(
            places=[Place("flags", "control", ("bool",))],
            transitions=[Transition("t", outputs={"flags": insc((nub,))})],
        )
        diags = validate_net(net)
        assert any("finite type" in d.message for d in diags)

    def test_color_query_mismatch(self):
        net = ticket_like_net(
            places=[
                Place("pool", "control", ("string", "int")),
                Place("idle", "view", ("int",), "IdleEmp"),
            ]
        )
        diags = validate_net(net)
        assert any("component-wise" in d.message for d in diags)

    def test_unknown_action(self):
        net = ticket_like_net(
            transitions=[Transition("t", action=ActionBinding("nope", ()))]
        )
        assert any("unknown action" in d.message for d in validate_net(net))

    def test_action_binding_arity_and_types(self):
        net = ticket_like_net(
            transitions=[Transition("t", action=ActionBinding("assign", (E,)))]
        )
        assert any("expected 2 components, got 1" in d.message for d in validate_net(net))
        net = ticket_like_net(
            transitions=[
                Transition(
                    "t",
                    inputs={"idle": insc((E,))},
                    action=ActionBinding("assign", (E, E)),
                )
            ]
        )
        assert any("component 2 is 'string', expected 'int'" in d.message for d in validate_net(net))

    def test_inscription_color_mismatch(self):
        net = ticket_like_net(
            transitions=[Transition("t", inputs={"pool": insc((E,))})]
        )
        assert any("components" in d.message for d in validate_net(net))

    def test_duplicate_place_names_rejected(self):
        with pytest.raises(DefinitionError):
            ticket_like_net(
                places=[Place("p", "control", ()), Place("p", "control", ())]
            )


class TestSignatureRoutes:
    """Every layer that ties a term tuple to a typed signature reports the
    problems of `TypeDomain.mismatches`, after its own rules."""

    BAD_INT = Value("int", "x")
    DOMAIN = "payload 'x' is not in the domain of type 'int'"

    def test_query_atom(self, catalog):
        schema = DatabaseSchema([RelationSchema("Resp", ("string", "int"))])
        assert validate_query(RelationAtom("Resp", (E, self.BAD_INT)), schema, catalog) == [
            f"relation 'Resp': {self.DOMAIN}"
        ]
        nu = Variable("n", "string", fresh=True)
        assert validate_query(RelationAtom("Resp", (nu,)), schema, catalog) == [
            "relation 'Resp': fresh variable 'n' not allowed in a query",
            "relation 'Resp': expected 2 components, got 1",
        ]

    def test_action_template(self, catalog):
        schema = DatabaseSchema([RelationSchema("Resp", ("string", "int"))])
        action = Action(
            "a", (E,), (FactTemplate("Resp", (E, self.BAD_INT)),), (FactTemplate("Resp", (T, E)),)
        )
        assert validate_action(action, schema, catalog) == [
            f"action 'a', add Resp: {self.DOMAIN}",
            "action 'a', del Resp: 't' is not a parameter",
            "action 'a', del Resp: component 1 is 'int', expected 'string'",
            "action 'a', del Resp: component 2 is 'string', expected 'int'",
        ]

    def test_inscription(self):
        net = ticket_like_net(
            transitions=[
                Transition(
                    "t",
                    inputs={"pool": insc((NU, self.BAD_INT))},
                    outputs={"pool": insc((E,))},
                )
            ]
        )
        assert [(d.path[-1], d.message) for d in validate_net(net)] == [
            ("input arc from 'pool'", "fresh variable 'nu_t' not allowed on an input arc"),
            ("input arc from 'pool'", "component 1 is 'int', expected 'string'"),
            ("input arc from 'pool'", self.DOMAIN),
            ("output arc to 'pool'", "expected 2 components, got 1"),
        ]

    def test_action_argument_literal_outside_its_domain(self):
        # Without this diagnostic the net fires and writes Resp(e, 'x') into
        # an `int` column.
        net = ticket_like_net(
            transitions=[
                Transition(
                    "t",
                    inputs={"idle": insc((E,))},
                    action=ActionBinding("assign", (E, self.BAD_INT)),
                )
            ]
        )
        assert [(d.path, d.message) for d in validate_net(net)] == [
            (("transition", "t", "action 'assign'"), self.DOMAIN)
        ]

    def test_fact(self, catalog):
        schema = DatabaseSchema([RelationSchema("Resp", ("string", "int"))])
        with pytest.raises(DefinitionError, match=rf"^fact Resp\('a', 'x'\): {self.DOMAIN}$"):
            check_fact(schema, catalog, Fact("Resp", (string_value("a"), self.BAD_INT)))
        with pytest.raises(DefinitionError, match=r"^fact Resp\('a'\): expected 2 components, got 1$"):
            check_fact(schema, catalog, Fact("Resp", (string_value("a"),)))

    def test_token(self):
        net = ticket_like_net()
        with pytest.raises(DefinitionError, match="in 'pool': component 2 is 'string', expected 'int'$"):
            check_tokens(net, "pool", Multiset([(string_value("a"), string_value("b"))]))
        with pytest.raises(DefinitionError, match=f"in 'pool': {self.DOMAIN}$"):
            check_tokens(net, "pool", Multiset([(string_value("a"), self.BAD_INT)]))


@pytest.mark.parametrize(
    "build,noun,name",
    [
        (lambda: DatabaseSchema([RelationSchema("R", ("int",))] * 2), "relation", "R"),
        (
            lambda: PersistenceLayer(DatabaseSchema([]), [Constraint("c", Truth())] * 2),
            "constraint",
            "c",
        ),
        (lambda: DataLogicLayer(queries=[NamedQuery("Q", (), Truth())] * 2), "query", "Q"),
        (lambda: ticket_like_net(transitions=[Transition("t"), Transition("t")]), "transition", "t"),
    ],
)
def test_duplicate_names_rejected(build, noun, name):
    with pytest.raises(DefinitionError, match=f"^duplicate {noun} name '{name}'$"):
        build()


class TestValidNetsAreRunnable:
    def test_fuzz_random_valid_nets_run_without_type_errors(self, catalog):
        # Soundness of validation: accepted nets can be stepped freely.
        rng = random.Random(12)
        for round_ in range(15):
            colors = [("string",), ("int",), ("string", "int")]
            places = [
                Place(f"p{i}", "control", rng.choice(colors)) for i in range(3)
            ]
            by_color = {}
            for p in places:
                by_color.setdefault(p.color, []).append(p)
            var_for = {"string": Variable("s", "string"), "int": Variable("i", "int")}
            transitions = []
            for k in range(3):
                src = rng.choice(places)
                dst = rng.choice(by_color[src.color])
                tup = tuple(var_for[c] for c in src.color)
                transitions.append(
                    Transition(f"t{k}", inputs={src.name: insc(tup)}, outputs={dst.name: insc(tup)})
                )
            net = DbNet(
                catalog,
                PersistenceLayer(DatabaseSchema([RelationSchema("R", ("int",))]), []),
                DataLogicLayer(),
                places,
                transitions,
            )
            assert [d for d in validate_net(net) if d.severity == "error"] == []
            tokens = {
                p.name: Multiset(
                    [
                        tuple(
                            string_value(rng.choice("ab")) if c == "string" else int_value(rng.randint(0, 2))
                            for c in p.color
                        )
                        for _ in range(rng.randint(0, 2))
                    ]
                )
                for p in places
            }
            snap = make_snapshot(net, DatabaseInstance(), tokens)
            steps = 0
            while steps < 100:
                firings = [
                    (t, sigma)
                    for t in net.sorted_transitions()
                    for sigma in enumerate_bindings(net, snap, t, {})
                ]
                if not firings:
                    break
                t, sigma = firings[rng.randrange(len(firings))]
                snap, committed = fire(net, snap, t, sigma)
                assert committed
                for name in snap.marking.place_names():
                    check_tokens(net, name, snap.marking.tokens(name))
                steps += 1


def test_bundled_ticket_net_validates_cleanly(ticket_scenario):
    assert validate_net(ticket_scenario.net) == []
    assert ticket_scenario.warnings == []
