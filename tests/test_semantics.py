import dataclasses
import sys
from collections import Counter

import pytest

from dbnet import dsl
from dbnet.control import DbNet, Place, Transition
from dbnet.datalogic import DataLogicLayer
from dbnet.datatypes import Predicate, TypeDomain, Value, Variable, builtin_catalog, int_value, string_value
from dbnet.errors import BindingError, ConfigError, DefinitionError
from dbnet.multiset import Multiset
from dbnet.persistence import (
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    PersistenceLayer,
    RelationSchema,
    check_compliance,
)
from dbnet.query import And, NamedQuery, PredicateAtom, RelationAtom, Truth, answers, entails
from dbnet.semantics import (
    InstanceInterner,
    align_view_places,
    binding_from_json,
    binding_to_json,
    build_lts,
    enumerate_bindings,
    fire,
    induced_action_instance,
    inscription_binding,
    is_enabled,
    make_snapshot,
    snapshot_digest,
    state_key,
)
from dbnet.scenarios import scenario_text

from firings import successors
from oracles import reference_successors, satisfies, snapshot_key


def emp(name):
    return Fact("Emp", (string_value(name),))


def resp(name, t):
    return Fact("Resp", (string_value(name), int_value(t)))


def ticket(t, d):
    return Fact("Ticket", (int_value(t), string_value(d)))


def by_name(net, tname):
    return net.transitions[tname]


def sigma_of(net, tname, **payloads):
    t = by_name(net, tname)
    vars_by_name = {v.name: v for v in t.variables()}
    out = {}
    for name, payload in payloads.items():
        var = vars_by_name[name]
        if var.type_name == "string":
            out[var] = string_value(payload)
        elif var.type_name == "int":
            out[var] = int_value(payload)
        else:
            raise AssertionError(payload)
    return out


class TestInscriptionBinding:
    def test_published_example(self):
        x, y = Variable("x", "int"), Variable("y", "int")
        omega = Multiset([(x, y), (x, y), (x, int_value(1))])
        theta = {x: int_value(1), y: int_value(2)}
        got = inscription_binding(omega, theta)
        assert got == Multiset(
            [(int_value(1), int_value(2)), (int_value(1), int_value(2)), (int_value(1), int_value(1))]
        )

    def test_empty(self):
        assert inscription_binding(Multiset(), {}) == Multiset()

    def test_single_string(self):
        x = Variable("x", "string")
        got = inscription_binding(Multiset([(x,)]), {x: string_value("a")})
        assert got == Multiset([(string_value("a"),)])

    def test_unbound_variable(self):
        x = Variable("x", "string")
        with pytest.raises(BindingError):
            inscription_binding(Multiset([(x,)]), {})


class TestAlignment:
    def test_initial_alignment(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        assert s0.marking.tokens("IdleEmps") == Multiset([(string_value("ann"),)])
        assert s0.marking.tokens("Tickets") == Multiset(
            [(int_value(1), string_value("bug"))]
        )

    def test_empty_instance(self, ticket_scenario):
        fragment = align_view_places(ticket_scenario.net, DatabaseInstance())
        assert all(not ms for ms in fragment.values())

    def test_after_release(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "drop")
        sigma = sigma_of(net, "drop", e="bob", t=1)
        s2, committed = fire(net, s0, t, sigma)
        assert committed
        assert s2.marking.tokens("IdleEmps") == Multiset(
            [(string_value("ann"),), (string_value("bob"),)]
        )

    def test_view_markings_equal_query_answers(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        for place in net.view_places():
            named = net.logic.queries[place.query_name]
            assert set(s0.marking.tokens(place.name).distinct()) == set(
                answers(named, s0.instance)
            )

    def test_view_answers_use_the_net_types(self):
        """A net whose `succ` means "plus two" answers its view query and
        decides its guards by that meaning, also on an instance that the
        built-in meaning was asked on; `entails` follows the domain it is
        given."""
        x, y = Variable("x", "int"), Variable("y", "int")
        succ = PredicateAtom("succ", (x, y))
        body = And(And(RelationAtom("R", (x,)), RelationAtom("R", (y,))), succ)
        query = NamedQuery("Step", (x, y), body)
        builtin_int = builtin_catalog().type("int")
        plus_two = Predicate("succ", 2, lambda a, b: b == a + 2)
        types = TypeDomain([dataclasses.replace(builtin_int, predicates={**builtin_int.predicates, "succ": plus_two})])
        step = Transition("step", inputs={"Pairs": Multiset([(x, y)])}, guard=succ)
        net = DbNet(
            types,
            PersistenceLayer(DatabaseSchema([RelationSchema("R", ("int",))])),
            DataLogicLayer([query]),
            [Place("Steps", "view", ("int", "int"), "Step"), Place("Pairs", "control", ("int", "int"))],
            [step],
        )
        instance = DatabaseInstance(Fact("R", (int_value(i),)) for i in range(4))
        pairs = lambda *ps: {(int_value(a), int_value(b)) for a, b in ps}

        assert answers(query, instance) == pairs((0, 1), (1, 2), (2, 3))
        assert net.logic.queries["Step"].types is types
        assert answers(net.logic.queries["Step"], instance) == pairs((0, 2), (1, 3))
        snap = make_snapshot(net, instance, {"Pairs": Multiset(pairs((0, 1), (0, 2)))})
        assert set(snap.marking.tokens("Steps").distinct()) == pairs((0, 2), (1, 3))

        one, two = {x: int_value(0), y: int_value(1)}, {x: int_value(0), y: int_value(2)}
        assert enumerate_bindings(net, snap, step) == [two]
        assert not is_enabled(net, snap, step, one) and is_enabled(net, snap, step, two)
        with pytest.raises(BindingError, match="not enabled"):
            fire(net, snap, step, one, check=True)
        after, committed = fire(net, snap, step, two, check=True)
        assert committed and set(after.marking.tokens("Pairs").distinct()) == pairs((0, 1))

        for theta, builtin_says in ((one, True), (two, False)):
            assert entails(instance, theta, succ) is builtin_says
            assert entails(instance, theta, succ, types=types) is not builtin_says
            assert entails(instance, theta, succ, types=None) is builtin_says

    def test_make_snapshot_rejects_view_tokens(self, ticket_scenario):
        net = ticket_scenario.net
        with pytest.raises(DefinitionError, match="view place"):
            make_snapshot(
                net,
                ticket_scenario.initial.instance,
                {"IdleEmps": Multiset([(string_value("zz"),)])},
            )

    def test_make_snapshot_rejects_noncompliant_instance(self, ticket_scenario):
        net = ticket_scenario.net
        bad = DatabaseInstance(
            [emp("ann"), ticket(1, "a"), ticket(2, "b"), resp("ann", 1), resp("ann", 2)]
        )
        with pytest.raises(DefinitionError, match="one_ticket_per_employee"):
            make_snapshot(net, bad)


class TestEnablement:
    def test_idle_employee_enabled(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "open")
        sigma = sigma_of(net, "open", e="ann", d="bug", t=7)
        assert is_enabled(net, s0, t, sigma)

    def test_busy_employee_fails_token_matching(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "open")
        sigma = sigma_of(net, "open", e="bob", d="bug", t=7)
        assert not is_enabled(net, s0, t, sigma)

    def test_fresh_variable_clashing_with_active_domain(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "open")
        sigma = sigma_of(net, "open", e="ann", d="bug", t=1)  # 1 is in adom
        assert not is_enabled(net, s0, t, sigma)

    def test_binding_must_cover_all_variables(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "open")
        with pytest.raises(BindingError):
            is_enabled(net, s0, t, sigma_of(net, "open", e="ann"))

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("d", Value("string", 5), "payload 5 is not in the domain of type 'string'"),
            ("t", Value("int", "7"), "payload '7' is not in the domain of type 'int'"),
            ("t", string_value("7"), "component 1 is 'string', expected 'int'"),
        ],
    )
    def test_value_outside_its_variable_domain(self, ticket_scenario, name, value, message):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "open")
        sigma = sigma_of(net, "open", e="ann", d="bug", t=7)
        sigma[next(v for v in sigma if v.name == name)] = value
        with pytest.raises(BindingError, match=message):
            is_enabled(net, s0, t, sigma)
        with pytest.raises(BindingError, match=message):
            fire(net, s0, t, sigma, check=True)

    def test_fresh_injectivity(self, catalog, ticket_scenario):
        # Two fresh variables bound to the same value are rejected.
        from dbnet.control import DbNet, Place, Transition
        from dbnet.datalogic import DataLogicLayer
        from dbnet.persistence import DatabaseSchema, PersistenceLayer, RelationSchema

        n1 = Variable("n1", "int", fresh=True)
        n2 = Variable("n2", "int", fresh=True)
        net = DbNet(
            catalog,
            PersistenceLayer(DatabaseSchema([RelationSchema("R", ("int",))]), []),
            DataLogicLayer(),
            [Place("p", "control", ("int", "int"))],
            [Transition("mk", outputs={"p": Multiset([(n1, n2)])})],
        )
        snap = make_snapshot(net, DatabaseInstance())
        t = net.transitions["mk"]
        assert not is_enabled(net, snap, t, {n1: int_value(5), n2: int_value(5)})
        assert is_enabled(net, snap, t, {n1: int_value(5), n2: int_value(6)})


class TestEnumerateBindings:
    def test_exactly_one_open_binding_initially(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        got = enumerate_bindings(net, s0, by_name(net, "open"), ticket_scenario.domains)
        assert len(got) == 1
        sigma = got[0]
        values = {v.name: val.payload for v, val in sigma.items()}
        assert values == {"e": "ann", "d": "bug", "t": 2}

    def test_domain_product(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        domains = {"string": (string_value("bug"), string_value("feat"))}
        got = enumerate_bindings(net, s0, by_name(net, "open"), domains)
        assert len(got) == 2
        descriptions = [
            {v.name: val for v, val in sigma.items()}["d"].payload for sigma in got
        ]
        assert descriptions == ["bug", "feat"]  # configured order

    def test_no_tokens_no_bindings(self, ticket_scenario):
        net = ticket_scenario.net
        snap = make_snapshot(net, DatabaseInstance([emp("zoe")]))  # no staff tokens
        assert enumerate_bindings(net, snap, by_name(net, "take"), ticket_scenario.domains) == []

    def test_missing_domain_is_config_error(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        with pytest.raises(ConfigError):
            enumerate_bindings(net, s0, by_name(net, "open"), {})

    @pytest.mark.parametrize("value", [Value("string", 5), int_value(1)])
    def test_ill_typed_domain_value_is_config_error(self, ticket_scenario, value):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        with pytest.raises(ConfigError, match="input domain for type 'string'"):
            enumerate_bindings(net, s0, by_name(net, "open"), {"string": (string_value("bug"), value)})

    def test_every_emitted_binding_is_enabled(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        for t in net.sorted_transitions():
            for sigma in enumerate_bindings(net, s0, t, ticket_scenario.domains):
                assert is_enabled(net, s0, t, sigma)

    def test_guard_filters_bindings(self):
        scenario = dsl.elaborate(dsl.parse(
            "schema { }\n"
            "net { place p : (int >< int)\n"
            "  transition t { vars { x: int, y: int } in { p -> <x, y> } guard not x = y out { p -> <x, y> } }\n"
            "}\n"
            "init { marking { p: <1, 1>, <1, 2> } }\n"
        ))
        net, s0 = scenario.net, scenario.initial
        t = by_name(net, "t")
        unguarded = enumerate_bindings(net, s0, dataclasses.replace(t, guard=Truth()))
        got = enumerate_bindings(net, s0, t)
        assert len(unguarded) == 2
        assert got == [s for s in unguarded if satisfies(DatabaseInstance(), s, t.guard)]
        (rejected,) = [s for s in unguarded if s not in got]
        assert not is_enabled(net, s0, t, rejected)
        assert is_enabled(net, s0, t, got[0])

    def test_join_across_view_and_control(self, ticket_scenario):
        # close joins busy tokens with the Tickets view on t.
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        got = enumerate_bindings(net, s0, by_name(net, "close"), ticket_scenario.domains)
        assert len(got) == 1
        values = {v.name: val.payload for v, val in got[0].items()}
        assert values == {"e": "bob", "t": 1, "d": "bug"}


    @staticmethod
    def wide_arc_net(n):
        """`t` takes the n tokens <7, i> of `src` with the tuples <x, i>."""
        return dsl.elaborate(dsl.parse(
            "schema { }\n"
            "net { place src : (int >< int) place dst : (int)\n"
            "  transition t { vars { x: int } in { src -> "
            + ", ".join(f"<x, {i}>" for i in range(n))
            + " } out { dst -> <x> } }\n}\n"
            "init { marking { src: " + ", ".join(f"<7, {i}>" for i in range(n)) + " } }\n"
        ))

    def test_wide_input_arc(self):
        # One slot per tuple: more slots than the interpreter's stack is deep.
        scenario = self.wide_arc_net(sys.getrecursionlimit() + 200)
        net, s0 = scenario.net, scenario.initial
        t = by_name(net, "t")
        assert enumerate_bindings(net, s0, t) == [{Variable("x", "int"): int_value(7)}]

    def test_bound_slots_look_up_their_token(self, monkeypatch):
        # After <x, 0> binds x, each <x, i> grounds to one token: matching
        # the arc compares values a bounded number of times per tuple, not
        # once per tuple and token.
        n = 400
        scenario = self.wide_arc_net(n)
        net, s0 = scenario.net, scenario.initial
        t = by_name(net, "t")
        assert [binds for *_, binds in net.compiled(t).slots] == [True] + [False] * (n - 1)
        compared = []
        original = Value.__eq__
        monkeypatch.setattr(Value, "__eq__", lambda a, b: compared.append(a) or original(a, b))
        assert enumerate_bindings(net, s0, t) == [{Variable("x", "int"): int_value(7)}]
        assert len(compared) < 10 * n

    def test_fresh_values_are_shared_by_the_bindings_of_one_call(self, monkeypatch):
        import dbnet.semantics as semantics

        scenario = dsl.elaborate(dsl.parse(
            "schema { R(int) }\n"
            "net { place p : (int >< int >< int)\n"
            "  transition mk { vars { a: int } fresh { n1: int, n2: int } out { p -> <a, n1, n2> } }\n}\n"
            "init { facts { R(3) } }\n"
        ))
        net, s0 = scenario.net, scenario.initial
        t = by_name(net, "mk")
        domains = {"int": (int_value(5), int_value(9))}
        made = []
        original = semantics.fresh_value
        monkeypatch.setattr(semantics, "fresh_value", lambda *args: made.append(args) or original(*args))
        got = [
            {v.name: value.payload for v, value in sigma.items()} for sigma in enumerate_bindings(net, s0, t, domains)
        ]
        # Fresh values avoid the pre-state and each other, not the pool.
        assert got == [{"a": 5, "n1": 4, "n2": 5}, {"a": 9, "n1": 4, "n2": 5}]
        assert len(made) == 2
        TestBuildLts.assert_matches_reference(net, s0, domains)


def competing_net(vars_decl, inscription):
    """A net whose transition `t` matches `inscription` against the tokens
    of `p`, several of them repeated."""
    return dsl.elaborate(dsl.parse(
        "schema { }\n"
        "net { place p : (int) place q : (int)\n"
        f"  transition t {{ vars {{ {vars_decl} }} in {{ p -> {inscription} }} out {{ q -> <x> }} }}\n"
        "}\n"
        "init { marking { p: 2 * <1>, <2>, 3 * <3> } }\n"
    ))


class TestCompetingTuples:
    """Several tuples of one input arc draw on the same place's tokens, so a
    token taken by one is counted against the others."""

    CASES = [
        ("x: int, y: int", "<x>, <y>"),
        ("x: int, y: int", "<x>, 2 * <y>"),
        ("x: int", "<1>, <x>"),
    ]

    @pytest.mark.parametrize("vars_decl,inscription", CASES)
    def test_every_state_matches_reference(self, vars_decl, inscription):
        scenario = competing_net(vars_decl, inscription)
        lts = build_lts(scenario.net, scenario.initial, domains={})
        assert not lts.truncated and lts.edge_count > 0
        fired = sum(
            len(TestBuildLts.assert_matches_reference(scenario.net, snap, {})) for snap in lts.snapshots
        )
        assert fired == lts.edge_count

    def test_canonical_order(self):
        # p holds 2 * <1>, <2>, 3 * <3>: x and y may share a token only
        # where the place holds it twice.
        scenario = competing_net("x: int, y: int", "<x>, <y>")
        net = scenario.net
        got = [
            (sigma[Variable("x", "int")].payload, sigma[Variable("y", "int")].payload)
            for sigma in enumerate_bindings(net, scenario.initial, by_name(net, "t"))
        ]
        assert got == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)]


class TestInducedActionInstance:
    def test_release_binding(self, ticket_scenario):
        net = ticket_scenario.net
        t = by_name(net, "drop")
        sigma = sigma_of(net, "drop", e="bob", t=1)
        inst = induced_action_instance(net, t, sigma)
        assert inst.action.name == "release"
        assert inst.deleted_facts == {resp("bob", 1)}

    @staticmethod
    def mark_net(catalog, action_name, args):
        """A one-transition net binding `action_name` with `args`, where
        `mark(p1: string, p2: int)` adds R(p1, p2)."""
        from dbnet.control import ActionBinding, DbNet, Place, Transition
        from dbnet.datalogic import Action, DataLogicLayer, FactTemplate
        from dbnet.persistence import DatabaseSchema, PersistenceLayer, RelationSchema

        p1 = Variable("p1", "string")
        p2 = Variable("p2", "int")
        action = Action(
            "mark", (p1, p2), (FactTemplate("R", (p1, p2)),), ()
        )
        return DbNet(
            catalog,
            PersistenceLayer(DatabaseSchema([RelationSchema("R", ("string", "int"))]), []),
            DataLogicLayer(actions=[action]),
            [Place("p", "control", ("string",))],
            [
                Transition(
                    "t",
                    inputs={"p": Multiset([(Variable("e", "string"),)])},
                    action=ActionBinding(action_name, args),
                )
            ],
        )

    def test_literal_in_binding_tuple(self, catalog):
        e = Variable("e", "string")
        net = self.mark_net(catalog, "mark", (e, int_value(7)))
        t = net.transitions["t"]
        inst = induced_action_instance(net, t, {e: string_value("x")})
        assert inst.added_facts == {Fact("R", (string_value("x"), int_value(7)))}

    @pytest.mark.parametrize(
        "action_name,args,message",
        [
            ("nope", (), "unknown action"),
            ("mark", (Variable("e", "string"), string_value("7")), "component 2 is 'string'"),
            ("mark", (Variable("e", "string"),), "expected 2 components"),
        ],
    )
    def test_bad_action_binding_fails_when_compiled(self, catalog, action_name, args, message):
        net = self.mark_net(catalog, action_name, args)
        with pytest.raises(DefinitionError, match=message):
            net.compiled(net.transitions["t"])

    def test_none_without_action(self, relay_scenario):
        net = relay_scenario.net
        assert induced_action_instance(net, net.transitions["step"], {}) is None


class TestFire:
    def test_close_commits_and_routes_normally(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "close")
        sigma = sigma_of(net, "close", e="bob", t=1, d="bug")
        s2, committed = fire(net, s0, t, sigma)
        assert committed
        assert Fact("Log", (int_value(1), string_value("bob"), string_value("bug"))) in s2.instance.facts
        assert s2.marking.tokens("busy").count((string_value("bob"), int_value(1))) == 0
        assert s2.marking.tokens("staff").count((string_value("bob"),)) == 2

    def test_take_rolls_back_on_busy_employee(self, ticket_scenario):
        net = ticket_scenario.net
        instance = DatabaseInstance(
            [emp("ann"), emp("bob"), ticket(1, "bug"), ticket(2, "feat"), resp("ann", 1)]
        )
        snap = make_snapshot(
            net, instance, {"staff": Multiset([(string_value("ann"),)])}
        )
        t = by_name(net, "take")
        sigma = sigma_of(net, "take", e="ann", t=2, d="feat")
        assert is_enabled(net, snap, t, sigma)
        s2, committed = fire(net, snap, t, sigma)
        assert not committed
        # Rollback: database unchanged, token routed along the rollback arc.
        assert s2.instance == instance
        assert s2.marking.tokens("staff") == Multiset([(string_value("ann"),)])
        assert not s2.marking.tokens("busy")

    def test_action_less_transition_commits(self, relay_scenario):
        net, s0 = relay_scenario.net, relay_scenario.initial
        s2, committed = fire(net, s0, net.transitions["step"], {})
        assert committed
        assert s2.instance == s0.instance
        assert not s2.marking.tokens("src")
        assert s2.marking.tokens("dst") == Multiset([()])

    def test_firing_disabled_binding_is_an_error(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "open")
        with pytest.raises(BindingError):
            fire(net, s0, t, sigma_of(net, "open", e="bob", d="bug", t=9))

    def test_frame_property(self, ticket_scenario):
        # Places not adjacent to the transition keep their marking.
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "drop")
        sigma = sigma_of(net, "drop", e="bob", t=1)
        s2, _ = fire(net, s0, t, sigma)
        adjacent = set(t.inputs) | set(t.outputs) | set(t.rollbacks)
        for place in net.control_places():
            if place.name not in adjacent:
                assert s2.marking.tokens(place.name) == s0.marking.tokens(place.name)


class TestStateIdentity:
    def test_view_places_excluded_from_identity(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        control = {
            name: s0.marking.tokens(name)
            for name in s0.marking.place_names()
            if net.places[name].kind == "control"
        }
        rebuilt = make_snapshot(net, s0.instance, control)
        assert state_key(net, rebuilt) == state_key(net, s0)
        assert snapshot_digest(net, rebuilt) == snapshot_digest(net, s0)

    def test_digest_differs_on_marking_change(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        t = by_name(net, "drop")
        s2, _ = fire(net, s0, t, sigma_of(net, "drop", e="bob", t=1))
        assert snapshot_digest(net, s2) != snapshot_digest(net, s0)


class TestBindingJson:
    def test_round_trip(self, ticket_scenario):
        net = ticket_scenario.net
        t = by_name(net, "open")
        sigma = sigma_of(net, "open", e="ann", d="bug", t=2)
        data = binding_to_json(sigma)
        assert binding_from_json(t, data) == sigma

    def test_unknown_variable_rejected(self, ticket_scenario):
        net = ticket_scenario.net
        with pytest.raises(BindingError):
            binding_from_json(by_name(net, "open"), {"zz": {"type": "int", "value": 1}})

    @pytest.mark.parametrize(
        "cell",
        [
            {"type": "real", "value": "abc"},
            {"type": "real", "value": 1.5},
            {"type": "int", "value": "7"},
            {"type": "int", "value": True},
            {"type": "string", "value": 5},
            {"type": "bool", "value": 0},
            {"type": "blob", "value": 1},
            {"type": ["int"], "value": 1},
        ],
    )
    def test_cell_outside_its_type_rejected(self, ticket_scenario, cell):
        with pytest.raises(DefinitionError):
            binding_from_json(by_name(ticket_scenario.net, "open"), {"t": cell})


class TestBuildLts:
    def test_relay_has_two_states_one_edge(self, relay_scenario):
        lts = build_lts(relay_scenario.net, relay_scenario.initial, domains={})
        assert lts.state_count == 2
        assert lts.edge_count == 1
        assert not lts.truncated

    def test_max_states_one_truncates(self, relay_scenario):
        lts = build_lts(relay_scenario.net, relay_scenario.initial, domains={}, max_states=1)
        assert lts.state_count == 1
        assert lts.truncated
        assert lts.truncation_reason == "state budget reached"

    def test_depth_budget_over_deadlocks_only_is_not_truncation(self, relay_scenario):
        # relay's only state at depth 1 is a deadlock: a budget of 1 cuts nothing.
        net, s0 = relay_scenario.net, relay_scenario.initial
        cut = build_lts(net, s0, domains={}, max_depth=1)
        full = build_lts(net, s0, domains={}, max_depth=2)
        assert (cut.state_count, cut.edge_count, cut.truncation_reason) == (2, 1, "")
        assert (full.state_count, full.edge_count, full.truncation_reason) == (2, 1, "")

    def test_max_depth_zero_truncates(self, ticket_scenario):
        lts = build_lts(
            ticket_scenario.net,
            ticket_scenario.initial,
            domains=ticket_scenario.domains,
            max_depth=0,
        )
        assert lts.state_count == 1
        assert lts.truncated and lts.truncation_reason == "depth budget reached"

    def test_initial_successors_match_hand_enumeration(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        lts = build_lts(net, s0, domains=ticket_scenario.domains, max_depth=1)
        from_initial = list(successors(net, lts.snapshots[0], ticket_scenario.domains))
        seen = {
            (t.name, tuple(sorted((v.name, str(val.payload)) for v, val in sigma.items())), committed)
            for t, sigma, committed, _ in from_initial
        }
        assert seen == {
            ("close", (("d", "bug"), ("e", "bob"), ("t", "1")), True),
            ("drop", (("e", "bob"), ("t", "1")), True),
            ("open", (("d", "bug"), ("e", "ann"), ("t", "2")), True),
            ("take", (("d", "bug"), ("e", "ann"), ("t", "1")), True),
            ("take", (("d", "bug"), ("e", "bob"), ("t", "1")), True),
        }
        assert lts.edge_count == len(from_initial) == 5
        stored = [state_key(net, snap) for snap in lts.snapshots]
        assert stored[0] == state_key(net, s0)
        assert stored[1:] == list(dict.fromkeys(state_key(net, snap2) for *_, snap2 in from_initial))

    def test_goal_and_witness(self, relay_scenario):
        net = relay_scenario.net
        goal = lambda snap: len(snap.marking.tokens("dst")) >= 1
        lts = build_lts(net, relay_scenario.initial, domains={}, goal=goal)
        assert lts.goal_state is not None
        path = lts.witness_path()
        assert [name for name, _, _ in path] == ["step"]

    def test_explored_states_keep_invariants(self, ticket_scenario):
        net = ticket_scenario.net
        lts = build_lts(
            net, ticket_scenario.initial, domains=ticket_scenario.domains, max_states=150
        )
        for snap in lts.snapshots:
            assert check_compliance(net.persistence, snap.instance).ok
            for place in net.view_places():
                named = net.logic.queries[place.query_name]
                tokens = snap.marking.tokens(place.name)
                assert set(tokens.distinct()) == set(answers(named, snap.instance))
                assert all(n == 1 for _, n in tokens.items())

    def test_rollback_edges_appear(self, ticket_scenario):
        net = ticket_scenario.net
        lts = build_lts(
            net, ticket_scenario.initial, domains=ticket_scenario.domains, max_states=200
        )
        rolled_back = [
            (snap, snap2)
            for snap in lts.snapshots
            for _, _, committed, snap2 in successors(net, snap, ticket_scenario.domains)
            if not committed
        ]
        assert rolled_back, "expected reachable rollback firings in the ticket scenario"
        for snap, snap2 in rolled_back:
            assert snap.instance == snap2.instance

    @staticmethod
    def assert_matches_reference(net, snap, domains):
        """The engine's firings of `snap` equal the reference's, as a
        multiset of (transition, binding, committed, successor); returns the
        engine's successors."""
        fired = list(successors(net, snap, domains))
        got = [
            (t.name, frozenset(sigma.items()), committed, snapshot_key(snap2))
            for t, sigma, committed, snap2 in fired
        ]
        assert len({firing[:2] for firing in got}) == len(got), "a binding is enumerated twice"
        assert Counter(got) == Counter(reference_successors(net, snap, domains))
        return [snap2 for *_, snap2 in fired]

    @pytest.mark.parametrize("name,counts", [("ticket", (1446, 3278)), ("nu_demo", (101, 293))])
    def test_closed_under_firing(self, request, name, counts):
        """Every state above the depth budget is expanded: its enabled
        firings are exactly the counted edges, match the reference
        semantics, and lead to stored states."""
        scenario = request.getfixturevalue(f"{name}_scenario")
        net = scenario.net
        lts = build_lts(net, scenario.initial, domains=scenario.domains, max_depth=6)
        assert (lts.state_count, lts.edge_count) == counts
        assert lts.truncation_reason == "depth budget reached"
        stored = {state_key(net, snap) for snap in lts.snapshots}
        fired = 0
        for snap, depth in zip(lts.snapshots, lts.depths):
            if depth < 6:
                for snap2 in self.assert_matches_reference(net, snap, scenario.domains):
                    fired += 1
                    assert state_key(net, snap2) in stored
        assert fired == lts.edge_count

    def test_relay_matches_reference(self, relay_scenario):
        net = relay_scenario.net
        lts = build_lts(net, relay_scenario.initial, domains={})
        assert not lts.truncated
        fired = sum(len(self.assert_matches_reference(net, snap, {})) for snap in lts.snapshots)
        assert fired == lts.edge_count == 1


class TestLazyFiring:
    """Successors are generated on demand: exploration fires only what it
    records, plus the one successor that finds the state budget spent."""

    @staticmethod
    def counting_fire(monkeypatch):
        import dbnet.semantics as semantics

        calls = []
        original = semantics.fire

        def counting(*args, **kwargs):
            calls.append(args[2].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(semantics, "fire", counting)
        return calls

    def test_state_budget_stops_firing(self, ticket_scenario, monkeypatch):
        calls = self.counting_fire(monkeypatch)
        lts = build_lts(
            ticket_scenario.net, ticket_scenario.initial, domains=ticket_scenario.domains, max_states=120
        )
        assert (lts.state_count, lts.edge_count, lts.truncated) == (120, 198, True)
        assert len(calls) == lts.edge_count + 1 == 199

    def test_depth_budget_fires_once_per_edge(self, ticket_scenario, monkeypatch):
        calls = self.counting_fire(monkeypatch)
        lts = build_lts(ticket_scenario.net, ticket_scenario.initial, domains=ticket_scenario.domains, max_depth=3)
        assert lts.truncation_reason == "depth budget reached"
        assert len(calls) == lts.edge_count > 0


class TestInterner:
    def test_identical_instances_share_object(self):
        intern = InstanceInterner()
        a = DatabaseInstance([emp("ann")])
        b = DatabaseInstance([emp("ann")])
        assert intern(a) is intern(b)


class TestInstanceMemo:
    """What is derived from an instance is derived once per instance object
    and kept in its memo: view fragments, query answers, active domains."""

    @staticmethod
    def counting(monkeypatch, cls, name):
        """Record the arguments of every call of `cls.name`."""
        calls = []
        original = getattr(cls, name)

        def counted(self, *args):
            calls.append((self, *args))
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_states_over_one_instance_share_view_multisets(self, monkeypatch):
        from dbnet.query import AnswerPlan

        scenario = dsl.elaborate(dsl.parse(scenario_text("ticket")))
        net = scenario.net
        evaluated = self.counting(monkeypatch, AnswerPlan, "answers")
        lts = build_lts(net, scenario.initial, domains=scenario.domains, max_depth=6)
        assert lts.truncation_reason == "depth budget reached"

        first = {}
        for snap in lts.snapshots:
            owner = first.setdefault(id(snap.instance), snap)
            for place in net.view_places():
                assert snap.marking.tokens(place.name) is owner.marking.tokens(place.name)
        # The initial instance was aligned when the scenario was built; every
        # later one, once per view query.
        assert len(first) < len(lts.snapshots)
        assert len({(plan, id(instance)) for plan, instance in evaluated}) == len(evaluated)
        assert len(evaluated) == len(net.view_places()) * (len(first) - 1)

    def test_nets_with_different_view_queries_get_their_own_fragment(self, ticket_scenario):
        text = scenario_text("ticket").replace(
            "IdleEmp(e:string) := Emp(e) and not exists t:int . Resp(e, t)", "IdleEmp(e:string) := Emp(e)"
        )
        other = dsl.elaborate(dsl.parse(text)).net
        instance = DatabaseInstance(ticket_scenario.initial.instance.facts)
        mine = align_view_places(ticket_scenario.net, instance)
        theirs = align_view_places(other, instance)
        assert mine["IdleEmps"] == Multiset([(string_value("ann"),)])
        assert theirs["IdleEmps"] == Multiset([(string_value("ann"),), (string_value("bob"),)])
        assert mine["Tickets"] == theirs["Tickets"]
        assert align_view_places(ticket_scenario.net, instance) is mine
        assert align_view_places(other, instance) is theirs

    def test_stored_empty_value_is_a_hit(self, monkeypatch, relay_scenario):
        stored = self.counting(monkeypatch, DatabaseInstance, "store")
        e = Variable("e", "string")
        nobody = NamedQuery("Nobody", (e,), RelationAtom("Emp", (e,)))
        instance = DatabaseInstance()
        assert not relay_scenario.net.view_places()
        for _ in range(3):
            assert answers(nobody, instance) == frozenset()
            assert instance.active_domain("int") == frozenset()
            assert align_view_places(relay_scenario.net, instance) == {}
        assert [key for _, key, _ in stored] == [nobody.cache_token, "int", relay_scenario.net]


class TestGoldenExploration:
    """Frozen counts from the first run of the exhaustive explorer, with
    three states verified by hand against the firing rule."""

    def test_golden_counts(self, ticket_scenario):
        lts = build_lts(
            ticket_scenario.net,
            ticket_scenario.initial,
            domains=ticket_scenario.domains,
            max_states=120,
        )
        assert (lts.state_count, lts.edge_count, lts.truncated) == (120, 198, True)

    def test_three_states_checked_by_hand(self, ticket_scenario):
        net, s0 = ticket_scenario.net, ticket_scenario.initial
        ann, bob = string_value("ann"), string_value("bob")
        bug, one = string_value("bug"), int_value(1)

        # State 1: the initial snapshot.
        assert s0.instance.facts == {
            Fact("Emp", (ann,)), Fact("Emp", (bob,)),
            Fact("Ticket", (one, bug)), Fact("Resp", (bob, one)),
        }
        assert s0.marking.tokens("staff") == Multiset([(ann,), (bob,)])
        assert s0.marking.tokens("busy") == Multiset([(bob, one)])
        assert s0.marking.tokens("IdleEmps") == Multiset([(ann,)])
        assert s0.marking.tokens("Tickets") == Multiset([(one, bug)])

        # State 2: after close(bob, 1): ticket and assignment erased, one log
        # entry, the busy token turned into a staff token, both views drained
        # or refilled accordingly.
        t = net.transitions["close"]
        s_close, committed = fire(net, s0, t, sigma_of(net, "close", e="bob", t=1, d="bug"))
        assert committed
        assert s_close.instance.facts == {
            Fact("Emp", (ann,)), Fact("Emp", (bob,)),
            Fact("Log", (one, bob, bug)),
        }
        assert s_close.marking.tokens("staff") == Multiset([(ann,), (bob,), (bob,)])
        assert not s_close.marking.tokens("busy")
        assert s_close.marking.tokens("IdleEmps") == Multiset([(ann,), (bob,)])
        assert not s_close.marking.tokens("Tickets")

        # State 3: after drop(bob, 1): only the assignment is deleted, the
        # ticket survives and bob is idle again.
        t = net.transitions["drop"]
        s_drop, committed = fire(net, s0, t, sigma_of(net, "drop", e="bob", t=1))
        assert committed
        assert s_drop.instance.facts == {
            Fact("Emp", (ann,)), Fact("Emp", (bob,)), Fact("Ticket", (one, bug)),
        }
        assert s_drop.marking.tokens("staff") == Multiset([(ann,), (bob,), (bob,)])
        assert not s_drop.marking.tokens("busy")
        assert s_drop.marking.tokens("IdleEmps") == Multiset([(ann,), (bob,)])
        assert s_drop.marking.tokens("Tickets") == Multiset([(one, bug)])
