import itertools
import random

import pytest

from dbnet.datatypes import Variable, int_value, string_value
from dbnet.errors import BindingError, DefinitionError
from dbnet.persistence import (
    Constraint,
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    PersistenceLayer,
    RelationSchema,
    check_compliance,
)
from dbnet.query import (
    And,
    Exists,
    NamedQuery,
    Not,
    PredicateAtom,
    RelationAtom,
    Truth,
    FormulaPlan,
    answers,
    entails,
    forall,
    free_vars,
    implies,
    or_,
    validate_query,
)

from generators import POOLS, _QueryBuilder, random_instance, random_query, random_schema
from oracles import brute_active_domain, brute_compliant, brute_force_answers, satisfies

E = Variable("e", "string")
T = Variable("t", "int")
D = Variable("d", "string")

IDLE_BODY = And(RelationAtom("Emp", (E,)), Not(Exists(T, RelationAtom("Resp", (E, T)))))
TICKET_BODY = RelationAtom("Ticket", (T, D))


def emp(name):
    return Fact("Emp", (string_value(name),))


def resp(name, t):
    return Fact("Resp", (string_value(name), int_value(t)))


def ticket(t, d):
    return Fact("Ticket", (int_value(t), string_value(d)))


class TestFreeVars:
    def test_idle_employees_query(self):
        assert free_vars(IDLE_BODY) == (E,)

    def test_ticket_query_order(self):
        assert free_vars(TICKET_BODY) == (T, D)

    def test_fully_quantified(self):
        x = Variable("x", "string")
        assert free_vars(Exists(x, RelationAtom("Emp", (x,)))) == ()

    def test_mixed_bound_and_free(self):
        x = Variable("x", "string")
        q = And(Exists(x, RelationAtom("Emp", (x,))), RelationAtom("Emp", (x,)))
        assert free_vars(q) == (x,)


class TestEntails:
    def test_fact_membership(self):
        inst = DatabaseInstance([emp("ann")])
        assert entails(inst, {E: string_value("ann")}, RelationAtom("Emp", (E,)))
        assert not entails(inst, {E: string_value("bob")}, RelationAtom("Emp", (E,)))

    def test_exists_witness_from_active_domain(self):
        inst = DatabaseInstance([resp("bob", 1)])
        q = Exists(T, RelationAtom("Resp", (E, T)))
        assert entails(inst, {E: string_value("bob")}, q)
        assert not entails(inst, {E: string_value("ann")}, q)

    def test_quantifier_over_empty_active_domain(self):
        # adom_int is empty, so even a tautological body has no witness.
        inst = DatabaseInstance([emp("ann")])
        q = Exists(T, PredicateAtom("=_int", (T, T)))
        assert not entails(inst, {}, q)

    def test_incomplete_substitution_is_an_error(self):
        inst = DatabaseInstance([emp("ann")])
        with pytest.raises(BindingError):
            entails(inst, {}, RelationAtom("Emp", (E,)))

    def test_does_not_mutate_caller_substitution(self):
        inst = DatabaseInstance([resp("bob", 1)])
        theta = {E: string_value("bob")}
        entails(inst, theta, Exists(T, RelationAtom("Resp", (E, T))))
        assert theta == {E: string_value("bob")}


class TestAnswers:
    INSTANCE = DatabaseInstance([emp("ann"), emp("bob"), resp("bob", 1), ticket(1, "bug")])

    def test_idle_employees(self):
        q = NamedQuery("IdleEmp", (E,), IDLE_BODY)
        assert answers(q, self.INSTANCE) == {(string_value("ann"),)}

    def test_tickets(self):
        q = NamedQuery("TicketInfo", (T, D), TICKET_BODY)
        assert answers(q, self.INSTANCE) == {(int_value(1), string_value("bug"))}

    def test_boolean_query_answers_empty_tuple(self):
        x = Variable("x", "string")
        q = NamedQuery("AnyEmp", (), Exists(x, RelationAtom("Emp", (x,))))
        assert answers(q, self.INSTANCE) == {()}
        assert () in answers(q, self.INSTANCE)
        assert () not in answers(q, DatabaseInstance())

    def test_param_order_fixes_tuple_order(self):
        q = NamedQuery("TicketByDesc", (D, T), TICKET_BODY)
        assert answers(q, self.INSTANCE) == {(string_value("bug"), int_value(1))}

    def test_params_must_match_free_vars(self):
        with pytest.raises(DefinitionError):
            NamedQuery("bad", (T,), TICKET_BODY)
        with pytest.raises(DefinitionError):
            NamedQuery("bad", (T, D, E), TICKET_BODY)


class TestGuards:
    # A guard is decided as `semantics` decides it: compiled once, then
    # evaluated over the empty instance.
    @staticmethod
    def holds(guard, theta):
        return FormulaPlan(guard).holds(DatabaseInstance(), theta)

    def test_order_predicate(self):
        x, y = Variable("x", "int"), Variable("y", "int")
        guard = PredicateAtom("<_int", (x, y))
        assert self.holds(guard, {x: int_value(1), y: int_value(2)})
        assert not self.holds(guard, {x: int_value(2), y: int_value(2)})

    def test_negated_equality(self):
        a, b = Variable("a", "string"), Variable("b", "string")
        guard = Not(PredicateAtom("=_s", (a, b)))
        assert not self.holds(guard, {a: string_value("x"), b: string_value("x")})

    def test_matches_empty_instance_semantics(self):
        # Guard semantics is query semantics over the empty instance.
        rng = random.Random(3)
        x, y = Variable("x", "int"), Variable("y", "int")
        empty = DatabaseInstance()
        for _ in range(200):
            guard = And(
                PredicateAtom(rng.choice(("<_int", "=_int", "succ")), (x, y)),
                Not(PredicateAtom("=_int", (x, rng.choice((x, y))))),
            )
            theta = {x: int_value(rng.randint(0, 3)), y: int_value(rng.randint(0, 3))}
            assert self.holds(guard, theta) == satisfies(empty, theta, guard)


class TestSugar:
    def test_or_expansion_shape(self):
        a, b = Truth(), Truth()
        assert or_(a, b) == Not(And(Not(a), Not(b)))

    def test_forall_expansion_shape(self):
        q = RelationAtom("Emp", (E,))
        assert forall(E, q) == Not(Exists(E, Not(q)))

    def test_de_morgan_semantics(self):
        rng = random.Random(7)
        schema = DatabaseSchema(
            [RelationSchema("Emp", ("string",)), RelationSchema("Resp", ("string", "int"))]
        )
        x = Variable("x", "string")
        for _ in range(100):
            inst = random_instance(rng, schema, max_facts=6)
            q1 = RelationAtom("Emp", (x,))
            q2 = Exists(T, RelationAtom("Resp", (x, T)))
            for val in sorted(inst.active_domain("string"), key=lambda v: v.payload):
                theta = {x: val}
                assert entails(inst, theta, or_(q1, q2)) == (
                    entails(inst, theta, q1) or entails(inst, theta, q2)
                )
            body = implies(q1, q2)
            assert entails(inst, {}, forall(x, body)) == all(
                entails(inst, {x: val}, body) for val in inst.active_domain("string")
            )


class TestOracleEquivalence:
    def test_small_randomized_sweep(self):
        rng = random.Random(2024)
        for _ in range(150):
            schema = random_schema(rng)
            inst = random_instance(rng, schema)
            params, body = random_query(rng, schema)
            named = NamedQuery("q", params, body)
            assert answers(named, inst) == brute_force_answers(params, body, inst)

    def test_domain_independence(self):
        # Widening the candidate pool beyond the active domain and filtering
        # back to it must not change the answers; answers only ever mention
        # active-domain values.
        import itertools

        rng = random.Random(77)
        from generators import POOLS

        for _ in range(60):
            schema = random_schema(rng)
            inst = random_instance(rng, schema, max_facts=6)
            params, body = random_query(rng, schema, max_depth=3)
            named = NamedQuery("q", params, body)
            got = answers(named, inst)
            for tup in got:
                for p, v in zip(params, tup):
                    assert v in inst.active_domain(p.type_name)
            widened_pools = [
                list(inst.active_domain(p.type_name) | set(POOLS[p.type_name]))
                for p in params
            ]
            widened = {
                combo
                for combo in itertools.product(*widened_pools)
                if all(v in inst.active_domain(p.type_name) for p, v in zip(params, combo))
                and entails(inst, dict(zip(params, combo)), body)
            }
            assert widened == got


class TestValidation:
    SCHEMA = DatabaseSchema([RelationSchema("Emp", ("string",))])

    def test_valid_query(self, catalog):
        assert validate_query(IDLE_BODY, self.SCHEMA, catalog) == [
            "unknown relation 'Resp'"
        ]

    def test_type_mismatch(self, catalog):
        q = RelationAtom("Emp", (T,))
        problems = validate_query(q, self.SCHEMA, catalog)
        assert any("expected 'string'" in p for p in problems)

    def test_fresh_variable_rejected(self, catalog):
        nu = Variable("n", "string", fresh=True)
        q = RelationAtom("Emp", (nu,))
        problems = validate_query(q, self.SCHEMA, catalog)
        assert any("fresh" in p for p in problems)

    def test_guard_fragment_flags(self, catalog):
        q = Exists(T, PredicateAtom("=_int", (T, T)))
        problems = validate_query(
            q, self.SCHEMA, catalog, allow_relations=False, allow_quantifiers=False
        )
        assert any("quantifier" in p for p in problems)


# --- differential tests for shapes the random query builder never makes -----

X = Variable("x", "string")
Y = Variable("y", "string")
X_INT = Variable("x", "int")

SHAPES_SCHEMA = DatabaseSchema(
    [
        RelationSchema("Emp", ("string",)),
        RelationSchema("Resp", ("string", "int")),
        RelationSchema("Ticket", ("int", "string")),
        RelationSchema("Pair", ("string", "string")),
    ]
)


def pair(a, b):
    return Fact("Pair", (string_value(a), string_value(b)))


def shape_instances(count=40, seed=11):
    """Hand-picked corner cases, then random instances over SHAPES_SCHEMA."""
    rng = random.Random(seed)
    fixed = [
        DatabaseInstance(),
        DatabaseInstance([emp("a"), pair("a", "a"), pair("a", "b"), resp("b", 1), ticket(1, "a")]),
        DatabaseInstance([pair("b", "a"), resp("a", 2), resp("a", 3), ticket(3, "c")]),
    ]
    return fixed + [random_instance(rng, SHAPES_SCHEMA, max_facts=10) for _ in range(count)]


def assert_matches_oracle(body, instances):
    """entails agrees with `satisfies` under every substitution of the free
    variables over the active domain plus one outside value, and answers
    agrees with `brute_force_answers`."""
    params = free_vars(body)
    named = NamedQuery("q", params, body)
    for inst in instances:
        assert answers(named, inst) == brute_force_answers(params, body, inst), (body, inst)
        pools = [
            brute_active_domain(inst, p.type_name) + [POOLS[p.type_name][-1]] for p in params
        ]
        for combo in itertools.product(*pools):
            theta = dict(zip(params, combo))
            assert entails(inst, theta, body) == satisfies(inst, theta, body), (body, theta, inst)


class TestShadowing:
    def test_inner_exists_shadows_free_variable(self):
        # x is free in Emp(x), and bound afresh inside the Exists.
        body = And(RelationAtom("Emp", (X,)), Exists(X, And(RelationAtom("Pair", (X, X)), Not(RelationAtom("Emp", (X,))))))
        assert_matches_oracle(body, shape_instances())

    def test_theta_binding_the_quantified_variable_is_ignored(self):
        q = Exists(X, And(RelationAtom("Pair", (X, Y)), Not(RelationAtom("Emp", (X,)))))
        for inst in shape_instances():
            for v in brute_active_domain(inst, "string") + [string_value("zz")]:
                expected = satisfies(inst, {Y: v}, q)
                assert entails(inst, {X: string_value("a"), Y: v}, q) == expected
                assert entails(inst, {X: v, Y: v}, q) == expected

    def test_inner_exists_shadows_outer_exists(self):
        # The outer generator makes Resp(x, t) true for its candidates; the
        # inner x is another variable, so Resp(x, t) must be checked again.
        inner = Exists(X, And(RelationAtom("Emp", (X,)), Not(RelationAtom("Resp", (X, T)))))
        body = Exists(X, And(RelationAtom("Resp", (X, T)), inner))
        assert_matches_oracle(body, shape_instances())
        assert_matches_oracle(Exists(T, body), shape_instances())

    def test_randomized_sweep_with_reused_names(self):
        # Quantified variables are drawn from two names per type, so nested
        # quantifiers shadow one another and the free variables.
        class ShadowingBuilder(_QueryBuilder):
            def build(self, depth, scope):
                if depth > 0 and self.rng.random() < 0.3:
                    type_name = self.rng.choice(("string", "int"))
                    var = Variable(self.rng.choice(("f0", "x")), type_name)
                    return Exists(var, self.build(depth - 1, scope + [var]))
                return super().build(depth, scope)

        rng = random.Random(5)
        for _ in range(150):
            schema = random_schema(rng)
            builder = ShadowingBuilder(rng, schema, free_budget=2)
            body = builder.build(rng.randint(1, 4), [])
            instances = [random_instance(rng, schema, max_facts=8) for _ in range(3)]
            assert_matches_oracle(body, instances)


class TestAtomShapes:
    def test_repeated_variable_in_one_atom(self):
        assert_matches_oracle(RelationAtom("Pair", (X, X)), shape_instances())
        assert_matches_oracle(Exists(X, RelationAtom("Pair", (X, X))), shape_instances())
        body = Exists(Y, And(RelationAtom("Pair", (X, Y)), RelationAtom("Pair", (Y, Y))))
        assert_matches_oracle(body, shape_instances())

    def test_constants_in_atoms(self):
        a, one = string_value("a"), int_value(1)
        assert_matches_oracle(RelationAtom("Pair", (a, X)), shape_instances())
        assert_matches_oracle(RelationAtom("Resp", (X, one)), shape_instances())
        body = Exists(T, And(RelationAtom("Resp", (X, T)), RelationAtom("Ticket", (T, a))))
        assert_matches_oracle(body, shape_instances())
        assert_matches_oracle(Exists(X, RelationAtom("Pair", (a, X))), shape_instances())

    def test_exists_without_a_positive_atom(self):
        # No relation atom constrains x: the active-domain scan decides.
        assert_matches_oracle(Exists(X, Not(RelationAtom("Emp", (X,)))), shape_instances())
        assert_matches_oracle(Exists(X, Truth()), shape_instances())
        assert_matches_oracle(Exists(T, PredicateAtom("<_int", (T, Variable("u", "int")))), shape_instances())
        body = Exists(X, Not(And(RelationAtom("Emp", (X,)), RelationAtom("Pair", (X, Y)))))
        assert_matches_oracle(body, shape_instances())

    def test_ill_typed_quantifier(self):
        # Built by hand: x is an int, Emp's column holds strings.
        q = Exists(X_INT, RelationAtom("Emp", (X_INT,)))
        inst = DatabaseInstance([emp("a"), resp("a", 1)])
        assert not entails(inst, {}, q)
        assert not satisfies(inst, {}, q)
        assert_matches_oracle(q, shape_instances())
        assert_matches_oracle(RelationAtom("Pair", (X_INT, Y)), shape_instances())


class TestUnboundVariables:
    INSTANCE = DatabaseInstance([emp("a"), resp("a", 1)])

    def test_free_variable_missing_from_theta(self):
        with pytest.raises(BindingError):
            entails(self.INSTANCE, {}, Exists(T, RelationAtom("Resp", (E, T))))

    def test_missing_variable_raises_even_when_another_conjunct_fails(self):
        q = And(RelationAtom("Emp", (string_value("nobody"),)), RelationAtom("Emp", (E,)))
        with pytest.raises(BindingError):
            entails(self.INSTANCE, {}, q)


def ticket_key_constraint():
    """The bundled ticket scenario's one_ticket_per_employee."""
    t1, t2 = Variable("t1", "int"), Variable("t2", "int")
    body = implies(
        And(RelationAtom("Resp", (E, t1)), RelationAtom("Resp", (E, t2))),
        PredicateAtom("=_int", (t1, t2)),
    )
    return Constraint("one_ticket_per_employee", forall(E, forall(t1, forall(t2, body))))


def scaled_ticket_instance(n, m, k):
    """N employees, tickets 1..M, the first K employees each holding one."""
    names = [f"emp{i}" for i in range(n)]
    facts = [emp(e) for e in names] + [ticket(t, "bug") for t in range(1, m + 1)]
    facts += [resp(names[i], i + 1) for i in range(k)]
    return DatabaseInstance(facts)


class TestKeyConstraints:
    def test_ticket_key_on_scaled_instances(self):
        layer = PersistenceLayer(SHAPES_SCHEMA, [ticket_key_constraint()])
        base = scaled_ticket_instance(8, 6, 3)
        cases = [
            (base, True),
            (base.with_changes(add=[resp("emp0", 2)]), False),
            (base.with_changes(add=[resp("emp7", 6)]), True),
            (base.with_changes(add=[resp("emp3", 1)]), True),  # two employees, one ticket
            (base.with_changes(add=[resp("emp2", 4), resp("emp2", 5)]), False),
        ]
        for inst, ok in cases:
            report = check_compliance(layer, inst)
            assert report.ok == ok == brute_compliant(layer.constraints, inst)
            assert report.violated == (() if ok else ("one_ticket_per_employee",))

    def test_random_key_constraints(self):
        rng = random.Random(31)
        from generators import random_constraints

        for _ in range(120):
            schema = random_schema(rng)
            layer = PersistenceLayer(schema, random_constraints(rng, schema))
            inst = random_instance(rng, schema, max_facts=8)
            expected = tuple(c.name for c in layer.constraints if not satisfies(inst, {}, c.query))
            assert check_compliance(layer, inst).violated == expected
