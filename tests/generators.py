"""Seeded random generators for instances, queries, layers, and documents."""

from __future__ import annotations

import random
import string as string_mod

from dbnet import dsl
from dbnet.datalogic import Action, FactTemplate
from dbnet.datatypes import Value, Variable, int_value, real_value, string_value
from dbnet.persistence import (
    Constraint,
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    RelationSchema,
)
from dbnet.query import And, Exists, Not, PredicateAtom, RelationAtom, forall, implies

STRING_POOL = [string_value(s) for s in ("a", "b", "c", "d", "e", "f")]
INT_POOL = [int_value(i) for i in range(6)]
REAL_POOL = [real_value(t) for t in ("0.5", "1.0", "1.5", "2.25")]
POOLS = {"string": STRING_POOL, "int": INT_POOL, "real": REAL_POOL}

EQ = {"string": "=_s", "int": "=_int", "real": "=_r"}


def random_schema(rng: random.Random) -> DatabaseSchema:
    # R0 is always binary so that key-style constraints have a home without
    # blowing up the quantifier count the brute-force oracle must enumerate.
    rels = [RelationSchema("R0", (rng.choice(("string", "int", "real")), rng.choice(("string", "int", "real"))))]
    for i in range(1, rng.randint(2, 3)):
        arity = rng.randint(1, 3)
        cols = tuple(rng.choice(("string", "int", "real")) for _ in range(arity))
        rels.append(RelationSchema(f"R{i}", cols))
    return DatabaseSchema(rels)


def random_instance(rng: random.Random, schema: DatabaseSchema, max_facts: int = 12) -> DatabaseInstance:
    facts = []
    for _ in range(rng.randint(0, max_facts)):
        rel = rng.choice(list(schema.relations.values()))
        facts.append(
            Fact(rel.name, tuple(rng.choice(POOLS[c]) for c in rel.column_types))
        )
    return DatabaseInstance(facts)


class _QueryBuilder:
    """Grows a random well-typed query, inventing at most `free_budget`
    free variables along the way."""

    def __init__(self, rng: random.Random, schema: DatabaseSchema, free_budget: int = 3):
        self.rng = rng
        self.schema = schema
        self.free: list[Variable] = []
        self.free_budget = free_budget
        self.counter = 0

    def term(self, type_name: str, scope: list[Variable]):
        candidates = [v for v in scope + self.free if v.type_name == type_name]
        roll = self.rng.random()
        if candidates and roll < 0.5:
            return self.rng.choice(candidates)
        if len(self.free) < self.free_budget and roll < 0.7:
            var = Variable(f"f{len(self.free)}", type_name)
            self.free.append(var)
            return var
        return self.rng.choice(POOLS[type_name])

    def atom(self, scope: list[Variable]):
        if self.rng.random() < 0.75:
            rel = self.rng.choice(list(self.schema.relations.values()))
            return RelationAtom(
                rel.name, tuple(self.term(c, scope) for c in rel.column_types)
            )
        type_name = self.rng.choice(("string", "int", "real"))
        pred = EQ[type_name] if type_name == "string" else self.rng.choice(
            {"int": ("=_int", "<_int", "succ"), "real": ("=_r", "<_r")}[type_name]
        )
        return PredicateAtom(pred, (self.term(type_name, scope), self.term(type_name, scope)))

    def build(self, depth: int, scope: list[Variable]):
        if depth <= 0:
            return self.atom(scope)
        kind = self.rng.randrange(4)
        if kind == 0:
            return Not(self.build(depth - 1, scope))
        if kind == 1:
            return And(self.build(depth - 1, scope), self.build(depth - 1, scope))
        if kind == 2:
            self.counter += 1
            var = Variable(f"b{self.counter}", self.rng.choice(("string", "int", "real")))
            return Exists(var, self.build(depth - 1, scope + [var]))
        return self.atom(scope)


def random_query(rng: random.Random, schema: DatabaseSchema, max_depth: int = 4):
    """Returns (ordered free variables, body)."""
    from dbnet.query import free_vars

    builder = _QueryBuilder(rng, schema)
    body = builder.build(rng.randint(0, max_depth), [])
    return free_vars(body), body


def key_constraint(rng: random.Random, rel: RelationSchema, index: int) -> Constraint:
    """A functional dependency: component `key` determines component `dep`."""
    positions = list(range(rel.arity))
    key = rng.choice(positions)
    dep = rng.choice([p for p in positions if p != key]) if rel.arity > 1 else key
    k = Variable("k", rel.column_types[key])
    left1, left2 = [], []
    quantified = [k]
    for pos, col in enumerate(rel.column_types):
        if pos == key:
            left1.append(k)
            left2.append(k)
        else:
            v1 = Variable(f"a{pos}", col)
            v2 = Variable(f"b{pos}", col)
            left1.append(v1)
            left2.append(v2)
            quantified.extend((v1, v2))
    if rel.arity == 1:
        # Degenerate relation: fall back to a tautological key.
        body = implies(RelationAtom(rel.name, (k,)), RelationAtom(rel.name, (k,)))
    else:
        dep_type = rel.column_types[dep]
        body = implies(
            And(RelationAtom(rel.name, tuple(left1)), RelationAtom(rel.name, tuple(left2))),
            PredicateAtom(EQ[dep_type], (left1[dep], left2[dep])),
        )
    for var in reversed(quantified):
        body = forall(var, body)
    return Constraint(f"key_{rel.name}_{index}", body)


def random_constraints(rng: random.Random, schema: DatabaseSchema) -> list[Constraint]:
    rels = [r for r in schema.relations.values() if r.arity == 2]
    return [
        key_constraint(rng, rng.choice(rels), i) for i in range(rng.randint(1, 3))
    ]


def random_compliant_instance(rng, layer, max_facts: int = 10) -> DatabaseInstance:
    """Grow an instance fact by fact, keeping only compliant additions."""
    from dbnet.persistence import check_compliance

    facts: list[Fact] = []
    for _ in range(rng.randint(0, max_facts)):
        rel = rng.choice(list(layer.schema.relations.values()))
        fact = Fact(rel.name, tuple(rng.choice(POOLS[c]) for c in rel.column_types))
        candidate = DatabaseInstance(facts + [fact])
        if check_compliance(layer, candidate).ok:
            facts.append(fact)
    return DatabaseInstance(facts)


def random_action(rng: random.Random, schema: DatabaseSchema, *, force_overlap: bool = False):
    """Returns (action, grounding substitution)."""
    params = []
    for i in range(rng.randint(1, 3)):
        params.append(Variable(f"p{i}", rng.choice(("string", "int", "real"))))

    def template() -> FactTemplate:
        rel = rng.choice(list(schema.relations.values()))
        args = []
        for col in rel.column_types:
            options = [v for v in params if v.type_name == col]
            if options and rng.random() < 0.6:
                args.append(rng.choice(options))
            else:
                args.append(rng.choice(POOLS[col]))
        return FactTemplate(rel.name, tuple(args))

    adds = {template() for _ in range(rng.randint(0, 2))}
    dels = {template() for _ in range(rng.randint(0, 2))}
    if force_overlap or (adds and rng.random() < 0.3):
        shared = template()
        adds.add(shared)
        dels.add(shared)
    action = Action(f"act{rng.randrange(10**6)}", tuple(params), tuple(adds), tuple(dels))
    theta = {p: rng.choice(POOLS[p.type_name]) for p in params}
    return action, theta


# --- random documents (syntactic only, for round-trip testing) -----------------

_NAMES = [f"n{i}" for i in range(40)]
_TYPES = ("string", "int", "real", "bool")


def _rand_name(rng) -> str:
    return rng.choice(_NAMES)


def _rand_value(rng) -> Value:
    kind = rng.randrange(4)
    if kind == 0:
        chars = string_mod.ascii_letters + ' \\"\n\t#<>'
        return string_value("".join(rng.choice(chars) for _ in range(rng.randint(0, 6))))
    if kind == 1:
        return int_value(rng.randint(-50, 50))
    if kind == 2:
        whole, frac = rng.randint(-9, 9), rng.randint(0, 99)
        return real_value(f"{whole}.{frac:02d}")
    return Value("bool", rng.random() < 0.5)


def _rand_term(rng, scope: list[str]):
    if scope and rng.random() < 0.5:
        return dsl.VarRef(rng.choice(scope))
    return dsl.LitTerm(_rand_value(rng))


def _rand_formula(rng, scope: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return dsl.FTrue()
        if kind == 1:
            return dsl.FAtom(
                _rand_name(rng), tuple(_rand_term(rng, scope) for _ in range(rng.randint(0, 3)))
            )
        op = rng.choice(("=", "<"))
        return dsl.FCompare(op, _rand_term(rng, scope), _rand_term(rng, scope))
    kind = rng.randrange(6)
    if kind == 0:
        return dsl.FNot(_rand_formula(rng, scope, depth - 1))
    if kind in (1, 2):
        cls = (dsl.FAnd, dsl.FOr, dsl.FImplies)[rng.randrange(3)]
        return cls(_rand_formula(rng, scope, depth - 1), _rand_formula(rng, scope, depth - 1))
    cls = dsl.FExists if rng.random() < 0.5 else dsl.FForall
    var = dsl.ParamDecl(_rand_name(rng), rng.choice(_TYPES))
    return cls(var, _rand_formula(rng, scope + [var.name], depth - 1))


def _rand_params(rng, low: int = 0, high: int = 3) -> tuple:
    names = rng.sample(_NAMES, rng.randint(low, high))
    return tuple(dsl.ParamDecl(n, rng.choice(_TYPES)) for n in names)


def _rand_template(rng, scope: list[str]) -> dsl.TemplateAtom:
    return dsl.TemplateAtom(
        _rand_name(rng), tuple(_rand_term(rng, scope) for _ in range(rng.randint(1, 3)))
    )


def _rand_insc_tuple(rng, scope: list[str], ground: bool = False) -> dsl.InscTuple:
    mult = rng.choice((1, 1, 1, 2, 3))
    terms = tuple(
        dsl.LitTerm(_rand_value(rng)) if ground else _rand_term(rng, scope)
        for _ in range(rng.randint(0, 3))
    )
    return dsl.InscTuple(mult, terms)


def _rand_arcs(rng, scope: list[str]) -> tuple:
    arcs = []
    for _ in range(rng.randint(0, 2)):
        tuples = tuple(_rand_insc_tuple(rng, scope) for _ in range(rng.randint(1, 2)))
        arcs.append(dsl.ArcDecl(_rand_name(rng), tuples))
    return tuple(arcs)


def random_document(rng: random.Random) -> dsl.NetDocument:
    types = None
    if rng.random() < 0.5:
        types = tuple(dsl.TypeRef(t) for t in rng.sample(_TYPES, rng.randint(0, 4)))

    schema = tuple(
        dsl.RelDecl(
            f"Rel{i}",
            tuple(dsl.TypeRef(rng.choice(_TYPES)) for _ in range(rng.randint(1, 3))),
        )
        for i in range(rng.randint(0, 3))
    )
    constraints = tuple(
        dsl.ConstraintDecl(f"c{i}", _rand_formula(rng, [], rng.randint(0, 3)))
        for i in range(rng.randint(0, 2))
    )
    queries = []
    for i in range(rng.randint(0, 2)):
        params = _rand_params(rng)
        queries.append(
            dsl.QueryDecl(
                f"q{i}", params, _rand_formula(rng, [p.name for p in params], rng.randint(0, 3))
            )
        )
    actions = []
    for i in range(rng.randint(0, 2)):
        params = _rand_params(rng)
        scope = [p.name for p in params]
        actions.append(
            dsl.ActionDecl(
                f"a{i}",
                params,
                tuple(_rand_template(rng, scope) for _ in range(rng.randint(0, 2))),
                tuple(_rand_template(rng, scope) for _ in range(rng.randint(0, 2))),
            )
        )
    places = []
    for i in range(rng.randint(0, 3)):
        kind = "view" if rng.random() < 0.3 else "control"
        places.append(
            dsl.PlaceDecl(
                f"p{i}",
                kind,
                tuple(dsl.TypeRef(rng.choice(_TYPES)) for _ in range(rng.randint(0, 3))),
                query_name=_rand_name(rng) if kind == "view" else None,
            )
        )
    transitions = []
    for i in range(rng.randint(0, 3)):
        var_decls = _rand_params(rng)
        fresh_decls = _rand_params(rng, 0, 2)
        scope = [p.name for p in var_decls] + [p.name for p in fresh_decls]
        action = None
        if rng.random() < 0.5:
            action = dsl.ActionRef(
                _rand_name(rng), tuple(_rand_term(rng, scope) for _ in range(rng.randint(0, 3)))
            )
        transitions.append(
            dsl.TransitionDecl(
                f"t{i}",
                var_decls,
                fresh_decls,
                _rand_arcs(rng, scope),
                _rand_arcs(rng, scope),
                _rand_arcs(rng, scope),
                _rand_formula(rng, scope, rng.randint(0, 2)) if rng.random() < 0.6 else dsl.FTrue(),
                action,
            )
        )
    init_facts = tuple(_rand_template(rng, []) for _ in range(rng.randint(0, 3)))
    init_marking = tuple(
        dsl.ArcDecl(
            _rand_name(rng),
            tuple(_rand_insc_tuple(rng, [], ground=True) for _ in range(rng.randint(1, 2))),
        )
        for _ in range(rng.randint(0, 2))
    )
    domains = tuple(
        dsl.DomainDecl(
            t, tuple(dsl.LitTerm(_rand_value(rng)) for _ in range(rng.randint(0, 3)))
        )
        for t in rng.sample(_TYPES, rng.randint(0, 2))
    )
    config = tuple(
        dsl.ConfigEntry(k, rng.randint(0, 100))
        for k in rng.sample(("seed", "steps", "max_states", "max_depth"), rng.randint(0, 2))
    )
    return dsl.NetDocument(
        types=types,
        schema=schema,
        constraints=constraints,
        queries=tuple(queries),
        actions=tuple(actions),
        places=tuple(places),
        transitions=tuple(transitions),
        init_facts=init_facts,
        init_marking=init_marking,
        domains=domains,
        config=config,
    )
