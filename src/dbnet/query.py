"""First-order queries over typed instances, evaluated under active-domain
semantics: quantifiers range over the values of the matching type that occur
in the instance, which keeps evaluation finite and domain-independent.

The AST is the minimal fragment (predicate atom, relation atom, negation,
conjunction, existential); disjunction, implication, and universal
quantification are provided as expansion helpers.

Every formula is compiled once into a plan, and the plan is the only
evaluator behind `entails`, `answers`, `persistence.check_compliance` and
transition guards (queries over the empty instance). Named queries and
constraints are compiled on their first evaluation. A plan is compiled over
the domain that decides its predicate atoms: a named query's own `types`, the
persistence layer's, the net's for a guard, the one given to `entails`.
Compiling resolves each predicate atom to the function that the plan calls
on the payloads (a DefinitionError if the predicate is unknown or does not
fit), strips double negations and flattens conjunctions. Then each
`Exists x`, and each parameter of a named query, gets a *generator*: a
positive relation atom that mentions `x` and that every model of the body
satisfies (a conjunct, or a conjunct of a nested `Exists` that does not
rebind `x`). At evaluation, `x` ranges only over the distinct values in its
column among the facts of that relation that match the atom's constants,
its already-bound variables and its repeated variables, and that have
`x`'s type. Those facts are found by probing a hash index on the bound
columns, built at most once per evaluation. Any witness of the body
satisfies the atom, so this yields exactly the active-domain answers: it is
the safe-range evaluation of Abiteboul, Hull & Vianu, *Foundations of
Databases*, ch. 5. When every column of the generator atom is a constant, a
bound variable or `x`, the atom holds for each candidate and is not checked
again, so `not exists t . R(e, t)` with `e` bound is one index probe (an
anti-join). An `Exists` without a generator, such as
`exists x . not R(x)`, falls back to scanning the active domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

from .datatypes import CATALOG, Substitution, Term, TypeDomain, Value, Variable, fresh_cache_token
from .errors import BindingError, DefinitionError
from .persistence import DatabaseInstance, DatabaseSchema, Fact


@dataclass(frozen=True)
class Truth:
    """The trivially true formula (guard syntax only)."""


@dataclass(frozen=True)
class PredicateAtom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class RelationAtom:
    relation: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Not:
    body: "Query"


@dataclass(frozen=True)
class And:
    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Exists:
    var: Variable
    body: "Query"


Query = Union[Truth, PredicateAtom, RelationAtom, Not, And, Exists]

#: Guards are the quantifier- and relation-free fragment of Query.
Guard = Query


def or_(left: Query, right: Query) -> Query:
    return Not(And(Not(left), Not(right)))


def implies(left: Query, right: Query) -> Query:
    return Not(And(left, Not(right)))


def forall(var: Variable, body: Query) -> Query:
    return Not(Exists(var, Not(body)))


def free_vars(query: Query) -> tuple[Variable, ...]:
    """Free variables in order of first free occurrence."""
    seen: dict[Variable, None] = {}

    def walk(q: Query, bound: frozenset[Variable]) -> None:
        if isinstance(q, (PredicateAtom, RelationAtom)):
            for arg in q.args:
                if isinstance(arg, Variable) and arg not in bound and arg not in seen:
                    seen[arg] = None
        elif isinstance(q, Not):
            walk(q.body, bound)
        elif isinstance(q, And):
            walk(q.left, bound)
            walk(q.right, bound)
        elif isinstance(q, Exists):
            walk(q.body, bound | {q.var})

    walk(query, frozenset())
    return tuple(seen)


def validate_query(
    query: Query,
    schema: DatabaseSchema,
    types: TypeDomain,
    *,
    allow_relations: bool = True,
    allow_quantifiers: bool = True,
) -> list[str]:
    """Well-typedness diagnostics; an empty list means the query is fine."""
    problems: list[str] = []

    def check_args(args: tuple[Term, ...], expected: tuple[str, ...], where: str) -> None:
        found = [
            f"fresh variable {arg.name!r} not allowed in a query"
            for arg in args
            if isinstance(arg, Variable) and arg.fresh
        ]
        found += types.mismatches(args, expected)
        problems.extend(f"{where}: {problem}" for problem in found)

    def walk(q: Query) -> None:
        if isinstance(q, Truth):
            return
        if isinstance(q, PredicateAtom):
            try:
                dt = types.type_of_predicate(q.pred)
            except DefinitionError as exc:
                problems.append(str(exc))
                return
            pred = dt.predicates[q.pred]
            check_args(q.args, (dt.name,) * pred.arity, f"predicate {q.pred!r}")
        elif isinstance(q, RelationAtom):
            if not allow_relations:
                problems.append(f"relation atom {q.relation!r} not allowed here")
                return
            try:
                rel = schema.relation(q.relation)
            except DefinitionError as exc:
                problems.append(str(exc))
                return
            check_args(q.args, rel.column_types, f"relation {q.relation!r}")
        elif isinstance(q, Not):
            walk(q.body)
        elif isinstance(q, And):
            walk(q.left)
            walk(q.right)
        elif isinstance(q, Exists):
            if not allow_quantifiers:
                problems.append("quantifier not allowed here")
            if q.var.fresh:
                problems.append(f"cannot quantify over fresh variable {q.var.name!r}")
            if q.var.type_name not in types:
                problems.append(f"quantified variable {q.var.name!r} has unknown type")
            walk(q.body)
        else:
            problems.append(f"unknown query node {q!r}")

    walk(query)
    return problems


# --- compiled plans ----------------------------------------------------------
#
# A plan is a tree of closures `fn(ctx, env) -> bool`. `env` is a list of
# values indexed by slots fixed at compile time: the plan's inputs first, then
# one slot per constant and one per quantifier. Every `Exists` gets a slot of
# its own, so an inner `Exists x` that shadows an outer `x` needs no save and
# restore. `ctx` is the instance seen through hash indexes.


class _Context:
    """An instance's facts grouped by relation, with hash indexes built on
    first use."""

    __slots__ = ("instance", "rows", "indexes")

    def __init__(self, instance: DatabaseInstance):
        self.instance = instance
        self.rows: dict[str, list[tuple[Value, ...]]] = {}
        for fact in instance.facts:
            self.rows.setdefault(fact.relation, []).append(fact.args)
        self.indexes: dict[tuple, dict[tuple, dict[Value, None]]] = {}

    def index(self, pattern: tuple, key_of: Callable[[tuple], tuple]) -> dict[tuple, dict[Value, None]]:
        """Key (`key_of` a row: its `key_cols`) -> the distinct values in column
        `out` of the facts of `relation` that have type `type_name` and agree
        on each pair of `equal` columns; the dicts are used as ordered sets."""
        relation, key_cols, equal, out, type_name = pattern
        index: dict[tuple, dict[Value, None]] = {}
        for row in self.rows.get(relation, ()):
            value = row[out]
            if value.type_name != type_name or (equal and any(row[i] != row[j] for i, j in equal)):
                continue
            key = key_of(row)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {value: None}
            else:
                bucket[value] = None
        self.indexes[pattern] = index
        return index


_Eval = Callable[[_Context, list], bool]


def _tuple_getter(slots) -> Callable[[list], tuple]:
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda env: (env[slot],)
    return lambda env: ()


def _conjuncts(q: Query) -> list[Query]:
    """The flattened conjunction, double negations stripped, `Truth` dropped."""
    while isinstance(q, Not) and isinstance(q.body, Not):
        q = q.body.body
    if isinstance(q, And):
        return _conjuncts(q.left) + _conjuncts(q.right)
    return [] if isinstance(q, Truth) else [q]


def _implied_atoms(conjuncts: list[Query], inner: frozenset[Variable] = frozenset()):
    """(atom, variables bound on the way to it) for each relation atom that
    every model of the conjunction satisfies: its conjuncts, and those of
    the bodies of its existentials."""
    for c in conjuncts:
        if isinstance(c, RelationAtom):
            yield c, inner
        elif isinstance(c, Exists):
            yield from _implied_atoms(_conjuncts(c.body), inner | {c.var})


@dataclass(frozen=True)
class _Generator:
    """Where the values of a variable come from: an index `pattern` (see
    `_Context.index`) probed with the values in `key_slots`. `covered` says
    that every column of `atom` is a key or the variable, so that the atom
    holds for every candidate."""

    atom: RelationAtom
    pattern: tuple
    key_slots: tuple[int, ...]
    covered: bool


def _choose_generator(
    var: Variable, conjuncts: list[Query], bound: Mapping[Variable, int], const_slot
) -> _Generator | None:
    """The implied atom that mentions `var` with the most key columns,
    preferring a covered one. Constants and variables bound outside are
    keys; variables bound on the way to the atom, and parameters not yet
    bound, are free columns."""
    best = best_score = None
    for atom, inner in _implied_atoms(conjuncts):
        if var in inner or var not in atom.args:
            continue
        key_cols, key_slots, free = [], [], {}
        for col, arg in enumerate(atom.args):
            if not isinstance(arg, Variable):
                key_cols.append(col)
                key_slots.append(const_slot(arg))
            elif arg != var and arg not in inner and arg in bound:
                key_cols.append(col)
                key_slots.append(bound[arg])
            else:
                free.setdefault(arg, []).append(col)
        covered = list(free) == [var]
        score = (covered, len(key_cols))
        if best_score is None or score > best_score:
            equal = tuple((cols[0], c) for cols in free.values() for c in cols[1:])
            pattern = (atom.relation, tuple(key_cols), equal, free[var][0], var.type_name)
            best, best_score = _Generator(atom, pattern, tuple(key_slots), covered), score
    return best


def _known(q: Query, known: frozenset) -> bool:
    return isinstance(q, RelationAtom) and q in known


class _Compiler:
    """Allocates slots and turns a formula into closures over `types`.
    `known` holds the relation atoms that the enclosing generators make
    true; a conjunct in `known` is not checked again."""

    def __init__(self, inputs: tuple[Variable, ...], types: TypeDomain | None):
        self.types = types or CATALOG
        self.template: list = [None] * len(inputs)
        self._consts: dict[Value, int] = {}

    def new_slot(self, value=None) -> int:
        self.template.append(value)
        return len(self.template) - 1

    def const_slot(self, value: Value) -> int:
        slot = self._consts.get(value)
        if slot is None:
            slot = self._consts[value] = self.new_slot(value)
        return slot

    def slots(self, args: tuple[Term, ...], scope: Mapping[Variable, int]) -> list[int]:
        out = []
        for arg in args:
            if isinstance(arg, Variable):
                out.append(scope[arg])  # every variable is bound: scope covers free(query)
            else:
                out.append(self.const_slot(arg))
        return out

    def generator(self, var: Variable, conjuncts: list[Query], bound: Mapping[Variable, int], known: frozenset):
        """(candidate function, known atoms once `var` takes a candidate)."""
        known = frozenset(a for a in known if var not in a.args)
        gen = _choose_generator(var, conjuncts, bound, self.const_slot)
        if gen is None:  # no implied atom: scan the active domain
            type_name = var.type_name
            return (lambda ctx, env: ctx.instance.active_domain(type_name)), known
        pattern, key = gen.pattern, _tuple_getter(gen.key_slots)
        key_of = _tuple_getter(pattern[1])  # a row's key columns, in the order `key` reads them from env

        def candidates(ctx: _Context, env: list) -> Iterable[Value]:
            index = ctx.indexes.get(pattern)
            if index is None:
                index = ctx.index(pattern, key_of)
            return index.get(key(env), ())

        return candidates, (known | {gen.atom} if gen.covered else known)

    def predicate(self, q: PredicateAtom) -> Callable[..., bool]:
        """The semantics of `q`'s predicate in `types`; a DefinitionError if
        the predicate is unknown or its arguments do not fit it."""
        dt = self.types.type_of_predicate(q.pred)
        problems = self.types.mismatches(q.args, (dt.name,) * dt.predicates[q.pred].arity)
        if problems:
            raise DefinitionError(f"predicate {q.pred!r}: {problems[0]}")
        return dt.predicates[q.pred].semantics

    def conjunction(self, conjuncts: list[Query], scope: Mapping[Variable, int], known: frozenset) -> _Eval:
        parts = [self.node(c, scope, known) for c in conjuncts if not _known(c, known)]
        if not parts:
            return lambda ctx, env: True
        if len(parts) == 1:
            return parts[0]

        def conj(ctx: _Context, env: list) -> bool:
            for part in parts:
                if not part(ctx, env):
                    return False
            return True

        return conj

    def node(self, q: Query, scope: Mapping[Variable, int], known: frozenset) -> _Eval:
        if isinstance(q, RelationAtom):
            relation, args = q.relation, _tuple_getter(self.slots(q.args, scope))
            return lambda ctx, env: Fact(relation, args(env)) in ctx.instance.facts
        if isinstance(q, PredicateAtom):
            semantics, slots = self.predicate(q), self.slots(q.args, scope)
            return lambda ctx, env: bool(semantics(*[env[slot].payload for slot in slots]))
        if isinstance(q, Not):
            body = self.conjunction(_conjuncts(q.body), scope, known)
            return lambda ctx, env: not body(ctx, env)
        if isinstance(q, Exists):
            return self.exists(q, scope, known)
        raise DefinitionError(f"unknown query node {q!r}")

    def exists(self, q: Exists, scope: Mapping[Variable, int], known: frozenset) -> _Eval:
        conjuncts = _conjuncts(q.body)
        candidates, known = self.generator(q.var, conjuncts, scope, known)
        if all(_known(c, known) for c in conjuncts):  # a semi-join; under a Not, an anti-join
            return lambda ctx, env: bool(candidates(ctx, env))
        slot = self.new_slot()
        body = self.conjunction(conjuncts, {**scope, q.var: slot}, known)

        def exists(ctx: _Context, env: list) -> bool:
            for value in candidates(ctx, env):
                env[slot] = value
                if body(ctx, env):
                    return True
            return False

        return exists


class FormulaPlan:
    """A formula compiled over `types` (the built-in catalog when it is
    None); `holds` decides it under a substitution that covers its free
    variables."""

    __slots__ = ("inputs", "template", "fn")

    def __init__(self, query: Query, types: TypeDomain | None = None):
        self.inputs = free_vars(query)
        compiler = _Compiler(self.inputs, types)
        scope = {v: i for i, v in enumerate(self.inputs)}
        self.fn = compiler.conjunction(_conjuncts(query), scope, frozenset())
        self.template = compiler.template

    def holds(self, instance: DatabaseInstance, theta: Substitution) -> bool:
        env = self.template.copy()
        for i, var in enumerate(self.inputs):
            try:
                env[i] = theta[var]
            except KeyError:
                raise BindingError(f"unbound variable {var!r} during evaluation") from None
        return self.fn(_Context(instance), env)


class AnswerPlan:
    """A named query compiled over `types`: nested loops over each
    parameter's candidates, in declared order, then what is left of the
    body."""

    __slots__ = ("width", "template", "loops", "fn")

    def __init__(self, params: tuple[Variable, ...], body: Query, types: TypeDomain | None):
        compiler = _Compiler(params, types)
        conjuncts, known = _conjuncts(body), frozenset()
        self.loops = []
        for i, param in enumerate(params):
            candidates, known = compiler.generator(param, conjuncts, dict(zip(params[:i], range(i))), known)
            self.loops.append(candidates)
        self.width = len(params)
        self.fn = compiler.conjunction(conjuncts, dict(zip(params, range(self.width))), known)
        self.template = compiler.template

    def answers(self, instance: DatabaseInstance) -> frozenset[tuple[Value, ...]]:
        ctx, env = _Context(instance), self.template.copy()
        width, fn, loops = self.width, self.fn, self.loops
        result: set[tuple[Value, ...]] = set()

        def loop(i: int) -> None:
            if i == width:
                if fn(ctx, env):
                    result.add(tuple(env[:width]))
                return
            for value in loops[i](ctx, env):
                env[i] = value
                loop(i + 1)

        loop(0)
        return frozenset(result)


@lru_cache(maxsize=16)
def compile_formula(query: Query, types: TypeDomain | None) -> FormulaPlan:
    """The plan for `query` over `types`, cached by both: the CLI and the
    benchmark pass the same goal to `entails` for every state. Each entry
    keeps its domain alive, so only a few are kept."""
    return FormulaPlan(query, types)


def entails(instance: DatabaseInstance, theta: Substitution, query: Query, *, types: TypeDomain | None = None) -> bool:
    """The inductive entailment relation over `types` (the built-in catalog
    when it is None); `theta` must cover free(query)."""
    return compile_formula(query, types).holds(instance, theta)


@dataclass(frozen=True)
class NamedQuery:
    """A query with an explicitly ordered tuple of free variables, compiled
    and answered over `types` (the built-in catalog when it is None)."""

    name: str
    params: tuple[Variable, ...]
    body: Query
    types: TypeDomain | None = field(default=None, repr=False, compare=False)
    cache_token: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if set(self.params) != set(free_vars(self.body)):
            raise DefinitionError(
                f"query {self.name!r}: declared parameters {[v.name for v in self.params]} "
                f"do not match the free variables of the body"
            )
        if len(set(self.params)) != len(self.params):
            raise DefinitionError(f"query {self.name!r}: duplicate parameters")
        object.__setattr__(self, "cache_token", fresh_cache_token())

    @cached_property
    def plan(self) -> AnswerPlan:
        """The body compiled over `types`, on the first evaluation."""
        return AnswerPlan(self.params, self.body, self.types)


def answers(named: NamedQuery, instance: DatabaseInstance) -> frozenset[tuple[Value, ...]]:
    """All substitutions (as value tuples in declared parameter order) over
    the typed active-domain product under which the body holds, evaluated
    over the query's own type domain.

    A boolean query answers {()} when it holds and the empty set otherwise.
    """
    result = instance.cached(named.cache_token)
    if result is None:
        result = instance.store(named.cache_token, named.plan.answers(instance))
    return result

