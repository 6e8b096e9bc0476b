"""Typed relational schemas, immutable fact-set instances, and constraints.

A `DatabaseInstance` is a frozen set of facts with one memo for what is
derived from them (state-space exploration revisits the same instances
constantly): active domains by type name, query answers and compliance
reports by `cache_token`, and view-place fragments by net. Its canonical
fact order is computed on each call, not kept.
A `PersistenceLayer` compiles each constraint once, on the first compliance
check, over the layer's own type domain; `check_compliance` only runs those
plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .datatypes import TypeDomain, Value, by_name, format_decimal, fresh_cache_token, render_literal
from .errors import DefinitionError

if TYPE_CHECKING:
    from .query import FormulaPlan, Query


@dataclass(frozen=True)
class RelationSchema:
    """A relation name with an ordered tuple of column type names."""

    name: str
    column_types: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.column_types) < 1:
            raise DefinitionError(f"relation {self.name!r} must have arity >= 1")

    @property
    def arity(self) -> int:
        return len(self.column_types)


class DatabaseSchema:
    """A finite set of relation schemas with pairwise distinct names."""

    def __init__(self, relations: Iterable[RelationSchema]):
        self.relations: dict[str, RelationSchema] = by_name(relations, "relation")

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def relation(self, name: str) -> RelationSchema:
        try:
            return self.relations[name]
        except KeyError:
            raise DefinitionError(f"unknown relation {name!r}") from None


class Fact(NamedTuple):
    """A ground atom R(o1, ..., on)."""

    relation: str
    args: tuple[Value, ...]

    def __repr__(self) -> str:
        return f"{self.relation}({', '.join(repr(a.payload) for a in self.args)})"


def check_fact(schema: DatabaseSchema, types: TypeDomain, fact: Fact) -> Fact:
    problems = types.mismatches(fact.args, schema.relation(fact.relation).column_types)
    if problems:
        raise DefinitionError(f"fact {fact!r}: {problems[0]}")
    return fact


class DatabaseInstance:
    """An immutable finite set of facts (set semantics, no duplicates), with
    a memo, allocated on the first `store`, of what is derived from them;
    `cached(key) is None` is a miss, an empty stored value a hit."""

    __slots__ = ("facts", "_memo")

    def __init__(self, facts: Iterable[Fact] = ()):
        self.facts: frozenset[Fact] = frozenset(facts)
        self._memo: dict | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        return self.facts == other.facts

    def __hash__(self) -> int:
        return hash(self.facts)

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.facts

    def __repr__(self) -> str:
        return f"DatabaseInstance({sorted(map(repr, self.facts))})"

    def cached(self, key):
        """The value stored under `key`, or None."""
        return None if self._memo is None else self._memo.get(key)

    def store(self, key, value):
        """Keep `value` (never None) under `key` and return it."""
        if self._memo is None:
            self._memo = {}
        self._memo[key] = value
        return value

    # Read by the benchmark's tracer to count cache hits.
    cached_answers = cached_compliance = cached

    def canonical(self) -> tuple[Fact, ...]:
        """Facts in the canonical (relation, tuple) lexicographic order."""
        return tuple(sorted(self.facts))

    def active_domain(self, type_name: str) -> frozenset[Value]:
        """All values of the given type occurring in some fact."""
        adom = self.cached(type_name)
        if adom is None:
            adom = self.store(type_name, frozenset(v for f in self.facts for v in f.args if v.type_name == type_name))
        return adom

    def with_changes(self, add: Iterable[Fact] = (), remove: Iterable[Fact] = ()) -> "DatabaseInstance":
        """A new instance equal to (self - remove) + add; self is unchanged."""
        return DatabaseInstance((self.facts - frozenset(remove)) | frozenset(add))


def validate_instance(schema: DatabaseSchema, types: TypeDomain, instance: DatabaseInstance) -> None:
    """Raise DefinitionError unless every fact is well-typed for the schema."""
    for fact in instance.facts:
        check_fact(schema, types, fact)


@dataclass(frozen=True)
class Constraint:
    """A named boolean query that every compliant instance must satisfy."""

    name: str
    query: "Query"


@dataclass(frozen=True)
class ComplianceReport:
    ok: bool
    violated: tuple[str, ...] = ()


class PersistenceLayer:
    """A database schema together with boolean first-order constraints,
    compiled into `plans` over `types` (the built-in catalog when it is
    None)."""

    def __init__(
        self,
        schema: DatabaseSchema,
        constraints: Iterable[Constraint] = (),
        types: TypeDomain | None = None,
    ):
        from .query import free_vars

        self.schema = schema
        self.types = types
        self.constraints: tuple[Constraint, ...] = tuple(constraints)
        self.cache_token = fresh_cache_token()
        by_name(self.constraints, "constraint")
        for c in self.constraints:
            if free_vars(c.query):
                raise DefinitionError(f"constraint {c.name!r} is not a boolean query")

    @cached_property
    def plans(self) -> tuple[tuple[str, "FormulaPlan"], ...]:
        """(name, plan) per constraint, compiled on the first evaluation."""
        from .query import FormulaPlan

        return tuple((c.name, FormulaPlan(c.query, self.types)) for c in self.constraints)


def check_compliance(layer: PersistenceLayer, instance: DatabaseInstance) -> ComplianceReport:
    """Evaluate every constraint's plan; report the names of the violated
    ones."""
    report = instance.cached(layer.cache_token)
    if report is None:
        violated = tuple(name for name, plan in layer.plans if not plan.holds(instance, {}))
        report = instance.store(layer.cache_token, ComplianceReport(ok=not violated, violated=violated))
    return report


# --- serialization -----------------------------------------------------------


def fact_to_text(fact: Fact) -> str:
    return f"{fact.relation}({', '.join(render_literal(a) for a in fact.args)})"


def instance_to_text(instance: DatabaseInstance) -> str:
    """One `Rel(v1, v2, ...)` line per fact, canonically ordered."""
    return "".join(fact_to_text(f) + "\n" for f in instance.canonical())


def value_to_json(value: Value) -> object:
    if value.type_name == "real" or not isinstance(value.payload, (str, int, bool)):
        return format_decimal(value.payload)  # exact decimals travel as strings
    return value.payload


def instance_to_json(instance: DatabaseInstance) -> dict[str, list[list[object]]]:
    """Relation name -> canonically ordered list of value tuples."""
    out: dict[str, list[list[object]]] = {}
    for fact in instance.canonical():
        out.setdefault(fact.relation, []).append([value_to_json(a) for a in fact.args])
    return out
