"""Parameterized add/delete actions and their transactional application.

An action lists fact templates to delete and to add. Grounding the templates
with a parameter substitution gives two concrete fact sets; applying them
computes (I - deletions) + additions, so an addition always wins over a
simultaneous deletion of the same fact. The transactional wrapper commits
the result only when it satisfies every constraint of the persistence layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .datatypes import Term, TypeDomain, Value, Variable, apply_substitution, by_name, Substitution
from .errors import DefinitionError
from .persistence import (
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    PersistenceLayer,
    check_compliance,
)
from .query import NamedQuery


@dataclass(frozen=True)
class FactTemplate:
    """An atom over action parameters and values, e.g. Resp(e, t)."""

    relation: str
    args: tuple[Term, ...]

    def ground(self, theta: Substitution) -> Fact:
        return Fact(self.relation, tuple(apply_substitution(a, theta) for a in self.args))


@dataclass(frozen=True)
class Action:
    name: str
    params: tuple[Variable, ...]
    #: In declaration order, so that problems are reported in that order.
    adds: tuple[FactTemplate, ...]
    dels: tuple[FactTemplate, ...]

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise DefinitionError(f"action {self.name!r}: parameters must be pairwise distinct")


def validate_action(action: Action, schema: DatabaseSchema, types: TypeDomain) -> list[str]:
    """Well-typedness diagnostics for both template sets."""
    problems: list[str] = []
    for label, templates in (("add", action.adds), ("del", action.dels)):
        for tpl in templates:
            where = f"action {action.name!r}, {label} {tpl.relation}"
            if tpl.relation not in schema:
                problems.append(f"{where}: unknown relation")
                continue
            found = [
                f"{arg.name!r} is not a parameter"
                for arg in tpl.args
                if isinstance(arg, Variable) and arg not in action.params
            ]
            found += types.mismatches(tpl.args, schema.relation(tpl.relation).column_types)
            problems.extend(f"{where}: {problem}" for problem in found)
    return problems


@dataclass(frozen=True)
class ActionInstance:
    """An action grounded by a total, well-typed parameter substitution."""

    action: Action
    theta: tuple[tuple[Variable, Value], ...]

    @property
    def substitution(self) -> Substitution:
        return dict(self.theta)

    @property
    def added_facts(self) -> frozenset[Fact]:
        theta = self.substitution
        return frozenset(tpl.ground(theta) for tpl in self.action.adds)

    @property
    def deleted_facts(self) -> frozenset[Fact]:
        theta = self.substitution
        return frozenset(tpl.ground(theta) for tpl in self.action.dels)


def instantiate(action: Action, theta: Substitution) -> ActionInstance:
    """Ground an action; theta must bind exactly the formal parameters."""
    missing = [p.name for p in action.params if p not in theta]
    if missing:
        raise DefinitionError(f"action {action.name!r}: unbound parameters {missing}")
    for p in action.params:
        if theta[p].type_name != p.type_name:
            raise DefinitionError(
                f"action {action.name!r}: parameter {p.name!r} bound to a "
                f"{theta[p].type_name!r} value, expected {p.type_name!r}"
            )
    return ActionInstance(action, tuple((p, theta[p]) for p in action.params))


def apply_raw(instance_of: ActionInstance, db: DatabaseInstance) -> DatabaseInstance:
    """(I - F-) + F+, ignoring constraints; the input instance is unchanged."""
    return db.with_changes(add=instance_of.added_facts, remove=instance_of.deleted_facts)


def apply_transactional(
    layer: PersistenceLayer, instance_of: ActionInstance, db: DatabaseInstance
) -> tuple[DatabaseInstance, bool]:
    """Apply and commit if the result complies, otherwise roll back.

    Returns (new instance, True) on commit and (db unchanged, False) on
    rollback; the returned instance is always compliant when `db` was.
    """
    candidate = apply_raw(instance_of, db)
    if check_compliance(layer, candidate).ok:
        return candidate, True
    return db, False


class DataLogicLayer:
    """The query/action interface exposed to the control layer."""

    def __init__(self, queries: Iterable[NamedQuery] = (), actions: Iterable[Action] = ()):
        self.queries: dict[str, NamedQuery] = by_name(queries, "query")
        self.actions: dict[str, Action] = by_name(actions, "action")
