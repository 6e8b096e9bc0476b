"""Parameterized add/delete actions and their grounding.

An action lists fact templates to delete and to add. Grounding the templates
with a parameter substitution gives two concrete fact sets; applying them
computes (I - deletions) + additions, so an addition always wins over a
simultaneous deletion of the same fact. Whether the result is committed is
decided by firing (`semantics.fire`), against the persistence layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .datatypes import Term, TypeDomain, Variable, apply_substitution, by_name, Substitution
from .errors import DefinitionError
from .persistence import DatabaseInstance, DatabaseSchema, Fact
from .query import NamedQuery


@dataclass(frozen=True)
class FactTemplate:
    """An atom over action parameters and values, e.g. Resp(e, t)."""

    relation: str
    args: tuple[Term, ...]

    def ground(self, theta: Substitution) -> Fact:
        return Fact(self.relation, tuple(apply_substitution(a, theta) for a in self.args))

    def substitute(self, args: Mapping[Variable, Term]) -> "FactTemplate":
        """This template with each parameter replaced by its argument."""
        return FactTemplate(self.relation, tuple(apply_substitution(a, args) for a in self.args))


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
    """An action grounded by a total, well-typed substitution."""

    action: Action
    added_facts: frozenset[Fact]
    deleted_facts: frozenset[Fact]


def ground(
    action: Action,
    adds: Iterable[FactTemplate],
    dels: Iterable[FactTemplate],
    theta: Substitution,
) -> ActionInstance:
    """The instance of `action` whose fact sets are the templates grounded
    by `theta`, which binds every variable they mention."""
    return ActionInstance(
        action,
        frozenset(tpl.ground(theta) for tpl in adds),
        frozenset(tpl.ground(theta) for tpl in dels),
    )


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
    return ground(action, action.adds, action.dels, theta)


def apply_raw(instance_of: ActionInstance, db: DatabaseInstance) -> DatabaseInstance:
    """(I - F-) + F+, ignoring constraints; the input instance is unchanged."""
    return db.with_changes(add=instance_of.added_facts, remove=instance_of.deleted_facts)


class DataLogicLayer:
    """The query/action interface exposed to the control layer."""

    def __init__(self, queries: Iterable[NamedQuery] = (), actions: Iterable[Action] = ()):
        self.queries: dict[str, NamedQuery] = by_name(queries, "query")
        self.actions: dict[str, Action] = by_name(actions, "action")
