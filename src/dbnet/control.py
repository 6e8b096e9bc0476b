"""Static structure of the control layer and whole-net validation.

Places are either control places (ordinary token holders) or view places
(read-only windows onto a query's answers). Transitions consume tokens via
input inscriptions, filter bindings with a guard, optionally invoke one
action of the data logic, and produce tokens along normal output arcs or,
when the action is rolled back, along rollback arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Literal, Optional

from .datalogic import Action, DataLogicLayer, FactTemplate, validate_action
from .datatypes import Term, TypeDomain, Variable, by_name
from .errors import DefinitionError
from .multiset import EMPTY, Multiset
from .persistence import PersistenceLayer
from .query import FormulaPlan, Guard, Truth, free_vars, validate_query

#: An arc inscription: a multiset of term tuples.
Inscription = Multiset  # Multiset[tuple[Term, ...]]


def inscription_vars(inscription: Inscription) -> set[Variable]:
    return {
        term
        for tup in inscription.distinct()
        for term in tup
        if isinstance(term, Variable)
    }


def term_key(term: Term):
    if isinstance(term, Variable):
        return (0, term.name, term.type_name, term.fresh)
    return (1, term.type_name, term.payload)


def tuple_key(tup: tuple[Term, ...]):
    return tuple(term_key(t) for t in tup)


@dataclass(frozen=True)
class Place:
    name: str
    kind: Literal["control", "view"]
    color: tuple[str, ...]
    query_name: Optional[str] = None


@dataclass(frozen=True)
class ActionBinding:
    """An action name plus the actual-parameter inscription."""

    action_name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Transition:
    name: str
    inputs: dict[str, Inscription] = field(default_factory=dict)
    outputs: dict[str, Inscription] = field(default_factory=dict)
    rollbacks: dict[str, Inscription] = field(default_factory=dict)
    guard: Guard = field(default_factory=Truth)
    action: Optional[ActionBinding] = None

    def in_vars(self) -> frozenset[Variable]:
        """Variables bound by matching tokens on input arcs."""
        out: set[Variable] = set()
        for inscription in self.inputs.values():
            out |= inscription_vars(inscription)
        return frozenset(out)

    def out_vars(self) -> frozenset[Variable]:
        """Variables of the action binding and of all output-side arcs."""
        out: set[Variable] = set()
        if self.action is not None:
            out |= {t for t in self.action.args if isinstance(t, Variable)}
        for arcs in (self.outputs, self.rollbacks):
            for inscription in arcs.values():
                out |= inscription_vars(inscription)
        return frozenset(out)

    def fresh_vars(self) -> frozenset[Variable]:
        return frozenset(v for v in self.out_vars() if v.fresh)

    def external_vars(self) -> frozenset[Variable]:
        """Output-side variables not bound by any input arc."""
        return self.out_vars() - self.in_vars()

    def variables(self) -> frozenset[Variable]:
        return self.in_vars() | self.out_vars()


class DbNet:
    """The assembled four-layer bundle.

    Constraints and view queries are evaluated over the net's type domain:
    a persistence layer or query defined over another one (or over none) is
    rebound to `types`.
    """

    def __init__(
        self,
        types: TypeDomain,
        persistence: PersistenceLayer,
        logic: DataLogicLayer,
        places: Iterable[Place],
        transitions: Iterable[Transition],
    ):
        self.types = types
        if persistence.types is not types:
            persistence = PersistenceLayer(persistence.schema, persistence.constraints, types)
        self.persistence = persistence
        if any(q.types is not types for q in logic.queries.values()):
            queries = [replace(q, types=types) for q in logic.queries.values()]
            logic = DataLogicLayer(queries, logic.actions.values())
        self.logic = logic
        self.places: dict[str, Place] = by_name(places, "place")
        self.transitions: dict[str, Transition] = by_name(transitions, "transition")
        self._control_places = tuple(p for p in self.places.values() if p.kind == "control")
        self._view_places = tuple(p for p in self.places.values() if p.kind == "view")
        self._sorted_transitions = tuple(self.transitions[name] for name in sorted(self.transitions))
        self._compiled: dict[str, CompiledTransition] = {}

    def control_places(self) -> tuple[Place, ...]:
        return self._control_places

    def view_places(self) -> tuple[Place, ...]:
        return self._view_places

    def sorted_transitions(self) -> tuple[Transition, ...]:
        return self._sorted_transitions

    def compiled(self, t: Transition) -> "CompiledTransition":
        """The static firing data of `t`, derived on first use and kept for
        the net's own transitions (a foreign `t` is compiled on every call)."""
        c = self._compiled.get(t.name)
        if c is None or c.transition is not t:
            c = compile_transition(self, t)
            if self.transitions.get(t.name) is t:
                self._compiled[t.name] = c
        return c


@dataclass(frozen=True)
class CompiledTransition:
    """What binding enumeration, enablement and firing need of a transition,
    computed once instead of on every call."""

    transition: Transition
    #: One matching slot (input place, inscription tuple, multiplicity,
    #: binds) per distinct tuple, in canonical arc/tuple order. All
    #: occurrences of a tuple bind the same token, since the first binds all
    #: its variables; `binds` is False when an earlier slot binds them all.
    slots: tuple[tuple[str, tuple[Term, ...], int, bool], ...]
    variables: frozenset[Variable]
    #: Non-fresh output-side variables bound by no input arc, sorted.
    external: tuple[Variable, ...]
    fresh: tuple[Variable, ...]  # sorted
    #: The guard as a query over the empty instance; None when it is `Truth`.
    guard: Optional[FormulaPlan]
    #: The bound action (None without one) and its add and delete
    #: templates with the transition's arguments in place of its parameters.
    action: Optional[Action]
    adds: tuple[FactTemplate, ...]
    dels: tuple[FactTemplate, ...]
    #: (control place, input, output, rollback inscription) for every
    #: control place an arc of the transition touches.
    arcs: tuple[tuple[str, Inscription, Inscription, Inscription], ...]


def compile_transition(net: DbNet, t: Transition) -> CompiledTransition:
    slots, bound = [], set()
    for place_name in sorted(t.inputs):
        for tup, mult in t.inputs[place_name].sorted_items(tuple_key):
            new = {term for term in tup if isinstance(term, Variable)} - bound
            slots.append((place_name, tup, mult, bool(new)))
            bound |= new
    fresh = t.fresh_vars()
    action, adds, dels = _bound_action(net, t)
    touched = sorted(
        name
        for name in set(t.inputs) | set(t.outputs) | set(t.rollbacks)
        if name in net.places and net.places[name].kind == "control"
    )
    return CompiledTransition(
        transition=t,
        slots=tuple(slots),
        variables=t.variables(),
        external=tuple(sorted(t.external_vars() - fresh)),
        fresh=tuple(sorted(fresh)),
        guard=None if isinstance(t.guard, Truth) else FormulaPlan(t.guard, net.types),
        action=action,
        adds=adds,
        dels=dels,
        arcs=tuple(
            (
                name,
                t.inputs.get(name, EMPTY),
                t.outputs.get(name, EMPTY),
                t.rollbacks.get(name, EMPTY),
            )
            for name in touched
        ),
    )


def _bound_action(net: DbNet, t: Transition):
    """The action `t` invokes and its add and delete templates over `t`'s
    arguments; a DefinitionError if the action is unknown or an argument
    does not fit its parameter."""
    if t.action is None:
        return None, (), ()
    action = net.logic.actions.get(t.action.action_name)
    if action is None:
        problems = ["unknown action"]
    else:
        problems = net.types.mismatches(t.action.args, tuple(p.type_name for p in action.params))
    if problems:
        raise DefinitionError(f"transition {t.name!r}, action {t.action.action_name!r}: {problems[0]}")
    args = dict(zip(action.params, t.action.args))
    return (
        action,
        tuple(tpl.substitute(args) for tpl in action.adds),
        tuple(tpl.substitute(args) for tpl in action.dels),
    )


@dataclass(frozen=True)
class NetDiagnostic:
    severity: Literal["error", "warning"]
    path: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {' / '.join(self.path)}: {self.message}"


def validate_net(net: DbNet) -> list[NetDiagnostic]:
    """Check every well-typedness clause; an empty list means a valid net.

    Warnings do not make the net invalid; they flag constructs that are
    well-formed but cannot ever fire (e.g. a view-place inscription that
    needs the same answer twice).
    """
    diags: list[NetDiagnostic] = []

    def error(path: tuple[str, ...], message: str) -> None:
        diags.append(NetDiagnostic("error", path, message))

    def warning(path: tuple[str, ...], message: str) -> None:
        diags.append(NetDiagnostic("warning", path, message))

    schema = net.persistence.schema

    # Cross-namespace sanity.
    for rel in schema.relations.values():
        try:
            net.types.type_of_predicate(rel.name)
        except DefinitionError:
            pass
        else:
            error(("schema", rel.name), "relation name collides with a predicate name")
        for col in rel.column_types:
            if col not in net.types:
                error(("schema", rel.name), f"unknown column type {col!r}")
    overlap = set(net.places) & set(net.transitions)
    for name in sorted(overlap):
        error(("net", name), "place and transition share a name")

    for c in net.persistence.constraints:
        for problem in validate_query(c.query, schema, net.types):
            error(("constraints", c.name), problem)

    for q in net.logic.queries.values():
        for problem in validate_query(q.body, schema, net.types):
            error(("queries", q.name), problem)
        for p in q.params:
            if p.type_name not in net.types:
                error(("queries", q.name), f"parameter {p.name!r} has unknown type")

    for a in net.logic.actions.values():
        for problem in validate_action(a, schema, net.types):
            error(("actions", a.name), problem)
        for p in a.params:
            if p.type_name not in net.types:
                error(("actions", a.name), f"parameter {p.name!r} has unknown type")

    for place in net.places.values():
        path = ("place", place.name)
        for col in place.color:
            if col not in net.types:
                error(path, f"unknown color type {col!r}")
        if place.kind == "view":
            if place.query_name is None:
                error(path, "view place has no assigned query")
            elif place.query_name not in net.logic.queries:
                error(path, f"unknown query {place.query_name!r}")
            else:
                q = net.logic.queries[place.query_name]
                expected = tuple(p.type_name for p in q.params)
                if place.color != expected:
                    error(
                        path,
                        f"color {place.color} does not component-wise match the "
                        f"types {expected} of the free variables of {q.name!r}",
                    )
        elif place.query_name is not None:
            error(path, "control place cannot have a query assignment")

    for t in net.transitions.values():
        _validate_transition(net, t, error, warning)

    return diags


def _check_terms(
    net: DbNet, terms: tuple[Term, ...], type_names: tuple[str, ...], path, error, *, input_arc=False
) -> None:
    """Report a control-layer term tuple's fresh variables that sit on an
    input arc or have a finite type, each once, then its signature problems."""
    for term in dict.fromkeys(terms):
        if isinstance(term, Variable) and term.fresh:
            if input_arc:
                error(path, f"fresh variable {term.name!r} not allowed on an input arc")
            if term.type_name in net.types and not net.types.type(term.type_name).is_infinite:
                error(path, f"fresh variable {term.name!r} has a finite type")
    for problem in net.types.mismatches(terms, type_names):
        error(path, problem)


def _validate_transition(net: DbNet, t: Transition, error, warning) -> None:
    base = ("transition", t.name)

    for place_name, inscription in t.inputs.items():
        path = base + (f"input arc from {place_name!r}",)
        if place_name not in net.places:
            error(path, "unknown place")
            continue
        place = net.places[place_name]
        for tup, mult in inscription.items():
            _check_terms(net, tup, place.color, path, error, input_arc=True)
            if place.kind == "view" and mult > 1:
                warning(
                    path,
                    f"inscription tuple has multiplicity {mult}, but a view place "
                    "holds every answer exactly once; this arc can never be matched",
                )

    for label, arcs in (("output arc", t.outputs), ("rollback arc", t.rollbacks)):
        for place_name, inscription in arcs.items():
            path = base + (f"{label} to {place_name!r}",)
            if place_name not in net.places:
                error(path, "unknown place")
                continue
            place = net.places[place_name]
            if place.kind != "control":
                error(path, "output and rollback arcs may target control places only")
                continue
            for tup, _ in inscription.items():
                _check_terms(net, tup, place.color, path, error)

    if t.rollbacks and t.action is None:
        error(
            base + ("rollback arcs",),
            "rollback arcs require an action binding: an action-less firing "
            "always succeeds, so the rollback flow could never be taken",
        )

    guard_path = base + ("guard",)
    for problem in validate_query(
        t.guard, net.persistence.schema, net.types, allow_relations=False, allow_quantifiers=False
    ):
        error(guard_path, problem)
    in_vars = t.in_vars()
    for v in free_vars(t.guard):
        if v not in in_vars:
            error(guard_path, f"guard variable {v.name!r} is not bound by any input arc")

    if t.action is not None:
        path = base + (f"action {t.action.action_name!r}",)
        if t.action.action_name not in net.logic.actions:
            error(path, "unknown action")
        else:
            params = net.logic.actions[t.action.action_name].params
            _check_terms(net, t.action.args, tuple(p.type_name for p in params), path, error)
