"""Operational semantics: snapshots, binding enumeration, firing, and the
bounded breadth-first construction of the labeled transition system.

A snapshot pairs a compliant database instance with a marking whose view
places hold exactly the answers of their assigned queries. Firing consumes
control tokens matched by the input inscriptions, applies the induced action
instance transactionally, and routes output tokens along the normal or the
rollback flow depending on whether the update committed.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .control import DbNet, Inscription, Transition
from .datalogic import ActionInstance, apply_raw, ground
from .datatypes import (
    Substitution,
    Value,
    Variable,
    apply_substitution,
    fresh_value,
    payload_from_json,
    render_literal,
)
from .errors import BindingError, ConfigError, DefinitionError
from .multiset import EMPTY, Multiset
from .persistence import (
    DatabaseInstance,
    check_compliance,
    instance_to_text,
    validate_instance,
    value_to_json,
)
from .query import answers

Token = tuple[Value, ...]

#: Values offered for external ("arbitrary input") variables, per type name.
InputDomains = Mapping[str, Sequence[Value]]

#: What guards are evaluated over: they mention no relation.
_NO_FACTS = DatabaseInstance()


class Marking:
    """An immutable distribution of tokens over places."""

    __slots__ = ("_places",)

    def __init__(self, places: Mapping[str, Multiset]):
        self._places: dict[str, Multiset] = {
            name: ms for name, ms in places.items() if ms
        }

    def tokens(self, place_name: str) -> Multiset:
        return self._places.get(place_name, EMPTY)

    def place_names(self) -> frozenset[str]:
        return frozenset(self._places)

    def updated(self, changes: Mapping[str, Multiset]) -> "Marking":
        """This marking with the given places replaced; the other places'
        multisets are shared, not copied."""
        places = dict(self._places)
        places.update(changes)
        return Marking(places)

    def active_domain(self, type_name: str) -> frozenset[Value]:
        return frozenset(
            v
            for ms in self._places.values()
            for token in ms.distinct()
            for v in token
            if v.type_name == type_name
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._places == other._places

    def __hash__(self) -> int:
        return hash(frozenset(self._places.items()))

    def __repr__(self) -> str:
        return f"Marking({self._places!r})"


@dataclass(frozen=True)
class Snapshot:
    """The global state of a db-net: database instance plus aligned marking."""

    instance: DatabaseInstance
    marking: Marking


def check_tokens(net: DbNet, place_name: str, tokens: Multiset) -> None:
    """Raise unless every token is compatible with the place color."""
    color = net.places[place_name].color
    for token in tokens.distinct():
        problems = net.types.mismatches(token, color)
        if problems:
            raise DefinitionError(f"token {token!r} in {place_name!r}: {problems[0]}")


def align_view_places(net: DbNet, instance: DatabaseInstance) -> dict[str, Multiset]:
    """Marking fragment holding, for each view place, exactly the answers of
    its query over `instance`, each with multiplicity one; kept in the
    instance's memo, so markings over one instance share it (read only)."""
    fragment = instance.cached(net)
    if fragment is None:
        fragment = instance.store(net, {
            place.name: Multiset(answers(net.logic.queries[place.query_name], instance))
            for place in net.view_places()
        })
    return fragment


def make_snapshot(
    net: DbNet,
    instance: DatabaseInstance,
    control_tokens: Mapping[str, Multiset] = (),
) -> Snapshot:
    """Build and check a snapshot; view places are computed, never supplied."""
    validate_instance(net.persistence.schema, net.types, instance)
    report = check_compliance(net.persistence, instance)
    if not report.ok:
        raise DefinitionError(
            f"instance violates constraints: {', '.join(report.violated)}"
        )
    entries: dict[str, Multiset] = {}
    for place_name, tokens in dict(control_tokens).items():
        if place_name not in net.places:
            raise DefinitionError(f"unknown place {place_name!r} in marking")
        if net.places[place_name].kind != "control":
            raise DefinitionError(
                f"place {place_name!r} is a view place; its marking is computed "
                "from the database instance and cannot be set"
            )
        check_tokens(net, place_name, tokens)
        entries[place_name] = tokens
    entries.update(align_view_places(net, instance))
    return Snapshot(instance, Marking(entries))


def inscription_binding(inscription: Inscription, theta: Substitution) -> Multiset:
    """Substitute every tuple of the inscription, preserving multiplicities."""
    counts: dict[Token, int] = {}
    for tup, mult in inscription.items():
        token = tuple(apply_substitution(term, theta) for term in tup)
        counts[token] = counts.get(token, 0) + mult
    return Multiset.from_counts(counts)


def snapshot_active_domain(snap: Snapshot, type_name: str) -> frozenset[Value]:
    return snap.instance.active_domain(type_name) | snap.marking.active_domain(type_name)


def is_enabled(net: DbNet, snap: Snapshot, t: Transition, sigma: Substitution) -> bool:
    """The three enablement clauses: token matching, guard, freshness; a
    BindingError if `sigma` misses a variable of `t` or maps one outside its type."""
    compiled = net.compiled(t)
    for v in compiled.variables:
        if v not in sigma:
            raise BindingError(f"binding does not cover {v!r}")
        problems = net.types.mismatches((sigma[v],), (v.type_name,))
        if problems:
            raise BindingError(f"binding maps {v!r} to {sigma[v]!r}: {problems[0]}")
    for place_name, inscription in t.inputs.items():
        if not snap.marking.tokens(place_name).includes(inscription_binding(inscription, sigma)):
            return False
    if compiled.guard is not None and not compiled.guard.holds(_NO_FACTS, sigma):
        return False
    fresh = compiled.fresh
    chosen = [sigma[v] for v in fresh]
    if len(set(chosen)) != len(chosen):
        return False
    for v in fresh:
        if sigma[v] in snapshot_active_domain(snap, v.type_name):
            return False
    return True


def induced_action_instance(
    net: DbNet, t: Transition, sigma: Substitution
) -> Optional[ActionInstance]:
    """Ground the bound action's compiled templates with sigma, if the
    transition has an action."""
    compiled = net.compiled(t)
    if compiled.action is None:
        return None
    return ground(compiled.action, compiled.adds, compiled.dels, sigma)


def _extensions(slot, tokens: list[tuple[Token, int]], sigma: Substitution, used: dict):
    """Each way of matching one slot against its place's `tokens`, in token
    order: sigma extended to unify the slot's tuple with a token (a copy when
    a variable gets bound, else sigma itself), while `used` counts the token
    taken until the next extension is asked for."""
    place_name, tup, mult, _ = slot
    for token, avail in tokens:
        key = (place_name, token)
        n = used.get(key, 0) + mult
        if n > avail:
            continue
        ext = sigma
        for term, value in zip(tup, token):
            if isinstance(term, Variable):
                current = ext.get(term)
                if current is None:
                    if ext is sigma:
                        ext = dict(sigma)
                    ext[term] = value
                elif current != value:
                    break
            elif term != value:
                break
        else:
            used[key] = n
            yield ext
            used[key] = n - mult


def external_pools(net: DbNet, t: Transition, domains: InputDomains) -> list[Sequence[Value]]:
    """The input domain of each external normal variable of `t`, in the
    compiled order; a ConfigError names the first variable without one, or
    a value of its domain that is not of its type."""
    pools = []
    for v in net.compiled(t).external:
        pool = domains.get(v.type_name)
        if pool is None:
            raise ConfigError(
                f"transition {t.name!r}: external variable {v.name!r} needs an "
                f"input domain for type {v.type_name!r}"
            )
        for value in pool:
            problems = net.types.mismatches((value,), (v.type_name,))
            if problems:
                raise ConfigError(f"input domain for type {v.type_name!r}: {value!r}: {problems[0]}")
        pools.append(pool)
    return pools


def enumerate_bindings(
    net: DbNet,
    snap: Snapshot,
    t: Transition,
    domains: InputDomains | None = None,
) -> list[Substitution]:
    """All enabled bindings of `t` in `snap`, in a canonical order.

    Input variables are bound by matching tokens arc by arc; external normal
    variables range over the configured per-type input domains; each fresh
    variable receives one deterministically generated value.

    Fresh values are new with respect to the pre-state only: they avoid the
    instance's and the marking's active domains, and each other, so every
    binding of one call gets the same ones.
    """
    domains = domains or {}
    compiled = net.compiled(t)
    slots, marking = compiled.slots, snap.marking
    sorted_tokens = {p: sorted(marking.tokens(p).items()) for p, _, _, binds in slots if binds}

    # Depth-first over the slots, one iterator per slot on an explicit stack,
    # so that the number of slots is not bounded by the interpreter's stack.
    # Distinct matches are distinct dicts: a slot that binds no variable
    # matches at most one token, which is looked up instead of scanned for.
    matched: list[Substitution] = []
    used: dict[tuple[str, Token], int] = {}
    stack = [iter([{}])]
    while stack:
        sigma = next(stack[-1], None)
        if sigma is None:
            stack.pop()
        elif len(stack) > len(slots):
            matched.append(sigma)
        else:
            slot = slots[len(stack) - 1]
            place_name, tup, _, binds = slot
            if binds:
                tokens = sorted_tokens[place_name]
            else:
                token = tuple(apply_substitution(term, sigma) for term in tup)
                tokens = [(token, marking.tokens(place_name).count(token))]
            stack.append(_extensions(slot, tokens, sigma, used))

    out: list[Substitution] = []
    external, fresh, guard = compiled.external, compiled.fresh, compiled.guard
    pools: list[Sequence[Value]] | None = None
    for base in matched:
        if guard is not None and not guard.holds(_NO_FACTS, base):
            continue
        if pools is None:
            pools = external_pools(net, t, domains)
            fresh_values: dict[Variable, Value] = {}
            for v in fresh:
                taken = snapshot_active_domain(snap, v.type_name) | set(fresh_values.values())
                fresh_values[v] = fresh_value(net.types.type(v.type_name), taken)
        for combo in itertools.product(*pools):
            full = dict(base)
            full.update(zip(external, combo))
            full.update(fresh_values)
            out.append(full)
    return out


def fire(
    net: DbNet,
    snap: Snapshot,
    t: Transition,
    sigma: Substitution,
    *,
    check: bool = True,
    intern: Callable[[DatabaseInstance], DatabaseInstance] | None = None,
) -> tuple[Snapshot, bool]:
    """Fire `t` under binding `sigma`.

    The database is updated through the induced action instance (identity
    when the transition has no action), which commits only when the result
    satisfies every constraint and otherwise rolls back, leaving the
    instance unchanged; the control marking follows
    m2(p) = (m1(p) - in) + k*out + (1-k)*rollback with k = 1 iff committed;
    view places are realigned against the resulting instance. Only the
    control places the transition's arcs touch are rebuilt.
    """
    if check and not is_enabled(net, snap, t, sigma):
        raise BindingError(f"transition {t.name!r} is not enabled under {sigma!r}")
    induced = induced_action_instance(net, t, sigma)
    if induced is None:
        instance2, committed = snap.instance, True
    else:
        candidate = apply_raw(induced, snap.instance)
        if intern is not None:
            candidate = intern(candidate)
        if check_compliance(net.persistence, candidate).ok:
            instance2, committed = candidate, True
        else:
            instance2, committed = snap.instance, False
    changes: dict[str, Multiset] = {}
    for place_name, w_in, w_out, w_rb in net.compiled(t).arcs:
        m2 = snap.marking.tokens(place_name)
        if w_in:
            m2 = m2 - inscription_binding(w_in, sigma)
        w_k = w_out if committed else w_rb
        if w_k:
            m2 = m2 + inscription_binding(w_k, sigma)
        changes[place_name] = m2
    changes.update(align_view_places(net, instance2))
    return Snapshot(instance2, snap.marking.updated(changes)), committed


def enabled_firings(
    net: DbNet,
    snap: Snapshot,
    domains: InputDomains | None = None,
) -> list[tuple[Transition, Substitution]]:
    """Every enabled (transition, binding) pair, transitions in name order."""
    out = []
    for t in net.sorted_transitions():
        for sigma in enumerate_bindings(net, snap, t, domains):
            out.append((t, sigma))
    return out


# --- canonical forms and digests ---------------------------------------------


def token_text(token: Token) -> str:
    return "<" + ", ".join(render_literal(v) for v in token) + ">"


def marking_text(marking: Marking) -> str:
    lines = []
    for name in sorted(marking.place_names()):
        ms = marking.tokens(name)
        body = ", ".join(
            f"{n} * {token_text(tok)}" if n > 1 else token_text(tok)
            for tok, n in sorted(ms.items())
        )
        lines.append(f"{name}: {body}\n")
    return "".join(lines)


def snapshot_digest(net: DbNet, snap: Snapshot) -> str:
    """A process-independent fingerprint of the snapshot's canonical form."""
    text = instance_to_text(snap.instance) + "--\n" + marking_text(snap.marking)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def state_key(net: DbNet, snap: Snapshot):
    """Hashable identity used for deduplication: instance plus control
    marking, place by place in the net's order (view places are functionally
    dependent and excluded)."""
    return (snap.instance.facts, tuple(snap.marking.tokens(p.name) for p in net.control_places()))


# --- bounded exploration ------------------------------------------------------


@dataclass
class LTS:
    """The explored fragment of the snapshot transition graph: its states
    in BFS order, their depths and parent pointers, and the number of edges
    fired between them (the edges themselves are not kept)."""

    snapshots: list[Snapshot]
    depths: list[int]
    parents: list[Optional[tuple[int, str, Substitution, bool]]]
    edge_count: int = 0
    initial: int = 0
    truncation_reason: str = ""
    goal_state: Optional[int] = None

    @property
    def state_count(self) -> int:
        return len(self.snapshots)

    @property
    def truncated(self) -> bool:
        return bool(self.truncation_reason)

    def monitors(self) -> dict[str, int]:
        """Width/depth boundedness observations over all stored states."""
        return {
            "max_place_tokens": max(
                (snap.marking.tokens(name).size() for snap in self.snapshots for name in snap.marking.place_names()),
                default=0,
            ),
            "max_instance_facts": max(len(snap.instance) for snap in self.snapshots),
            "max_depth": self.depths[-1],
        }

    def witness_path(self) -> list[tuple[str, Substitution, bool]]:
        """Firing sequence from the initial state to the goal state."""
        if self.goal_state is None:
            return []
        path = []
        sid = self.goal_state
        while self.parents[sid] is not None:
            parent, tname, sigma, committed = self.parents[sid]
            path.append((tname, sigma, committed))
            sid = parent
        path.reverse()
        return path


class InstanceInterner:
    """Canonicalizes equal instances to one object so that its memo is
    shared across the whole exploration."""

    def __init__(self) -> None:
        self._store: dict[frozenset, DatabaseInstance] = {}

    def __call__(self, instance: DatabaseInstance) -> DatabaseInstance:
        return self._store.setdefault(instance.facts, instance)


def build_lts(
    net: DbNet,
    s0: Snapshot,
    *,
    domains: InputDomains | None = None,
    max_states: int | None = None,
    max_depth: int | None = None,
    goal: Callable[[Snapshot], bool] | None = None,
) -> LTS:
    """Breadth-first closure of `fire` over all enabled bindings.

    States are deduplicated by (instance, control marking) and stored in
    discovery order, which is BFS order, so the walk expands them by index.
    Each state's successors are generated in a fixed order (transitions by
    name, then bindings in canonical order) and merged as they come: firing
    stops at the first successor that would exceed `max_states`. Depths never
    decrease along the stored states, so `max_depth` stops the walk at the
    first state of that depth. It truncates the exploration only if one of
    the states left unexpanded has an enabled firing; none is fired.
    """
    intern = InstanceInterner()
    s0 = Snapshot(intern(s0.instance), s0.marking)
    lts = LTS(snapshots=[s0], depths=[0], parents=[None])
    seen = {state_key(net, s0)}
    if goal is not None and goal(s0):
        lts.goal_state = 0

    # The list iterator also yields the states appended during the walk.
    for sid, snap in enumerate(lts.snapshots):
        depth = lts.depths[sid]
        if max_depth is not None and depth >= max_depth:
            if any(enabled_firings(net, s, domains) for s in lts.snapshots[sid:]):
                lts.truncation_reason = "depth budget reached"
            break
        for t, sigma in enabled_firings(net, snap, domains):
            snap2, committed = fire(net, snap, t, sigma, check=False, intern=intern)
            key = state_key(net, snap2)
            if key not in seen:
                if max_states is not None and len(lts.snapshots) >= max_states:
                    lts.truncation_reason = "state budget reached"
                    return lts
                seen.add(key)
                if goal is not None and lts.goal_state is None and goal(snap2):
                    lts.goal_state = len(lts.snapshots)
                lts.snapshots.append(snap2)
                lts.depths.append(depth + 1)
                lts.parents.append((sid, t.name, sigma, committed))
            lts.edge_count += 1
    return lts


# --- trace records ------------------------------------------------------------


def value_json(value: Value) -> dict:
    return {"type": value.type_name, "value": value_to_json(value)}


def value_from_json(data: dict) -> Value:
    return payload_from_json(data["value"], data["type"])


def binding_to_json(sigma: Substitution) -> dict:
    return {v.name: value_json(val) for v, val in sorted(sigma.items(), key=lambda kv: kv[0].name)}


def binding_from_json(t: Transition, data: Mapping[str, dict]) -> Substitution:
    by_name = {v.name: v for v in t.variables()}
    sigma: Substitution = {}
    for name, cell in data.items():
        if name not in by_name:
            raise BindingError(f"transition {t.name!r} has no variable {name!r}")
        sigma[by_name[name]] = value_from_json(cell)
    return sigma


def fact_json(fact) -> dict:
    return {"relation": fact.relation, "args": [value_json(a) for a in fact.args]}


def _surplus(more: Multiset, less: Multiset) -> list[dict]:
    """Each token that `more` holds more often than `less`, with the excess."""
    return [
        {"token": [value_json(v) for v in tok], "count": n - less.count(tok)}
        for tok, n in sorted(more.items())
        if n > less.count(tok)
    ]


def marking_delta(before: Marking, after: Marking) -> dict:
    """Per-place token differences, canonically ordered."""
    delta: dict[str, dict] = {}
    for name in sorted(before.place_names() | after.place_names()):
        b, a = before.tokens(name), after.tokens(name)
        if a != b:
            delta[name] = {"added": _surplus(a, b), "removed": _surplus(b, a)}
    return delta


def firing_record(
    net: DbNet,
    step: int,
    t: Transition,
    sigma: Substitution,
    committed: bool,
    before: Snapshot,
    after: Snapshot,
) -> dict:
    """One JSONL trace record per firing."""
    added = sorted(after.instance.facts - before.instance.facts)
    deleted = sorted(before.instance.facts - after.instance.facts)
    return {
        "step": step,
        "transition": t.name,
        "binding": binding_to_json(sigma),
        "committed": committed,
        "added": [fact_json(f) for f in added],
        "deleted": [fact_json(f) for f in deleted],
        "marking_delta": marking_delta(before.marking, after.marking),
        "state": snapshot_digest(net, after),
    }
