"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written from the textbook definitions with
its own predicate table and its own evaluation mechanics (ground-and-check
instead of environment passing), so a bug in the engine cannot hide in a
shared code path.
"""

from __future__ import annotations

import itertools
from collections import Counter

from dbnet.datatypes import Value, Variable, fresh_value
from dbnet.persistence import DatabaseInstance, Fact
from dbnet.query import And, Exists, Not, PredicateAtom, RelationAtom, Truth

# A predicate table of our own, independent of dbnet.datatypes.
PREDICATES = {
    "=_s": lambda a, b: a == b,
    "=_int": lambda a, b: a == b,
    "<_int": lambda a, b: a < b,
    "succ": lambda a, b: b == a + 1,
    "=_r": lambda a, b: a == b,
    "<_r": lambda a, b: a < b,
    "=_bool": lambda a, b: a == b,
}


def brute_active_domain(instance: DatabaseInstance, type_name: str) -> list[Value]:
    """Independent scan over the facts, sorted for reproducibility."""
    values = {v for f in instance.facts for v in f.args if v.type_name == type_name}
    return sorted(values, key=lambda v: str(v.payload))


def satisfies(instance: DatabaseInstance, env: dict, query) -> bool:
    """Textbook FO satisfaction, relativized to the active domain."""
    if isinstance(query, Truth):
        return True
    if isinstance(query, RelationAtom):
        args = tuple(env[a] if isinstance(a, Variable) else a for a in query.args)
        return Fact(query.relation, args) in instance.facts
    if isinstance(query, PredicateAtom):
        args = [env[a] if isinstance(a, Variable) else a for a in query.args]
        return PREDICATES[query.pred](*(a.payload for a in args))
    if isinstance(query, Not):
        return not satisfies(instance, env, query.body)
    if isinstance(query, And):
        return satisfies(instance, env, query.left) and satisfies(instance, env, query.right)
    if isinstance(query, Exists):
        for value in brute_active_domain(instance, query.var.type_name):
            extended = dict(env)
            extended[query.var] = value
            if satisfies(instance, extended, query.body):
                return True
        return False
    raise AssertionError(f"unexpected node {query!r}")


def brute_force_answers(
    params: tuple[Variable, ...], body, instance: DatabaseInstance
) -> frozenset[tuple[Value, ...]]:
    """Enumerate every substitution over the typed active-domain product and
    keep the ones under which the body is satisfied."""
    pools = [brute_active_domain(instance, p.type_name) for p in params]
    out = set()
    for combo in itertools.product(*pools):
        env = dict(zip(params, combo))
        if satisfies(instance, env, body):
            out.add(tuple(combo))
    return frozenset(out)


def brute_compliant(constraints, instance: DatabaseInstance) -> bool:
    return all(satisfies(instance, {}, c.query) for c in constraints)


def naive_apply(action, theta: dict, facts: frozenset[Fact]) -> frozenset[Fact]:
    """Ground both template sets and compute (I - dels) | adds by hand."""

    def ground(tpl) -> Fact:
        args = tuple(theta[a] if isinstance(a, Variable) else a for a in tpl.args)
        return Fact(tpl.relation, args)

    removed = {ground(t) for t in action.dels}
    added = {ground(t) for t in action.adds}
    return frozenset((set(facts) - removed) | added)


def snapshot_key(snap) -> tuple:
    """A snapshot as (facts, {(place, {(token, count)})}) over every place
    that holds a token, view places included."""
    marking = frozenset(
        (name, frozenset(snap.marking.tokens(name).items())) for name in snap.marking.place_names()
    )
    return snap.instance.facts, marking


def reference_successors(net, snap, domains) -> list[tuple]:
    """(transition name, binding, committed, successor key) for every enabled
    firing of `snap`, computed from the definitions, in no fixed order.

    Input variables range over the snapshot's active domain and external ones
    over `domains`; a binding is enabled when its input tokens are included in
    the marking and the guard holds. Fresh variables take `fresh_value` in
    name order. The update (I - F-) | F+ is kept only when it satisfies every
    constraint; the tokens then take the output arcs, otherwise the rollback
    arcs. View places hold their queries' answers over the new instance.
    """
    facts = snap.instance.facts
    marking = {
        name: Counter(dict(snap.marking.tokens(name).items())) for name in snap.marking.place_names()
    }
    adom = {v for f in facts for v in f.args}
    adom |= {v for c in marking.values() for token in c for v in token}

    def tokens(inscription, sigma) -> Counter:
        out = Counter()
        for tup, n in inscription.items():
            out[tuple(sigma[a] if isinstance(a, Variable) else a for a in tup)] += n
        return out

    def by_name(v: Variable):
        return v.name, v.type_name

    out = []
    for t in net.transitions.values():
        inputs = sorted(t.in_vars(), key=by_name)
        external = sorted(t.variables() - t.in_vars() - t.fresh_vars(), key=by_name)
        pools = [[a for a in adom if a.type_name == v.type_name] for v in inputs]
        pools += [domains[v.type_name] for v in external]
        for combo in itertools.product(*pools):
            sigma = dict(zip(inputs + external, combo))
            if not all(tokens(w, sigma) <= marking.get(p, Counter()) for p, w in t.inputs.items()):
                continue
            if not satisfies(DatabaseInstance(), sigma, t.guard):
                continue
            taken = set(adom)
            for v in sorted(t.fresh_vars(), key=by_name):
                sigma[v] = fresh_value(net.types.type(v.type_name), taken)
                taken.add(sigma[v])

            new, committed = facts, True
            if t.action is not None:
                action = net.logic.actions[t.action.action_name]
                args = (sigma[a] if isinstance(a, Variable) else a for a in t.action.args)
                theta = dict(zip(action.params, args))
                raw = naive_apply(action, theta, facts)
                committed = brute_compliant(net.persistence.constraints, DatabaseInstance(raw))
                if committed:
                    new = raw

            after = {p: c for p, c in marking.items() if net.places[p].kind == "control"}
            for p, w in t.inputs.items():
                if net.places[p].kind == "control":
                    after[p] = after.get(p, Counter()) - tokens(w, sigma)
            for p, w in (t.outputs if committed else t.rollbacks).items():
                after[p] = after.get(p, Counter()) + tokens(w, sigma)
            for place in net.places.values():
                if place.kind == "view":
                    q = net.logic.queries[place.query_name]
                    answers = brute_force_answers(q.params, q.body, DatabaseInstance(new))
                    after[place.name] = Counter(answers)
            key = (new, frozenset((p, frozenset(c.items())) for p, c in after.items() if c))
            out.append((t.name, frozenset(sigma.items()), committed, key))
    return out
