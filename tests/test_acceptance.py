"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test carries the `acceptance` marker; a terminal-summary hook in
conftest.py prints one PASS/FAIL line per criterion at the end of the run.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from dbnet import dsl
from dbnet.cli import main
from dbnet.datatypes import Variable, int_value
from dbnet.multiset import Multiset
from dbnet.persistence import DatabaseInstance, PersistenceLayer
from dbnet.query import NamedQuery, answers
from dbnet.scenarios import scenario_path, scenario_text
from dbnet.semantics import (
    build_lts,
    enabled_firings,
    enumerate_bindings,
    fire,
    induced_action_instance,
    inscription_binding,
    snapshot_digest,
    state_key,
)

from generators import (
    random_action,
    random_compliant_instance,
    random_constraints,
    random_document,
    random_instance,
    random_query,
    random_schema,
)
from firings import action_net
from oracles import brute_compliant, brute_force_answers, naive_apply
from test_nupn import run_pair

TICKET = str(scenario_path("ticket"))


@pytest.fixture(scope="module")
def ticket_lts(ticket_scenario):
    """Criterion 4's exploration, shared with criterion 5."""
    goal_query = dsl.elaborate_formula(
        ticket_scenario,
        "exists t:int . exists e:string . exists d:string . Log(t, e, d)",
    )
    from dbnet.query import entails

    net = ticket_scenario.net
    goal = lambda snap: entails(snap.instance, {}, goal_query, types=net.types)
    started = time.perf_counter()
    lts = build_lts(
        net,
        ticket_scenario.initial,
        domains=ticket_scenario.domains,
        max_states=5000,
        goal=goal,
    )
    elapsed = time.perf_counter() - started
    return lts, elapsed


@pytest.mark.acceptance("criterion 1 (inscription-binding golden case)")
def test_criterion_1_inscription_binding_golden():
    x, y = Variable("x", "int"), Variable("y", "int")
    omega = Multiset([(x, y), (x, y), (x, int_value(1))])
    theta = {x: int_value(1), y: int_value(2)}
    expected = Multiset(
        [
            (int_value(1), int_value(2)),
            (int_value(1), int_value(2)),
            (int_value(1), int_value(1)),
        ]
    )
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        got = inscription_binding(omega, theta)
        timings.append(time.perf_counter() - started)
        assert got == expected
    assert min(timings) < 0.001, f"binding took {min(timings) * 1000:.3f} ms"


@pytest.mark.acceptance("criterion 2 (query evaluation vs brute-force oracle)")
def test_criterion_2_query_oracle_equivalence():
    rng = random.Random(424242)
    started = time.perf_counter()
    for case in range(1000):
        schema = random_schema(rng)
        instance = random_instance(rng, schema, max_facts=12)
        params, body = random_query(rng, schema, max_depth=4)
        named = NamedQuery(f"case{case}", params, body)
        got = answers(named, instance)
        expected = brute_force_answers(params, body, instance)
        assert got == expected, f"case {case} diverged"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f} s"


@pytest.mark.acceptance("criterion 3 (transactionality suite)")
def test_criterion_3_transactionality():
    """Random actions fired as the one transition of a net: `fire` decides
    commit or rollback, and routes the token accordingly."""
    rng = random.Random(31337)
    started = time.perf_counter()
    for case in range(1000):
        schema = random_schema(rng)
        constraints = random_constraints(rng, schema)
        layer = PersistenceLayer(schema, constraints)
        db = random_compliant_instance(rng, layer)
        assert brute_compliant(constraints, db)

        force_overlap = case % 5 == 0
        action, theta = random_action(rng, schema, force_overlap=force_overlap)
        net, before = action_net(layer, action, theta, db)
        t = net.transitions["t"]
        after, committed = fire(net, before, t, {})
        assert after.marking.tokens("done" if committed else "failed")

        raw = naive_apply(action, theta, db.facts)
        assert committed == brute_compliant(constraints, DatabaseInstance(raw))
        if committed:
            assert after.instance.facts == raw
            assert brute_compliant(constraints, after.instance)
        else:
            assert after.instance == before.instance  # rollback identity

        if force_overlap:
            inst = induced_action_instance(net, t, {})
            overlap = inst.added_facts & inst.deleted_facts
            assert overlap
            if committed:
                assert overlap <= after.instance.facts  # additions win over deletions
            assert overlap <= DatabaseInstance(raw).facts
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f} s"


@pytest.mark.acceptance("criterion 4 (ticket-scenario reachability)")
def test_criterion_4_ticket_reachability(ticket_scenario, ticket_lts):
    lts, elapsed = ticket_lts
    net = ticket_scenario.net
    assert elapsed < 10.0, f"exploration took {elapsed:.1f} s"
    assert lts.state_count == 5000 and lts.truncated
    assert lts.edge_count == 12212  # golden value from the first exhaustive run

    # The logging goal is reached...
    assert lts.goal_state is not None

    # ...and no reachable snapshot assigns two distinct tickets to one
    # employee (independent structural scan, not the compliance flag).
    for snap in lts.snapshots:
        tickets_of = defaultdict(set)
        for fact in snap.instance.facts:
            if fact.relation == "Resp":
                tickets_of[fact.args[0]].add(fact.args[1])
        assert all(len(ts) == 1 for ts in tickets_of.values())

    # The witness replays step for step onto the stored states.
    path_states = []
    sid = lts.goal_state
    while sid is not None:
        path_states.append(sid)
        parent = lts.parents[sid]
        sid = parent[0] if parent else None
    path_states.reverse()
    witness = lts.witness_path()
    assert witness, "expected a non-empty witness"
    assert any(
        net.transitions[name].action and net.transitions[name].action.action_name == "log"
        for name, _, _ in witness
    )
    snap = ticket_scenario.initial
    assert state_key(net, snap) == state_key(net, lts.snapshots[path_states[0]])
    for (name, sigma, committed), expected_sid in zip(witness, path_states[1:]):
        snap, got_committed = fire(net, snap, net.transitions[name], sigma)
        assert got_committed == committed
        assert state_key(net, snap) == state_key(net, lts.snapshots[expected_sid])
        assert snapshot_digest(net, snap) == snapshot_digest(net, lts.snapshots[expected_sid])


@pytest.mark.acceptance("criterion 5 (alignment and freshness invariants)")
def test_criterion_5_alignment_and_freshness(ticket_scenario, ticket_lts):
    lts, _ = ticket_lts
    net = ticket_scenario.net
    view_queries = {p.name: net.logic.queries[p.query_name] for p in net.view_places()}

    def check_alignment(snap):
        for name, named in view_queries.items():
            tokens = snap.marking.tokens(name)
            expected = brute_force_answers(named.params, named.body, snap.instance)
            assert set(tokens.distinct()) == set(expected)
            assert all(count == 1 for _, count in tokens.items())

    def check_freshness(pre, t, sigma):
        for v in t.fresh_vars():
            assert sigma[v] not in pre.instance.active_domain(v.type_name)
            assert sigma[v] not in pre.marking.active_domain(v.type_name)

    # Every explored state of criterion 4, and every enabled binding of each
    # that has fresh variables (a superset of the explored edges).
    with_fresh = [t for t in net.sorted_transitions() if t.fresh_vars()]
    for snap in lts.snapshots:
        check_alignment(snap)
        for t in with_fresh:
            for sigma in enumerate_bindings(net, snap, t, ticket_scenario.domains):
                check_freshness(snap, t, sigma)

    # Plus 50 seeded random runs of 200 steps.
    for seed in range(50):
        rng = random.Random(seed)
        snap = ticket_scenario.initial
        for _ in range(200):
            firings = enabled_firings(net, snap, ticket_scenario.domains)
            if not firings:
                break
            t, sigma = firings[rng.randrange(len(firings))]
            check_freshness(snap, t, sigma)
            snap, _ = fire(net, snap, t, sigma, check=False)
            check_alignment(snap)


@pytest.mark.acceptance("criterion 6 (determinism)")
def test_criterion_6_determinism(tmp_path):
    # Same scenario + seed + policy: byte-identical traces.
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (a, b):
        code = main(
            ["simulate", TICKET, "--seed", "42", "--steps", "10",
             "--policy", "random", "--out", str(target)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    # Exhaustive exploration and seeded simulation: the report and the traces
    # do not depend on the process (string hashing is salted per process
    # unless PYTHONHASHSEED fixes it).
    goal = "exists t:int . exists e:string . exists d:string . Log(t, e, d)"
    runs = {
        "explore": ["explore", TICKET, "--max-states", "5000", "--goal", goal],
        "simulate-ticket": ["simulate", TICKET, "--seed", "42", "--steps", "200"],
        "simulate-nu_demo": ["simulate", str(scenario_path("nu_demo")), "--seed", "42", "--steps", "200"],
    }
    for name, argv in runs.items():
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"{name}-h{hash_seed}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "dbnet", *argv, "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} depends on the process"


@pytest.mark.acceptance("criterion 7 (nu-net subsumption demo)")
def test_criterion_7_nu_net_demo(nu_demo_scenario):
    started = time.perf_counter()
    for seed in range(50):
        engine_seq, ref_seq = run_pair(nu_demo_scenario, seed, steps=30)
        assert engine_seq == ref_seq, f"state sequences diverge at seed {seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.1f} s"


@pytest.mark.acceptance("criterion 8 (DSL round-trip)")
def test_criterion_8_dsl_round_trip():
    for name in ("ticket", "nu_demo", "relay"):
        doc = dsl.parse(scenario_text(name))
        assert dsl.parse(dsl.serialize(doc)) == doc

    rng = random.Random(88)
    for case in range(500):
        doc = random_document(rng)
        text = dsl.serialize(doc)
        assert dsl.parse(text) == doc, f"document {case} failed to round-trip"
