"""Self-tests of the benchmark harness (not of the engine).

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

import pytest

from dbnet import dsl, semantics
from dbnet.scenarios import scenario_text

import workloads
from ticket_family import scaled_ticket
from tracing import WRAPPED, Tracer, traced
from verify import Oracle, Pinned

TICKET = scenario_text("ticket")
SMALL = workloads.Explore("small", None, 300, None, Pinned(300, 543, "state budget reached", True), 1)


def test_family_at_2x1x1_is_the_bundled_scenario():
    bundled = dsl.elaborate(dsl.parse(TICKET))
    generated = dsl.elaborate(dsl.parse(scaled_ticket(TICKET, 2, 1, 1)))
    assert not generated.warnings

    def without_init(doc):
        return dataclasses.replace(doc, init_facts=(), init_marking=())

    assert without_init(generated.document) == without_init(bundled.document)
    net = bundled.net
    assert semantics.state_key(net, generated.initial) == semantics.state_key(net, bundled.initial)
    assert semantics.snapshot_digest(net, generated.initial) == semantics.snapshot_digest(net, bundled.initial)


def test_family_8x6_elaborates_without_diagnostics():
    scenario = dsl.elaborate(dsl.parse(scaled_ticket(TICKET, 8, 6, 3)))
    assert not scenario.warnings
    assert len(scenario.initial.instance) == 8 + 6 + 3
    assert len(scenario.initial.marking.tokens("busy")) == 3


def _originals():
    return {attr: getattr(semantics, attr) for attr in (*WRAPPED, "InstanceInterner")}


def test_tracing_restores_the_engine_even_on_error():
    before = _originals()
    run = workloads.ExploreRun(SMALL)
    run.op(0, Tracer())
    assert _originals() == before
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert semantics.fire is not before["fire"]
            raise RuntimeError("boom")
    assert all(getattr(semantics, attr) is fn for attr, fn in before.items())


def test_traced_and_untraced_explorations_agree():
    run = workloads.ExploreRun(SMALL)
    tracer = Tracer()
    plain, spanned = run.op(0, None), run.op(1, tracer)
    assert plain.problems == spanned.problems == []
    assert (plain.states, plain.edges) == (spanned.states, spanned.edges) == (300, 543)
    assert tracer.calls["semantics.fire"] >= spanned.edges
    # Self times plus the untraced remainder add up to the traced wall time.
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_s)
    assert tracer.top_s <= spanned.wall_s


def test_traced_and_untraced_simulations_agree(tmp_path):
    wl = workloads.Simulate("small", runs=2, steps=30)
    run = workloads.SimulateRun(wl, seed=5, workdir=tmp_path)
    # Each op checks its trace byte for byte against `dbnet simulate`.
    plain = [run.op(k, None) for k in range(2)]
    spanned = [run.op(k, Tracer()) for k in range(2)]
    assert [r.problems for r in plain + spanned] == [[]] * 4
    assert [r.steps for r in plain] == [r.steps for r in spanned] == [30, 30]


def test_wrong_pinned_value_fails_the_op():
    wrong = dataclasses.replace(SMALL, pinned=dataclasses.replace(SMALL.pinned, edges=542))
    tally = workloads.Tally()
    tally.attempt(workloads.ExploreRun(wrong), 0, None)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_oracle_rejects_a_misaligned_view_place():
    scenario = dsl.elaborate(dsl.parse(TICKET))
    snap = scenario.initial
    oracle = Oracle(scenario.net)
    assert oracle.snapshot_problems(snap) == []
    places = {name: snap.marking.tokens(name) for name in snap.marking.place_names()}
    places["IdleEmps"] = places["IdleEmps"] + places["IdleEmps"]
    bad = semantics.Snapshot(snap.instance, semantics.Marking(places))
    assert oracle.snapshot_problems(bad) == ["view place IdleEmps differs from its query's answers"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = workloads.tail([float(i) for i in range(2000)])
    assert (value, pct) == (1989.0, 99.5)
