"""The three benchmark workloads, their measurement loops and their metrics.

Every workload is a closed loop with one caller on one thread: an operation
starts when the previous one (and its untimed verification) has finished.
An operation ("op") is one verified exploration or one verified seeded
simulation run. See README.md in this directory for why each workload was
chosen and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from dbnet import dsl, semantics
from dbnet.persistence import instance_to_json
from dbnet.query import entails
from dbnet.scenarios import scenario_path, scenario_text

from ticket_family import scaled_ticket
from tracing import Tracer, traced
from verify import Oracle, Pinned, cli_trace, exploration_problems, simulation_problems

GOAL = "exists t:int . exists e:string . exists d:string . Log(t, e, d)"

#: Every op starts from a fresh set-up (parse + elaborate, which builds and
#: checks the initial snapshot), as a `dbnet` command does; set-up is timed
#: this many times before each op, so its samples are spread over the run.
SETUP_REPEATS = 10


@dataclass(frozen=True)
class Explore:
    """One op: `build_lts` on a ticket scenario with the Log goal. A run
    makes at least `min_ops` explorations."""

    name: str
    scale: Optional[tuple[int, int, int]]  # (N, M, K) for the ticket family; None = bundled
    max_states: Optional[int]
    max_depth: Optional[int]
    pinned: Pinned
    min_ops: int

    def text(self) -> str:
        base = scenario_text("ticket")
        return base if self.scale is None else scaled_ticket(base, *self.scale)


@dataclass(frozen=True)
class Simulate:
    """One op: a seeded `random`-policy run of the bundled ticket scenario,
    step for step what `dbnet simulate` does. A block is `runs` consecutive
    seeds starting at the workload seed; a run of the benchmark makes whole
    blocks."""

    name: str
    runs: int
    steps: int


WORKLOADS = {
    w.name: w
    for w in (
        Explore("explore-ticket", None, 5000, None, Pinned(5000, 12212, "state budget reached", True), 3),
        Explore("explore-ticket-8x6", (8, 6, 3), None, 2, Pinned(994, 2502, "depth budget reached", True), 6),
        Simulate("simulate-ticket", runs=20, steps=200),
    )
}


@dataclass
class SetupTimes:
    parse_s: list[float] = field(default_factory=list)
    elaborate_s: list[float] = field(default_factory=list)

    @property
    def setup_s(self) -> list[float]:
        return [p + e for p, e in zip(self.parse_s, self.elaborate_s)]


def set_up(text: str, goal_text: Optional[str], times: SetupTimes, repeats: int = SETUP_REPEATS):
    """Parse and elaborate `repeats` times, recording each time; the goal
    formula is elaborated as part of set-up. Returns the last scenario and
    goal query."""
    for _ in range(repeats):
        t0 = perf_counter()
        doc = dsl.parse(text)
        t1 = perf_counter()
        scenario = dsl.elaborate(doc)
        goal_query = dsl.elaborate_formula(scenario, goal_text) if goal_text else None
        t2 = perf_counter()
        times.parse_s.append(t1 - t0)
        times.elaborate_s.append(t2 - t1)
    if scenario.warnings:
        raise RuntimeError(f"scenario has diagnostics: {scenario.warnings}")
    return scenario, goal_query


@dataclass
class OpResult:
    wall_s: float
    states: int = 0
    edges: int = 0
    steps: int = 0
    step_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _traced_if(tracer: Optional[Tracer]):
    return traced(tracer) if tracer is not None else contextlib.nullcontext()


class ExploreRun:
    block = 1

    def __init__(self, workload: Explore):
        # The explore inputs are fixed (the exploration is exhaustive within
        # its bounds), so the workload seed selects nothing.
        self.workload = workload
        self.min_ops = workload.min_ops
        self.text = workload.text()
        self.setup = SetupTimes()
        self.oracle = Oracle(set_up(self.text, GOAL, SetupTimes(), 1)[0].net)

    def inputs(self) -> dict:
        p = self.workload.pinned
        return {"states": p.states, "edges": p.edges, "steps": 1}

    def op(self, k: int, tracer: Optional[Tracer]) -> OpResult:
        wl = self.workload
        scenario, query = set_up(self.text, GOAL, self.setup)
        net = scenario.net

        def goal(snap) -> bool:
            return entails(snap.instance, {}, query, types=net.types)

        if tracer is not None:
            untraced_goal = goal

            def goal(snap) -> bool:
                return tracer.call("query.goal", untraced_goal, snap)

        gc.collect()
        with _traced_if(tracer):
            t0 = perf_counter()
            lts = semantics.build_lts(
                net, scenario.initial, domains=scenario.domains,
                max_states=wl.max_states, max_depth=wl.max_depth, goal=goal,
            )
            wall = perf_counter() - t0
        problems = exploration_problems(scenario, query, lts, wl.pinned, self.oracle)
        return OpResult(wall, lts.state_count, lts.edge_count, problems=problems)


def dump_json(data: dict) -> str:
    """One trace line, formatted as `dbnet simulate` formats it."""
    return json.dumps(data, sort_keys=True, ensure_ascii=False, separators=(", ", ": "))


def simulate_trace(scenario, seed: int, steps: int, step_s: list[float]):
    """The `dbnet simulate --policy random` loop, writing the JSONL trace to
    memory; appends each step's latency to `step_s`. Returns the trace text,
    the number of steps taken and the final snapshot."""
    net = scenario.net
    rng = random.Random(seed)
    snap = scenario.initial
    out = io.StringIO()
    taken = 0
    deadlock = False
    for step in range(1, steps + 1):
        t0 = perf_counter()
        firings = semantics.enabled_firings(net, snap, scenario.domains)
        if not firings:
            deadlock = True
            break
        t, sigma = firings[rng.randrange(len(firings))]
        after, committed = semantics.fire(net, snap, t, sigma, check=False)
        out.write(dump_json(semantics.firing_record(net, step, t, sigma, committed, snap, after)) + "\n")
        snap = after
        taken += 1
        step_s.append(perf_counter() - t0)
    summary = {
        "summary": True,
        "steps": taken,
        "deadlock": deadlock,
        "final_db": instance_to_json(snap.instance),
        "state": semantics.snapshot_digest(net, snap),
    }
    out.write(dump_json(summary) + "\n")
    return out.getvalue(), taken, snap


class SimulateRun:
    def __init__(self, workload: Simulate, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.block = self.min_ops = workload.runs
        self.workdir = workdir
        self.text = scenario_text("ticket")
        self.setup = SetupTimes()
        self.oracle = Oracle(set_up(self.text, None, SetupTimes(), 1)[0].net)
        self.references: dict[int, bytes] = {}

    def seeds(self) -> list[int]:
        return [self.seed + i for i in range(self.workload.runs)]

    def inputs(self) -> dict:
        steps = self.workload.runs * self.workload.steps
        return {"states": steps, "edges": steps, "steps": steps}

    def op(self, k: int, tracer: Optional[Tracer]) -> OpResult:
        seed = self.seed + k % self.block
        scenario, _ = set_up(self.text, None, self.setup)
        step_s: list[float] = []
        gc.collect()
        with _traced_if(tracer):
            t0 = perf_counter()
            jsonl, taken, final = simulate_trace(scenario, seed, self.workload.steps, step_s)
            wall = perf_counter() - t0
        if seed not in self.references:
            self.references[seed] = cli_trace(scenario_path("ticket"), seed, self.workload.steps, self.workdir)
        problems = simulation_problems(jsonl, final.instance, self.references[seed], self.oracle)
        return OpResult(wall, taken, taken, taken, step_s, problems)


def make_run(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name]
    if isinstance(workload, Explore):
        return ExploreRun(workload)
    return SimulateRun(workload, seed, workdir)


# --- measurement loops ----------------------------------------------------------


@dataclass
class Tally:
    results: list[OpResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    measured_s: float = 0.0

    def attempt(self, run, k: int, tracer: Optional[Tracer]) -> Optional[OpResult]:
        """Run and verify one op; an exception or a verification problem
        counts it as failed and is reported on stderr."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = run.op(k, tracer)
        except Exception:
            self.failed += 1
            self.measured_s += perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return None
        self.measured_s += result.wall_s
        if result.problems:
            self.failed += 1
            for problem in result.problems[:10]:
                print(f"op {k} failed verification: {problem}", file=sys.stderr)
        self.results.append(result)
        return result


def measure(run, seconds: float) -> Tally:
    """Untraced ops until `seconds` of op time is measured, at least
    `run.min_ops` of them, in whole blocks: a simulate block is the seed
    set, so every run does the same mix of work whatever the machine's speed."""
    tally = Tally()
    k = 0
    while tally.measured_s < seconds or k < run.min_ops or k % run.block:
        tally.attempt(run, k, None)
        k += 1
    return tally


def measure_traced(run, seconds: float) -> tuple[Tally, Tally, Tracer]:
    """Pairs of an untraced and a traced op on the same input, until
    `seconds` of op time (both kinds) is measured."""
    plain, spanned, tracer = Tally(), Tally(), Tracer()
    k = 0
    while k == 0 or plain.measured_s + spanned.measured_s < seconds:
        plain.attempt(run, k, None)
        spanned.attempt(run, k, tracer)
        k += 1
    return plain, spanned, tracer


# --- metrics --------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics and the run facts that go with them.

    Explore: a step is one whole exploration; rates and the median are taken
    over all explorations, the tail is the slowest of the first `min_ops`
    (too few explorations fit in a run for a percentile with ten samples
    beyond it, and a fixed sample keeps faster code from drawing a larger
    one). Simulate: a step is one simulate step, which reaches one state
    along one edge, so states/s and edges/s equal steps/s; each metric is
    taken per block of seeds and the median over blocks is reported.
    """
    done = tally.results
    if isinstance(run, ExploreRun):
        walls = [r.wall_s for r in done]
        states_per_s = statistics.median(r.states / r.wall_s for r in done)
        edges_per_s = statistics.median(r.edges / r.wall_s for r in done)
        steps_per_s = statistics.median(1.0 / w for w in walls)
        p50_s = statistics.median(walls)
        tail_s = max(walls[: run.min_ops])
        facts = {"step_samples": len(walls), "step_tail": f"slowest of the first {run.min_ops}"}
    else:
        blocks = [done[i : i + run.block] for i in range(0, len(done), run.block)]
        rates, p50s, tails = [], [], []
        for block in blocks:
            step_s = [s for r in block for s in r.step_s]
            rates.append(len(step_s) / sum(r.wall_s for r in block))
            p50s.append(statistics.median(step_s))
            tails.append(tail(step_s))
        states_per_s = edges_per_s = steps_per_s = statistics.median(rates)
        p50_s = statistics.median(p50s)
        tail_s = statistics.median(t for t, _ in tails)
        facts = {
            "blocks": len(blocks),
            "step_samples_per_block": len(step_s),
            "step_tail_percentile": tails[0][1],
        }
    metrics = {
        "states_per_s": (states_per_s, "1/s"),
        "edges_per_s": (edges_per_s, "1/s"),
        "steps_per_s": (steps_per_s, "1/s"),
        "step_p50_ms": (p50_s * 1000.0, "ms"),
        "step_tail_ms": (tail_s * 1000.0, "ms"),
        "setup_s": (statistics.median(run.setup.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    facts["setup_samples"] = len(run.setup.setup_s)
    facts["op_s"] = [r.wall_s for r in done]
    return metrics, facts


def per_layer(run, plain: Tally, spanned: Tally, tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of the traced ops: counts per op, cache ratios, and
    each layer's self time as a share of the traced op time. The shares,
    the driver's included, sum to 1; `traced_op_s` gives the time itself.

    Self time is reported as a share rather than in seconds because some
    layers are bypassed by design on some workloads (no trace records in an
    exploration, no dedup or goal in a simulation), and their true value of
    zero is a valid share but not a measured time."""
    ops = len(spanned.results)
    wall = sum(r.wall_s for r in spanned.results)
    useful = sum(r.edges for r in spanned.results)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    compliance = "persistence.check_compliance"
    answers = "query.answers"
    layers = {
        "semantics.enumerate_bindings": self_s["semantics.enumerate_bindings"],
        "semantics.fire": self_s["semantics.fire"],
        "semantics.align_view_places": self_s["semantics.align_view_places"],
        "semantics.dedup": self_s["semantics.state_key"] + self_s["semantics.intern"],
        "semantics.trace": self_s["semantics.firing_record"],
        "persistence.check_compliance": self_s[compliance],
        "query.answers": self_s[answers],
        "query.goal": self_s["query.goal"],
        "datalogic.apply_raw": self_s["datalogic.apply_raw"],
        "datatypes.fresh_value": self_s["datatypes.fresh_value"],
        "semantics.driver": wall - tracer.top_s,  # time outside every span
    }
    accounted = sum(layers.values())
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"per-layer self times sum to {accounted} s, traced wall is {wall} s")
    metrics = {f"{name}.self_share": (value / wall, "ratio") for name, value in layers.items()}
    dup_hits = sum(r.edges - (r.states - 1) for r in spanned.results) if isinstance(run, ExploreRun) else 0
    metrics.update({
        "dsl.parse_s": (statistics.median(run.setup.parse_s), "s"),
        "dsl.elaborate_s": (statistics.median(run.setup.elaborate_s), "s"),
        "semantics.enumerate_bindings.calls": (per_op(calls["semantics.enumerate_bindings"]), "count"),
        "semantics.enumerate_bindings.bindings": (per_op(counts["semantics.enumerate_bindings.bindings"]), "count"),
        "semantics.fire.calls": (per_op(calls["semantics.fire"]), "count"),
        "semantics.fire.useful_ratio": (ratio(useful, calls["semantics.fire"]), "ratio"),
        "semantics.align_view_places.calls": (per_op(calls["semantics.align_view_places"]), "count"),
        "semantics.dedup.dup_hits": (per_op(dup_hits), "count"),
        "semantics.intern.hit_ratio": (ratio(counts["semantics.intern.hits"], calls["semantics.intern"]), "ratio"),
        "persistence.check_compliance.calls": (per_op(calls[compliance]), "count"),
        "persistence.check_compliance.evals": (per_op(calls[compliance] - counts[compliance + ".hits"]), "count"),
        "persistence.check_compliance.hit_ratio": (ratio(counts[compliance + ".hits"], calls[compliance]), "ratio"),
        "query.answers.calls": (per_op(calls[answers]), "count"),
        "query.answers.evals": (per_op(calls[answers] - counts[answers + ".hits"]), "count"),
        "query.answers.hit_ratio": (ratio(counts[answers + ".hits"], calls[answers]), "ratio"),
        "query.goal.calls": (per_op(calls["query.goal"]), "count"),
        "datalogic.apply_raw.calls": (per_op(calls["datalogic.apply_raw"]), "count"),
        "datatypes.fresh_value.calls": (per_op(calls["datatypes.fresh_value"]), "count"),
        "traced_op_s": (per_op(wall), "s"),
        "trace_overhead": (wall / sum(r.wall_s for r in plain.results), "ratio"),
    })
    facts = {
        "traced_ops": ops,
        "untraced_ops": len(plain.results),
        "spans": len(tracer),
        "self_s_per_op": {name: per_op(value) for name, value in layers.items()},
    }
    return metrics, facts
