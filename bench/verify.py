"""Untimed checks of every benchmark operation against independent oracles.

Each check returns a list of problems; an operation whose list is non-empty
counts as failed. The first-order oracles are the brute-force evaluators of
`tests/oracles.py`, which share no evaluation code with the engine; their
results depend only on the instance's facts, so they are memoized per fact
set across the operations of one benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from dataclasses import dataclass
from pathlib import Path

from dbnet import cli
from dbnet.semantics import LTS, fire, snapshot_digest, state_key
from oracles import brute_compliant, brute_force_answers, satisfies


@dataclass(frozen=True)
class Pinned:
    """The expected shape of an exploration, taken from a first run of the
    engine and cross-checked by the oracles below."""

    states: int
    edges: int
    truncation_reason: str
    goal_reachable: bool


class Oracle:
    """Brute-force compliance and view-place answers, memoized per fact set."""

    def __init__(self, net) -> None:
        self.constraints = net.persistence.constraints
        self.views = {p.name: net.logic.queries[p.query_name] for p in net.view_places()}
        self._memo: dict[frozenset, tuple[bool, dict]] = {}

    def judge(self, instance) -> tuple[bool, dict]:
        found = self._memo.get(instance.facts)
        if found is None:
            found = (
                brute_compliant(self.constraints, instance),
                {name: brute_force_answers(q.params, q.body, instance) for name, q in self.views.items()},
            )
            self._memo[instance.facts] = found
        return found

    def snapshot_problems(self, snap) -> list[str]:
        compliant, views = self.judge(snap.instance)
        problems = [] if compliant else ["instance violates a constraint"]
        for name, expected in views.items():
            tokens = snap.marking.tokens(name)
            if set(tokens.distinct()) != set(expected) or any(n != 1 for _, n in tokens.items()):
                problems.append(f"view place {name} differs from its query's answers")
        return problems


def exploration_problems(scenario, goal_query, lts: LTS, pinned: Pinned, oracle: Oracle) -> list[str]:
    """Pinned counts and verdict, a replayed witness, and every stored state
    compliant with aligned view places."""
    net = scenario.net
    problems = []
    got = (lts.state_count, lts.edge_count, lts.truncation_reason, lts.goal_state is not None)
    want = (pinned.states, pinned.edges, pinned.truncation_reason, pinned.goal_reachable)
    if got != want:
        problems.append(f"(states, edges, truncation, goal) = {got}, expected {want}")

    if lts.goal_state is not None:
        snap, sid = scenario.initial, lts.initial
        if state_key(net, snap) != state_key(net, lts.snapshots[sid]):
            problems.append("initial state differs from the stored one")
        for name, sigma, committed in lts.witness_path():
            # fire(check=True) raises unless the binding is enabled.
            snap, got_committed = fire(net, snap, net.transitions[name], sigma, check=True)
            if got_committed != committed:
                problems.append(f"witness step {name}: commit flag differs on replay")
        goal_snap = lts.snapshots[lts.goal_state]
        if snapshot_digest(net, snap) != snapshot_digest(net, goal_snap):
            problems.append("witness replay does not end in the goal state")
        if not satisfies(snap.instance, {}, goal_query):
            problems.append("witness replay ends in a state the oracle says misses the goal")

    for sid, snap in enumerate(lts.snapshots):
        problems.extend(f"state {sid}: {problem}" for problem in oracle.snapshot_problems(snap))
    return problems


def cli_trace(scenario_file: Path, seed: int, steps: int, workdir: Path) -> bytes:
    """The JSONL trace that `dbnet simulate --policy random` writes."""
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out = Path(tmp) / "trace.jsonl"
        argv = [
            "simulate", str(scenario_file), "--seed", str(seed), "--steps", str(steps),
            "--policy", "random", "--out", str(out), "--final-db", str(Path(tmp) / "final.txt"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dbnet simulate exited with {code}")
        return out.read_bytes()


def simulation_problems(jsonl: str, final_instance, reference: bytes, oracle: Oracle) -> list[str]:
    """Byte-identical to the CLI's trace, and a compliant final instance."""
    problems = []
    if jsonl.encode("utf-8") != reference:
        problems.append("trace differs from `dbnet simulate` output")
    if not oracle.judge(final_instance)[0]:
        problems.append("final instance violates a constraint")
    return problems
