"""Command-line interface: validate, simulate, and explore scenarios.

Exit codes: 0 success (including truncated exploration, reported as a
warning), 1 parse/validation failure, 2 I/O failure, 3 bad run configuration
or command-line usage, 141 standard output closed by its reader (e.g.
`| head -1`), which ends the run quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from pathlib import Path
from typing import Optional

from . import dsl
from .errors import ConfigError, DbNetError
from .datatypes import render_literal
from .persistence import instance_to_json, instance_to_text
from .query import Query, entails, free_vars
from .semantics import (
    Snapshot,
    binding_to_json,
    build_lts,
    enabled_firings,
    external_pools,
    fire,
    firing_record,
    snapshot_digest,
    token_text,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process killed by SIGPIPE

#: The state budget of `explore` when neither `--max-states` nor the
#: scenario's config gives one: fresh values can make a state space infinite.
DEFAULT_MAX_STATES = 100_000


def _use_color(stream) -> bool:
    env = os.environ.get("DBNET_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return hasattr(stream, "isatty") and stream.isatty()


def _emit(message: str, severity: str = "error", stream=None) -> None:
    stream = stream or sys.stderr
    if _use_color(stream):
        color = {"error": "\x1b[31m", "warning": "\x1b[33m"}.get(severity, "")
        message = f"{color}{message}\x1b[0m" if color else message
    print(message, file=stream)


class _Exit(Exception):
    """Ends a command with `code`; the reason is already on stderr."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _load(path: str) -> dsl.Scenario:
    """Read, parse and elaborate a scenario, printing its warnings. On
    failure the diagnostics go to stderr and `_Exit` carries the exit code."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _emit(f"i/o error: {exc}")
        raise _Exit(EXIT_IO) from None
    try:
        scenario = dsl.elaborate(dsl.parse(text))
    except dsl.DslSyntaxError as exc:
        _emit(str(exc.diagnostic))
        raise _Exit(EXIT_INVALID) from None
    except dsl.DslValidationError as exc:
        for diag in exc.diagnostics:
            _emit(str(diag), diag.severity)
        raise _Exit(EXIT_INVALID) from None
    for warning in scenario.warnings:
        _emit(str(warning), "warning")
    return scenario


# --- validate ------------------------------------------------------------------


def cmd_validate(args) -> int:
    _load(args.file)
    print(f"{args.file}: ok")
    return EXIT_OK


# --- simulate ------------------------------------------------------------------

_MARKING_GOAL = re.compile(
    r"^\s*marking\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)\s*(>=|<=|=|<|>)\s*(\d+)\s*$"
)


def _dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, ensure_ascii=False, separators=(", ", ": "))


def _write_final_db(path: str, snap: Snapshot) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(snap.instance))


def cmd_simulate(args) -> int:
    scenario = _load(args.file)
    seed = args.seed if args.seed is not None else scenario.config.get("seed")
    steps = args.steps if args.steps is not None else scenario.config.get("steps", 10)
    if args.policy == "random" and seed is None:
        _emit("config error: random policy requires --seed (or a config seed)")
        return EXIT_CONFIG
    out_path = Path(args.out)
    final_db_path = Path(args.final_db) if args.final_db else out_path.with_suffix(".final.txt")

    net = scenario.net
    rng = random.Random(seed)
    snap = scenario.initial
    records: list[dict] = []
    deadlock = False
    interactive = args.policy == "interactive"

    try:
        for step in range(1, steps + 1):
            firings = enabled_firings(net, snap, scenario.domains)
            if not firings:
                deadlock = True
                break
            if interactive:
                choice = _prompt_choice(net, snap, firings)
                if choice is None:
                    break
            else:
                choice = rng.randrange(len(firings))
            t, sigma = firings[choice]
            after, committed = fire(net, snap, t, sigma, check=False)
            records.append(firing_record(net, step, t, sigma, committed, snap, after))
            snap = after
    except ConfigError as exc:
        _emit(f"config error: {exc}")
        return EXIT_CONFIG

    summary = {
        "summary": True,
        "steps": len(records),
        "deadlock": deadlock,
        "final_db": instance_to_json(snap.instance),
        "state": snapshot_digest(net, snap),
    }
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(_dump_json(record) + "\n")
            fh.write(_dump_json(summary) + "\n")
        _write_final_db(final_db_path, snap)
    except OSError as exc:
        _emit(f"i/o error: {exc}")
        return EXIT_IO
    note = " (deadlock)" if deadlock else ""
    print(
        f"simulated {len(records)} step(s){note}; trace: {out_path}; "
        f"final db: {final_db_path}"
    )
    return EXIT_OK


def _prompt_choice(net, snap: Snapshot, firings) -> Optional[int]:
    print("\nview places:")
    for place in net.view_places():
        tokens = sorted(snap.marking.tokens(place.name))
        body = ", ".join(token_text(tok) for tok in tokens) or "(empty)"
        print(f"  {place.name}: {body}")
    print("enabled firings:")
    for i, (t, sigma) in enumerate(firings):
        bound = ", ".join(f"{v.name}={render_literal(val)}" for v, val in sorted(sigma.items(), key=lambda kv: kv[0].name))
        print(f"  [{i}] {t.name} {{{bound}}}")
    indices = {str(i): i for i in range(len(firings))}
    while True:
        try:
            raw = input("fire which? (empty to stop) ")
        except EOFError:
            return None
        raw = raw.strip()
        if not raw:
            return None
        # Matched as text, not int(): "²" passes isdigit() and a long
        # numeral exceeds int()'s digit limit; both raise ValueError.
        choice = indices.get(raw.lstrip("0") or "0")
        if choice is not None:
            return choice
        print(f"please enter an index between 0 and {len(firings) - 1}")


# --- explore -------------------------------------------------------------------


def _parse_marking_condition(text: str) -> tuple[str, str, int]:
    m = _MARKING_GOAL.match(text)
    if m is None:
        raise ConfigError(f"cannot parse marking condition {text!r}")
    try:
        count = int(m.group(3))
    except ValueError:  # more digits than int() converts
        raise ConfigError(f"marking count in condition on {m.group(1)!r} is too large") from None
    return m.group(1), m.group(2), count


def _parse_goal(scenario: dsl.Scenario, goal_text: Optional[str], marking_texts: list[str]):
    query: Optional[Query] = None
    conditions: list[tuple[str, str, int]] = []
    if goal_text:
        parts = [p for p in re.split(r"\s+and\s+", goal_text) if p.strip()]
        if all(_MARKING_GOAL.match(p) for p in parts):
            conditions.extend(_parse_marking_condition(p) for p in parts)
        else:
            query = dsl.elaborate_formula(scenario, goal_text)
            if free_vars(query):
                raise ConfigError("goal query must be boolean (no free variables)")
    for text in marking_texts:
        conditions.append(_parse_marking_condition(text))
    for place, _, _ in conditions:
        if place not in scenario.net.places:
            raise ConfigError(f"goal mentions unknown place {place!r}")
    return query, conditions


_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


def _make_goal(net, query: Optional[Query], conditions):
    if query is None and not conditions:
        return None

    def goal(snap: Snapshot) -> bool:
        if query is not None and not entails(snap.instance, {}, query, types=net.types):
            return False
        for place, op, k in conditions:
            if not _OPS[op](snap.marking.tokens(place).size(), k):
                return False
        return True

    return goal


def cmd_explore(args) -> int:
    scenario = _load(args.file)

    net = scenario.net
    max_states = args.max_states if args.max_states is not None else scenario.config.get("max_states", DEFAULT_MAX_STATES)
    try:
        if max_states < 1:
            # The initial state is always stored, so no smaller budget holds.
            raise ConfigError(f"state budget must be at least 1, got {max_states}")
        # Exhaustive exploration needs every input domain: fail before the run.
        for t in net.transitions.values():
            external_pools(net, t, scenario.domains)
        query, conditions = _parse_goal(scenario, args.goal, args.goal_marking or [])
    except (ConfigError, dsl.DslValidationError, dsl.DslSyntaxError) as exc:
        _emit(f"config error: {exc}")
        return EXIT_CONFIG
    goal = _make_goal(net, query, conditions)

    lts = build_lts(
        net,
        scenario.initial,
        domains=scenario.domains,
        max_states=max_states,
        max_depth=args.max_depth if args.max_depth is not None else scenario.config.get("max_depth"),
        goal=goal,
    )

    witness = [
        {"transition": name, "binding": binding_to_json(sigma), "committed": committed}
        for name, sigma, committed in lts.witness_path()
    ]
    monitors = lts.monitors()
    report = {
        "states": lts.state_count,
        "edges": lts.edge_count,
        "truncated": lts.truncated,
        "truncation_reason": lts.truncation_reason,
        "monitors": monitors,
        "goal": {
            "specified": goal is not None,
            "reachable": (lts.goal_state is not None) if goal is not None else None,
            "witness": witness if lts.goal_state is not None else [],
            "witness_length": len(witness),
        },
    }
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_dump_json(report) + "\n")
        except OSError as exc:
            _emit(f"i/o error: {exc}")
            return EXIT_IO

    print(f"states: {lts.state_count}")
    print(f"edges: {lts.edge_count}")
    print(f"truncated: {'yes (' + lts.truncation_reason + ')' if lts.truncated else 'no'}")
    print(
        "bound monitors: "
        f"max tokens in a place = {monitors['max_place_tokens']}, "
        f"max instance size = {monitors['max_instance_facts']}, "
        f"max depth = {monitors['max_depth']}"
    )
    if goal is not None:
        if lts.goal_state is not None:
            print(f"goal: reachable (witness of length {len(witness)})")
            for entry in witness:
                print(f"  fire {entry['transition']} {_dump_json(entry['binding'])}")
        else:
            within = "within bounds" if lts.truncated else "anywhere (exploration exhausted)"
            print(f"goal: not reachable {within}")
    if lts.truncated:
        _emit(f"warning: exploration truncated: {lts.truncation_reason}", "warning")
    return EXIT_OK


# --- entry point ---------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type for counts and budgets, which the scenario's config
    section also requires to be non-negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbnet",
        description="Validate, simulate, and explore db-net scenarios (.dbnet files).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a scenario")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", help="run a seeded or interactive simulation")
    p_sim.add_argument("file")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--steps", type=_count, default=None)
    p_sim.add_argument("--policy", choices=["random", "interactive"], default="random")
    p_sim.add_argument("--out", default="trace.jsonl", help="trace output (JSON lines)")
    p_sim.add_argument("--final-db", default=None, help="final database instance output")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("explore", help="bounded exhaustive state-space exploration")
    p_exp.add_argument("file")
    p_exp.add_argument("--max-states", type=_count, default=None)
    p_exp.add_argument("--max-depth", type=_count, default=None)
    p_exp.add_argument("--goal", default=None, help="boolean query or marking(<place>) >= k")
    p_exp.add_argument(
        "--goal-marking",
        action="append",
        default=None,
        metavar="COND",
        help="additional marking condition, e.g. 'marking(done) >= 1' (repeatable)",
    )
    p_exp.add_argument("--out", default=None, help="summary output (JSON)")
    p_exp.set_defaults(func=cmd_explore)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message and exits 2 on a usage
        # error, the code this CLI reserves for I/O failure.
        return EXIT_CONFIG if exc.code == 2 else exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _Exit as exc:
        return exc.code
    except DbNetError as exc:
        _emit(f"error: {exc}")
        return EXIT_INVALID
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so that the interpreter's
        # own flush at exit does not fail on the same pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
