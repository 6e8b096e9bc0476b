"""The command line on mutated scenarios: a documented exit code, never a crash.

A fixed, seeded sample of one-token mutations of the bundled scenarios, plus
inputs that once crashed the engine, goes through `cli.main`: `validate`
always, and `explore --max-states 50` and `simulate --steps 5` when the input
is valid. This is mutation-based grammar fuzzing (Holler, Herzig & Zeller,
*Fuzzing with code fragments*, USENIX Security 2012), kept deterministic so
that it can gate CI.
"""

import random
import sys

from dbnet import cli, dsl
from dbnet.scenarios import scenario_text

#: The sample, drawn with random.Random(SEED): SAMPLE_SIZE of all one-token
#: mutations of the bundled scenarios, and LITERAL_SAMPLE_SIZE of those that
#: put a literal in place of a literal. Most of the first kind are invalid;
#: many of the second are valid, so they also run `explore` and `simulate`.
SEED = 20
SAMPLE_SIZE = 400
LITERAL_SAMPLE_SIZE = 100

#: What a token is replaced with: nothing, names, keywords, numerals of every
#: shape, strings and punctuation.
REPLACEMENTS = (
    "", "x", "_", "R", "Emp", "p", "t", "unit",
    "int", "string", "real", "bool",
    "true", "false", "not", "and", "or", "exists", "forall",
    "in", "out", "rollback", "guard", "action", "vars", "fresh",
    "place", "view", "init", "schema", "marking", "facts",
    "0", "1", "-1", "2", "99999999999999999999", "1" * 5000, "1.5", "-0.0",
    '"a"', '""', '"\\q"', '"',
    "(", ")", "{", "}", "<", ">", "<>", ",", ";", ":", ".", "*", "=",
    "->", ":=", "><", "<-", "[", "]",
    "²", "#", "@", "-", "é",
)
LITERALS = ("0", "1", "-1", "2", "99999999999999999999", "1" * 5000, "1.5", "-0.0", '"a"', '""', "true")

_HEADER = "schema { }\nnet { place src : () place dst : () "
_DEEP = 3000
#: More distinct input tuples than the interpreter's stack is deep.
_WIDE = ", ".join(f"<{i}>" for i in range(sys.getrecursionlimit() + 200))

#: Inputs that ended in a traceback, with the exit code `validate` gives
#: now: an input arc's multiplicity too large for a list, one that recursed
#: once per token, an input arc that recursed once per distinct tuple, a
#: marking larger than sys.maxsize, and formulas nested deeper than the
#: interpreter's stack.
REGRESSIONS = {
    "huge_input_multiplicity": (
        _HEADER + "transition t { in { src -> 99999999999999999999 * <> } out { dst -> <> } } }\n"
        "init { marking { src: <> } }\n",
        cli.EXIT_OK,
    ),
    "long_input_multiplicity": (
        _HEADER + "transition t { in { src -> 3000 * <> } out { dst -> <> } } }\n"
        "init { marking { src: 3000 * <> } }\n",
        cli.EXIT_OK,
    ),
    "wide_input_arc": (
        "schema { }\nnet { place src : (int) place dst : () "
        "transition t { in { src -> " + _WIDE + " } out { dst -> <> } } }\n"
        "init { marking { src: " + _WIDE + " } }\n",
        cli.EXIT_OK,
    ),
    "huge_marking": (
        _HEADER + "transition t { in { src -> 2 * <> } out { dst -> 99999999999999999999 * <> } } }\n"
        "init { marking { src: 99999999999999999999 * <> } }\n",
        cli.EXIT_OK,
    ),
    "deep_parentheses": (
        "schema { }\nconstraints { c: " + "(" * _DEEP + "true" + ")" * _DEEP + " }\n",
        cli.EXIT_INVALID,
    ),
    "deep_quantifiers": (
        "schema { }\nqueries { Q() := " + "exists x:int . " * _DEEP + "true }\n",
        cli.EXIT_INVALID,
    ),
    "deep_negations": (
        _HEADER + "transition t { in { src -> <> } guard " + "not " * _DEEP + "true out { dst -> <> } } }\n",
        cli.EXIT_INVALID,
    ),
    "long_conjunction": (
        "schema { }\nconstraints { c: " + " and ".join(["true"] * _DEEP) + " }\n",
        cli.EXIT_INVALID,
    ),
}

#: Goals given on the command line, each nested too deeply: exit code 3.
DEEP_GOALS = (
    "(" * _DEEP + "true" + ")" * _DEEP,
    "not " * _DEEP + "true",
    " and ".join(["true"] * _DEEP),
)

#: `cli.main` ends every run with one of these (see the README). It turns a
#: DbNetError into exit code 1, so any exception that leaves it is a crash.
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_CONFIG}


def mutations(replacements=REPLACEMENTS, kinds=("IDENT", "INT", "REAL", "STRING", "PUNCT")):
    """Every one-token mutation of a token of one of `kinds`, as (label,
    scenario, offset, length, replacement)."""
    for name in ("ticket", "nu_demo", "relay"):
        text = scenario_text(name)
        line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        for i, tok in enumerate(dsl._lex(text)):
            if tok.kind not in kinds:
                continue
            offset = line_starts[tok.span.line - 1] + tok.span.col - 1
            for replacement in replacements:
                if replacement == tok.text:
                    continue
                label = f"{name} token {i} {tok.text[:20]!r} -> {replacement[:20]!r}"
                yield label, text, offset, len(tok.text), replacement


def sample():
    rng = random.Random(SEED)
    chosen = rng.sample(list(mutations()), SAMPLE_SIZE)
    chosen += rng.sample(list(mutations(LITERALS, ("INT", "REAL", "STRING"))), LITERAL_SAMPLE_SIZE)
    for label, text, offset, length, replacement in chosen:
        yield label, text[:offset] + replacement + text[offset + length :]


def run(argv, capsys):
    """(exit code, stderr, what went wrong or "") of one command."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # any escape is the finding
        return None, capsys.readouterr().err, f"{type(exc).__name__} escaped: {exc}"[:300]
    err = capsys.readouterr().err
    if code not in EXIT_CODES:
        return code, err, f"exit code {code}"
    if "Traceback" in err:
        return code, err, "traceback on stderr"
    return code, err, ""


def check(label, path, tmp_path, capsys) -> list[str]:
    """`validate`, then `explore` and `simulate` if it is valid."""
    code, _, problem = run(["validate", str(path)], capsys)
    if code != cli.EXIT_OK:
        return [f"{label}: validate: {problem}"] if problem else []
    problems = []
    for argv in (
        ["explore", str(path), "--max-states", "50"],
        ["simulate", str(path), "--steps", "5", "--seed", "1", "--out", str(tmp_path / "trace.jsonl")],
    ):
        if problem := run(argv, capsys)[2]:
            problems.append(f"{label}: {argv[0]}: {problem}")
    return problems


def test_mutated_scenarios_end_with_a_documented_exit_code(tmp_path, capsys):
    path = tmp_path / "mutant.dbnet"
    problems = []
    for label, text in sample():
        path.write_text(text, encoding="utf-8")
        problems += check(label, path, tmp_path, capsys)
    assert problems == []


def test_inputs_that_crashed_end_with_a_documented_exit_code(tmp_path, capsys):
    path = tmp_path / "regression.dbnet"
    problems = []
    for label, (text, expected) in REGRESSIONS.items():
        path.write_text(text, encoding="utf-8")
        code, err, _ = run(["validate", str(path)], capsys)
        if code != expected or (expected == cli.EXIT_INVALID and "formula nested too deeply" not in err):
            problems.append(f"{label}: validate exited {code}: {err[:200]}")
        problems += check(label, path, tmp_path, capsys)
    relay = tmp_path / "relay.dbnet"
    relay.write_text(scenario_text("relay"), encoding="utf-8")
    for goal in DEEP_GOALS:
        code, err, problem = run(["explore", str(relay), "--goal", goal], capsys)
        if code != cli.EXIT_CONFIG or "formula nested too deeply" not in err:
            problems.append(f"deep goal {goal[:20]!r}: exit {code} {problem}: {err[:200]}")
    assert problems == []
