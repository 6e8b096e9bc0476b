"""Run one dbnet benchmark workload and print its metrics.

    python3 bench/run.py --workload explore-ticket --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the engine is imported from `src/`
and the brute-force oracles from `tests/`; nothing needs installing. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it holds the run's metadata. With
`--trace 1`, the metrics are the per-layer ones and every span of the traced
ops is written to `bench/out/spans-<workload>.csv`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: String hashing is salted per process unless PYTHONHASHSEED is set, and the
#: salt changes the iteration order of the engine's sets and dicts and so the
#: work an exploration does (about 4% of its function calls on
#: explore-ticket-8x6). Every run uses the same salt, so runs differ only in
#: the inputs their --seed selects.
HASH_SEED = "0"


def git_revision(root: Path) -> str:
    """HEAD's commit id read from `.git`, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv: list[str], workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "dbnet" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no dbnet sources (src/dbnet) and oracles (tests/oracles.py)", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replaces this process (no child is started) with one whose hash
        # salt is fixed; it takes this branch no second time.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)

    run = workloads.make_run(args.workload, args.seed, OUT)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
        "nproc": os.cpu_count(),
        "input_size": run.inputs(),
    }
    if isinstance(run, workloads.SimulateRun):
        meta["seeds"] = run.seeds()
    if args.trace:
        plain, tally, tracer = workloads.measure_traced(run, args.seconds)
        metrics, facts = workloads.per_layer(run, plain, tally, tracer)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}.csv"
        tracer.write_csv(spans_file)
        facts["spans_file"] = str(spans_file.relative_to(ROOT))
        tallies = [plain, tally]
    else:
        tally = workloads.measure(run, args.seconds)
        metrics, facts = workloads.end_to_end(run, tally)
        tallies = [tally]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    meta.update(facts, ops=attempted, measured_s=sum(t.measured_s for t in tallies))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
