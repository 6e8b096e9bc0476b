"""Scaled ticket scenarios: the bundled `ticket.dbnet` with its `init` block
rewritten for N employees, M open tickets and K of them assigned.

Everything outside the `init` block (schema, constraint, queries, actions,
net, input domains, config) is the bundled text, unchanged, so the family
differs from the bundled scenario only in the size of the initial database
and marking. Nothing is downloaded.

    python3 bench/ticket_family.py 8 6 3 > ticket_8x6.dbnet
"""

from __future__ import annotations

import re
import sys

# `bob` comes first: the bundled init block has bob holding ticket 1, so
# N=2, M=1, K=1 reproduces it exactly.
_NAMES = ("bob", "ann", "cyd", "dee", "eli", "fay", "gus", "hal")

_INIT_BLOCK = re.compile(r"^init \{\n.*?^\}\n", re.MULTILINE | re.DOTALL)


def employee_names(n: int) -> list[str]:
    return [_NAMES[i] if i < len(_NAMES) else f"emp{i}" for i in range(n)]


def init_block(n: int, m: int, k: int) -> str:
    """The `init` section: every employee is staff, tickets 1..M are open
    with description "bug", and employee i < K is busy with ticket i+1."""
    if n < 1 or m < 0 or not 0 <= k <= min(n, m):
        raise ValueError(f"need N >= 1, M >= 0 and 0 <= K <= min(N, M); got {n}, {m}, {k}")
    names = employee_names(n)
    facts = [f'Emp("{e}")' for e in names]
    facts += [f'Ticket({t}, "bug")' for t in range(1, m + 1)]
    facts += [f'Resp("{names[i]}", {i + 1})' for i in range(k)]
    lines = [
        "init {",
        f"  facts {{ {', '.join(facts)} }}",
        "  marking {",
        "    staff: " + ", ".join(f'<"{e}">' for e in names),
    ]
    if k:
        lines.append("    busy: " + ", ".join(f'<"{names[i]}", {i + 1}>' for i in range(k)))
    lines += ["  }", "}", ""]
    return "\n".join(lines)


def scaled_ticket(base_text: str, n: int, m: int, k: int) -> str:
    """`base_text` (the bundled ticket scenario) with its init block replaced."""
    rewritten, count = _INIT_BLOCK.subn(init_block(n, m, k), base_text)
    if count != 1:
        raise ValueError("expected exactly one top-level `init { ... }` block")
    return rewritten


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: ticket_family.py N M K", file=sys.stderr)
        return 2
    from pathlib import Path

    base = Path(__file__).resolve().parent.parent / "src" / "dbnet" / "scenarios" / "ticket.dbnet"
    sys.stdout.write(scaled_ticket(base.read_text(encoding="utf-8"), *map(int, argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
