"""How far the numbers of each moved golden file moved, against a git revision.

Run from anywhere:

    python tests/golden_drift.py [REVISION]

REVISION defaults to HEAD.  For each file under ``tests/golden`` whose bytes
differ from those at REVISION, one line goes to stdout: the number of
numeric cells that moved and the largest absolute change of any of them,
for real cells and for integer cells (degrees and counts) apart.
When the text around the numbers changed too (a new row, a flipped verdict,
another field), the line says so instead, since the cells no longer pair
up.  Exit status 0, or 2 on a usage error.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = "tests/golden"

#: A number cell: a CSV or JSON number, or one part of a complex repr, not
#: a digit run inside a name such as T21 or thm_b1.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?=j?(?![\w.]))")


def drift(old: str, new: str) -> dict[str, tuple[int, float]] | None:
    """{kind: (cells moved, largest absolute change)} from old to new, for
    the kinds "real" and "integer" (a degree or a count), or None when the
    text between the number cells differs."""
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    moves = {"real": [], "integer": []}
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if a != b:
            kind = "integer" if a.lstrip("+-").isdigit() and b.lstrip("+-").isdigit() else "real"
            moves[kind].append(abs(float(b) - float(a)))
    return {kind: (len(changes), max(changes)) for kind, changes in moves.items() if changes}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def report(revision: str) -> list[str]:
    lines = []
    for name in _git("diff", "--name-only", revision, "--", GOLDEN).split():
        path = ROOT / name
        if not path.exists():
            lines.append(f"{name}: removed")
            continue
        try:
            old = _git("show", f"{revision}:{name}")
        except subprocess.CalledProcessError:
            lines.append(f"{name}: new")
            continue
        moved = drift(old, path.read_text(encoding="utf-8"))
        if moved is None:
            lines.append(f"{name}: text other than numbers changed")
        else:
            lines.append(f"{name}: " + "; ".join(
                f"{count} {kind} cells moved, largest change {largest:.3g}"
                for kind, (count, largest) in moved.items()
            ))
    return lines or ["no golden file moved"]


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv[:1] and argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(report(argv[0] if argv else "HEAD")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
