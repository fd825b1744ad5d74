"""Hand-made mutants of ``src/bohrineq``: each breaks one guard, and the
tier-1 suite must fail on it.

Run from anywhere, with pytest installed:

    python tests/mutants.py

For each mutant the runner copies ``src`` to a temporary directory, replaces
one snippet that must occur exactly once in its file, and runs
``python -m pytest -x -q`` from the repository root with ``PYTHONPATH`` set
to the copy; the CLI subprocess tests follow ``cli.__file__``, so they run
the copy too.  A mutant is *killed* when a test fails and *survived* when
the suite passes.  *snippet not found* means the source moved on: update the
table, and name the change in ``CHANGES.md``.  The unmutated copy runs first
and must pass.  A Markdown table goes to stdout.  The exit status is 1 when
a snippet is not found, when pytest cannot run, or when a mutant that is
not marked equivalent survives; else 0.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/bohrineq
    snippet: str
    replacement: str
    guard: str
    equivalent: str | None = None  # the reason, when no test can kill it


MUTANTS = [
    Mutant(
        "scan-row-swap", "cli.py",
        "report.epsilon, *totals)))",
        "report.epsilon, *totals[::-1])))",
        "scan rows: total and perturbed_total in their own columns",
    ),
    Mutant(
        "radius-row-swap", "cli.py",
        "*result.bracket, *result[2:])",
        "*result.bracket, result.iterations, result.certified, result.binding)",
        "radius rows: binding and certified in their own columns",
    ),
    Mutant(
        "verify-row-swap", "cli.py",
        "(theorem, n, a, r, breakdown.interpretation",
        "(theorem, n, r, a, breakdown.interpretation",
        "verify rows: a and r in their own columns",
    ),
    Mutant(
        "lemma-row-swap", "cli.py",
        "r, check.lhs, check.rhs, check.gap",
        "r, check.rhs, check.lhs, check.gap",
        "lemma rows: lhs and rhs in their own columns",
    ),
    Mutant(
        "scan-exit", "cli.py",
        "report.max_total <= ver._limit(ns.tol, True)",
        "report.max_total <= ver._limit(ns.tol, False)",
        "scan exit code: the closed-form tolerance",
    ),
    Mutant(
        "violates-nan", "verify.py",
        "return not breakdown.total <= _limit(",
        "return breakdown.total > _limit(",
        "violates: a NaN total is a violation",
    ),
    Mutant(
        "limit-default", "verify.py",
        "tol = TOL_CLOSED if closed_form else TOL_TRUNCATED",
        "tol = TOL_TRUNCATED",
        "_limit: closed-form rows default to TOL_CLOSED",
    ),
    Mutant(
        "sweep-flag", "verify.py",
        "flagged = flagged or not all(",
        "flagged = flagged and not all(",
        "theorem_sweep: the column flag sends a violating sweep to the row path",
    ),
    Mutant(
        "lemma-ok-slack", "verify.py",
        "+ tail_K\n    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK,",
        "+ tail_K\n    return LemmaCheck(lhs, rhs, lhs <= rhs + 1e-6,",
        "LemmaCheck.ok of lemmas 1a and 1b",
    ),
    Mutant(
        "lemma1c-ok-slack", "verify.py",
        "lhs = family.majorant(bold_r)\n    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK,",
        "lhs = family.majorant(bold_r)\n    return LemmaCheck(lhs, rhs, lhs <= rhs + 1e-6,",
        "LemmaCheck.ok of lemma 1c",
    ),
    Mutant(
        "lemma-lhs-tail", "verify.py",
        "lhs = math.fsum(map(operator.mul, weighted, powers)) + tail_K",
        "lhs = math.fsum(map(operator.mul, weighted, powers))",
        "lemmas 1a and 1b: the certified tail is added to the lhs",
    ),
    Mutant(
        "torus-ok", "series.py",
        "ok = certified and sup + tail <= 1.0 + TORUS_SLACK",
        "ok = certified",
        "torus_bound_check: ok needs sup + tail <= 1 + slack",
    ),
    Mutant(
        "radius-predicate", "verify.py",
        "if total <= 1.0:\n            lo = mid",
        "if total <= 1.0 + 1e-6:\n            lo = mid",
        "radius_search: a midpoint is kept only when its total is <= 1",
    ),
    Mutant(
        "infinite-tolerance", "verify.py",
        "if math.isinf(value):",
        "if False:",
        "check_tolerance: an infinite tolerance is refused",
    ),
    Mutant(
        "grid-finite", "verify.py",
        "if grid and not (math.isfinite(sum(grid)) and min(grid)",
        "if grid and not (min(grid)",
        "_check_grid: a NaN grid point is refused",
    ),
]


def _pytest(src: Path) -> tuple[int, float]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode, time.perf_counter() - start


def run(mutant: Mutant | None) -> tuple[str, float, bool]:
    """(result, seconds, bad) for one mutant, or for the unmutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "bohrineq" / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.snippet) != 1:
                return "snippet not found", 0.0, True
            path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        code, seconds = _pytest(src)
    if code == 0 and mutant is None:
        return "passed", seconds, False
    if code == 1 and mutant is not None:
        return "killed", seconds, False
    if code != 0:
        return f"pytest exit {code}", seconds, True
    if mutant.equivalent:
        return f"survived (equivalent: {mutant.equivalent})", seconds, False
    return "survived", seconds, True


def main() -> int:
    print("| mutant | guard | result | s |\n|---|---|---|---:|")
    result, seconds, bad = run(None)
    print(f"| (none) | the unmutated copy passes | {result} | {seconds:.1f} |", flush=True)
    if bad:
        return 1
    failed = False
    for mutant in MUTANTS:
        result, seconds, bad = run(mutant)
        failed = failed or bad
        print(f"| `{mutant.name}` | {mutant.guard} | {result} | {seconds:.1f} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
