"""What a change moves against a git revision, as Markdown on stdout.

Run from the repository or anywhere else, with pytest installed:

    python tests/change_report.py [BASE]

BASE defaults to HEAD.  It is checked out once, with ``git archive``, into a
temporary directory, and each section compares the working tree with that
copy.  The sections, in order:

- the golden files under ``tests/golden`` that are new, removed or moved,
  found by comparing the two trees (so a new file shows before it is added
  to git), and for each moved file how many of its number cells moved and by
  how much, real cells and integer cells (degrees and counts) apart; when
  the text around the numbers changed too, the cells no longer pair up and
  the line says so;
- the files under ``bench`` and ``BENCHMARK.json`` that are new, removed
  or changed, found by comparing the two trees in the same way (bytecode
  caches aside), or "no benchmark file changed";
- how many test ids were added and removed, and every removed id, so that
  each removed or renamed test can be matched with its line in
  ``CHANGES.md``;
- the ROADMAP's design metrics, in total and per module of
  ``src/bohrineq``: non-blank, non-comment lines, the same lines outside
  docstrings (found with ``ast``, so that a trimmed docstring does not read
  as a drop in code) and lines with ``isinstance``; beside them the
  non-blank, non-comment lines of ``tests/*.py``, so that code moved into
  test support shows, and the lines and words of ``README.md``.

It reports no import time: a few cold imports per side read byte-identical
modules 15-23 % apart.  Cold CLI start-up is measured by interleaved medians
(ROADMAP item 18).

Each count is given here, at BASE and as the delta.  Exit status 0, or 2 on
a usage error.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FENCE = "```"

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


def _read(path: Path) -> str:
    """The text of path, or "" when the file does not exist."""
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _files(root: Path, paths: tuple[str, ...]) -> set[str]:
    """The paths, relative to root, of the files at or under root / path for
    each of paths, outside ``__pycache__`` (which git ignores)."""
    found = (
        p.relative_to(root) for path in paths for p in [root / path, *(root / path).rglob("*")]
        if p.is_file()
    )
    return {p.as_posix() for p in found if "__pycache__" not in p.parts}


def _differing(old: Path, new: Path, *paths: str) -> list[tuple[str, str]]:
    """(name, "new", "removed" or "changed") for each file at or under paths
    in either tree whose bytes differ between the two, sorted by name."""
    differing = []
    for name in sorted(_files(old, paths) | _files(new, paths)):
        if not (new / name).exists():
            differing.append((name, "removed"))
        elif not (old / name).exists():
            differing.append((name, "new"))
        elif (old / name).read_bytes() != (new / name).read_bytes():
            differing.append((name, "changed"))
    return differing


def golden_section(base: str, old: Path, new: Path) -> list[str]:
    moved = []
    for name, status in _differing(old, new, "tests/golden"):
        if status != "changed":
            moved.append(f"{name}: {status}")
        elif (cells := drift(_read(old / name), _read(new / name))) is None:
            moved.append(f"{name}: text other than numbers changed")
        else:
            moved.append(f"{name}: " + "; ".join(
                f"{count} {kind} cells moved, largest change {largest:.3g}"
                for kind, (count, largest) in cells.items()
            ))
    return [
        f"Golden files changed since merge base {base[:12]}, with the largest change of a"
        " numeric cell in each moved file:",
        FENCE, *(moved or ["no golden file moved"]), FENCE,
    ]


def bench_section(base: str, old: Path, new: Path) -> list[str]:
    differing = _differing(old, new, "bench", "BENCHMARK.json")
    changed = [f"{name}: {status}" for name, status in differing]
    return [
        f"Benchmark files changed since merge base {base[:12]}:", FENCE,
        *(changed or ["no benchmark file changed"]), FENCE,
    ]


def _test_ids(root: Path) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=root, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True,
    ).stdout
    return {line for line in out.splitlines() if "::" in line}


def ids_section(base: str, old: Path, new: Path) -> list[str]:
    now, before = _test_ids(new), _test_ids(old)
    removed = sorted(before - now)
    return [
        f"Test ids since merge base {base[:12]}: {len(now - before)} added, {len(removed)} removed",
        FENCE, *removed, FENCE,
    ]


def _kept(text: str) -> list[int]:
    """The numbers of the non-blank, non-comment lines of text."""
    return [
        i for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def code_lines(text: str) -> int:
    """The non-blank, non-comment lines of the module text that lie outside
    its module, class and function docstrings."""
    docs = set()
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(i not in docs for i in _kept(text))


def _module_counts(text: str) -> tuple[int, int, int]:
    """(non-blank, non-comment lines, code lines, lines with isinstance) of text."""
    checks = sum("isinstance" in line for line in text.splitlines())
    return len(_kept(text)), code_lines(text), checks


def lines_section(base: str, old: Path, new: Path) -> list[str]:
    package = "src/bohrineq"
    modules = sorted(
        {f"{package}/{p.name}" for root in (new, old) for p in (root / package).glob("*.py")}
    )
    counts = {m: (_module_counts(_read(new / m)), _module_counts(_read(old / m))) for m in modules}
    (lines, code, checks), (lines0, code0, checks0) = (
        [sum(pair[side][i] for pair in counts.values()) for i in range(3)] for side in (0, 1)
    )
    tests, tests0 = (
        sum(len(_kept(_read(p))) for p in (root / "tests").glob("*.py")) for root in (new, old)
    )
    readme, readme0 = (_read(root / "README.md") for root in (new, old))
    rlines, rwords = readme.count("\n"), len(readme.split())
    rlines0, rwords0 = readme0.count("\n"), len(readme0.split())
    return [
        f"Source lines (non-blank, non-comment) in src/bohrineq: {lines}",
        f"At merge base {base[:12]}: {lines0}; delta: {lines - lines0}",
        f"Lines with isinstance: {checks}; at merge base: {checks0}; delta: {checks - checks0}",
        f"Test lines (non-blank, non-comment) in tests/*.py: {tests}; at merge base: {tests0};"
        f" delta: {tests - tests0}",
        f"README.md: {rlines} lines, {rwords} words;"
        f" at merge base: {rlines0} lines, {rwords0} words;"
        f" delta: {rlines - rlines0} lines, {rwords - rwords0} words",
        "",
        "| module | lines | delta | code | at base | delta | isinstance | at base | delta |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
        *(f"| `{m}` | {n} | {n - n0} | {c} | {c0} | {c - c0} | {i} | {i0} | {i - i0} |"
          for m, ((n, c, i), (n0, c0, i0)) in counts.items()),
        "",
        f"Code lines (non-blank, non-comment, outside docstrings) in src/bohrineq: {code};"
        f" at merge base: {code0}; delta: {code - code0}",
    ]


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv[:1] and argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    base = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", base], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for section in (golden_section, bench_section, ids_section, lines_section):
            print("\n".join(section(base, Path(tmp), ROOT)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
