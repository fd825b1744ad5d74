"""Golden reports: every CLI subcommand, byte for byte, with its exit code.

``tests/golden/manifest.json`` maps each case name to its argv and exit code;
``tests/golden/<name>`` holds the stdout of that run.  A refactor that keeps
the reports passes unchanged; a change that alters a reported number must
regenerate the files and say which value was wrong.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from bohrineq import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

_SCAN_GRID = "0:0.995:0.005"

#: (name stem, argv without --format); each runs as CSV and as JSON.
CASES = [
    ("constants", ["constants"]),
    ("verify_t21", ["verify", "--theorem", "T21", "--n", "1,2,3,5"]),
    ("verify_c", ["verify", "--theorem", "C"]),
    ("verify_moebius", ["verify", "--theorem", "classic", "--family", "moebius:0.5"]),
    ("verify_moebius_violation",
     ["verify", "--theorem", "classic", "--family", "moebius:0.5", "--r", "0.51"]),
    ("verify_unit", ["verify", "--theorem", "T21", "--family", "unit:0.5,2"]),
    ("verify_scaled", ["verify", "--theorem", "T22", "--family", "scaled:0.6,3", "--r", "0.2"]),
    ("verify_const", ["verify", "--theorem", "B1", "--family", "const:0.4"]),
    ("verify_blaschke", ["verify", "--theorem", "E", "--family", "blaschke:0.3,-0.5"]),
    ("radius_moebius", ["radius", "--functional", "classic", "--family", "moebius:0.9"]),
    ("radius_unit", ["radius", "--functional", "T21", "--family", "unit:0.5,2"]),
    ("radius_blaschke", ["radius", "--functional", "E", "--family", "blaschke:0.3,0.5"]),
    ("scan_c", ["scan", "--theorem", "C", "--a", _SCAN_GRID]),
    ("scan_t22", ["scan", "--theorem", "T22", "--n", "3", "--a", _SCAN_GRID]),
    ("lemma_a_moebius", ["lemma", "--part", "a", "--family", "moebius:0.5", "--r", "0.5"]),
    ("lemma_b_scaled", ["lemma", "--part", "b", "--family", "scaled:0.6,2", "--r", "0.7"]),
    ("lemma_c_moebius", ["lemma", "--part", "c", "--family", "moebius:0.6", "--r", "0.4"]),
    ("lemma_a_blaschke",
     ["lemma", "--part", "a", "--family", "blaschke:0.5,-0.3", "--r", "0.5"]),
    ("lemma_b_blaschke",
     ["lemma", "--part", "b", "--family", "blaschke:0.5,-0.3", "--r", "0.8"]),
    ("lemma_c_blaschke",
     ["lemma", "--part", "c", "--family", "blaschke:0.5,-0.3", "--r", "0.2"]),
]


def _runs():
    for stem, argv in CASES:
        for fmt in ("csv", "json"):
            yield f"{stem}.{fmt}", argv + ["--format", fmt]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv", list(_runs()), ids=[name for name, _ in _runs()])
def test_golden_report(name, argv):
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    assert manifest[name]["argv"] == argv
    code, text = _run(argv)
    assert code == manifest[name]["exit"]
    assert text.encode("utf-8") == (GOLDEN / name).read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in _runs():
        code, text = _run(argv)
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
        manifest[name] = {"argv": argv, "exit": code}
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "manifest.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
