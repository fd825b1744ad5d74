"""Golden reports: every CLI subcommand, byte for byte, with its exit code.

``tests/golden/manifest.json`` maps each case name to its argv and exit code;
``tests/golden/<name>`` holds the stdout of that run.  ``library.txt`` holds
one ``label = repr`` line per library result on a path the CLI never takes
(vector radii, evaluation points, constants under every preset, lemmas on
every family class, sweeps and scans with repeats, radius searches, Blaschke
products under every preset, and the reference sums of ``crosscheck.py``
over expanded series, beside the slice area of their family).  The package
is pure Python and its summation orders are fixed, so every line, the
certified Blaschke suprema included, is deterministic.  A
refactor that keeps the reports passes unchanged; a change that alters a
reported number must regenerate the files and say which value was wrong.
Regenerate with

    PYTHONPATH=src python tests/test_golden.py --regenerate

which rewrites every file from the code under test and prints the names of
the files whose bytes changed.  Run with no argument or any other argument,
the script prints this usage and exits 2 without writing anything.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

import crosscheck
from change_report import drift
from bohrineq import cli
from bohrineq import functionals as fun
from bohrineq import series as ser
from bohrineq import verify as ver

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
    ("scan_c_epsilon", ["scan", "--theorem", "C", "--epsilon", "0.001", "--a", _SCAN_GRID]),
    ("scan_b1", ["scan", "--theorem", "B1", "--a", _SCAN_GRID]),
    ("scan_t23_epsilon",
     ["scan", "--theorem", "T23", "--n", "2", "--epsilon", "0.001", "--a", _SCAN_GRID]),
    ("verify_t22_violation",
     ["verify", "--theorem", "T22", "--n", "5,2", "--a", "0:0.9:0.3", "--r", "0.19"]),
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


def test_golden_directory_holds_the_cases_and_nothing_else():
    # A case dropped from CASES leaves a stale manifest key and an orphaned
    # file behind; both are caught here, as is a case with no file.
    runs = {name for name, _ in _runs()}
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == runs
    assert {path.name for path in GOLDEN.iterdir()} == runs | {"library.txt", "manifest.json"}


def _library() -> str:
    """The text of ``library.txt``: float inputs only."""
    lines = []

    def add(label, value):
        lines.append(f"{label} = {value!r}")

    interps = (fun.INTERP_LITERAL, fun.INTERP_SLICE)
    vector_cases = [
        (ser.ExtremalPolydiskUnit(0.5, 2), [(0.1, 0.3), (0.0, 0.45)]),
        (ser.ExtremalPolydiskUnit(0.9, 3), [(0.1, 0.04, 0.02), (0.3, 0.01, 0.2)]),
        (ser.ExtremalPolydiskScaled(0.6, 2), [(0.0, 0.7), (0.2, 0.9)]),
        (ser.ExtremalPolydiskScaled(0.3, 3), [(0.2, 0.5, 0.9), (0.05, 0.1, 0.3)]),
    ]
    for family, radii in vector_cases:
        for coords in radii:
            for name in fun._preset_table():
                for interp in interps:
                    spec = fun.preset(name).with_interpretation(interp)
                    out = fun.evaluate(spec, family, fun.RadiusSpec(coords))
                    add(f"evaluate {name} {interp} {family!r} {coords!r}", out)

    point_cases = [
        (ser.MoebiusDisk(0.5), (0.3j,)),
        (ser.ExtremalPolydiskUnit(0.5, 2), (0.1, -0.2j)),
        (ser.ExtremalPolydiskScaled(0.6, 3), (0.2, 0.1 + 0.1j, -0.3)),
        (ser.FiniteBlaschke((0.5, -0.3 + 0.2j)), (0.2 - 0.1j,)),
        (ser.ConstantFn(0.4j), (0.1,)),
    ]
    for family, point in point_cases:
        radius = fun.RadiusSpec.diagonal(family.n, 0.25)
        for name in fun._preset_table():
            out = fun.evaluate(fun.preset(name), family, radius, point)
            add(f"evaluate {name} {family!r} 0.25 at {point!r}", out)

    for c in (0.0, 0.4j, -1.0):
        for r in (0.0, 0.3):
            for name in fun._preset_table():
                for interp in interps:
                    spec = fun.preset(name).with_interpretation(interp)
                    out = fun.evaluate(spec, ser.ConstantFn(c), fun.RadiusSpec.diagonal(1, r))
                    add(f"evaluate {name} {interp} ConstantFn({c!r}) {r!r}", out)

    lemma_families = [
        ser.MoebiusDisk(0.5),
        ser.ExtremalPolydiskScaled(0.6, 2),
        ser.ExtremalPolydiskScaled(0.3, 3),
        ser.FiniteBlaschke((0.5, -0.3)),
        ser.ConstantFn(0.4),
    ]
    for family in lemma_families:
        checks = ((ver.lemma1a_check, 0.5), (ver.lemma1b_check, 0.8), (ver.lemma1c_check, 0.2))
        for check, r in checks:
            # K=None: each lemma sums to the degree ``truncation`` picks for its tail.
            add(f"{check.__name__} {family!r} {r!r} K=None", check(family, r))
        for r in (0.0, 0.2, 0.5, 0.99):
            add(f"default_truncation {family!r} {r!r}", ser.default_truncation(family, r))

    sweep_cases = [
        ("T21", [3, 2, 3], [0.5, -0.0, 0.2, 0.5, 0.0], [0.1, 0.05, 0.1], None),
        ("T23", [2, 2], [0.9, 0.1, 0.9], None, None),
        ("C", [1, 1], [0.9, -0.0, 0.3, 0.9], [0.3, 0.3, 0.25], None),
        # Flagged: 0.19 is beyond the T22 threshold at n = 5, 0.4 beyond the
        # classic one, and a NaN tolerance flags every literal row.
        ("T22", [2, 5], [0.9, 0.3, 0.9], [0.19, 0.1], None),
        ("classic", [1], [0.9, 0.5, -0.0, 0.7, 0.0], [0.4, 0.3, 0.4], None),
        ("C", [1], [0.2, 0.6], [0.3, 0.2], math.nan),
    ]
    for tid, ns, grid, radii, tol in sweep_cases:
        report = ver.theorem_sweep(tid, ns, grid, radii, tol)
        label = f"theorem_sweep {tid} {ns!r} {grid!r} {radii!r}"
        label += "" if tol is None else f" tol={tol!r}"
        for row in report.rows:
            add(label, row)
        add(f"{label} worst_margin", report.worst_margin)
        add(f"{label} violations", len(report.violations))
        for row in report.violations:
            add(f"{label} violation", row)

    scan_grid = [0.9, -0.0, 0.3, 0.55, 0.3, 0.0, 0.75]
    for tid, n in (("C", 1), ("D", 1), ("T21", 2), ("T22", 3)):
        for epsilon in (0.0, 1e-3):
            report = ver.sharpness_scan(tid, scan_grid, n=n, epsilon=epsilon)
            label = f"sharpness_scan {tid} n={n} {scan_grid!r} epsilon={epsilon!r}"
            for row in report.rows:
                add(label, row)
            add(f"{label} bold_r", report.bold_r)
            add(f"{label} max", (report.max_total, report.argmax_a))
            add(f"{label} perturbed max", (report.perturbed_max, report.perturbed_argmax))
            add(f"{label} a_star", report.a_star)

    search_families = [
        ser.MoebiusDisk(0.5),
        ser.MoebiusDisk(0.9),
        ser.ExtremalPolydiskUnit(0.5, 2),
        ser.ExtremalPolydiskUnit(0.3, 3),
    ]
    for family in search_families:
        for name in ("classic", "thm_c", "thm_d", "thm_e"):
            add(f"radius_search {name} {family!r}", ver.radius_search(fun.preset(name), family))

    blaschke_families = [
        ser.FiniteBlaschke((0.5, -0.3 + 0.2j, 0.1j)),
        ser.FiniteBlaschke((0.3, -0.5)),
        ser.FiniteBlaschke((0.9,)),
        ser.FiniteBlaschke((0.0, 0.6j)),
    ]
    for family in blaschke_families:
        for r in (0.0, 0.2, 0.5, 0.8):
            for name in fun._preset_table():
                out = fun.evaluate(fun.preset(name), family, fun.RadiusSpec.diagonal(1, r))
                add(f"evaluate {name} {family!r} {r!r}", out)
    for family in blaschke_families[:2]:
        for name in ("classic", "thm_b1", "thm_b2", "thm_d", "thm_e", "thm_2_3"):
            add(f"radius_search {name} {family!r}", ver.radius_search(fun.preset(name), family))

    series_cases = [
        (ser.MoebiusDisk(0.5), (0.3,)),
        (ser.ExtremalPolydiskUnit(0.5, 2), (0.2, 0.2)),
        (ser.ExtremalPolydiskUnit(0.5, 3), (0.1, 0.04, 0.02)),
        (ser.ExtremalPolydiskScaled(0.6, 2), (0.2, 0.7)),
        (ser.FiniteBlaschke((0.5, -0.3 + 0.2j)), (0.6,)),
        (ser.ConstantFn(0.4), (0.3,)),
    ]
    for family, coords in series_cases:
        radius = fun.RadiusSpec(coords)
        for series in (
            ser.expand(family, ser.default_truncation(family, radius.bold_r)),
            ser.oracle_expand(family, 8),
        ):
            label = f"{family!r} K={series.truncation} {coords!r}"
            add(f"majorant {label}", crosscheck.majorant(series, radius))
            add(f"area_term literal {label}", crosscheck.literal_area(series, radius))
            add(f"area_term slice {label}", fun.area_term(family, radius, fun.INTERP_SLICE))
    return "\n".join(lines) + "\n"


def test_golden_library():
    assert _library().encode("utf-8") == (GOLDEN / "library.txt").read_bytes()


@pytest.mark.parametrize("argv", [[], ["--help"], ["regenerate"], ["--regenerate", "--force"]])
def test_script_writes_nothing_without_regenerate(argv, monkeypatch, capsys):
    def refuse():
        raise AssertionError("golden files rewritten")

    monkeypatch.setitem(globals(), "regenerate", refuse)
    assert main(argv) == 2
    assert "usage: python tests/test_golden.py --regenerate" in capsys.readouterr().err


def test_regenerate_lists_the_files_it_changed(monkeypatch, tmp_path, capsys):
    for path in GOLDEN.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "scan_c.csv").write_bytes(b"stale\n")
    (tmp_path / "constants.json").unlink()
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    assert main(["--regenerate"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "changed: constants.json",
        "changed: scan_c.csv",
        "2 golden files changed",
    ]
    for path in GOLDEN.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()


def test_golden_drift_pairs_the_number_cells_of_a_moved_file():
    old = 'c,"blaschke:0.5,-0.3",T21,0.0847672955975,18,(0.5+0.2j),true\n'
    new = 'c,"blaschke:0.5,-0.3",T21,0.0847672955976,15,(0.5+0.2j),true\n'
    moved = drift(old, new)
    assert moved.keys() == {"real", "integer"}
    assert moved["real"][0] == 1 and moved["real"][1] == pytest.approx(1e-13, rel=1e-3)
    assert moved["integer"] == (1, 3.0)
    assert drift(old, old) == {}
    # A verdict or any other text that moves leaves no cells to pair.
    assert drift(old, old.replace("true", "false")) is None
    assert drift(old, old.replace("T21", "T22")) is None


def regenerate() -> list[str]:
    """Rewrite every golden file; return the names whose bytes changed."""
    GOLDEN.mkdir(exist_ok=True)
    files = {}
    manifest = {}
    for name, argv in _runs():
        code, text = _run(argv)
        files[name] = text.encode("utf-8")
        manifest[name] = {"argv": argv, "exit": code}
    files["library.txt"] = _library().encode("utf-8")
    files["manifest.json"] = (json.dumps(manifest, indent=1, sort_keys=True) + "\n").encode()
    changed = []
    for name, data in files.items():
        path = GOLDEN / name
        if not path.exists() or path.read_bytes() != data:
            changed.append(name)
        path.write_bytes(data)
    return changed


def main(argv: list[str]) -> int:
    if argv != ["--regenerate"]:
        print(__doc__, file=sys.stderr)
        print("usage: python tests/test_golden.py --regenerate", file=sys.stderr)
        return 2
    changed = regenerate()
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(changed)} golden files changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
