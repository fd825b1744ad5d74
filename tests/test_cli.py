"""CLI surface: report formats, determinism, and every exit code path."""

import csv
import importlib
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from bohrineq import cli
from bohrineq import verify as ver
from bohrineq.errors import (
    BohrIneqError,
    BudgetExceededError,
    DomainError,
    NonUniqueRootError,
    RootBracketError,
    UnsupportedInterpretationError,
)
from bohrineq.verify import grid_values, sharpness_scan


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no CSV rows in {text!r}"
    return rows


# ---------------------------------------------------------------- constants

def test_constants_csv_ok(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(float(row["lambda1"]) - 18.6095) < 1e-3
    assert abs(float(row["a_star1"]) - 0.567284) < 1e-6
    assert row["ok"] == "true"


def test_constants_json_fields(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert abs(row["p"] - 2.4721359550) < 1e-9
    assert abs(row["radius_abs_head"] - 0.236068) < 1e-6
    assert row["ok"] is True


def test_constants_residual_breach_exit_code(capsys):
    code, _, err = run_cli(capsys, "constants", "--tol", "1e-18")
    assert code == 2
    assert "a_star1" in err


# ---------------------------------------------------------------- verify

def test_verify_family_violation_row(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "classic",
        "--family", "moebius:0.5", "--r", "0.51",
    )
    assert code == 1
    (row,) = parse_csv(out)
    assert float(row["total"]) > 1.0
    assert float(row["margin"]) < 0.0


def test_verify_family_at_threshold_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "classic",
        "--family", "moebius:0.5", "--r", "threshold",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["r"]) == pytest.approx(1 / 3, abs=1e-9)


def test_verify_sweep_ok_and_header(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "T21", "--n", "1,2", "--a", "0:0.9:0.1",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == (
        "theorem,n,a,r,interpretation,head,tail,area,area_sq,extra,"
        "total,margin,certified"
    )
    rows = parse_csv(out)
    # 10 grid points: literal rows at n=1, literal+slice at n=2.
    assert len(rows) == 10 + 20


def test_verify_sweep_at_large_dimension_exits_cleanly():
    # The squared multinomial sums at n = 1200 are deeper than the
    # interpreter's recursion limit; a traceback would exit 1 ("violation").
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bohrineq.cli import main; sys.exit(main())",
         "verify", "--theorem", "T21", "--n", "1200", "--a", "0.5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = parse_csv(proc.stdout)
    assert [row["interpretation"] for row in rows] == ["literal", "slice"]
    assert all(row["n"] == "1200" and row["certified"] == "true" for row in rows)


@pytest.mark.parametrize("blocked", [True, False], ids=["numpy-blocked", "numpy-importable"])
def test_package_and_cli_need_no_numpy(blocked):
    # With numpy blocked, any import of it would raise ImportError; without
    # the block, nothing may import it either.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = (
        "import sys\n"
        + ("sys.modules['numpy'] = None\n" if blocked else "")
        + "import bohrineq\n"
        "from bohrineq.cli import main\n"
        "code = main(['verify', '--theorem', 'E', '--family', 'blaschke:0.3,-0.5'])\n"
        "loaded = [m for m in sys.modules if m.partition('.')[0] == 'numpy'\n"
        "          and sys.modules[m] is not None]\n"
        "print(code, loaded, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split("\n")[-2] == f"0 [] {blocked}"
    assert parse_csv(proc.stdout)[0]["certified"] == "true"


def test_cli_needs_nothing_from_site_packages():
    # No runtime dependency: with site-packages off, the package alone
    # writes the golden constants report.
    src = str(Path(cli.__file__).resolve().parents[1])
    script = "import sys\nfrom bohrineq.cli import main\nsys.exit(main(['constants']))\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "constants.csv").read_text(encoding="utf-8")


def test_console_script_is_the_cli_main(monkeypatch, capsys):
    # Python 3.10 has no TOML parser: the [project.scripts] table is read by regex.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    (target,) = re.findall(r'^bohrineq\s*=\s*"([\w.]+):(\w+)"\s*$', table, re.M)
    assert target == ("bohrineq.cli", "main")
    entry = getattr(importlib.import_module(target[0]), target[1])
    monkeypatch.setattr(sys, "argv", ["bohrineq", "constants"])
    assert entry() == 0
    assert capsys.readouterr().out == (GOLDEN / "constants.csv").read_text(encoding="utf-8")


def test_verify_output_byte_stable(tmp_path, capsys):
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "verify", "--theorem", "D", "--a", "0:0.5:0.05",
            "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_thm_e_margin_column(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "E", "--a", "0.999",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert 0.0 <= float(row["margin"]) < 1e-7


# ---------------------------------------------------------------- radius

def test_radius_closed_form_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "radius", "--functional", "classic", "--family", "moebius:0.9",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(float(row["radius"]) - 1.0 / 2.8) <= 1e-9
    assert row["binding"] == "true"


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_radius_that_does_not_bind(capsys, out_format):
    # A constant of modulus 0.4 keeps the classic total at 0.4 up to the cap:
    # no bisection runs, and the verdict at the cap is certified.
    code, out, _ = run_cli(
        capsys, "radius", "--functional", "classic", "--family", "const:0.4",
        "--format", out_format,
    )
    assert code == 0
    (row,) = parse_csv(out) if out_format == "csv" else json.loads(out)["rows"]
    expected = ("false", "true", "0") if out_format == "csv" else (False, True, 0)
    assert (row["binding"], row["certified"], row["iterations"]) == expected


# ---------------------------------------------------------------- scan

def test_scan_thm_c_locates_root(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--theorem", "C", "--epsilon", "0",
        "--a", "0:0.99:0.001", "--format", "json",
    )
    assert code == 0
    meta = json.loads(out)["meta"]
    assert abs(meta["argmax_a"] - 0.567284) < 1e-3
    assert meta["max_total"] <= 1.0 + 1e-12


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_scan_rows_keep_each_total_in_its_column(capsys, out_format):
    # With epsilon > 0 the perturbed total differs from the total in every
    # row, so a row that swapped them would show.
    code, out, _ = run_cli(
        capsys, "scan", "--theorem", "C", "--a", "0:0.9:0.1", "--epsilon", "0.5",
        "--format", out_format,
    )
    assert code == 0
    report = sharpness_scan("C", grid_values(0.0, 0.9, 0.1), epsilon=0.5)
    if out_format == "csv":
        rows = parse_csv(out)
        expected = [(cli._fmt(row.total), cli._fmt(row.perturbed_total)) for row in report.rows]
    else:
        rows = json.loads(out)["rows"]
        expected = [(row.total, row.perturbed_total) for row in report.rows]
    assert [(row["total"], row["perturbed_total"]) for row in rows] == expected
    assert all(total != perturbed for total, perturbed in expected)


@pytest.mark.parametrize("r, tol, expected", [
    ("0.33333333334", None, 1),
    ("0.33333333334", "1e-10", 0),
    ("0.3333333333334", None, 0),
])
def test_scan_exit_reads_the_closed_form_tolerance(capsys, r, tol, expected):
    # Just above r = 1/3 the C maximum exceeds 1 by 1.6e-11 (or 1.6e-13):
    # beyond the closed-form default 1e-12 (or within it), within 1e-10.
    argv = ["scan", "--theorem", "C", "--a", "0.5", "--r", r]
    code, _, _ = run_cli(capsys, *argv, *(["--tol", tol] if tol else []))
    assert code == expected


# ---------------------------------------------------------------- lemma

def test_lemma_part_a_scaled(capsys):
    code, out, _ = run_cli(
        capsys, "lemma", "--part", "a", "--family", "scaled:0.6,2", "--r", "0.5",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["ok"] == "true"
    assert float(row["lhs"]) < float(row["rhs"])


def test_lemma_part_c_moebius(capsys):
    code, out, _ = run_cli(
        capsys, "lemma", "--part", "c", "--family", "moebius:0.6", "--r", "0.4",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["lhs"]) == pytest.approx(float(row["rhs"]), abs=1e-10)


# ---------------------------------------------------------------- exit codes

def test_unknown_theorem_is_usage_error(capsys):
    for argv in (
        ["verify", "--theorem", "Z9"],
        ["scan", "--theorem", "Z9"],
        ["radius", "--functional", "thm_0.15", "--family", "moebius:0.5"],
        # --functional names a theorem; its preset's name is no choice.
        ["radius", "--functional", "thm_c", "--family", "moebius:0.5"],
        ["radius", "--functional", "thm_2_1", "--family", "unit:0.5,2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64
        assert out == ""
        assert f"invalid choice: {argv[2]!r}" in err


def test_malformed_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "radius", "--functional", "classic", "--family", "moebius:x")
    assert code == 64


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--n", "3"], "--n"),
        (["--a", "0.1:0.2:0.1"], "--a"),
        (["--n", "3", "--a", "0.1:0.2:0.1"], "--n and --a"),
    ],
    ids=["n", "a", "n-and-a"],
)
def test_verify_family_with_grid_flags_is_usage_error(capsys, flags, named):
    # A family fixes n and a: the grid flags are refused, not dropped.
    code, out, err = run_cli(
        capsys, "verify", "--theorem", "T21", "--family", "unit:0.5,2", *flags
    )
    assert code == 64
    assert out == ""
    assert f"--family cannot be combined with {named}" in err


@pytest.mark.parametrize("theorem, family, numbers", [
    # The rows that --functional thm_c and thm_2_1 printed, under the theorem id.
    ("C", "moebius:0.5", "0.333712537905,0.333712537439,0.333712538371,30,true,true"),
    ("T21", "moebius:0.5", "0.333712537905,0.333712537439,0.333712538371,30,true,true"),
])
def test_radius_theorem_id_prints_the_numbers_of_its_preset(capsys, theorem, family, numbers):
    code, out, _ = run_cli(capsys, "radius", "--functional", theorem, "--family", family)
    assert code == 0
    assert out.splitlines()[1].endswith("," + numbers)


@pytest.mark.parametrize("theorem, family, n", [
    ("C", "unit:0.5,2", 2), ("B1", "scaled:0.5,3", 3), ("classic", "unit:0.2,5", 5),
])
def test_verify_family_of_wrong_dimension_is_the_sweep_domain_error(capsys, theorem, family, n):
    # A single-variable theorem refuses an n >= 2 family as its sweep refuses --n.
    code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--family", family)
    assert code == 65
    assert out == ""
    assert err == f"domain error: theorem {theorem} is single-variable; n must be 1\n"
    assert run_cli(capsys, "verify", "--theorem", theorem, "--n", str(n))[2] == err


@pytest.mark.parametrize("theorem, family, expected", [
    ("T23", "unit:0.4,3", [
        "T23,3,0.4,0.0786893258333,literal,0.581188024869,0.218974221762,0.01323831051,0,"
        "0.0327269033951,0.832889150026,0.167110849974,true",
        "T23,3,0.4,0.0786893258333,slice,0.581188024869,0.218974221762,0.0400324559072,0,"
        "0.098965673615,0.899127920246,0.100872079754,true",
    ]),
    ("T21", "unit:0.3,3", [
        "T21,3,0.3,0.111111111111,literal,0.3,0.337037037037,0.0310147098877,"
        "0.0179007527972,0,0.710075051857,0.289924948143,true",
        "T21,3,0.3,0.111111111111,slice,0.3,0.337037037037,0.0938793093675,"
        "0.164011998642,0,0.967945585666,0.032054414334,true",
    ]),
])
def test_verify_family_multidimensional_rows_are_kept(capsys, theorem, family, expected):
    # Polydisk theorems keep every n >= 2 family, beside the golden T21 and T22 cases.
    code, out, _ = run_cli(capsys, "verify", "--theorem", theorem, "--family", family)
    assert code == 0
    assert out.splitlines()[1:] == expected


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--theorem", "classic", "--family", "moebius:1.5",
    )
    assert code == 65
    code, _, _ = run_cli(
        capsys, "verify", "--theorem", "classic", "--family", "moebius:0.5", "--r", "1.0",
    )
    assert code == 65


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "classic", "--family", "moebius:0.5", "--r", "nan"],
        ["verify", "--theorem", "classic", "--family", "const:nan", "--r", "0.3"],
        ["verify", "--theorem", "classic", "--family", "blaschke:0.3,nan"],
        ["verify", "--theorem", "classic", "--r", "nan"],
        ["verify", "--theorem", "classic", "--r", "inf"],
        ["lemma", "--part", "c", "--family", "moebius:0.5", "--r", "nan"],
        ["lemma", "--part", "c", "--family", "moebius:0.5", "--r", "inf"],
        ["radius", "--functional", "classic", "--family", "moebius:0.5", "--tol", "nan"],
        ["scan", "--theorem", "C", "--a", "0:0.5:0.1", "--epsilon", "nan"],
        ["scan", "--theorem", "C", "--epsilon", "inf"],
        ["radius", "--functional", "classic", "--family", "moebius:0.5", "--tol", "inf"],
        ["verify", "--theorem", "classic", "--family", "moebius:0.5", "--r", "0.9", "--tol", "inf"],
        ["verify", "--theorem", "classic", "--a", "0.5", "--r", "0.9", "--tol", "inf"],
        ["verify", "--theorem", "classic", "--family", "moebius:0.5", "--r", "0.9", "--tol=-inf"],
        ["scan", "--theorem", "C", "--a", "0.1:0.2:0.05", "--r", "0.9", "--tol", "inf"],
        ["lemma", "--part", "a", "--family", "moebius:0.5", "--r", "0.5", "--tol", "inf"],
        ["constants", "--tol", "inf"],
    ],
)
def test_non_finite_input_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 65
    assert out == ""
    assert "domain error" in err


_LEMMA_C = ["lemma", "--part", "c", "--family"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (_LEMMA_C + ["disk:0.5", "--r", "0.5"], 64, "unknown family 'disk'"),
        (_LEMMA_C + ["blaschke:", "--r", "0.5"], 64, "cannot parse family 'blaschke:': no zeros"),
        (
            ["verify", "--theorem", "C", "--a", "0:0.5"], 64,
            "cannot parse grid '0:0.5'; expected start:stop:step",
        ),
        (["verify", "--theorem", "T21", "--n", "1,x"], 64, "cannot parse dimension list '1,x'"),
        (["verify", "--theorem", "T21", "--n", ","], 64, "empty dimension list"),
        (_LEMMA_C + ["moebius:0.5", "--r", "threshold"], 64, "threshold radius needs a theorem id"),
        (["verify", "--theorem", "C", "--r", "x"], 64, "cannot parse radius 'x'"),
        (_LEMMA_C + ["moebius:0.5", "--r", "x"], 64, "cannot parse radius 'x'"),
        (["scan", "--theorem", "C", "--n", "x"], 64, "cannot parse dimension 'x'"),
        # A finite --tol recomputes ok: it passes the fail-closed Blaschke
        # tail at r = 0.99, and a negative or NaN one fails an exact pass.
        (_LEMMA_C + ["blaschke:0.5", "--r", "0.99", "--tol", "10"], 0, None),
        (_LEMMA_C + ["moebius:0.5", "--r", "0.5", "--tol", "-1"], 1, None),
        (_LEMMA_C + ["moebius:0.5", "--r", "0.5", "--tol", "nan"], 1, None),
    ],
)
def test_cli_parse_errors_and_lemma_tolerance_exit_codes(capsys, argv, code, message):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if message is None:
        assert err == "" and parse_csv(out)[0]["ok"] == ("true" if code == 0 else "false")
    else:
        assert (out, err) == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("target", [["--family", "moebius:0.5"], ["--a", "0.5"]])
def test_verify_nan_tolerance_fails_closed(capsys, target):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "classic", *target, "--tol", "nan", "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["meta"]["violations"] == 1


def test_constants_nan_tolerance_names_every_constant(capsys):
    code, out, err = run_cli(capsys, "constants", "--tol", "nan")
    assert code == 2
    assert parse_csv(out)[0]["ok"] == "false"
    assert err == (
        "constants residual breach: "
        "a_star1, a_star2, lambda1, lambda2, p, radius_abs_head\n"
    )


@pytest.mark.parametrize("tol", ["1e-16", "1e-20"])
def test_radius_below_float_spacing_terminates(tol):
    # Below the float spacing of the bracket the midpoint rounds to one of
    # its ends; the search stops there instead of looping forever.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bohrineq.cli import main; sys.exit(main())",
         "radius", "--functional", "classic", "--family", "moebius:0.5", "--tol", tol,
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)["rows"][0]
    assert row["hi"] == math.nextafter(row["lo"], math.inf)
    assert row["binding"] is True
    assert 30 < row["iterations"] < 64


def test_seed_flag_is_gone(capsys):
    code, _, _ = run_cli(capsys, "constants", "--seed", "1")
    assert code == 64


def _exit_code_paragraph(text):
    return text[text.index("Exit codes:"):].split("\n\n")[0]


def test_documented_exit_codes_match_the_constants():
    # One list in three places: a code dropped from one must go from all.
    docstring = {int(c) for c in re.findall(r"\b\d+\b", _exit_code_paragraph(cli.__doc__))}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = {
        int(c) for c in re.findall(r"`(\d+)`", _exit_code_paragraph(readme.read_text()))
    }
    constants = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert docstring == documented == constants == {0, 1, 2, 64, 65, 67, 73}


@pytest.mark.parametrize(
    "error", [RootBracketError, NonUniqueRootError, UnsupportedInterpretationError]
)
def test_domain_error_subclasses_exit_65(monkeypatch, capsys, error):
    assert issubclass(error, DomainError)
    assert issubclass(error, ValueError) and issubclass(error, BohrIneqError)

    def boom(*args, **kwargs):
        raise error("no root here")

    monkeypatch.setattr(cli.ver, "lemma1a_check", boom)
    code, out, err = run_cli(
        capsys, "lemma", "--part", "a", "--family", "scaled:0.6,2", "--r", "0.5",
    )
    assert code == 65
    assert out == ""
    assert err == "domain error: no root here\n"


def test_budget_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise BudgetExceededError("too many coefficients")

    monkeypatch.setattr(cli.ver, "lemma1a_check", boom)
    code, _, err = run_cli(
        capsys, "lemma", "--part", "a", "--family", "scaled:0.6,2", "--r", "0.5",
    )
    assert code == 67
    assert "budget" in err


@pytest.mark.parametrize("command", [["scan", "--theorem", "C"], ["verify", "--theorem", "C"]])
@pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0.5:0.1", "nan:1:0.1", "0:1:nan"])
def test_non_finite_grid_is_usage_error(capsys, command, grid):
    code, out, err = run_cli(capsys, *command, f"--a={grid}")
    assert code == 64
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("command", [["scan", "--theorem", "C"], ["verify", "--theorem", "C"]])
@pytest.mark.parametrize("grid", ["0:0.99:1e-12", "0:1000000:1", "-1e308:1e308:1"])
def test_oversized_grid_is_budget_error(capsys, command, grid):
    code, out, err = run_cli(capsys, *command, f"--a={grid}")
    assert code == 67
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_exits_73(tmp_path, capsys, where):
    path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "constants", "--out", str(path))
    assert code == 73
    assert out == ""
    assert err.startswith("output error: ") and str(path) in err


def test_out_file_and_json_stability(tmp_path, capsys):
    first = tmp_path / "scan1.json"
    second = tmp_path / "scan2.json"
    for path in (first, second):
        code, _, _ = run_cli(
            capsys, "scan", "--theorem", "E", "--a", "0:0.9:0.1",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["meta"]["command"] == "scan"


# ---------------------------------------------------------------- CSV writer

def _writer_csv(rows, columns):
    """The reference bytes: ``csv.writer`` with minimal quoting, as this
    Python's csv module writes, over the per-cell formatter emit used with it."""
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".12g")
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(fmt, row) for row in rows)
    return buffer.getvalue()


def _emitted(capsys, rows, columns):
    """What emit writes for rows, handed to it as columns."""
    by_column = [list(column) for column in zip(*rows)] or [[] for _ in columns]
    cli.emit(by_column, columns, "csv", None, {})
    return capsys.readouterr().out


TEXTS = [
    "", ",", '"', "\r", "\n", "a,b", 'say "hi"', "x\r\ny", "\r\n", " lead", "plain",
    "%", "50%", "%s", "%%", "%(a)s",
]
FLOATS = [
    math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, -1e16, 1e300, 1 / 3,
    18.609549031341185,
]
INTS = [0, -7, 10**20]
BOOLS = [True, False]


@pytest.mark.parametrize("value", TEXTS + FLOATS + INTS + BOOLS)
def test_emit_writes_each_cell_as_the_csv_writer(capsys, value):
    # One cell in a one-row report, and beside other cells in two rows.
    for rows, columns in (([(value,)], ["x"]), ([(value, 1, "t"), (value, 2.5, "")], ["x", "n", "s"])):
        assert _emitted(capsys, rows, columns) == _writer_csv(rows, columns)


def test_emit_matches_the_csv_writer_on_mixed_and_repeated_columns(capsys):
    rng = random.Random(33)
    pool = TEXTS + FLOATS + INTS + BOOLS
    # Equal but distinct objects in one column: each keeps its own text.
    rows = [(-0.0, 1, "t", 0.5), (0.0, True, "t", 0.5), (0.0, 1.0, "t", 0.5)]
    columns = ["zero", "one", "text", "half"]
    assert _emitted(capsys, rows, columns) == _writer_csv(rows, columns)
    for _ in range(50):
        width = rng.randint(1, 6)
        same = [rng.choice(pool) for _ in range(width)]
        rows = [
            tuple(same[k] if rng.random() < 0.5 else rng.choice(pool) for k in range(width))
            for _ in range(rng.randint(1, 8))
        ]
        columns = [f"c{k}" for k in range(width)]
        assert _emitted(capsys, rows, columns) == _writer_csv(rows, columns)
    assert _emitted(capsys, [], ["a", "b"]) == _writer_csv([], ["a", "b"]) == "a,b\n"


def test_emit_matches_the_csv_writer_on_the_default_c_scan(capsys):
    code, out, _ = run_cli(capsys, "scan", "--theorem", "C")
    assert code == 0
    report = sharpness_scan("C", grid_values(0.0, 0.9999, 0.0001))
    rows = [("C", 1, a, report.bold_r, 0.0, total, perturbed) for a, total, perturbed in report.rows]
    assert len(rows) == 10_001
    assert out == _writer_csv(rows, cli.SCAN_COLUMNS)


def test_emit_fills_its_template_from_float_text_and_mixed_columns(capsys):
    # Columns that vary: floats fill %.12g, text and mixed columns their
    # cells' text; beside them a column of one object, alone or not.
    rng = random.Random(36)
    for _ in range(40):
        size = rng.randint(1, 6)
        floats = [rng.choice(FLOATS) for _ in range(size)]
        texts = [rng.choice(TEXTS) for _ in range(size)]
        mixed = [rng.choice(TEXTS + FLOATS + INTS + BOOLS) for _ in range(size)]
        for value in ("%", 0.5, True, 7):
            rows = list(zip(floats, texts, [value] * size, mixed))
            names = ["f", "t", "one", "m"]
            assert _emitted(capsys, rows, names) == _writer_csv(rows, names)
        for column in (floats, texts, mixed, [rng.choice(BOOLS) for _ in range(size)]):
            rows = [(value,) for value in column]
            assert _emitted(capsys, rows, ["x"]) == _writer_csv(rows, ["x"])


def test_float_template_writes_the_text_of_the_cell_formatter():
    rng = random.Random(3602)
    values = [
        struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(10_000)
    ]
    values += [math.ldexp(rng.random(), rng.randint(-1080, 1024)) for _ in range(10_000)]
    values += [rng.uniform(-2.0, 2.0) for _ in range(10_000)]
    values += FLOATS + [float(k) for k in range(-5, 6)]
    assert len(values) > 30_000
    assert ["%.12g" % x for x in values] == ["{:.12g}".format(x) for x in values]


def _golden_csv_cases():
    """One case per CSV golden file, with the file name as its test id, so
    that adding a golden case renames no other case's id."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    return [
        pytest.param(name, case["argv"], id=name)
        for name, case in sorted(manifest.items()) if ".csv" in name
    ]


def _row_path(report, columns):
    """The rows the CLI wrote before it read columns: from a scan's or a
    sweep's rows, else the one row of the command's values."""
    if isinstance(report, ver.ScanReport):
        r, epsilon = report.bold_r, report.epsilon
        return [
            (report.theorem, report.n, a, r, epsilon, total, perturbed)
            for a, total, perturbed in report.rows
        ]
    if isinstance(report, ver.SweepReport):
        return [
            (row.theorem, row.n, row.a, row.r, row.breakdown.interpretation, *row.breakdown[:8])
            for row in report.rows
        ]
    return list(zip(*columns))


def _recorded(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends (args, result) to calls."""
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)


@pytest.mark.parametrize("name, argv", _golden_csv_cases())
def test_columnar_csv_equals_the_csv_writer_on_the_rows_of_every_golden_case(
    monkeypatch, capsys, name, argv
):
    emitted, reports = [], []
    _recorded(monkeypatch, cli, "emit", emitted)
    _recorded(monkeypatch, ver, "sharpness_scan", reports)
    _recorded(monkeypatch, ver, "theorem_sweep", reports)
    cli.main(argv)
    out = capsys.readouterr().out
    (((columns, names, *_), _),) = emitted
    rows = _row_path(reports[0][1] if reports else None, columns)
    assert len(rows) == len(columns[0])
    assert out == _writer_csv(rows, names) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", [
    p.name for p in sorted((Path(__file__).parent / "golden").glob("*.csv"))
    if p.name.startswith(("radius_", "lemma_"))
])
def test_emit_keeps_the_quoted_family_cells_of_the_golden_files(capsys, name):
    # Read back as text cells, the golden rows are written to their own bytes
    # by emit and by this Python's csv module alike.
    golden = (Path(__file__).parent / "golden" / name).read_text()
    columns, *rows = map(tuple, csv.reader(io.StringIO(golden)))
    family = rows[0][columns.index("family")]
    assert (f'"{family}"' in golden) == ("," in family)
    assert _emitted(capsys, rows, list(columns)) == _writer_csv(rows, columns) == golden
