"""The verdicts of the mutation check in ``tests/mutants.py``, without
running the suite: each row from the exit statuses of a mutant's killer
run alone and of the suite run, and one runner call on a small tree."""

import pytest

import mutants
from mutants import Mutant

KILLER = "tests/test_cli.py::test_it[a b]"
FIRST = "tests/test_series.py::test_first"
KILLED = Mutant("m", "cli.py", "a", "b", "a guard", killer=KILLER)
UNNAMED = Mutant("m", "cli.py", "a", "b", "a guard")
EQUIVALENT = Mutant("m", "cli.py", "a", "b", "a guard", equivalent="no test can tell")


@pytest.mark.parametrize(
    "mutant, killer, suite, expected",
    [
        (KILLED, 1, None, (f"killed by `{KILLER}`", False)),
        (KILLED, 0, 1, (f"killed by `{FIRST}`; stale killer `{KILLER}` (exit 0)", True)),
        (KILLED, 0, 0, (f"survived; stale killer `{KILLER}` (exit 0)", True)),
        (KILLED, 4, 1, (f"killed by `{FIRST}`; stale killer `{KILLER}` (exit 4)", True)),
        (KILLED, 5, 1, (f"killed by `{FIRST}`; stale killer `{KILLER}` (exit 5)", True)),
        (KILLED, 0, 2, ("pytest exit 2", True)),
        (UNNAMED, None, 1, (f"killed by `{FIRST}`; no killer", True)),
        (UNNAMED, None, 0, ("survived", True)),
        (EQUIVALENT, None, 0, ("survived (equivalent: no test can tell)", False)),
        (EQUIVALENT, None, 1, (f"killed by `{FIRST}`; no killer", True)),
    ],
    ids=[
        "killer-fails", "killer-passes", "killer-passes-survived", "killer-not-found",
        "killer-not-collected", "suite-interrupted", "no-killer", "survived",
        "equivalent", "equivalent-killed",
    ],
)
def test_verdict_of_each_killer_and_suite_exit(mutant, killer, suite, expected):
    assert mutants.verdict(mutant, killer, suite, FIRST) == expected


@pytest.mark.parametrize(
    "suite, killers, expected",
    [
        (0, {KILLER: 0, FIRST: 0}, ("passed", False)),
        (0, {KILLER: 0, FIRST: 1}, (f"fails alone: `{FIRST}` (exit 1)", True)),
        (0, {KILLER: 4, FIRST: 0}, (f"fails alone: `{KILLER}` (exit 4)", True)),
        (1, {}, ("pytest exit 1", True)),
    ],
    ids=["passed", "killer-fails-alone", "killer-not-found", "suite-fails"],
)
def test_unmutated_copy_needs_the_suite_and_each_killer_to_pass(suite, killers, expected):
    assert mutants.unmutated(suite, killers) == expected


@pytest.mark.parametrize(
    "out, expected",
    [
        (f"F\n===== short test summary info =====\nFAILED {KILLER} - assert 1 == 2\n", KILLER),
        (f"FAILED {KILLER}\nFAILED {FIRST} - AssertionErro...\n", KILLER),
        (f"E\nERROR {FIRST} - RuntimeError\n1 error in 0.1s\n", FIRST),
        ("....\n4 passed in 0.1s\n", ""),
    ],
    ids=["message", "no-message", "error", "passed"],
)
def test_first_failed_reads_the_summary(out, expected):
    assert mutants.first_failed(out) == expected


@pytest.mark.parametrize(
    "rows, status",
    [
        ({None: False, KILLED: False, EQUIVALENT: False}, 0),
        ({None: False, KILLED: True, EQUIVALENT: False}, 1),
        ({None: True}, 1),
    ],
    ids=["all-good", "one-bad-row", "unmutated-bad"],
)
def test_exit_status_is_1_on_any_bad_row(rows, status, monkeypatch, capsys):
    monkeypatch.setattr(mutants, "MUTANTS", [KILLED, EQUIVALENT])
    monkeypatch.setattr(mutants, "run", lambda mutant: ("result", 0.0, rows[mutant]))
    assert mutants.main() == status
    assert capsys.readouterr().out.count("| result | 0.0 |") == len(rows)


def test_each_mutant_names_a_killer_or_why_it_is_equivalent():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (m.killer is None) != (m.equivalent is None), m.name
        assert m.killer is None or m.killer.startswith("tests/test_"), m.name


def test_runner_reports_a_killer_it_cannot_find_as_stale(tmp_path, monkeypatch):
    package = tmp_path / "src" / "bohrineq"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "guard.py").write_text("LIMIT = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_guard.py").write_text(
        "from bohrineq.guard import LIMIT\n\n\ndef test_limit():\n    assert LIMIT == 1\n"
    )
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    gone = "tests/test_guard.py::test_gone"
    mutant = Mutant("limit", "guard.py", "LIMIT = 1", "LIMIT = 2", "the limit", killer=gone)
    result, _, bad = mutants.run(mutant)
    assert result == f"killed by `tests/test_guard.py::test_limit`; stale killer `{gone}` (exit 4)"
    assert bad
