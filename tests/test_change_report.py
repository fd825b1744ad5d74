"""The change report of ``tests/change_report.py``: its line counters, its
lines, golden and benchmark sections, and its usage error.  The golden drift is tested
in ``test_golden.py``."""

import subprocess
import sys

import pytest

import change_report

#: Module, class and function docstrings, comments and blank lines around
#: seven lines of code; one string statement that is not a docstring.
MODULE = '''"""Module docstring,
on two lines."""

import os  # a comment after code


# A comment line.
class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        return os.sep


async def coroutine():
    """One line."""
    text = """not a docstring"""
    return isinstance(text, str)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert change_report.code_lines(MODULE) == 7
    assert change_report.code_lines("") == 0


def _tree(root, module):
    (root / "src" / "bohrineq").mkdir(parents=True)
    (root / "src" / "bohrineq" / "thing.py").write_text(module, encoding="utf-8")
    (root / "tests").mkdir()
    (root / "tests" / "test_thing.py").write_text("# A comment.\n\ndef test_it():\n    pass\n")
    (root / "README.md").write_text("# Title\n\nTwo words.\n")
    return root


def test_lines_section_reads_zero_deltas_with_one_tree_as_both_sides(tmp_path):
    tree = _tree(tmp_path, MODULE)
    assert change_report.lines_section("0123456789abcdef", tree, tree) == [
        "Source lines (non-blank, non-comment) in src/bohrineq: 13",
        "At merge base 0123456789ab: 13; delta: 0",
        "Lines with isinstance: 1; at merge base: 1; delta: 0",
        "Test lines (non-blank, non-comment) in tests/*.py: 2; at merge base: 2; delta: 0",
        "README.md: 3 lines, 4 words; at merge base: 3 lines, 4 words; delta: 0 lines, 0 words",
        "",
        "| module | lines | delta | code | at base | delta | isinstance | at base | delta |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
        "| `src/bohrineq/thing.py` | 13 | 0 | 7 | 7 | 0 | 1 | 1 | 0 |",
        "",
        "Code lines (non-blank, non-comment, outside docstrings) in src/bohrineq: 7;"
        " at merge base: 7; delta: 0",
    ]


def test_lines_section_reads_a_module_on_one_side_as_empty_on_the_other(tmp_path):
    new = _tree(tmp_path / "new", MODULE)
    old = _tree(tmp_path / "old", "x = 1\n")
    (old / "src" / "bohrineq" / "thing.py").rename(old / "src" / "bohrineq" / "gone.py")
    rows = change_report.lines_section("HEAD", old, new)
    assert rows[1] == "At merge base HEAD: 1; delta: 12"
    assert rows[8:10] == [
        "| `src/bohrineq/gone.py` | 0 | -1 | 0 | 1 | -1 | 0 | 0 | 0 |",
        "| `src/bohrineq/thing.py` | 13 | 13 | 7 | 0 | 7 | 1 | 0 | 1 |",
    ]
    assert rows[-1].endswith(": 7; at merge base: 1; delta: 6")


def test_golden_section_compares_two_trees_without_git(tmp_path):
    # Neither tree is a git checkout: a file on one side only shows as new or
    # removed, a moved file with its drift, a file whose text around the
    # numbers changed says so, and an equal file not at all.
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "same.csv": ("a,1.5\n", "a,1.5\n"), "moved.csv": ("r,0.25,3\n", "r,0.5,4\n"),
        "text.csv": ("x,1\n", "y,1\n"), "gone.json": ("{}\n", None), "added.json": (None, "{}\n"),
    }
    for name, texts in files.items():
        for root, text in zip((old, new), texts):
            (root / "tests" / "golden").mkdir(parents=True, exist_ok=True)
            if text is not None:
                (root / "tests" / "golden" / name).write_text(text, encoding="utf-8")
    assert change_report.golden_section("0123456789abcdef", old, new) == [
        "Golden files changed since merge base 0123456789ab, with the largest change of a"
        " numeric cell in each moved file:",
        change_report.FENCE,
        "tests/golden/added.json: new",
        "tests/golden/gone.json: removed",
        "tests/golden/moved.csv: 1 real cells moved, largest change 0.25;"
        " 1 integer cells moved, largest change 1",
        "tests/golden/text.csv: text other than numbers changed",
        change_report.FENCE,
    ]


def test_bench_section_compares_two_trees_without_git(tmp_path):
    # A file on the new side only, as an untracked file would be, shows as
    # new; a removed and a changed file show too, and neither an equal file
    # nor a bytecode cache does.
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "bench/added.py": (None, "x = 1\n"), "bench/gone.py": ("x = 1\n", None),
        "bench/run.py": ("x = 1\n", "x = 2\n"), "bench/same.py": ("x = 1\n", "x = 1\n"),
        "bench/__pycache__/run.pyc": (None, "bytes"), "BENCHMARK.json": ("{}\n", "{}\n"),
        "README.md": ("a\n", "b\n"),
    }
    for name, texts in files.items():
        for root, text in zip((old, new), texts):
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text, encoding="utf-8")
    assert change_report.bench_section("0123456789abcdef", old, new) == [
        "Benchmark files changed since merge base 0123456789ab:",
        change_report.FENCE,
        "bench/added.py: new",
        "bench/gone.py: removed",
        "bench/run.py: changed",
        change_report.FENCE,
    ]
    (new / "BENCHMARK.json").write_text("{}", encoding="utf-8")
    assert change_report.bench_section("HEAD", old, new)[2:-1] == [
        "BENCHMARK.json: changed", "bench/added.py: new", "bench/gone.py: removed",
        "bench/run.py: changed",
    ]
    assert change_report.bench_section("HEAD", old, old)[2:] == [
        "no benchmark file changed", change_report.FENCE,
    ]


@pytest.mark.parametrize("argv", [["--section", "lines"], ["-h"], ["HEAD", "HEAD"]])
def test_usage_error_exits_2_with_the_docstring(argv):
    run = subprocess.run(
        [sys.executable, change_report.__file__, *argv], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr == change_report.__doc__ + "\n"
    assert run.stdout == ""
