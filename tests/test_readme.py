"""Every example of the README runs as written: the Python blocks, and the
``$ bohrineq ...`` examples with the exit code and the output they show."""

import re
import shlex
from pathlib import Path

import pytest

from bohrineq import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.M | re.S)


def test_readme_python_blocks_run_in_order():
    # One namespace, in order: a block may use the names an earlier one bound.
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def _cli_examples() -> list[tuple[str, list[str]]]:
    """(command line, shown output lines) of each ``$ bohrineq`` example: a
    line that starts with ``$ bohrineq`` in a block that is not Python, and
    the lines after it up to a blank line or the end of the block."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "python":
            for chunk in re.split(r"\n\s*\n", body):
                command, *shown = chunk.strip("\n").split("\n")
                if command.startswith("$ bohrineq"):
                    examples.append((command, shown))
    return examples


def _pattern(shown: list[str]) -> str:
    """The output a shown block stands for: each line as written, where
    ``...`` in a line is any text, and a line ``...`` any number of lines."""
    def line_pattern(line: str) -> str:
        if line == "...":
            return r"(?:[^\n]*\n)*"
        return "[^\n]*".join(map(re.escape, line.split("..."))) + "\n"

    return "".join(map(line_pattern, shown))


EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 5
    assert TEXT.count("\n$ bohrineq") == len(EXAMPLES)


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[" ".join(c.split()) for c, _ in EXAMPLES])
def test_readme_cli_example_runs_as_shown(capsys, command, shown):
    # Each example states its exit code; stdout then stderr is what it shows.
    match = re.fullmatch(r"\$ (bohrineq .*?)\s+# exit (\d+)", command)
    assert match, f"{command!r} does not state its exit code"
    code = cli.main(shlex.split(match[1])[1:])
    captured = capsys.readouterr()
    assert code == int(match[2])
    assert re.fullmatch(_pattern(shown), captured.out + captured.err), captured.out + captured.err


def test_readme_cites_no_per_call_time():
    assert not re.search(r"\d\s*(?:µs|us|ms|microsecond|millisecond)s?\b", TEXT)
