"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/record.py

Writes ``bench/reference.json``: the sharp constants at full precision (the
oracle's theorem weights) and, for every CLI operation of the CLI pool,
its exit code, row count and rows (every stride-th row of long reports).
Run it only at a commit whose outputs are known to be right; the file is the
definition of "correct" for the CLI operations.
"""

from __future__ import annotations

import json
from pathlib import Path

from bohrineq import cli, constants

from workloads import cli_key, cli_pool, record_entry, run_cli_inprocess


def main() -> None:
    c = constants.sharp_constants()
    reference = {
        "constants": {
            "a_star1": c.a_star1,
            "a_star2": c.a_star2,
            "lambda1": c.lambda1,
            "lambda2": c.lambda2,
            "p": c.p,
        },
        "cli": {},
    }
    for slot in cli_pool():
        for argv in slot:
            code, text = run_cli_inprocess(cli, argv)
            reference["cli"][cli_key(argv)] = record_entry(argv, code, text)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(reference['cli'])} CLI operations)")


if __name__ == "__main__":
    main()
