"""Smoke self-test of the benchmark: every workload at reduced size.

    python3 -m pytest -q bench/test_smoke.py

Takes a few minutes (the traced runs include the fixed probes), which is why
it lives beside the benchmark and not in the tier-1 suite.  It asserts that
every metric named in BENCHMARK.json is emitted with its unit, that no
operation fails, and that the exact counters repeat between two traced runs
of the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))

from worker import COUNTERS  # noqa: E402

SEED = 7
SECONDS = "1"


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    plain = run(workload, 0)
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first, second = run(workload, 1), run(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["metrics"]["failed_frac"]["value"] == 0
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
