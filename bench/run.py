"""bohrineq benchmark: one measured run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/``.  The
last line of stdout is the result: ``correct``, ``attempted``, ``failed`` and
the metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
The line before it records the environment of the run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

#: Set-up-only worker launches before and after the measured worker; the
#: median of all their set-up times is setup_s.  Sampling on both sides
#: spreads the samples over the run, as the host's speed drifts.
SETUP_SAMPLES_AROUND = 3
#: A run must end within 180 s.
WORKER_TIMEOUT_S = 170

BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def steal_ticks() -> int | None:
    """Aggregate CPU steal ticks from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def launch(args, env, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time (launch to READY) and, unless
    set-up only, its report."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    return setup, None if setup_only else json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One measured run of one bohrineq benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bohrineq" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    steal0, load0 = steal_ticks(), os.getloadavg()
    extra = 0 if args.trace else SETUP_SAMPLES_AROUND
    setups = [launch(args, env, setup_only=True)[0] for _ in range(extra)]
    setup, report = launch(args, env, setup_only=False)
    setups.append(setup)
    steal1 = steal_ticks()
    setups += [launch(args, env, setup_only=True)[0] for _ in range(extra)]

    values = dict(report["metrics"], setup_s=statistics.median(setups))
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load0,
        "loadavg_end": os.getloadavg(),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "blas_env": {k: os.environ[k] for k in BLAS_VARIABLES if k in os.environ},
        "setup_samples_s": setups,
        "raw": report.get("raw"),
        "calibration": report.get("calibration"),
        "op_samples": report.get("op_samples"),
        "by_kind": report.get("by_kind"),
        "problems": report["problems"],
    }
    print(json.dumps({"run": record}))
    correct = report["failed"] == 0 and not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
