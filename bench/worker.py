"""Benchmark worker: one fresh interpreter per measured run.

Started by ``run.py``.  It sets up (imports the program from ``src/``,
computes the sharp constants once, generates the seeded operations), prints
``READY``, then runs the workload as a closed loop and prints one JSON line
with its measurements.  Calibration samples bracket every operation, and
the reported times are scaled to a reference host speed (see
``hostspeed.py``); the raw times go into the run record.  ``--setup-only``
exits right after ``READY``; the parent launches several of those to take
the median set-up time.

With ``--trace 1`` it runs the operation list (half the untraced size) once
untraced and once under the span tracer, then the named probes, and reports
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import probes
from hostspeed import Calibration
from spans import Tracer
from workloads import WORKLOADS, Context, build, rounds_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".bench_state"


def load_program() -> dict:
    import bohrineq
    from bohrineq import cli, constants, functionals, series, verify

    where = Path(bohrineq.__file__).resolve().parent
    if where != (ROOT / "src" / "bohrineq").resolve():
        raise SystemExit(f"bohrineq imported from {where}, not from this checkout's src/")
    return {"cli": cli, "constants": constants, "functionals": functionals, "series": series, "verify": verify}


def run_ops(ops, calibration: Calibration) -> dict:
    """Closed loop over the operations.  Each outcome is checked and dropped
    right after its operation, outside the measured time, so results do not
    pile up in the heap.  A calibration sample is taken right after every
    operation, and right before it unless the last sample has just ended.
    Returns the (start, end) perf_counter interval and CPU seconds of every
    operation, the failed count and the problems found."""
    intervals, cpus, failed, problems = [], [], 0, []
    for op in ops:
        calibration.sample_if_stale()
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # counted as a failed operation; the loop goes on
            result = exc
        end = time.perf_counter()
        cpus.append(cpu_seconds() - cpu0)
        intervals.append((start, end))
        calibration.sample()
        issues = check(op, result)
        del result
        if issues:
            failed += 1
            problems.append(issues[0])
    return {"intervals": intervals, "cpus": cpus, "failed": failed, "problems": problems}


def cpu_seconds() -> float:
    """User and system CPU time of this process, all threads included."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def check(op, result) -> list[str]:
    if isinstance(result, Exception):
        return [f"{op.kind}: raised {type(result).__name__}: {result}"]
    try:
        return op.check(result)
    except Exception as exc:  # a result the check cannot read is wrong
        return [f"{op.kind}: unreadable result ({type(exc).__name__}: {exc})"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def by_kind_ms(ops, latencies) -> dict:
    groups: dict[str, list[float]] = {}
    for op, lat in zip(ops, latencies):
        groups.setdefault(op.kind, []).append(lat)
    return {k: {"n": len(v), "median_ms": 1000.0 * statistics.median(v)} for k, v in sorted(groups.items())}


def timings(run: dict, factors: list[float]) -> dict:
    """wall_s, cpu_s, op_p50_ms and op_p90_ms of a run, each op's times
    multiplied by its factor."""
    ms = sorted(1000.0 * (end - start) * f for (start, end), f in zip(run["intervals"], factors))
    return {
        "wall_s": sum(ms) / 1000.0,
        "cpu_s": sum(c * f for c, f in zip(run["cpus"], factors)),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
    }


def scale_factors(run: dict, calibration: Calibration) -> list[float]:
    return [calibration.factor(start, end) for start, end in run["intervals"]]


def measure(args, ctx, ops) -> dict:
    calibration = Calibration()
    run = run_ops(ops, calibration)
    rss = peak_rss_mb()
    factors = scale_factors(run, calibration)
    scaled = [(end - start) * f for (start, end), f in zip(run["intervals"], factors)]
    return {
        "attempted": len(ops),
        "failed": run["failed"],
        "problems": run["problems"][:10],
        "metrics": dict(timings(run, factors), peak_rss_mb=rss),
        "raw": timings(run, [1.0] * len(ops)),
        "calibration": calibration.summary(),
        "op_samples": len(ops),
        "by_kind": by_kind_ms(ops, scaled),
    }


def layer_metrics(t: Tracer) -> dict:
    c = t.counters
    expand_calls = t.calls["series.expand"]
    evaluate_calls = t.calls["functionals.evaluate"]
    searches = t.calls["verify.radius_search"]
    return {
        "series.expand_ms": t.self_ms("series.expand"),
        "series.expand_calls": expand_calls,
        "series.expand_distinct_frac": len(t.expand_keys) / expand_calls if expand_calls else 0.0,
        "series.coeffs_built": c["coeffs_built"],
        "series.oracle_expand_ms": t.self_ms("series.oracle_expand"),
        "series.torus_check_ms": t.self_ms("series.torus_bound_check"),
        "series.torus_points": c["torus_points"],
        "series.tail_bound_calls": t.calls["series.majorant_tail_bound"],
        "functionals.evaluate_ms": t.self_ms("functionals.evaluate"),
        "functionals.evaluate_calls": evaluate_calls,
        "functionals.closed_form_frac": c["closed_form"] / evaluate_calls if evaluate_calls else 0.0,
        "functionals.area_term_ms": t.self_ms("functionals.area_term"),
        "functionals.area_term_calls": t.calls["functionals.area_term"],
        "verify.sweep_ms": t.self_ms("verify.theorem_sweep"),
        "verify.sweep_rows": c["sweep_rows"],
        "verify.scan_ms": t.self_ms("verify.sharpness_scan"),
        "verify.scan_rows": c["scan_rows"],
        "verify.radius_search_ms": t.self_ms("verify.radius_search"),
        "verify.evals_per_search": c["evaluate_in_search"] / searches if searches else 0.0,
        "verify.bisection_steps": c["bisection_steps"],
        "verify.lemma_ms": t.self_ms("verify.lemma1a_check", "verify.lemma1b_check", "verify.lemma1c_check"),
    }


#: Per-layer metrics that are exact counts and must repeat between two runs
#: of the same code with the same seed.
COUNTERS = (
    "series.expand_calls", "series.expand_distinct_frac", "series.coeffs_built",
    "series.torus_points", "series.tail_bound_calls", "functionals.evaluate_calls",
    "functionals.closed_form_frac", "functionals.area_term_calls", "verify.sweep_rows",
    "verify.scan_rows", "verify.evals_per_search", "verify.bisection_steps",
    "cli.stdout_bytes", "failed_frac",
)


def source_digest() -> str:
    """Digest of the program and benchmark sources: runs with the same
    digest and seed must report the same counters."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py")) + [BENCH / "reference.json"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def repeat_check(args, metrics: dict) -> list[str]:
    """Compare the counters with an earlier run of the same digest, seed and
    size, kept under .bench_state/; the first such run records them."""
    counters = {name: metrics[name] for name in COUNTERS}
    path = STATE / "counters" / f"{args.workload}-seed{args.seed}-s{args.seconds:g}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"counter {k} changed: {earlier.get(k)} -> {v}" for k, v in counters.items() if earlier.get(k) != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, indent=1, sort_keys=True))
    return []


def traced(args, ctx, ops) -> dict:
    m = ctx.modules
    plain_calibration, traced_calibration = Calibration(), Calibration()
    plain = run_ops(ops, plain_calibration)
    with Tracer(m) as tracer:
        run = run_ops(ops, traced_calibration)
    failed, problems = run["failed"], plain["problems"] + run["problems"]
    metrics = layer_metrics(tracer)
    # trace.wall_s is raw, on the clock of the spans; the overhead compares
    # scaled totals, so that a change of host speed between the passes
    # does not count as tracing overhead.
    metrics["trace.wall_s"] = sum(end - start for start, end in run["intervals"])
    plain_s = timings(plain, scale_factors(plain, plain_calibration))["wall_s"]
    traced_s = timings(run, scale_factors(run, traced_calibration))["wall_s"]
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    metrics["failed_frac"] = failed / len(ops)
    env, cwd = os.environ.copy(), str(ROOT)
    metrics.update(probes.library_probes(m))
    metrics.update(probes.import_probes(env, cwd))
    cli_metrics, cli_problems = probes.cli_probes(m, build("cli_round", args.seed, 1, ctx), env, cwd)
    metrics.update(cli_metrics)
    problems += cli_problems
    problems += repeat_check(args, metrics)
    trace_file = STATE / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"spans": tracer.table(), "metrics": metrics}, indent=1, sort_keys=True))
    return {"attempted": len(ops), "failed": failed, "problems": problems[:10], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = load_program()
    modules["constants"].sharp_constants()
    ctx = Context(modules, json.loads((BENCH / "reference.json").read_text()))
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops = build(args.workload, args.seed, rounds_for(args.workload, seconds), ctx)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    report = traced(args, ctx, ops) if args.trace else measure(args, ctx, ops)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
