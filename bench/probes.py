"""Named probes: fixed single measurements that reproduce the layer table of
the roadmap's baseline (import, constants, evaluate paths, expansion and
torus check at the cap, cold CLI subcommands).  They run in every traced run,
after the workload, so every traced run reports the same metric names."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from spans import Tracer
from workloads import run_cli_inprocess

#: Cold CLI per-operation timeout; a whole run must end within 180 s.
CLI_TIMEOUT_S = 60


def run_cold(argv: list[str], env: dict, cwd: str) -> tuple[int, str]:
    """One CLI operation as a fresh process: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "bohrineq.cli", *argv],
        env=env,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


_TIMED_IMPORT = (
    "import time; c = time.process_time(); w = time.perf_counter(); import bohrineq; "
    "print(time.perf_counter() - w, time.process_time() - c)"
)


def import_probes(env: dict, cwd: str, reps: int = 3) -> dict:
    """Interpreter start-up, and the wall and CPU time of ``import bohrineq``
    in a fresh process.  CPU time counts every thread, so a thread pool that
    spins at import shows here.  numpy's share comes from ``-X importtime``
    and reads 0 when the package does not import numpy."""
    python, wall, cpu, numpy = [], [], [], []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
        python.append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c", _TIMED_IMPORT],
            env=env, cwd=cwd, check=True, capture_output=True, text=True,
        ).stdout.split()
        wall.append(float(out[0]))
        cpu.append(float(out[1]))
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bohrineq"],
            env=env, cwd=cwd, check=True, capture_output=True, text=True,
        ).stderr
        numpy.append(_cumulative_us(err, "numpy"))
    return {
        "import.python_ms": 1000.0 * statistics.median(python),
        "import.numpy_ms": statistics.median(numpy) / 1000.0,
        "import.bohrineq_ms": 1000.0 * statistics.median(wall),
        "import.bohrineq_cpu_ms": 1000.0 * statistics.median(cpu),
    }


def _cumulative_us(importtime: str, module: str) -> float:
    for line in importtime.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return float(parts[1])
    return 0.0


def library_probes(m: dict) -> dict:
    fun, ser, sharp = m["functionals"], m["series"], m["constants"]
    classic = fun.preset("classic")
    literal = fun.preset("thm_c").with_interpretation(fun.INTERP_LITERAL)
    thm_e = fun.preset("thm_e")
    unit3 = ser.ExtremalPolydiskUnit(0.75, 3)
    cap = ser.domain_radius_cap(unit3)
    start = time.perf_counter()
    series = ser.expand(unit3, ser.default_truncation(unit3, cap))
    expand_s = time.perf_counter() - start
    start = time.perf_counter()
    ser.torus_bound_check(series, cap, samples_per_axis=8)
    torus_s = time.perf_counter() - start
    del series
    return {
        "constants.compute_ms": _median_ms(sharp.SharpConstants.compute, 7),
        "functionals.evaluate_closed_us": 1000.0 * _median_ms(
            lambda: fun.evaluate(classic, ser.MoebiusDisk(0.5), fun.RadiusSpec.diagonal(1, 1 / 3)), 201
        ),
        "functionals.evaluate_literal_n3_us": 1000.0 * _median_ms(
            lambda: fun.evaluate(literal, ser.ExtremalPolydiskUnit(0.5, 3), fun.RadiusSpec.diagonal(3, 1 / 9)), 201
        ),
        "functionals.evaluate_vector_ms": _median_ms(
            lambda: fun.evaluate(literal, ser.ExtremalPolydiskUnit(0.5, 2), fun.RadiusSpec((0.1, 0.3))), 15
        ),
        "functionals.evaluate_blaschke_ms": _median_ms(
            lambda: fun.evaluate(thm_e, ser.FiniteBlaschke((0.3, -0.5, 0.2j)), fun.RadiusSpec.diagonal(1, 0.3)), 31
        ),
        "series.expand_cap_n3_s": expand_s,
        "series.torus_cap_n3_s": torus_s,
    }


CLI_COMMANDS = ("constants", "verify", "radius", "scan", "lemma")


def cli_probes(m: dict, cli_ops, env: dict, cwd: str) -> dict:
    """One round of the CLI mix: cold per-subcommand medians, and the
    self time of ``cli.main`` and the stdout bytes of an in-process replay.
    Returns the metrics and the problems the checks of both runs found."""
    cold: dict[str, list[float]] = {name: [] for name in CLI_COMMANDS}
    problems: list[str] = []
    for op in cli_ops:
        start = time.perf_counter()
        result = run_cold(op.argv, env, cwd)
        cold[op.argv[0]].append(time.perf_counter() - start)
        problems += op.check(result)
    stdout_bytes = 0
    with Tracer(m) as tracer:
        for op in cli_ops:
            code, text = run_cli_inprocess(m["cli"], op.argv)
            stdout_bytes += len(text.encode())
            problems += op.check((code, text))
    out = {f"cli.{name}_ms": 1000.0 * statistics.median(cold[name]) for name in CLI_COMMANDS}
    out["cli.main_ms"] = tracer.self_ms("cli.main")
    out["cli.stdout_bytes"] = stdout_bytes
    return out, problems
