"""The benchmark workloads and the CLI round of the traced probes: how their
operations are generated from the seed, and how each operation's outcome is
checked.

An operation is one call a user makes: a CLI process, or one public library
call.  Every workload is a single-process closed loop: the next operation
starts only after the previous one returned.  Inputs come from
``random.Random(f"{workload}/{seed}")``, so a seed always yields the same
operations.  Each check returns a list of problems; an empty list means the
outcome is the expected one (for the expected-failure CLI operations that is
the recorded non-zero exit code).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle as orc

WORKLOADS = ("sweep_closed", "series_expand")

#: Rounds of each workload's operation mix per requested second.  At the
#: commit that defined the benchmark the rounds fill about the requested
#: time (40 s) on the host described in hostspeed.py, and every workload
#: runs at least 100 operations, so that 10 samples lie beyond the p90.
ROUNDS_PER_SECOND = {
    "sweep_closed": 3.8,
    "series_expand": 0.05,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


@dataclass
class Op:
    """One operation: ``call`` runs it in-process; ``argv`` marks a CLI
    operation, which the cold CLI probes run as a fresh process instead."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    argv: list[str] | None = None


@dataclass
class Context:
    """Program modules, recorded references, and the outcomes that passed."""

    modules: dict
    reference: dict
    weights: dict = field(init=False)
    passed: set = field(default_factory=set)

    def __post_init__(self):
        self.weights = orc.preset_weights(self.reference["constants"])

    def check_once(self, signature, full_check) -> list[str]:
        """Full check the first time an outcome is seen; an outcome equal
        to one that passed passes too.  Sweeps and scans repeat every round."""
        if signature in self.passed:
            return []
        problems = full_check()
        if not problems:
            self.passed.add(signature)
        return problems


def build(workload: str, seed: int, rounds: int, ctx: Context) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}")
    builder = {
        "cli_round": _cli_round,
        "sweep_closed": _sweep_round,
        "series_expand": _series_round,
    }[workload]
    state = builder(None, rng, ctx)  # per-seed fixed inputs
    ops: list[Op] = []
    for _ in range(rounds):
        batch = builder(state, rng, ctx)
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def _close(label: str, value: float, ref: float) -> list[str]:
    return _expect(orc.close(value, ref), f"{label}: {value!r} != {ref!r}")


def _within(label: str, value: float, lo: float, hi: float) -> list[str]:
    ok = lo - orc.SLACK <= value <= hi + orc.SLACK
    return _expect(ok, f"{label}: {value!r} outside [{lo!r}, {hi!r}]")


# --------------------------------------------------------------------------
# cli_round: the CLI operations of the traced probes (and of record.py)
# --------------------------------------------------------------------------

_A_POOL = ("0.15", "0.25", "0.35", "0.45", "0.55", "0.65", "0.75", "0.85")
_N_POOL = ("2", "3", "2", "3", "5", "2", "3", "5")
_R_POOL = ("0.2", "0.3", "0.4", "0.5", "0.6", "0.25", "0.35", "0.45")


def cli_pool() -> list[list[list[str]]]:
    """Every CLI operation slot with its variants.  One round runs each slot
    once, with a variant drawn from the seed; the reference file holds the
    output of every variant at the commit that defined the benchmark."""
    variants = list(zip(_A_POOL, _N_POOL, _R_POOL))

    def each(make):
        return [make(a, n, r) for a, n, r in variants]

    return [
        [["constants"]],
        [["constants", "--format", "json"]],
        [["verify", "--theorem", "T21", "--n", "1,2,3,5"]],
        [["verify", "--theorem", "C"]],
        each(lambda a, n, r: ["verify", "--theorem", "E", "--family", f"moebius:{a}"]),
        each(lambda a, n, r: ["verify", "--theorem", "T23", "--family", f"unit:{a},{n}"]),
        each(lambda a, n, r: ["radius", "--functional", "classic", "--family", f"moebius:{a}"]),
        each(lambda a, n, r: ["radius", "--functional", "T21", "--family", f"unit:{a},{n}"]),
        [["scan", "--theorem", "C"]],
        [["scan", "--theorem", "T22", "--n", "3"]],
        each(lambda a, n, r: ["lemma", "--part", "a", "--family", f"moebius:{a}", "--r", r]),
        each(lambda a, n, r: ["lemma", "--part", "b", "--family", f"scaled:{a},{n}", "--r", r]),
        each(lambda a, n, r: ["lemma", "--part", "c", "--family", f"moebius:{a}", "--r", r]),
        # Expected failures: a violation (exit 1) and a usage error (exit 64).
        each(
            lambda a, n, r: [
                "verify", "--theorem", "classic", "--family", f"moebius:{a}",
                "--r", repr(round(1.0 / (1.0 + 2.0 * float(a)) + 0.02, 6)),
            ]
        ),
        each(lambda a, n, r: ["radius", "--functional", f"thm_{a}", "--family", "moebius:0.5"]),
    ]


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


#: Outputs with more rows than this are recorded as every stride-th row.
MAX_RECORDED_ROWS = 120


def parse_output(argv: list[str], text: str) -> list:
    """Rows of a CLI report: JSON reports compare only ``rows``."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(text)["rows"] if text else []
    return list(csv.reader(io.StringIO(text)))


def record_entry(argv: list[str], code: int, text: str) -> dict:
    rows = parse_output(argv, text)
    stride = max(1, math.ceil(len(rows) / MAX_RECORDED_ROWS))
    return {"exit": code, "count": len(rows), "stride": stride, "rows": rows[::stride]}


def _same(path: str, value, ref) -> list[str]:
    """Compare a report (rows, cells) with its reference: numbers within
    the oracle tolerance, everything else exactly."""
    if isinstance(ref, (list, dict)):
        if type(value) is not type(ref) or len(value) != len(ref):
            return [f"{path}: shape differs"]
        keys = ref.keys() if isinstance(ref, dict) else range(len(ref))
        if isinstance(ref, dict) and set(value) != set(ref):
            return [f"{path}: keys differ"]
        return [p for k in keys for p in _same(f"{path}[{k}]", value[k], ref[k])][:5]
    if isinstance(ref, float) or (isinstance(ref, str) and _is_number(ref)):
        if isinstance(value, bool) or not (isinstance(value, (int, float)) or _is_number(value)):
            return [f"{path}: {value!r} is not a number"]
        return _close(path, float(value), float(ref))
    return _expect(value == ref, f"{path}: {value!r} != {ref!r}")


def _is_number(text) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def check_cli(argv: list[str], ref: dict, result) -> list[str]:
    code, text = result
    label = cli_key(argv)
    problems = _expect(code == ref["exit"], f"{label}: exit {code} != {ref['exit']}")
    try:
        rows = parse_output(argv, text)
    except (ValueError, KeyError) as exc:
        return problems + [f"{label}: unreadable output ({exc})"]
    problems += _expect(len(rows) == ref["count"], f"{label}: {len(rows)} rows != {ref['count']}")
    return problems + _same(f"{label} rows[::{ref['stride']}]", rows[:: ref["stride"]], ref["rows"])


def _cli_round(state, rng, ctx):
    if state is None:
        return cli_pool()
    refs = ctx.reference["cli"]
    ops = []
    for slot in state:
        argv = list(rng.choice(slot))
        ref = refs[cli_key(argv)]
        ops.append(
            Op(
                kind=f"cli.{argv[0]}",
                call=lambda argv=argv: run_cli_inprocess(ctx.modules["cli"], argv),
                check=lambda result, argv=argv, ref=ref: check_cli(argv, ref, result),
                argv=argv,
            )
        )
    return ops


def run_cli_inprocess(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout and stderr captured, as the in-process replay of
    one CLI operation."""
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------------------
# sweep_closed: closed-form and diagonal library paths
# --------------------------------------------------------------------------

_SINGLE = ("classic", "A", "B1", "B2", "C", "D", "E")
_MULTI = ("T21", "T22", "T23")


def _sweep_round(state, rng, ctx):
    m = ctx.modules
    ver, fun, ser = m["verify"], m["functionals"], m["series"]
    if state is None:
        # Grids are fixed per seed; offsets keep every parameter off the
        # equality points, where the verdict would rest on rounding.
        grids = {t: [(k + rng.uniform(0.05, 0.95)) / 100 for k in range(100)] for t in ver.THEOREMS}
        scans = {
            key: [(k + rng.uniform(0.05, 0.95)) / 2000 for k in range(2000)]
            for key in (("C", 1), ("D", 1), ("T21", 2), ("T22", 3))
        }
        return grids, scans
    grids, scans = state
    ops = []
    for tid in _SINGLE + _MULTI:
        n_list = [1, 2, 3, 5] if tid in _MULTI else None
        ops.append(
            Op(
                "verify.theorem_sweep",
                lambda tid=tid, n_list=n_list: ver.theorem_sweep(tid, n_list, grids[tid]),
                lambda rep, tid=tid, n_list=n_list: _check_sweep(ctx, tid, n_list or [1], rep),
            )
        )
    for (tid, n), grid in scans.items():
        ops.append(
            Op(
                "verify.sharpness_scan",
                lambda tid=tid, n=n, grid=grid: ver.sharpness_scan(tid, grid, n=n),
                lambda rep, grid=grid: _check_scan(ctx, rep, grid),
            )
        )
    for tid, multi in (("classic", False), ("E", False), ("T21", True), ("T23", True)):
        a = round(rng.uniform(0.2, 0.8), 6)
        n = rng.choice((2, 3)) if multi else 1
        family = ser.ExtremalPolydiskUnit(a, n) if multi else ser.MoebiusDisk(a)
        spec = fun.preset(ver.THEOREMS[tid].preset_name)
        fam = orc.Moebius(a, n, 1)
        ops.append(
            Op(
                "verify.radius_search",
                lambda spec=spec, family=family: ver.radius_search(spec, family),
                lambda res, tid=tid, fam=fam: _check_radius(
                    res,
                    lambda r: orc.moebius_terms(ctx.weights[tid], fam, (r,) * fam.n, "slice"),
                ),
            )
        )
    for part in ("a", "b", "a", "b"):
        a = round(rng.uniform(0.0, 0.9), 6)
        n = rng.choice((1, 2, 3))
        r = round(rng.uniform(0.05, 0.7), 6)
        family = ser.MoebiusDisk(a) if n == 1 else ser.ExtremalPolydiskScaled(a, n)
        fn = ver.lemma1a_check if part == "a" else ver.lemma1b_check
        ops.append(
            Op(
                f"verify.lemma1{part}_check",
                lambda name=fn.__name__, family=family, r=r: getattr(ver, name)(family, r),
                lambda res, part=part, fam=orc.Moebius(a, n, n), r=r: _check_lemma_ab(part, fam, r, res),
            )
        )
    return ops


def _check_sweep(ctx, tid, n_list, rep) -> list[str]:
    rows = tuple(
        (r.n, r.a, r.r, r.breakdown.interpretation, r.breakdown.head_value, r.breakdown.majorant_tail,
         r.breakdown.area_term, r.breakdown.total, r.breakdown.certified)
        for r in rep.rows
    )
    return ctx.check_once((tid, len(rep.violations), rows), lambda: _check_sweep_rows(ctx, tid, n_list, rep))


def _check_sweep_rows(ctx, tid, n_list, rep) -> list[str]:
    expected_rows = sum(100 * (1 if n == 1 else 2) for n in n_list)
    problems = _expect(len(rep.rows) == expected_rows, f"sweep {tid}: {len(rep.rows)} rows")
    problems += _expect(not rep.violations, f"sweep {tid}: {len(rep.violations)} violations")
    w = ctx.weights[tid]
    for row in rep.rows:
        b = row.breakdown
        ref = orc.moebius_terms(w, orc.Moebius(row.a, row.n, 1), (row.r,) * row.n, b.interpretation)
        label = f"sweep {tid} n={row.n} a={row.a} {b.interpretation}"
        problems += _close(f"{label} head", b.head_value, ref.head)
        problems += _close(f"{label} tail", b.majorant_tail, ref.tail)
        problems += _close(f"{label} area", b.area_term, ref.area)
        problems += _close(f"{label} total", b.total, ref.total)
        problems += _expect(b.certified is True, f"{label}: not certified")
        if len(problems) > 5:
            break
    return problems[:5]


def _check_scan(ctx, rep, grid) -> list[str]:
    rows = tuple((row.a, row.total, row.perturbed_total) for row in rep.rows)
    signature = (rep.theorem, rep.n, rep.bold_r, rep.a_star, rep.max_total, rows)
    return ctx.check_once(signature, lambda: _check_scan_rows(ctx, rep, grid))


def _check_scan_rows(ctx, rep, grid) -> list[str]:
    tid, n = rep.theorem, rep.n
    expected = len(grid) + (0 if rep.a_star is None or rep.a_star in grid else 1)
    problems = _expect(len(rep.rows) == expected, f"scan {tid}: {len(rep.rows)} rows")
    problems += _expect(rep.max_total <= 1.0 + orc.SLACK, f"scan {tid}: max {rep.max_total}")
    a_star = ctx.reference["constants"]["a_star1" if tid in ("C", "T21") else "a_star2"]
    problems += _close(f"scan {tid} a_star", rep.a_star, a_star)
    w = ctx.weights[tid]
    for row in rep.rows:
        ref = orc.moebius_terms(w, orc.Moebius(row.a, n, 1), (rep.bold_r,) * n, "slice")
        problems += _close(f"scan {tid} a={row.a}", row.total, ref.total)
        problems += _expect(row.perturbed_total == row.total, f"scan {tid} a={row.a} perturbed")
        if len(problems) > 5:
            break
    return problems[:5]


def _check_radius(res, terms_range) -> list[str]:
    """The bracket must straddle total = 1: every correct value at the lower
    end is <= 1 and at the upper end > 1.  ``terms_range(r)`` gives the
    oracle's terms, or a (lower, upper) pair of them when the head is only
    enclosed."""
    lo, hi = res.bracket

    def bounds(r):
        t = terms_range(r)
        return (t[0].total, t[1].total) if isinstance(t, tuple) else (t.total, t.total)

    problems = _expect(res.binding is True, "radius search not binding")
    problems += _expect(0.0 <= hi - lo <= 1e-9 * (1 + 1e-6), f"bracket width {hi - lo}")
    problems += _expect(lo <= res.radius <= hi, "radius outside its bracket")
    problems += _expect(bounds(lo)[0] <= 1.0 + orc.SLACK, f"total above 1 at lo={lo}")
    problems += _expect(bounds(hi)[1] >= 1.0 - orc.SLACK, f"total below 1 at hi={hi}")
    return problems


def _check_lemma_ab(part, fam, r, res) -> list[str]:
    a0 = fam.a
    if part == "a":
        lhs = fam.lemma_a_lhs(r)
        rhs = r * r * (1 - a0 * a0) ** 2 / (1 - a0 * a0 * r * r) ** 2
    else:
        lhs = fam.lemma_b_lhs(r)
        rhs = r * (1 - a0 * a0) ** 2 / (1 - a0 * a0 * r)
    label = f"lemma 1{part} a={fam.a} n={fam.n} r={r}"
    return (
        _close(f"{label} lhs", res.lhs, lhs)
        + _close(f"{label} rhs", res.rhs, rhs)
        + _expect(res.ok is True, f"{label}: not ok")
    )


# --------------------------------------------------------------------------
# series_expand: paths that build or re-build coefficient series
# --------------------------------------------------------------------------

#: The parametrization of the torus-at-cap test: a is capped per dimension
#: so that the certified truncation fits the coefficient budget.
CAP_CASES = (
    [(1, a) for a in (0.0, 0.25, 0.5, 0.75, 0.85)]
    + [(2, a) for a in (0.0, 0.25, 0.5, 0.75, 0.85)]
    + [(3, a) for a in (0.0, 0.25, 0.5, 0.75)]
)
_ORACLE_DEGREE = {2: 30, 3: 14}
#: Largest coordinate of the vector radii, as a share of the domain cap, and
#: the family parameter; both set the truncation degree and so the cost.
_VECTOR_TOP = {2: 0.8, 3: 0.3}
_VECTOR_A = 0.5


def _series_round(state, rng, ctx):
    m = ctx.modules
    ser, fun, ver = m["series"], m["functionals"], m["verify"]
    if state is None:
        return {z: orc.Blaschke(z) for z in SEARCH_PRODUCTS}
    ops = []
    for n, a in CAP_CASES:
        for family in (ser.ExtremalPolydiskUnit(a, n), ser.ExtremalPolydiskScaled(a, n)):
            ops.append(Op("series.cap_torus", lambda f=family: _cap_torus(ser, f), _check_torus))
    # 14 ops per round take 0.15-4.5 s (the cap cases n = 2, a >= 0.75 and
    # n = 3, a >= 0.5, and the Blaschke searches), too few and too unlike
    # each other to hold a percentile steadily.  The many distinct-zero-set
    # ops of ``_blaschke_ops`` put the p90 rank inside the E evaluations (about 20 ms) and
    # the p50 rank inside the lemma 1c checks (about 10 ms).
    for n in (2, 3) * 3:
        a = round(rng.uniform(0.2, 0.8), 6)
        family = rng.choice((ser.ExtremalPolydiskUnit, ser.ExtremalPolydiskScaled))(a, n)
        K = _ORACLE_DEGREE[n]
        ops.append(
            Op(
                "series.oracle_agreement",
                lambda f=family, K=K: (ser.oracle_expand(f, K), ser.expand(f, K)),
                _check_agreement,
            )
        )
    for n in (2, 3) * 8:
        a = _VECTOR_A
        scaled = rng.random() < 0.5
        family = (ser.ExtremalPolydiskScaled if scaled else ser.ExtremalPolydiskUnit)(a, n)
        cap = 1.0 if scaled else 1.0 / n
        top = _VECTOR_TOP[n] * cap
        radii = [top] + [round(rng.uniform(0.05, 1.0) * top, 9) for _ in range(n - 1)]
        rng.shuffle(radii)
        tid = rng.choice(("T21", "T23", "E"))
        spec = fun.preset(ver.THEOREMS[tid].preset_name).with_interpretation(fun.INTERP_LITERAL)
        fam = orc.Moebius(a, n, n if scaled else 1)
        ops.append(
            Op(
                "functionals.evaluate_vector",
                lambda spec=spec, f=family, radii=tuple(radii): fun.evaluate(spec, f, fun.RadiusSpec(radii)),
                lambda res, w=ctx.weights[tid], fam=fam, radii=tuple(radii): _check_vector(w, fam, radii, res),
            )
        )
    return ops + _blaschke_ops(state, rng, ctx)


def _cap_torus(ser, family):
    cap = ser.domain_radius_cap(family)
    series = ser.expand(family, ser.default_truncation(family, cap))
    samples = 16 if ser.dimension(family) < 3 else 8
    return ser.torus_bound_check(series, cap, samples_per_axis=samples)


def _check_torus(report) -> list[str]:
    # The sample grid contains the aligned point where |s| reaches its cap,
    # and |f| = 1 there, so the sampled supremum is 1 up to the tail.
    return (
        _expect(report.ok is True and report.certified is True, f"torus report not ok: {report}")
        + _expect(abs(report.sup_modulus - 1.0) <= 1e-9, f"torus sup {report.sup_modulus}")
    )


def _check_agreement(pair) -> list[str]:
    oracle, closed = pair
    keys = set(oracle.coeffs) | set(closed.coeffs)
    bad = [
        k
        for k in keys
        if abs(oracle.coefficient(k) - closed.coefficient(k))
        > 1e-12 * max(1.0, abs(oracle.coefficient(k)))
    ]
    return _expect(not bad, f"expand and oracle_expand differ at {len(bad)} indices")


def _check_vector(w, fam, radii, res) -> list[str]:
    """Enclosure: the exact value at the true polyradius from below, the
    conservative enclosing-diagonal value from above."""
    lo = orc.moebius_terms(w, fam, radii, "literal")
    hi = orc.moebius_upper_terms(w, fam, radii, "literal")
    label = f"vector a={fam.a} n={fam.n} q={fam.q} r={radii}"
    return (
        _within(f"{label} head", res.head_value, lo.head, hi.head)
        + _within(f"{label} tail", res.majorant_tail, lo.tail, hi.tail)
        + _within(f"{label} area", res.area_term, lo.area, hi.area)
        + _within(f"{label} total", res.total, lo.total, hi.total)
    )


# Finite Blaschke products: a radius search evaluates one family about 94
# times and re-expands it each time, while the distinct zero sets are used
# once each, so a per-family cache would help the first and cost the second.

#: The fixed products of the radius searches.
SEARCH_PRODUCTS = ((0.3, 0.5), (0.3, -0.5, 0.2j))
_SEARCH_PRESETS = (("classic", "classic"), ("thm_b1", "B1"), ("thm_e", "E"))


#: Radius of the distinct-zero-set ops.  The truncation degree, and so the
#: cost, depends on it, so it is fixed and only the zeros vary (K = 141).
_DISTINCT_R = 0.8
#: Distinct zero sets per round: E evaluations and lemma 1c checks.
DISTINCT_EVALUATES = 40
DISTINCT_LEMMAS = 176


def _random_zeros(rng, count: int) -> tuple[complex, ...]:
    zeros = []
    for _ in range(count):
        m, t = rng.uniform(0.1, 0.8), rng.uniform(0.0, 2.0 * math.pi)
        zeros.append(complex(round(m * math.cos(t), 9), round(m * math.sin(t), 9)))
    return tuple(zeros)


def _blaschke_ops(state, rng, ctx):
    m = ctx.modules
    ser, fun, ver = m["series"], m["functionals"], m["verify"]
    ops = []
    for zeros, bl in state.items():
        family = ser.FiniteBlaschke(zeros)
        for preset, tid in _SEARCH_PRESETS:
            spec = fun.preset(preset)
            ops.append(
                Op(
                    "verify.radius_search",
                    lambda spec=spec, f=family: ver.radius_search(spec, f),
                    lambda res, w=ctx.weights[tid], bl=bl: _check_radius(res, lambda r: bl.terms_range(w, r)),
                )
            )
    spec_e = fun.preset("thm_e")
    r = _DISTINCT_R
    for _ in range(DISTINCT_EVALUATES):
        zeros = _random_zeros(rng, 3)
        ops.append(
            Op(
                "functionals.evaluate_blaschke",
                lambda f=ser.FiniteBlaschke(zeros), r=r: fun.evaluate(spec_e, f, fun.RadiusSpec.diagonal(1, r)),
                lambda res, bl=orc.Blaschke(zeros), r=r: _check_blaschke_eval(ctx.weights["E"], bl, r, res),
            )
        )
    for _ in range(DISTINCT_LEMMAS):
        zeros = _random_zeros(rng, 3)
        ops.append(
            Op(
                "verify.lemma1c_check",
                lambda f=ser.FiniteBlaschke(zeros), r=r: ver.lemma1c_check(f, r),
                lambda res, bl=orc.Blaschke(zeros), r=r: _check_lemma_c(bl, r, res),
            )
        )
    return ops


def _check_blaschke_eval(w, bl, r, res) -> list[str]:
    lo, hi = bl.terms_range(w, r)
    label = f"blaschke {bl.zeros} r={r}"
    # Tail and area carry certified remainders below 1e-13.
    return (
        _within(f"{label} head", res.head_value, lo.head, hi.head)
        + _within(f"{label} tail", res.majorant_tail, lo.tail, lo.tail + 1e-12)
        + _within(f"{label} area", res.area_term, lo.area, lo.area + 1e-12)
        + _within(f"{label} total", res.total, lo.total, hi.total + 1e-11)
    )


def _check_lemma_c(bl, r, res) -> list[str]:
    label = f"lemma 1c {bl.zeros} r={r}"
    return (
        _within(f"{label} lhs", res.lhs, bl.tail(r), bl.tail(r) + 1e-12)
        + _close(f"{label} rhs", res.rhs, orc.lemma1c_bound(bl.a0, r, 1))
        + _expect(res.ok is True, f"{label}: not ok")
    )
