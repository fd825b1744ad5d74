"""Lemma-level bound checks, radius searches, theorem sweeps, sharpness scans.

The theorem registry maps an identifier to its functional preset, its
extremal family template, and its threshold radius:

    classic, A, B1, B2, C, D, E   single-variable, Moebius family psi_a
    T21, T22, T23                 polydisk, family (a - s)/(1 - a s)

Sweeps evaluate the literal interpretation as the pass/fail authority and
report slice values alongside for n >= 2, in (n, a, r, interpretation)
order with repeated keys in input order.  Scans run on the slice
interpretation, where the equality cases close.  Both check the radius
against the cap of the theorem's family and compute sigma once per (n, r),
since neither depends on a, and evaluate the whole sorted a-grid with one
call of the Moebius-type kernel of ``functionals`` per (spec, n, r): no
family object is built per row, and scans read only each row's total.
Lemma checks admit only families bounded by one on the unit polydisk,
which is the hypothesis the lemmas carry, and an integer degree K >= 0;
without an explicit K they take the one ``series.truncation`` picks for
their tail.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import replace
from typing import Callable, Iterable, NamedTuple, Sequence

from . import constants as sharp
from . import functionals as fun
from . import series as ser
from .errors import BudgetExceededError, DomainError

#: Violation tolerances: closed-form evaluations vs truncated-but-certified.
TOL_CLOSED = 1e-12
TOL_TRUNCATED = 1e-9

#: Slack for lemma inequality checks.
LEMMA_SLACK = 1e-10

#: The total of a row of the ``functionals`` core, read by position.
_total_of = operator.itemgetter(fun.TermBreakdown._fields.index("total"))

#: Most points ``grid_values`` builds; the default scan grid has 10^4.
MAX_GRID_POINTS = 1_000_000


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid with stable 10-decimal rounding."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError("grid start, stop and step must be finite")
    if step <= 0:
        raise DomainError("grid step must be positive")
    if stop < start:
        raise DomainError("grid stop must be >= start")
    # Checked before any list is built; stop - start may overflow to inf.
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise BudgetExceededError(f"grid would hold more than {MAX_GRID_POINTS} points")
    return [round(start + i * step, 10) for i in range(int(steps) + 1)]


# --------------------------------------------------------------------------
# Lemma checks
# --------------------------------------------------------------------------

class LemmaCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool
    gap: float
    certified: bool


def _check_lemma_input(family: ser.FamilySpec, K: int | None) -> int | None:
    """Admit only families bounded on the unit polydisk, for which q = n so
    the argument radius sigma equals the diagonal radius, and only an
    integer K >= 0, which is returned as an int."""
    if family.cap < 1.0:
        raise DomainError(
            "family is bounded only on the polydisk of radius 1/n; "
            "the lemma hypothesis needs boundedness on the unit polydisk"
        )
    return K if K is None else ser._integer(K, "truncation degree", 0)


def lemma1a_check(
    family: ser.FamilySpec, bold_r: float, K: int | None = None
) -> LemmaCheck:
    """sum_k k sum_{|alpha|=k} |a_alpha|^2 r^(2|alpha|)
       <= r^2 (1-a0^2)^2 / (1-a0^2 r^2)^2   for 0 < r <= 1/sqrt2."""
    K = _check_lemma_input(family, K)
    if not 0.0 < bold_r <= 1.0 / math.sqrt(2.0):
        raise DomainError(f"bold_r={bold_r} outside (0, 1/sqrt2]")

    if K is None:
        K, tail = ser.truncation(lambda k: family.sq_tail(k, bold_r), first=1)
    else:
        tail = family.sq_tail(K, bold_r)
    m2 = family.sq_masses(K)
    lhs = math.fsum(k * m2[k] * bold_r ** (2 * k) for k in range(1, K + 1)) + tail
    a0 = abs(family.a0)
    rhs = bold_r**2 * (1.0 - a0 * a0) ** 2 / (1.0 - a0 * a0 * bold_r * bold_r) ** 2
    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK, rhs - lhs, True)


def lemma1b_check(
    family: ser.FamilySpec, bold_r: float, K: int | None = None
) -> LemmaCheck:
    """sum_k sum_{|alpha|=k} |a_alpha|^2 r^|alpha|
       <= r (1-a0^2)^2 / (1-a0^2 r)   for 0 < r < 1."""
    K = _check_lemma_input(family, K)
    if not 0.0 < bold_r < 1.0:
        raise DomainError(f"bold_r={bold_r} outside (0, 1)")

    if K is None:
        K, tail = ser.truncation(lambda k: family.sq_mass_tail(k, bold_r), first=1)
    else:
        tail = family.sq_mass_tail(K, bold_r)
    m2 = family.sq_masses(K)
    lhs = math.fsum(m2[k] * bold_r**k for k in range(1, K + 1)) + tail
    a0 = abs(family.a0)
    rhs = bold_r * (1.0 - a0 * a0) ** 2 / (1.0 - a0 * a0 * bold_r)
    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK, rhs - lhs, True)


def lemma1c_bound(a0: float, bold_r: float, n: int) -> float:
    """Two-branch bound on the majorant tail of a unit-polydisk-bounded f:

        sqrt(n) r (1 - a0^2) / (1 - n a0 r)          for a0 >= r
        sqrt(n) r sqrt(1 - a0^2) / sqrt(1 - n r^2)   for a0 < r
    """
    if not 0.0 <= a0 <= 1.0:
        raise DomainError(f"a0={a0} outside [0, 1]")
    if not bold_r >= 0:
        raise DomainError("bold_r must be nonnegative")
    n = ser._integer(n, "dimension n", 1)
    if a0 >= bold_r:
        if n * a0 * bold_r >= 1.0:
            raise DomainError("first branch needs n a0 r < 1")
        return math.sqrt(n) * bold_r * (1.0 - a0 * a0) / (1.0 - n * a0 * bold_r)
    if n * bold_r * bold_r >= 1.0:
        raise DomainError("second branch needs n r^2 < 1")
    return math.sqrt(n) * bold_r * math.sqrt(1.0 - a0 * a0) / math.sqrt(1.0 - n * bold_r**2)


def lemma1c_check(
    family: ser.FamilySpec, bold_r: float, K: int | None = None
) -> LemmaCheck:
    """Majorant tail of the family at diagonal radius bold_r against the
    two-branch bound."""
    K = _check_lemma_input(family, K)
    rhs = lemma1c_bound(abs(family.a0), bold_r, family.n)
    lhs = family.majorant(bold_r, K)
    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK, rhs - lhs, True)


# --------------------------------------------------------------------------
# Radius search
# --------------------------------------------------------------------------

class RadiusResult(NamedTuple):
    radius: float
    bracket: tuple[float, float]
    iterations: int
    binding: bool
    certified: bool


def radius_search(
    spec: fun.FunctionalSpec,
    family: ser.FamilySpec,
    tol: float = 1e-9,
) -> RadiusResult:
    """Largest diagonal bold_r in [0, cap) with functional total <= 1.

    ``FunctionalSpec`` admits only nonnegative weights, so every term, and
    with them the total, is nondecreasing in bold_r: |a_0| is constant, the
    supremum of |f| over the torus grows by the maximum principle, and the
    majorant tail and both readings of the area are power series in bold_r
    with nonnegative coefficients.  Bisection therefore needs no presamples,
    and a certified total(lo) <= 1 certifies the whole interval [0, lo].
    One evaluation near the cap decides whether the total reaches 1; if not,
    the result is that radius with binding = False.  Bisection stops at
    width ``tol``, or earlier when the midpoint no longer splits the
    bracket: the bracket then holds two adjacent floats.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tolerance must be finite and positive")
    cap = family.cap
    hi = cap * (1.0 - 1e-9)

    def total(r: float) -> fun.TermBreakdown:
        return fun.evaluate(spec, family, fun.RadiusSpec.diagonal(family.n, r))

    top = total(hi)
    certified = top.certified
    if top.total <= 1.0:
        return RadiusResult(hi, (hi, cap), 0, False, certified)

    lo = 0.0
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        breakdown = total(mid)
        certified = certified and breakdown.certified
        if breakdown.total <= 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RadiusResult(0.5 * (lo + hi), (lo, hi), iterations, True, certified)


# --------------------------------------------------------------------------
# Theorem registry
# --------------------------------------------------------------------------

class TheoremDef(NamedTuple):
    theorem_id: str
    preset_name: str
    multidimensional: bool
    threshold: Callable[[int], float]
    perturb_field: str
    a_star: Callable[[sharp.SharpConstants], float] | None


THEOREMS: dict[str, TheoremDef] = {
    "classic": TheoremDef(
        "classic", "classic", False, lambda n: sharp.RADIUS_CLASSIC,
        "extra_area_weight", None,
    ),
    "A": TheoremDef(
        "A", "thm_a", False, lambda n: sharp.RADIUS_CLASSIC,
        "extra_area_weight", None,
    ),
    "B1": TheoremDef(
        "B1", "thm_b1", False, lambda n: sharp.RADIUS_ABS_HEAD,
        "extra_area_weight", None,
    ),
    "B2": TheoremDef(
        "B2", "thm_b2", False, lambda n: sharp.RADIUS_CLASSIC,
        "extra_area_weight", None,
    ),
    "C": TheoremDef(
        "C", "thm_c", False, lambda n: sharp.RADIUS_CLASSIC,
        "area_sq_weight", lambda c: c.a_star1,
    ),
    "D": TheoremDef(
        "D", "thm_d", False, lambda n: sharp.RADIUS_CLASSIC,
        "area_sq_weight", lambda c: c.a_star2,
    ),
    "E": TheoremDef(
        "E", "thm_e", False, lambda n: sharp.RADIUS_ABS_HEAD,
        "extra_area_weight", None,
    ),
    "T21": TheoremDef(
        "T21", "thm_2_1", True, sharp.radius_multi,
        "area_sq_weight", lambda c: c.a_star1,
    ),
    "T22": TheoremDef(
        "T22", "thm_2_2", True, sharp.radius_multi,
        "area_sq_weight", lambda c: c.a_star2,
    ),
    "T23": TheoremDef(
        "T23", "thm_2_3", True, sharp.radius_multi_abs,
        "extra_area_weight", None,
    ),
}


def theorem_family(theorem_id: str, a: float, n: int) -> ser.FamilySpec:
    if _theorem(theorem_id).multidimensional:
        return ser.ExtremalPolydiskUnit(a, n)
    return ser.MoebiusDisk(a)


def _theorem(theorem_id: str) -> TheoremDef:
    try:
        return THEOREMS[theorem_id]
    except KeyError:
        raise DomainError(f"unknown theorem id {theorem_id!r}") from None


def _check_n(td: TheoremDef, n: int) -> int:
    n = ser._integer(n, "dimension n", 1)
    if not td.multidimensional and n != 1:
        raise DomainError(f"theorem {td.theorem_id} is single-variable; n must be 1")
    return n


def _checked_radius(theorem_id: str, n: int, r: float) -> tuple[fun.RadiusSpec, float, type]:
    """The diagonal radius r in dimension n, checked against the cap of the
    theorem's family, its argument radius sigma, and the family's class.
    Cap and sigma depend on the class and n only, not on a, so scans and
    sweeps call this once per (n, r) and evaluate their rows with the grid
    kernel of that class."""
    family = theorem_family(theorem_id, 0.0, n)
    radius = fun.RadiusSpec.diagonal(n, r)
    fun._check_radius_for(family, radius, n)
    return radius, family.sigma(radius.coords), type(family)


def _as_floats(values: Iterable) -> list[float]:
    """Grid points or radii as floats; anything else is a domain error."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"grid points and radii must be real numbers: {exc}") from None


def check_tolerance(tol: float | None) -> None:
    """Refuse an infinite pass tolerance, which would pass any total.  A NaN
    tolerance is let through: every verdict test fails on it."""
    if tol is not None and math.isinf(tol):
        raise DomainError("tolerance must not be infinite")


def violates(breakdown: fun.TermBreakdown, tol: float | None = None) -> bool:
    """True unless the total is within 1 + tol (default: the tolerance of
    its evaluation path).  A NaN total or tolerance counts as a violation."""
    if tol is None:
        tol = TOL_CLOSED if breakdown.closed_form else TOL_TRUNCATED
    return not breakdown.total <= 1.0 + tol


# --------------------------------------------------------------------------
# Sharpness scan
# --------------------------------------------------------------------------

class ScanRow(NamedTuple):
    a: float
    total: float
    perturbed_total: float


class ScanReport(NamedTuple):
    theorem: str
    n: int
    bold_r: float
    epsilon: float
    rows: tuple[ScanRow, ...]
    max_total: float
    argmax_a: float
    perturbed_max: float
    perturbed_argmax: float
    a_star: float | None


def sharpness_scan(
    theorem_id: str,
    a_grid: Sequence[float],
    n: int = 1,
    bold_r: float | None = None,
    epsilon: float = 0.0,
) -> ScanReport:
    """Slice-interpretation totals over the parameter grid at the theorem
    threshold, with an optional perturbation of the sharp weight.

    When the theorem has an interior extremal parameter it is appended to
    the grid, so the reported maximum exhibits the equality case exactly.
    """
    td = _theorem(theorem_id)
    n = _check_n(td, n)
    if not 0 <= epsilon < math.inf:
        raise DomainError("epsilon must be finite and >= 0")
    r = _as_floats([bold_r])[0] if bold_r is not None else td.threshold(n)
    grid = _as_floats(a_grid)
    if any(not 0.0 <= a < 1.0 for a in grid):
        raise DomainError("scan grid must lie inside [0, 1)")
    a_star = td.a_star(sharp.sharp_constants()) if td.a_star is not None else None
    if a_star is not None and a_star not in grid:
        grid.append(a_star)
    if not grid:
        raise DomainError("scan grid is empty")
    grid.sort()

    spec = fun.preset(td.preset_name).with_interpretation(fun.INTERP_SLICE)
    perturbed_spec = replace(
        spec, **{td.perturb_field: getattr(spec, td.perturb_field) + epsilon}
    )
    radius, sigma, cls = _checked_radius(theorem_id, n, r)

    def totals(row_spec: fun.FunctionalSpec) -> list[float]:
        # Only the total of each row; no TermBreakdown per row.
        return list(map(_total_of, fun._grid_terms(row_spec, cls, n, grid, radius, sigma)))

    base = totals(spec)
    pert = totals(perturbed_spec) if epsilon > 0 else base
    # The largest (total, a): ties in the total go to the larger a.
    max_total, argmax_a = max(zip(base, grid))
    perturbed_max, perturbed_argmax = max(zip(pert, grid))
    return ScanReport(
        theorem=theorem_id,
        n=n,
        bold_r=r,
        epsilon=epsilon,
        rows=tuple(map(ScanRow._make, zip(grid, base, pert))),
        max_total=max_total,
        argmax_a=argmax_a,
        perturbed_max=perturbed_max,
        perturbed_argmax=perturbed_argmax,
        a_star=a_star,
    )


# --------------------------------------------------------------------------
# Theorem sweep
# --------------------------------------------------------------------------

class SweepRow(NamedTuple):
    theorem: str
    n: int
    a: float
    r: float
    breakdown: fun.TermBreakdown


class SweepReport(NamedTuple):
    theorem: str
    rows: tuple[SweepRow, ...]
    worst_margin: float
    violations: tuple[SweepRow, ...]


def _runs(values: Iterable) -> list[list]:
    """The values sorted, in runs of equal values, each run in input order."""
    return [list(run) for _, run in itertools.groupby(sorted(values))]


def theorem_sweep(
    theorem_id: str,
    n_list: Sequence[int] | None = None,
    a_grid: Sequence[float] | None = None,
    r_values: Sequence[float] | None = None,
    tol: float | None = None,
) -> SweepReport:
    """Evaluate the theorem functional over the (n, a, r) grid.

    The literal interpretation is the pass/fail authority; slice values are
    reported alongside for n >= 2.  A row violates when its literal total
    exceeds 1 by more than ``tol`` (default: the tolerance of its evaluation
    path).  An infinite ``tol`` would pass every row and is refused; a NaN
    ``tol`` makes every row a violation.  Radii are read as floats, like the
    grid, and default to the theorem threshold for each n.
    """
    check_tolerance(tol)
    td = _theorem(theorem_id)
    try:
        ns = list(n_list) if n_list is not None else ([1, 2, 3] if td.multidimensional else [1])
    except TypeError:
        raise DomainError(f"n_list must be a sequence of dimensions, not {n_list!r}") from None
    ns = [_check_n(td, n) for n in ns]
    grid = _as_floats(a_grid) if a_grid is not None else grid_values(0.0, 0.99, 0.01)
    r_floats = _as_floats(r_values) if r_values is not None else None
    if any(not 0.0 <= a < 1.0 for a in grid):
        raise DomainError("sweep grid must lie inside [0, 1)")
    spec = fun.preset(td.preset_name)
    literal_spec = spec.with_interpretation(fun.INTERP_LITERAL)
    slice_spec = spec.with_interpretation(fun.INTERP_SLICE)

    # One kernel call per (n, r, interpretation) evaluates the sorted grid.
    # Runs of equal keys (repeats, 0.0 and -0.0) keep their input order, so the
    # rows come out exactly as a stable sort by (n, a, r, interpretation) puts them.
    a_sorted = sorted(grid)
    a_runs = [list(run) for _, run in itertools.groupby(range(len(a_sorted)), a_sorted.__getitem__)]
    rows: list[SweepRow] = []
    for n_run in _runs(ns):
        n = n_run[0]
        specs = [literal_spec] if n == 1 else [literal_spec, slice_spec]
        radii = r_floats if r_floats is not None else [td.threshold(n)]
        columns = []
        for r_run in _runs(radii):
            checked = [(r, *_checked_radius(theorem_id, n, r)) for r in r_run]
            for interp_spec in specs:
                columns.append([
                    (r, list(map(fun.TermBreakdown._make,
                                 fun._grid_terms(interp_spec, cls, n, a_sorted, radius, sigma))))
                    for r, radius, sigma, cls in checked
                ])
        for a_run in a_runs:
            for column in columns:
                for m in n_run:
                    for i in a_run:
                        a = a_sorted[i]
                        for r, breakdowns in column:
                            rows.append(SweepRow._make((theorem_id, m, a, r, breakdowns[i])))
    literal = [row for row in rows if row.breakdown.interpretation == fun.INTERP_LITERAL]
    violations = tuple(row for row in literal if violates(row.breakdown, tol))
    worst = min(row.breakdown.margin for row in literal) if literal else math.inf
    return SweepReport(theorem_id, tuple(rows), worst, violations)
