"""Lemma-level bound checks, radius searches, theorem sweeps, sharpness scans.

The theorem registry maps an identifier to its functional preset, its
extremal family template, and its threshold radius:

    classic, A, B1, B2, C, D, E   single-variable, Moebius family psi_a
    T21, T22, T23                 polydisk, family (a - s)/(1 - a s)

Sweeps evaluate the literal interpretation as the pass/fail authority and
report slice values alongside for n >= 2.  Scans run on the slice
interpretation, where the equality cases close.  Lemma checks admit only
families bounded by one on the unit polydisk, which is the hypothesis the
lemmas carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import constants as sharp
from . import functionals as fun
from . import series as ser
from .errors import DomainError, MonotonicityError

#: Violation tolerances: closed-form evaluations vs truncated-but-certified.
TOL_CLOSED = 1e-12
TOL_TRUNCATED = 1e-9

#: Slack for lemma inequality checks.
LEMMA_SLACK = 1e-10

_PRESAMPLES = 64


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid with stable 10-decimal rounding."""
    if step <= 0:
        raise DomainError("grid step must be positive")
    if stop < start:
        raise DomainError("grid stop must be >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 10) for i in range(count)]


# --------------------------------------------------------------------------
# Lemma checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
    lhs: float
    rhs: float
    ok: bool
    gap: float
    certified: bool


def _require_unit_polydisk_family(family: ser.FamilySpec) -> None:
    """Admit only families bounded on the unit polydisk; for these q = n,
    so the argument radius sigma equals the diagonal radius."""
    if family.cap < 1.0:
        raise DomainError(
            "family is bounded only on the polydisk of radius 1/n; "
            "the lemma hypothesis needs boundedness on the unit polydisk"
        )


def lemma1a_check(
    family: ser.FamilySpec, bold_r: float, K: int | None = None
) -> LemmaCheck:
    """sum_k k sum_{|alpha|=k} |a_alpha|^2 r^(2|alpha|)
       <= r^2 (1-a0^2)^2 / (1-a0^2 r^2)^2   for 0 < r <= 1/sqrt2."""
    _require_unit_polydisk_family(family)
    if not 0.0 < bold_r <= 1.0 / math.sqrt(2.0):
        raise DomainError(f"bold_r={bold_r} outside (0, 1/sqrt2]")

    def tail(k: int) -> float:
        return family.sq_tail(k, bold_r)

    K = K if K is not None else ser.truncation(tail, first=1)
    m2 = family.sq_masses(K)
    lhs = math.fsum(k * m2[k] * bold_r ** (2 * k) for k in range(1, K + 1)) + tail(K)
    a0 = abs(family.a0)
    rhs = bold_r**2 * (1.0 - a0 * a0) ** 2 / (1.0 - a0 * a0 * bold_r * bold_r) ** 2
    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK, rhs - lhs, True)


def lemma1b_check(
    family: ser.FamilySpec, bold_r: float, K: int | None = None
) -> LemmaCheck:
    """sum_k sum_{|alpha|=k} |a_alpha|^2 r^|alpha|
       <= r (1-a0^2)^2 / (1-a0^2 r)   for 0 < r < 1."""
    _require_unit_polydisk_family(family)
    if not 0.0 < bold_r < 1.0:
        raise DomainError(f"bold_r={bold_r} outside (0, 1)")

    def tail(k: int) -> float:
        return family.sq_mass_tail(k, bold_r)

    K = K if K is not None else ser.truncation(tail, first=1)
    m2 = family.sq_masses(K)
    lhs = math.fsum(m2[k] * bold_r**k for k in range(1, K + 1)) + tail(K)
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
    if n < 1:
        raise DomainError("dimension n must be >= 1")
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
    _require_unit_polydisk_family(family)
    rhs = lemma1c_bound(abs(family.a0), bold_r, family.n)
    lhs = family.majorant(bold_r, K)
    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK, rhs - lhs, True)


# --------------------------------------------------------------------------
# Radius search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusResult:
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

    Monotonicity of the total in bold_r is asserted on 64 samples before
    bisecting; a non-monotone pattern aborts rather than risking a wrong
    bracket.  When the total never reaches 1 the result is the near-cap
    radius with binding = False.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    cap = family.cap
    hi = cap * (1.0 - 1e-9)

    def total(r: float) -> fun.TermBreakdown:
        return fun.evaluate(spec, family, fun.RadiusSpec.diagonal(family.n, r))

    samples = [total(hi * i / (_PRESAMPLES - 1)) for i in range(_PRESAMPLES)]
    values = [s.total for s in samples]
    certified = all(s.certified for s in samples)
    for prev, nxt in zip(values, values[1:]):
        if nxt < prev - 1e-12:
            raise MonotonicityError(
                f"functional decreases from {prev} to {nxt}; refusing to bisect"
            )
    if values[-1] <= 1.0:
        return RadiusResult(hi, (hi, cap), 0, False, certified)

    lo = 0.0
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
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

@dataclass(frozen=True)
class TheoremDef:
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


def _check_n(td: TheoremDef, n: int) -> None:
    if n < 1:
        raise DomainError("dimension n must be >= 1")
    if not td.multidimensional and n != 1:
        raise DomainError(f"theorem {td.theorem_id} is single-variable; n must be 1")


def violation_tolerance(breakdown: fun.TermBreakdown) -> float:
    return TOL_CLOSED if breakdown.closed_form else TOL_TRUNCATED


def violates(breakdown: fun.TermBreakdown, tol: float | None = None) -> bool:
    """True unless the total is within 1 + tol (default: the tolerance of
    its evaluation path).  A NaN total or tolerance counts as a violation."""
    if tol is None:
        tol = violation_tolerance(breakdown)
    return not breakdown.total <= 1.0 + tol


# --------------------------------------------------------------------------
# Sharpness scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    a: float
    total: float
    perturbed_total: float


@dataclass(frozen=True)
class ScanReport:
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
    constants: sharp.SharpConstants | None = None,
) -> ScanReport:
    """Slice-interpretation totals over the parameter grid at the theorem
    threshold, with an optional perturbation of the sharp weight.

    When the theorem has an interior extremal parameter it is appended to
    the grid, so the reported maximum exhibits the equality case exactly.
    """
    td = _theorem(theorem_id)
    _check_n(td, n)
    if not epsilon >= 0:
        raise DomainError("epsilon must be >= 0")
    c = constants if constants is not None else sharp.sharp_constants()
    r = bold_r if bold_r is not None else td.threshold(n)
    grid = [float(a) for a in a_grid]
    if any(not 0.0 <= a < 1.0 for a in grid):
        raise DomainError("scan grid must lie inside [0, 1)")
    a_star = td.a_star(c) if td.a_star is not None else None
    if a_star is not None and a_star not in grid:
        grid.append(a_star)
    grid.sort()

    spec = fun.preset(td.preset_name, c).with_interpretation(fun.INTERP_SLICE)
    perturbed_spec = replace(
        spec, **{td.perturb_field: getattr(spec, td.perturb_field) + epsilon}
    )
    rows = []
    for a in grid:
        family = theorem_family(theorem_id, a, n)
        radius = fun.RadiusSpec.diagonal(n, r)
        base = fun.evaluate(spec, family, radius).total
        pert = (
            fun.evaluate(perturbed_spec, family, radius).total if epsilon > 0 else base
        )
        rows.append(ScanRow(a, base, pert))
    best = max(rows, key=lambda row: (row.total, row.a))
    best_pert = max(rows, key=lambda row: (row.perturbed_total, row.a))
    return ScanReport(
        theorem=theorem_id,
        n=n,
        bold_r=r,
        epsilon=epsilon,
        rows=tuple(rows),
        max_total=best.total,
        argmax_a=best.a,
        perturbed_max=best_pert.perturbed_total,
        perturbed_argmax=best_pert.a,
        a_star=a_star,
    )


# --------------------------------------------------------------------------
# Theorem sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    theorem: str
    n: int
    a: float
    r: float
    breakdown: fun.TermBreakdown


@dataclass(frozen=True)
class SweepReport:
    theorem: str
    rows: tuple[SweepRow, ...]
    worst_margin: float
    violations: tuple[SweepRow, ...]


def theorem_sweep(
    theorem_id: str,
    n_list: Sequence[int] | None = None,
    a_grid: Sequence[float] | None = None,
    r_values: Sequence[float] | None = None,
    constants: sharp.SharpConstants | None = None,
) -> SweepReport:
    """Evaluate the theorem functional over the (n, a, r) grid.

    The literal interpretation is the pass/fail authority; slice values are
    reported alongside for n >= 2.  A row violates when its literal total
    exceeds 1 by more than the tolerance of its evaluation path.  Radii
    default to the theorem threshold for each n.
    """
    td = _theorem(theorem_id)
    c = constants if constants is not None else sharp.sharp_constants()
    ns = list(n_list) if n_list is not None else ([1, 2, 3] if td.multidimensional else [1])
    for n in ns:
        _check_n(td, n)
    grid = list(a_grid) if a_grid is not None else grid_values(0.0, 0.99, 0.01)
    if any(not 0.0 <= a < 1.0 for a in grid):
        raise DomainError("sweep grid must lie inside [0, 1)")
    spec = fun.preset(td.preset_name, c)

    rows: list[SweepRow] = []
    for n in sorted(ns):
        radii = list(r_values) if r_values is not None else [td.threshold(n)]
        for a in sorted(grid):
            family = theorem_family(theorem_id, a, n)
            for r in sorted(radii):
                radius = fun.RadiusSpec.diagonal(n, r)
                interps = [fun.INTERP_LITERAL] if n == 1 else [
                    fun.INTERP_LITERAL,
                    fun.INTERP_SLICE,
                ]
                for interp in interps:
                    breakdown = fun.evaluate(
                        spec.with_interpretation(interp), family, radius
                    )
                    rows.append(SweepRow(theorem_id, n, a, r, breakdown))
    rows.sort(key=lambda row: (row.n, row.a, row.r, row.breakdown.interpretation))
    literal = [row for row in rows if row.breakdown.interpretation == fun.INTERP_LITERAL]
    violations = tuple(row for row in literal if violates(row.breakdown))
    worst = min(row.breakdown.margin for row in literal) if literal else math.inf
    return SweepReport(theorem_id, tuple(rows), worst, violations)
