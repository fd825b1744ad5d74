"""Lemma-level bound checks, radius searches, theorem sweeps, sharpness scans.

The theorem registry maps an identifier to what the theorem states: its
functional preset, whether its extremal family is the polydisk one, and
its threshold radius for dimension n:

    classic, A, B1, B2, C, D, E   single-variable, Moebius family psi_a
    T21, T22, T23                 polydisk, family (a - s)/(1 - a s)

Sweeps evaluate the literal interpretation as the pass/fail authority and
report slice values alongside for n >= 2, in (n, a, r, interpretation)
order with repeated keys in input order.  Scans run on the slice
interpretation, where the equality cases close.  Both use the theorem's
preset as it is: a sweep passes each reading to the kernel, and a scan
reads from it its a* and the weight it perturbs.  Both check the radius
against the cap of the theorem's family and compute sigma once per (n, r),
since neither depends on a, and read the a-grid from the rules of the
family's class.  A scan reads its grid once into a sorted list, inserts a*
in order by bisection, checks it inside [0, 1) by its sum and its two ends,
and sums each total column in one ``total_grid`` pass on a tuple of
weights.  A sweep reads each set of columns from
``functionals._grid_columns`` through one dict for the call, which reads
each column rule once per sigma and builds each set of equal columns once,
and keeps a stable sort's order unless n, the radii and the grid strictly
increase.  ``rows`` builds rows on read; only a flagged sweep reads them in
its call, to list its violating literal rows.  A radius search checks its
top radius once, takes its total and certification from
``functionals._search_total`` once, and runs it at the top and at each
midpoint without building a record: a Moebius-type family's one-pass
``total_grid`` off the literal reading at n >= 2, else the evaluation core
of ``functionals``.  Lemma checks admit only families bounded by one on the
unit polydisk, which is the hypothesis the lemmas carry, and sum each
family to the degree ``series.truncation`` picks for the tail of the lemma.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from itertools import chain, repeat
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

#: Most points ``grid_values`` builds; the default scan grid has 10^4.
MAX_GRID_POINTS = 1_000_000


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid with stable 10-decimal rounding."""
    if not all(ser._numbers((start, stop, step), "grid start, stop and step", math.isfinite)):
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


def _check_lemma_input(family: ser.FamilySpec) -> None:
    """Admit only families bounded on the unit polydisk, for which q = n so
    the argument radius sigma equals the diagonal radius."""
    if family.cap < 1.0:
        raise DomainError(
            "family is bounded only on the polydisk of radius 1/n; "
            "the lemma hypothesis needs boundedness on the unit polydisk"
        )


def _lemma(
    family: ser.FamilySpec, bold_r: float, tail: Callable[[int, float], float], p: int, rhs: float
) -> LemmaCheck:
    """lhs = sum_{k>=1} k^(p-1) m2(k) r^(p k), summed to the degree
    ``series.truncation`` picks for ``tail`` at r, plus that tail."""
    K, tail_K = ser.truncation(lambda k: tail(k, bold_r), first=1)
    m2 = family.sq_masses(K)[1:]
    weighted = map(operator.mul, range(1, K + 1), m2) if p == 2 else m2  # k^0 m == m
    powers = map(pow, repeat(bold_r), range(p, p * K + 1, p))
    lhs = math.fsum(map(operator.mul, weighted, powers)) + tail_K
    return LemmaCheck(lhs, rhs, lhs <= rhs + LEMMA_SLACK, rhs - lhs, True)


def lemma1a_check(family: ser.FamilySpec, bold_r: float) -> LemmaCheck:
    """sum_k k sum_{|alpha|=k} |a_alpha|^2 r^(2|alpha|)
       <= r^2 (1-a0^2)^2 / (1-a0^2 r^2)^2   for 0 < r <= 1/sqrt2."""
    _check_lemma_input(family)
    if not 0.0 < (bold_r := ser._real(bold_r, "bold_r")) <= 1.0 / math.sqrt(2.0):
        raise DomainError(f"bold_r={bold_r} outside (0, 1/sqrt2]")
    a0 = abs(family.a0)
    rhs = bold_r**2 * (1.0 - a0 * a0) ** 2 / (1.0 - a0 * a0 * bold_r * bold_r) ** 2
    return _lemma(family, bold_r, family.sq_tail, 2, rhs)


def lemma1b_check(family: ser.FamilySpec, bold_r: float) -> LemmaCheck:
    """sum_k sum_{|alpha|=k} |a_alpha|^2 r^|alpha|
       <= r (1-a0^2)^2 / (1-a0^2 r)   for 0 < r < 1."""
    _check_lemma_input(family)
    if not 0.0 < (bold_r := ser._real(bold_r, "bold_r")) < 1.0:
        raise DomainError(f"bold_r={bold_r} outside (0, 1)")
    a0 = abs(family.a0)
    rhs = bold_r * (1.0 - a0 * a0) ** 2 / (1.0 - a0 * a0 * bold_r)
    return _lemma(family, bold_r, family.sq_mass_tail, 1, rhs)


def lemma1c_bound(a0: float, bold_r: float, n: int) -> float:
    """Two-branch bound on the majorant tail of a unit-polydisk-bounded f:

        sqrt(n) r (1 - a0^2) / (1 - n a0 r)          for a0 >= r
        sqrt(n) r sqrt(1 - a0^2) / sqrt(1 - n r^2)   for a0 < r
    """
    if not 0.0 <= (a0 := ser._real(a0, "a0")) <= 1.0:
        raise DomainError(f"a0={a0} outside [0, 1]")
    if not 0.0 <= (bold_r := ser._real(bold_r, "bold_r")) < math.inf:
        raise DomainError(f"bold_r={bold_r} must be finite and nonnegative")
    n = ser._integer(n, "dimension n", 1)
    if a0 >= bold_r:
        if n * a0 * bold_r >= 1.0:
            raise DomainError("first branch needs n a0 r < 1")
        return math.sqrt(n) * bold_r * (1.0 - a0 * a0) / (1.0 - n * a0 * bold_r)
    if n * bold_r * bold_r >= 1.0:
        raise DomainError("second branch needs n r^2 < 1")
    return math.sqrt(n) * bold_r * math.sqrt(1.0 - a0 * a0) / math.sqrt(1.0 - n * bold_r**2)


def lemma1c_check(family: ser.FamilySpec, bold_r: float) -> LemmaCheck:
    """Majorant tail of the family at diagonal radius bold_r against the
    two-branch bound."""
    _check_lemma_input(family)
    rhs = lemma1c_bound(abs(family.a0), bold_r, family.n)
    lhs = family.majorant(bold_r)
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
    hi, near the cap, is checked once; each midpoint lies in (0, hi), so it
    passes every check of hi.  One ``functionals._search_total`` decides hi
    and each midpoint from its total and certification, building no record:
    on a Moebius-type family off the literal reading at n >= 2 it sums the
    family's ``total_grid`` at (a,), else it runs one core of
    ``functionals._prepare``, with the same bits either way.  A total of at
    most 1 at hi gives hi with binding = False; ``certified`` holds only
    when it holds at hi and at every step.
    Bisection stops at width ``tol``, or earlier when the midpoint no longer
    splits the bracket: it then holds two adjacent floats.  ``tol`` is read
    like a sweep's (``check_tolerance``) and must be positive.
    """
    if tol is None or not (tol := check_tolerance(tol)) > 0:
        raise DomainError("tolerance must be finite and positive")
    n, cap = family.n, family.cap
    hi = cap * (1.0 - 1e-9)
    fun._check_radius_for(family, fun.RadiusSpec.diagonal(n, hi))
    total_certified = fun._search_total(spec, family)
    coords = (hi,) * n
    total, certified = total_certified(coords, family.sigma(coords))
    if total <= 1.0:
        return RadiusResult(hi, (hi, cap), 0, False, certified)

    lo, iterations = 0.0, 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        coords = (mid,) * n
        total, step_certified = total_certified(coords, family.sigma(coords))
        certified = certified and step_certified
        if total <= 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RadiusResult(0.5 * (lo + hi), (lo, hi), iterations, True, certified)


# --------------------------------------------------------------------------
# Theorem registry
# --------------------------------------------------------------------------

class TheoremDef(NamedTuple):
    preset_name: str
    multidimensional: bool
    threshold: Callable[[int], float]


THEOREMS: dict[str, TheoremDef] = {
    "classic": TheoremDef("classic", False, lambda n: sharp.RADIUS_CLASSIC),
    "A": TheoremDef("thm_a", False, lambda n: sharp.RADIUS_CLASSIC),
    "B1": TheoremDef("thm_b1", False, lambda n: sharp.RADIUS_ABS_HEAD),
    "B2": TheoremDef("thm_b2", False, lambda n: sharp.RADIUS_CLASSIC),
    "C": TheoremDef("thm_c", False, lambda n: sharp.RADIUS_CLASSIC),
    "D": TheoremDef("thm_d", False, lambda n: sharp.RADIUS_CLASSIC),
    "E": TheoremDef("thm_e", False, lambda n: sharp.RADIUS_ABS_HEAD),
    "T21": TheoremDef("thm_2_1", True, sharp.radius_multi),
    "T22": TheoremDef("thm_2_2", True, sharp.radius_multi),
    "T23": TheoremDef("thm_2_3", True, sharp.radius_multi_abs),
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


def _check_n(theorem_id: str, n: int) -> int:
    n = ser._integer(n, "dimension n", 1)
    if not _theorem(theorem_id).multidimensional and n != 1:
        raise DomainError(f"theorem {theorem_id} is single-variable; n must be 1")
    return n


def _checked_radius(theorem_id: str, n: int, r: float) -> tuple[tuple[float, ...], float, type]:
    """The diagonal polyradius (r,) * n, checked against the cap of the
    theorem's family, its argument radius sigma, and the family's class.
    Cap and sigma depend on the class and n only, not on a, so scans and
    sweeps call this once per (n, r) and evaluate their rows with the column
    kernel of that class."""
    family = theorem_family(theorem_id, 0.0, n)
    radius = fun.RadiusSpec.diagonal(n, r)
    fun._check_radius_for(family, radius)
    return radius.coords, family.sigma(radius.coords), type(family)


def check_tolerance(tol: float | None) -> float | None:
    """The pass tolerance read once as a float (None stays None), through
    ``series._real``, so a Decimal or a Fraction counts like the float it
    rounds to.  An infinite tolerance would pass any total and is refused,
    as is one beyond the float range; a NaN tolerance is let through: every
    verdict test fails on it."""
    if tol is None:
        return None
    try:
        value = float(ser._real(tol, "tolerance"))
    except OverflowError:
        value = math.inf  # a Fraction or an int beyond the float range
    if math.isinf(value):
        raise DomainError("tolerance must not be infinite")
    return value


def _limit(tol: float | None, closed_form: bool) -> float:
    """1 + tol, where tol defaults to the tolerance of the evaluation path."""
    if tol is None:
        tol = TOL_CLOSED if closed_form else TOL_TRUNCATED
    return 1.0 + tol


def violates(breakdown: fun.TermBreakdown, tol: float | None = None) -> bool:
    """True unless the total is within 1 + tol (default: the tolerance of
    its evaluation path).  A NaN total or tolerance counts as a violation."""
    return not breakdown.total <= _limit(tol, breakdown.closed_form)


def _rows(cls: type, columns) -> map:
    """Named tuples cls from columns in field order, at C speed."""
    return map(tuple.__new__, repeat(cls), zip(*columns))


def _check_grid(grid: Sequence[float], least: float, most: float, what: str) -> None:
    """Refuse a grid with a point outside [0, 1), given its least and its
    largest point: the ends of a sorted grid, else its min and max.  The sum
    catches NaN, which no comparison does and sorting may leave anywhere."""
    if not (math.isfinite(sum(grid)) and least >= 0.0 and most < 1.0):
        raise DomainError(f"{what} must lie inside [0, 1)")


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
    a: tuple[float, ...]
    total: tuple[float, ...]
    perturbed_total: tuple[float, ...]
    max_total: float
    argmax_a: float
    perturbed_max: float
    perturbed_argmax: float
    a_star: float | None

    @property
    def rows(self) -> tuple[ScanRow, ...]:
        """The rows, built from the three columns on each read."""
        return tuple(_rows(ScanRow, (self.a, self.total, self.perturbed_total)))


def _largest(totals: Sequence[float], grid: Sequence[float]) -> tuple[float, float]:
    """max(zip(totals, grid)) at C speed, for a sorted grid and totals that
    are never NaN and equal at equal a (repeats, 0.0 and -0.0): the largest
    total, the a of its last index, and the first index of that a, found
    by bisection, as equal points are adjacent."""
    top = max(totals)
    first = bisect_left(grid, grid[len(totals) - 1 - totals[::-1].index(top)])
    return totals[first], grid[first]


def sharpness_scan(
    theorem_id: str,
    a_grid: Sequence[float],
    n: int = 1,
    bold_r: float | None = None,
    epsilon: float = 0.0,
) -> ScanReport:
    """Slice-interpretation totals over the parameter grid at the theorem
    threshold, with ``epsilon`` added to the sharp weight: the weight of A^2
    when the preset has one (C, D, T21, T22), else the extra area weight.

    A preset that weighs A^2 has an interior extremal parameter, a*_1 with
    the constant head (C, T21) and a*_2 with the squared head (D, T22); it
    is inserted in order into the grid unless the grid holds it, so the
    reported maximum exhibits the equality case exactly, and reported as
    ``a_star`` (None for other theorems).

    The grid is read once, as floats, into a sorted list, which is checked
    inside [0, 1) by its sum and its two ends.  Sorting is stable, so equal
    points (repeats, 0.0 and -0.0) keep their input order.  One ``total_grid``
    pass sums each total column; at epsilon = 0 the two columns are one.
    """
    td = _theorem(theorem_id)
    n = _check_n(theorem_id, n)
    if not 0 <= (epsilon := ser._real(epsilon, "epsilon")) < math.inf:
        raise DomainError("epsilon must be finite and >= 0")
    r = ser._numbers((bold_r,), "bold_r")[0] if bold_r is not None else td.threshold(n)
    grid = sorted(ser._numbers(a_grid, "scan grid"))
    spec = fun.preset(td.preset_name)
    (w, w_q, w_x), a_star = fun._weights(spec), None
    if w_q:  # lambda_1 or lambda_2, sharp at a*_1 or a*_2 of the head
        c = sharp.sharp_constants()
        a_star = c.a_star1 if spec.head == fun.HEAD_CONSTANT else c.a_star2
        at = bisect_left(grid, a_star)
        if at == len(grid) or grid[at] != a_star:
            grid.insert(at, a_star)
    if not grid:
        raise DomainError("scan grid is empty")
    # a* lies inside [0, 1), so the grid is checked as well with it.
    _check_grid(grid, grid[0], grid[-1], "scan grid")

    perturbed = (w, w_q + epsilon, w_x) if w_q else (w, w_q, w_x + epsilon)
    sigma, cls = _checked_radius(theorem_id, n, r)[1:]
    head = fun.HEADS.index(spec.head)
    base = tuple(cls.total_grid(grid, sigma, head, (w, w_q, w_x)))
    pert = tuple(cls.total_grid(grid, sigma, head, perturbed)) if epsilon > 0 else base
    max_total, argmax_a = _largest(base, grid)
    perturbed_max, perturbed_argmax = _largest(pert, grid) if epsilon > 0 else (max_total, argmax_a)
    return ScanReport(
        theorem=theorem_id, n=n, bold_r=r, epsilon=epsilon, a=tuple(grid), total=base,
        perturbed_total=pert, max_total=max_total, argmax_a=argmax_a, perturbed_max=perturbed_max,
        perturbed_argmax=perturbed_argmax, a_star=a_star,
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
    """Per n of the input, ``sets`` holds an (n, r, columns) set per (r, interpretation), columns
    a ``TermBreakdown`` of columns over ``grid``; rows interleave per a, in ``order`` if set."""

    theorem: str
    grid: tuple[float, ...]
    sets: tuple[tuple[tuple[int, float, fun.TermBreakdown], ...], ...]
    order: tuple[int, ...] | None
    worst_margin: float
    violations: tuple[SweepRow, ...]

    def _in_order(self, per_set: Callable[[int, float, fun.TermBreakdown], Iterable]) -> list:
        """What per_set(n, r, columns) gives for each set, in row order."""
        interleaved = (zip(*[per_set(*s) for s in block]) for block in self.sets)
        values = list(chain.from_iterable(chain.from_iterable(interleaved)))
        return values if self.order is None else list(map(values.__getitem__, self.order))

    def columns(self) -> list[tuple]:
        """n, a, r and the ten ``TermBreakdown`` columns, in row order, of the sets' objects."""
        rows = self._in_order(lambda n, r, c: zip(repeat(n), self.grid, repeat(r), *c))
        return list(zip(*rows)) or [()] * (3 + len(fun.TermBreakdown._fields))

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """The rows, built from the columns on each read."""
        return tuple(self._in_order(lambda n, r, c: _rows(SweepRow, (
            repeat(self.theorem), repeat(n), self.grid, repeat(r), _rows(fun.TermBreakdown, c)
        ))))


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
    tol = check_tolerance(tol)
    td = _theorem(theorem_id)
    try:
        ns = list(n_list) if n_list is not None else ([1, 2, 3] if td.multidimensional else [1])
    except TypeError:
        raise DomainError(f"n_list must be a sequence of dimensions, not {n_list!r}") from None
    ns = [_check_n(theorem_id, n) for n in ns]
    grid = grid_values(0.0, 0.99, 0.01) if a_grid is None else ser._numbers(a_grid, "sweep grid")
    r_floats = ser._numbers(r_values, "sweep radii") if r_values is not None else None
    _check_grid(grid, min(grid, default=0.0), max(grid, default=0.0), "sweep grid")
    spec = fun.preset(td.preset_name)

    # One kernel call per input (n, r, interpretation) evaluates the grid as
    # given; sets of one sigma share their rule columns, and the n = 1 set
    # and the slice sets one tuple of nine columns.  Rows interleaved per a
    # are in (n, a, r, interpretation) order when n, the radii and the grid
    # strictly increase, as "literal" < "slice"; else a stable sort of their
    # keys gives their order, so repeated keys (repeats, 0.0 and -0.0) keep
    # their input order.
    #
    # Every literal total is finite (the grid lies inside [0, 1), the radius
    # below the cap, and the preset weights are finite), and 1.0 - total is
    # never -0.0, so the least margin of the columns is the row-level worst
    # in any order.  Only a flagged sweep builds rows in the call: it reads
    # ``rows`` and keeps the literal rows that ``violates`` flags.
    shared: dict = {}
    sets = []
    margins = []
    flagged = False
    for n in ns:
        readings = [fun.INTERP_LITERAL] if n == 1 else [fun.INTERP_LITERAL, fun.INTERP_SLICE]
        block = []
        for r in r_floats if r_floats is not None else [td.threshold(n)]:
            coords, sigma, cls = _checked_radius(theorem_id, n, r)
            for reading in readings:
                columns = fun._grid_columns(spec, reading, cls, n, grid, coords, sigma, shared)
                if reading == fun.INTERP_LITERAL:
                    limit = _limit(tol, all(columns.closed_form))
                    flagged = flagged or not all(map(operator.le, columns.total, repeat(limit)))
                    margins.append(columns.margin)
                block.append((n, r, columns))
        sets.append(tuple(block))
    worst = min(chain.from_iterable(margins), default=math.inf)
    report = SweepReport(theorem_id, tuple(grid), tuple(sets), None, worst, ())
    if not all(all(map(operator.lt, v, v[1:])) for v in (ns, r_floats or (), grid)):
        keys = report._in_order(lambda n, r, c: zip(repeat(n), grid, repeat(r), c.interpretation))
        report = report._replace(order=tuple(sorted(range(len(keys)), key=keys.__getitem__)))
    if not flagged:
        return report
    literal = [row for row in report.rows if row.breakdown.interpretation == fun.INTERP_LITERAL]
    return report._replace(violations=tuple(row for row in literal if violates(row.breakdown, tol)))
