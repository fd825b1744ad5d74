"""Majorant, area, and Bohr-type composite functionals with itemized terms.

Every improved inequality verified by this package is a statement

    head + majorant tail + w_a * A + w_q * A^2 + w_x * A <= 1

where the head is |a_0|, sup |f|, or sup |f|^2 on the distinguished boundary,
the majorant tail is sum_{|alpha| >= 1} |a_alpha| r^alpha, and A is the
degree-weighted square sum sum_k k sum_{|alpha| = k} |a_alpha|^2 r^(2 alpha).

A carries two interpretations for n >= 2.  ``literal`` evaluates the true
multi-index sum.  ``slice`` evaluates sum_k k |b_k|^2 rho^(2k) from the
univariate coefficients in s = z_1 + ... + z_n at rho = r_1 + ... + r_n,
which is the identification under which the polydisk equality cases close.
The two agree for n = 1 and differ by the multinomial deficit
sum_{|alpha|=k} (k!/alpha!)^2 < n^(2k) otherwise; both are exposed and the
deficit is measured, never hidden.

Evaluation is slice-first: every term is read from the family's own rules
(series.py) at sigma = (r_1 + ... + r_n)/q, the radius reached by the
Moebius argument, which is exact at any polyradius.  Moebius-type families
give closed forms in (a, sigma), Blaschke products a slice sum to a
certified degree.  No family functional expands a multi-index series: the
literal area reweights the slice sum per degree (``literal_area``).

``evaluate`` is its checks (dimension, domain cap) and one private core,
``_terms``, which takes the checked radius and its sigma and returns the
row in ``TermBreakdown`` field order; ``evaluate`` makes that tuple the
record with ``TermBreakdown._make``, and no row has another layout.
Moebius-type rows have one kernel, ``_grid_terms``: given the family class,
n, a grid of parameters a, the checked radius and sigma, it reads the
class's rules in (a, sigma) for every a, with the spec's head kind,
weights and interpretation read once and the literal area's sigma^(2k)
and W_k built once, and ``closed_form`` computed once per call.  ``_terms`` on a
Moebius-type family is that kernel on [a], so each Moebius evaluation runs
one arithmetic path; sweeps and scans in ``verify`` call it once per
(spec, n, r) and build no family per row.
Blaschke products, constants and explicit evaluation points take the
per-family rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, NamedTuple, Union

from . import constants as sharp
from . import series as ser
from .errors import DomainError, UnsupportedInterpretationError

HEAD_CONSTANT = "constant_term"
HEAD_ABS = "abs_f"
HEAD_ABS_SQ = "abs_f_squared"

INTERP_LITERAL = "literal"
INTERP_SLICE = "slice"


# --------------------------------------------------------------------------
# Radius specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSpec:
    """Evaluation polyradius; bold_r (the max coordinate) is cached."""

    coords: tuple[float, ...]

    def __post_init__(self):
        cs = ser._numbers(self.coords, "radius coordinates")
        if not cs:
            raise DomainError("radius needs at least one coordinate")
        if not all(0.0 <= r < math.inf for r in cs):
            raise DomainError("radii must be finite and nonnegative")
        object.__setattr__(self, "coords", cs)

    @classmethod
    def diagonal(cls, n: int, r: float) -> "RadiusSpec":
        return cls((r,) * ser._integer(n, "dimension n", 1))

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def bold_r(self) -> float:
        return max(self.coords)


# --------------------------------------------------------------------------
# Functional specification and presets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSpec:
    """Declarative description of one Bohr-type functional."""

    head: str
    area_weight: float = 0.0
    area_sq_weight: float = 0.0
    extra_area_weight: float = 0.0
    area_interpretation: str = INTERP_SLICE

    def __post_init__(self):
        if self.head not in (HEAD_CONSTANT, HEAD_ABS, HEAD_ABS_SQ):
            raise DomainError(f"unknown head {self.head!r}")
        if self.area_interpretation not in (INTERP_LITERAL, INTERP_SLICE):
            raise DomainError(f"unknown interpretation {self.area_interpretation!r}")
        # Nonnegative weights keep every total nondecreasing in the radius,
        # which is all a radius search assumes.
        for name in ("area_weight", "area_sq_weight", "extra_area_weight"):
            if not 0.0 <= ser._real(getattr(self, name), name) < math.inf:
                raise DomainError(f"{name} must be a finite, nonnegative real number")

    def uses_area(self) -> bool:
        return (
            self.area_weight != 0.0
            or self.area_sq_weight != 0.0
            or self.extra_area_weight != 0.0
        )

    def with_interpretation(self, interpretation: str) -> "FunctionalSpec":
        return replace(self, area_interpretation=interpretation)


PRESET_NAMES = (
    "classic",
    "thm_a",
    "thm_b1",
    "thm_b2",
    "thm_c",
    "thm_2_1",
    "thm_d",
    "thm_2_2",
    "thm_e",
    "thm_2_3",
)


def preset(name: str) -> FunctionalSpec:
    """Named functional with weights injected from the constants module."""
    c = sharp.sharp_constants()
    table = {
        "classic": FunctionalSpec(HEAD_CONSTANT),
        "thm_a": FunctionalSpec(HEAD_CONSTANT, area_weight=16.0 / 9.0),
        "thm_b1": FunctionalSpec(HEAD_ABS),
        "thm_b2": FunctionalSpec(HEAD_ABS_SQ),
        "thm_c": FunctionalSpec(
            HEAD_CONSTANT, area_weight=16.0 / 9.0, area_sq_weight=c.lambda1
        ),
        "thm_d": FunctionalSpec(
            HEAD_ABS_SQ, area_weight=16.0 / 9.0, area_sq_weight=c.lambda2
        ),
        "thm_e": FunctionalSpec(HEAD_ABS, area_weight=c.p),
        "thm_2_3": FunctionalSpec(HEAD_ABS, extra_area_weight=c.p),
    }
    table["thm_2_1"] = table["thm_c"]
    table["thm_2_2"] = table["thm_d"]
    try:
        return table[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}") from None


# --------------------------------------------------------------------------
# Term breakdown
# --------------------------------------------------------------------------

class TermBreakdown(NamedTuple):
    """Itemized functional evaluation.

    total = head_value + majorant_tail + area_weight * area_term
            + area_sq_contribution + extra_area_contribution
    margin = 1 - total.  ``certified`` means every truncated term carried a
    tail certificate; ``closed_form`` means no truncation happened at all.
    """

    head_value: float
    majorant_tail: float
    area_term: float
    area_sq_contribution: float
    extra_area_contribution: float
    total: float
    margin: float
    certified: bool
    closed_form: bool
    interpretation: str


#: One row of the core: the ``TermBreakdown`` fields, in order.
_Row = tuple[float, float, float, float, float, float, float, bool, bool, str]


# --------------------------------------------------------------------------
# Schwarz-Pick bound
# --------------------------------------------------------------------------

def schwarz_pick(a0: float, bold_r: float) -> float:
    """(a0 + r)/(1 + a0 r): boundary bound on |f| from |f(0)| = a0."""
    if not 0.0 <= ser._real(a0, "a0") <= 1.0:
        raise DomainError(f"a0={a0} outside [0, 1]")
    if not 0.0 <= ser._real(bold_r, "bold_r") < 1.0:
        raise DomainError(f"bold_r={bold_r} outside [0, 1)")
    return (a0 + bold_r) / (1.0 + a0 * bold_r)


# --------------------------------------------------------------------------
# Majorant
# --------------------------------------------------------------------------

def majorant(series: ser.CoefficientSeries, radius: RadiusSpec) -> float:
    """sum_{|alpha| <= K} |a_alpha| r^alpha, plus the tail certificate when
    the series carries one (making the value a certified upper bound)."""
    _check_radius_for(series.source, radius, series.n)
    partial = math.fsum(
        series.homogeneous_abs_sum(k, radius.coords) for k in range(series.truncation + 1)
    )
    tail = series.majorant_tail_bound(radius.bold_r)
    return partial + tail if tail is not None else partial


def _check_radius_for(
    family: ser.FamilySpec | None, radius: RadiusSpec, n: int
) -> None:
    if radius.n != n:
        raise DomainError(f"radius has dimension {radius.n}, expected {n}")
    if family is not None and radius.bold_r >= family.cap:
        raise DomainError(f"radius {radius.bold_r} not below the domain cap {family.cap}")


# --------------------------------------------------------------------------
# Area term
# --------------------------------------------------------------------------

def area_term(
    target: Union[ser.FamilySpec, ser.CoefficientSeries],
    radius: RadiusSpec,
    interpretation: str = INTERP_LITERAL,
) -> float:
    """The degree-weighted square sum under the requested interpretation.

    Slice evaluation needs diagonal slice coefficients, so it accepts a
    family (or a series that remembers its generating family); a bare series
    only supports the literal interpretation.
    """
    if interpretation not in (INTERP_LITERAL, INTERP_SLICE):
        raise UnsupportedInterpretationError(f"unknown interpretation {interpretation!r}")
    if isinstance(target, ser.CoefficientSeries):
        if interpretation == INTERP_LITERAL:
            _check_radius_for(target.source, radius, target.n)
            return _literal_area_from_series(target, radius)
        if target.source is None:
            raise UnsupportedInterpretationError(
                "slice interpretation needs a generating family"
            )
        target = target.source
    family = target
    _check_radius_for(family, radius, family.n)
    return _family_area(family, radius, family.sigma(radius.coords), interpretation)


def _family_area(family: ser.FamilySpec, radius: RadiusSpec, sigma: float, interp: str) -> float:
    """Area of a family at a checked radius whose argument radius is sigma."""
    if interp == INTERP_SLICE or family.n == 1:
        return family.area(sigma)
    return family.literal_area(sigma, radius.coords)


def _literal_area_from_series(series: ser.CoefficientSeries, radius: RadiusSpec) -> float:
    """Literal multi-index sum, plus the slice tail bound of the generating
    family (literal degree masses never exceed the slice ones)."""
    partial = math.fsum(
        k * series.homogeneous_sq_sum(k, radius.coords)
        for k in range(1, series.truncation + 1)
    )
    family = series.source
    if family is None:
        return partial
    return partial + family.sq_tail(series.truncation, family.sigma(radius.coords))


# --------------------------------------------------------------------------
# Composite evaluation
# --------------------------------------------------------------------------

def evaluate(
    spec: FunctionalSpec,
    family: ser.FamilySpec,
    radius: RadiusSpec,
    eval_point: tuple[complex, ...] | None = None,
) -> TermBreakdown:
    """Itemized evaluation of the functional on one family at one radius.

    Without an explicit point, |f|-type heads use the supremum of |f| over
    the distinguished boundary, which for Moebius-type families is the exact
    closed form (a + sigma)/(1 + a sigma); this is the value at which the
    sharpness computations close and the worst case the inequality must
    survive.  An explicit point evaluates |f(point)| exactly instead.
    """
    _check_radius_for(family, radius, family.n)
    sigma = family.sigma(radius.coords)
    return TermBreakdown._make(_terms(spec, family, radius, sigma, eval_point))


def _closed_form(spec: FunctionalSpec, closed: bool, n: int) -> bool:
    """True when no term of the evaluation was truncated."""
    return closed and (
        not spec.uses_area() or spec.area_interpretation == INTERP_SLICE or n == 1
    )


def _terms(
    spec: FunctionalSpec,
    family: ser.FamilySpec,
    radius: RadiusSpec,
    sigma: float,
    eval_point: tuple[complex, ...] | None = None,
) -> _Row:
    """The row (head, majorant tail, area, area^2 term, extra term, total,
    margin, certified, closed_form, interpretation) at a checked radius.  A
    Moebius-type family without an evaluation point is the grid kernel on
    its one parameter."""
    if family.grid_rules and eval_point is None:
        return next(_grid_terms(spec, type(family), family.n, (family.a,), radius, sigma))
    head_value, certified = _head(spec, family, sigma, eval_point)
    tail_value = family.majorant(sigma)
    area = (
        _family_area(family, radius, sigma, spec.area_interpretation) if spec.uses_area() else 0.0
    )
    area_sq = spec.area_sq_weight * area * area
    extra = spec.extra_area_weight * area
    total = head_value + tail_value + spec.area_weight * area + area_sq + extra
    return (
        head_value, tail_value, area, area_sq, extra, total, 1.0 - total,
        certified, _closed_form(spec, family.closed, family.n), spec.area_interpretation,
    )


def _grid_terms(
    spec: FunctionalSpec,
    cls: type,
    n: int,
    avals,
    radius: RadiusSpec,
    sigma: float,
) -> Iterator[_Row]:
    """``_terms`` of the Moebius-type family cls(a) in dimension n for every
    a of avals (already inside [0, 1)), at a radius checked for that class
    and n, whose argument radius is sigma.  Each term is one call of the
    class's rule in (a, sigma); the spec is read once, and the literal area
    shares sigma^(2k) and W_k across the grid.  Rows are yielded in order:
    a scan that keeps only the totals holds no tuple per row."""
    constant_head, square_head = spec.head == HEAD_CONSTANT, spec.head == HEAD_ABS_SQ
    interp = spec.area_interpretation
    closed_form = _closed_form(spec, cls.closed, n)
    weight, sq_weight, extra_weight = spec.area_weight, spec.area_sq_weight, spec.extra_area_weight
    a0_at, sup_at, tail_at, area_at = cls.a0_at, cls.sup_at, cls.majorant_tail_at, cls.area_at
    literal = None
    if not spec.uses_area():
        area_at = None
    elif interp != INTERP_SLICE and n != 1:
        literal = iter(cls.literal_area_grid(avals, sigma, radius.coords, n))
    for a in avals:
        if constant_head:
            head = abs(a0_at(a))
        else:
            head = sup_at(a, sigma)
            if square_head:
                head = head * head
        tail = tail_at(a, 0, sigma)
        if literal is not None:
            area = next(literal)
        else:
            area = area_at(a, sigma) if area_at is not None else 0.0
        area_sq = sq_weight * area * area
        extra = extra_weight * area
        total = head + tail + weight * area + area_sq + extra
        # Moebius-type heads are exact closed forms: every row is certified.
        yield head, tail, area, area_sq, extra, total, 1.0 - total, True, closed_form, interp


def _head(
    spec: FunctionalSpec,
    family: ser.FamilySpec,
    sigma: float,
    eval_point: tuple[complex, ...] | None,
) -> tuple[float, bool]:
    """(head value, certified).  The boundary sup of |f| is a closed form
    for Moebius-type families and constants, and for a Blaschke product the
    upper end of a certified enclosure of max |B| on |z| = sigma, so every
    head is certified."""
    if spec.head == HEAD_CONSTANT:
        return abs(family.a0), True
    if eval_point is not None:
        value, certified = abs(ser.family_value(family, eval_point)), True
    else:
        value, certified = family.boundary_sup(sigma)
    return (value * value if spec.head == HEAD_ABS_SQ else value), certified
