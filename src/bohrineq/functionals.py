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
certified degree.  Only the literal area at a non-diagonal polyradius of an
n >= 2 family expands the multi-index series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

from . import constants as sharp
from . import series as ser
from .errors import DomainError, UnsupportedInterpretationError

HEAD_CONSTANT = "constant_term"
HEAD_ABS = "abs_f"
HEAD_ABS_SQ = "abs_f_squared"

INTERP_LITERAL = "literal"
INTERP_SLICE = "slice"

#: The literal/slice deficit per degree, kept under its historical name.
multinomial_sq_ratio = ser.multinomial_sq_ratio


# --------------------------------------------------------------------------
# Radius specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSpec:
    """Evaluation polyradius; bold_r is the max coordinate."""

    coords: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(r) for r in self.coords)
        if not cs:
            raise DomainError("radius needs at least one coordinate")
        if not all(0.0 <= r < math.inf for r in cs):
            raise DomainError("radii must be finite and nonnegative")
        object.__setattr__(self, "coords", cs)

    @classmethod
    def diagonal(cls, n: int, r: float) -> "RadiusSpec":
        if n < 1:
            raise DomainError("dimension n must be >= 1")
        return cls((float(r),) * n)

    @classmethod
    def vector(cls, rs: tuple[float, ...]) -> "RadiusSpec":
        return cls(tuple(rs))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def bold_r(self) -> float:
        return max(self.coords)

    @property
    def is_diagonal(self) -> bool:
        return all(r == self.coords[0] for r in self.coords)


# --------------------------------------------------------------------------
# Functional specification and presets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSpec:
    """Declarative description of one Bohr-type functional."""

    head: str
    include_majorant_tail: bool = True
    area_weight: float = 0.0
    area_sq_weight: float = 0.0
    extra_area_weight: float = 0.0
    area_interpretation: str = INTERP_SLICE

    def __post_init__(self):
        if self.head not in (HEAD_CONSTANT, HEAD_ABS, HEAD_ABS_SQ):
            raise DomainError(f"unknown head {self.head!r}")
        if self.area_interpretation not in (INTERP_LITERAL, INTERP_SLICE):
            raise DomainError(f"unknown interpretation {self.area_interpretation!r}")

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


def preset(name: str, constants: sharp.SharpConstants | None = None) -> FunctionalSpec:
    """Named functional with weights injected from the constants module."""
    c = constants if constants is not None else sharp.sharp_constants()
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

@dataclass(frozen=True)
class TermBreakdown:
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


# --------------------------------------------------------------------------
# Schwarz-Pick bound
# --------------------------------------------------------------------------

def schwarz_pick(a0: float, bold_r: float) -> float:
    """(a0 + r)/(1 + a0 r): boundary bound on |f| from |f(0)| = a0."""
    if not 0.0 <= a0 <= 1.0:
        raise DomainError(f"a0={a0} outside [0, 1]")
    if not 0.0 <= bold_r < 1.0:
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
    sigma = family.sigma(radius.coords)
    if interpretation == INTERP_SLICE or family.n == 1:
        return family.area(sigma)
    if radius.is_diagonal:
        return family.literal_area(sigma)
    expanded = ser.expand(family, ser.default_truncation(family, radius.bold_r))
    return _literal_area_from_series(expanded, radius)


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
    head_value, certified = _head(spec, family, sigma, eval_point)
    tail_value = family.majorant(sigma) if spec.include_majorant_tail else 0.0
    area = area_term(family, radius, spec.area_interpretation) if spec.uses_area() else 0.0
    area_sq = spec.area_sq_weight * area * area
    extra = spec.extra_area_weight * area
    total = head_value + tail_value + spec.area_weight * area + area_sq + extra
    tail_closed = family.closed or not spec.include_majorant_tail
    area_closed = not spec.uses_area() or (
        family.closed and (spec.area_interpretation == INTERP_SLICE or family.n == 1)
    )
    return TermBreakdown(
        head_value=head_value,
        majorant_tail=tail_value,
        area_term=area,
        area_sq_contribution=area_sq,
        extra_area_contribution=extra,
        total=total,
        margin=1.0 - total,
        certified=certified,
        closed_form=tail_closed and area_closed,
        interpretation=spec.area_interpretation,
    )


def _head(
    spec: FunctionalSpec,
    family: ser.FamilySpec,
    sigma: float,
    eval_point: tuple[complex, ...] | None,
) -> tuple[float, bool]:
    """(head value, certified); the boundary sup of |f| is exact except for
    Blaschke products, whose sampled sup is a lower estimate."""
    if spec.head == HEAD_CONSTANT:
        return abs(family.a0), True
    if eval_point is not None:
        value, certified = abs(ser.family_value(family, eval_point)), True
    else:
        value, certified = family.boundary_sup(sigma)
    return (value * value if spec.head == HEAD_ABS_SQ else value), certified
