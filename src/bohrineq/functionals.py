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
Moebius argument, which is exact at any polyradius.  No family functional
expands a multi-index series: the literal area reweights the slice sum per
degree (``literal_area``).

``evaluate`` is its checks (dimension, domain cap) and one private core,
``_terms``, which takes the checked polyradius and its sigma, reads every
term through the family's methods and returns the ``TermBreakdown`` record,
built by ``_breakdown``.  The grid kernel is the same functional for the
Moebius-type family of one class and n over a grid of a, and builds no
family: ``_grid_terms`` reads the head, tail and area columns from the
class's column rules, each (a, sigma) column once per sweep or scan,
``_grid_totals`` sums them, and ``_grid_columns`` returns all ten columns,
each set of equal columns built once, from which the sweep builds its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple, Union

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
            if not 0.0 <= (weight := ser._real(getattr(self, name), name)) < math.inf:
                raise DomainError(f"{name} must be a finite, nonnegative real number")
            object.__setattr__(self, name, weight)

    def uses_area(self) -> bool:
        return any((self.area_weight, self.area_sq_weight, self.extra_area_weight))

    def with_interpretation(self, interpretation: str) -> "FunctionalSpec":
        """This spec under the given area interpretation: itself for its own,
        else its twin, built on the first call and kept on the instance, as
        ``RadiusSpec.bold_r`` is; equality would mix -0.0 and +0.0 weights."""
        if interpretation == self.area_interpretation:
            return self
        twin = self.__dict__.get("_twin")
        if twin is None or twin.area_interpretation != interpretation:
            twin = replace(self, area_interpretation=interpretation)  # refuses an unknown one
            object.__setattr__(self, "_twin", twin)
        return twin


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


@lru_cache(maxsize=1)
def _preset_table() -> dict[str, FunctionalSpec]:
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
    return table


def preset(name: str) -> FunctionalSpec:
    """Named functional with weights injected from the constants module; the
    table is built once and its frozen specs are shared."""
    try:
        return _preset_table()[name]
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
    tail certificate: ``_terms`` and ``_grid_columns`` set it, true on every
    row until verdicts are decided on proved bounds.  ``closed_form`` means
    no truncation happened at all.
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


#: A ``TermBreakdown`` from one iterable of its fields, at C speed.
_breakdown = partial(tuple.__new__, TermBreakdown)


# --------------------------------------------------------------------------
# Schwarz-Pick bound
# --------------------------------------------------------------------------

def schwarz_pick(a0: float, bold_r: float) -> float:
    """(a0 + r)/(1 + a0 r): boundary bound on |f| from |f(0)| = a0."""
    if not 0.0 <= (a0 := ser._real(a0, "a0")) <= 1.0:
        raise DomainError(f"a0={a0} outside [0, 1]")
    if not 0.0 <= (bold_r := ser._real(bold_r, "bold_r")) < 1.0:
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
    tail = ser.majorant_tail_bound(series.source, series.truncation, radius.bold_r)
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
            raise UnsupportedInterpretationError("slice interpretation needs a generating family")
        target = target.source
    family = target
    _check_radius_for(family, radius, family.n)
    return _family_area(family, radius.coords, family.sigma(radius.coords), interpretation)


def _family_area(
    family: ser.FamilySpec, coords: tuple[float, ...], sigma: float, interp: str
) -> float:
    """Area of a family at a checked polyradius whose argument radius is sigma."""
    if _literal(interp, family.n):
        return family.literal_area(sigma, coords)
    return family.area(sigma)


def _literal(interpretation: str, n: int) -> bool:
    """True when the area is the literal multi-index sum, not the slice one."""
    return interpretation == INTERP_LITERAL and n > 1


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
    return _terms(spec, family, radius.coords, sigma, eval_point)


def _closed_form(spec: FunctionalSpec, closed: bool, n: int) -> bool:
    """True when no term of the evaluation was truncated."""
    return closed and not (spec.uses_area() and _literal(spec.area_interpretation, n))


def _terms(
    spec: FunctionalSpec,
    family: ser.FamilySpec,
    coords: tuple[float, ...],
    sigma: float,
    eval_point: tuple[complex, ...] | None = None,
) -> TermBreakdown:
    """The breakdown at a checked polyradius coords whose argument radius is
    sigma, read from the family's methods; an |f| head is |f(eval_point)| or
    else the family's ``boundary_sup``."""
    if spec.head == HEAD_CONSTANT:
        head_value = abs(family.a0)
    else:
        value = (
            family.boundary_sup(sigma) if eval_point is None
            else abs(ser.family_value(family, eval_point))
        )
        head_value = value * value if spec.head == HEAD_ABS_SQ else value
    tail_value = family.majorant(sigma)
    area = (
        _family_area(family, coords, sigma, spec.area_interpretation) if spec.uses_area() else 0.0
    )
    area_sq = spec.area_sq_weight * area * area
    extra = spec.extra_area_weight * area
    total = head_value + tail_value + spec.area_weight * area + area_sq + extra
    # Every head is a closed form or a certified enclosure, every tail a certified bound.
    return _breakdown((
        head_value, tail_value, area, area_sq, extra, total, 1.0 - total,
        True, _closed_form(spec, family.closed, family.n), spec.area_interpretation,
    ))


def _grid_terms(
    spec: FunctionalSpec, cls: type, n: int, avals, coords: tuple[float, ...], sigma: float,
    shared: dict,
) -> tuple[list, list, list]:
    """The head, majorant-tail and area columns of ``_terms`` of the
    Moebius-type family cls(a) in dimension n for every a of avals (inside
    [0, 1)), at a polyradius coords checked for that class and n whose
    argument radius is sigma.  Every column but a literal area is of (a,
    sigma) alone: it is built once, by one column rule call, into shared, a
    dict that lives for one sweep or scan over avals, keyed by sigma's repr,
    since -0.0 == 0.0.  So are the literal-area degrees and slice terms."""

    def once(name: str, build: Callable[[], list]) -> list:
        key = name, repr(sigma)
        return shared[key] if key in shared else shared.setdefault(key, build())

    if spec.head == HEAD_CONSTANT:
        heads = once(spec.head, lambda: list(map(abs, avals)))  # a_0 = a
    else:
        sups = once(HEAD_ABS, lambda: cls.sup_grid(avals, sigma))
        heads = sups if spec.head == HEAD_ABS else once(spec.head, lambda: [x * x for x in sups])
    tails = once("tail", lambda: cls.majorant_tail_grid(avals, 0, sigma))
    if not spec.uses_area():
        return heads, tails, [0.0] * len(heads)
    if not _literal(spec.area_interpretation, n):
        return heads, tails, once("area", lambda: cls.area_grid(avals, sigma))
    degrees = once("degrees", lambda: cls.degree_grid(avals, sigma))
    terms = once("slice terms", lambda: cls.slice_term_grid(avals, sigma, degrees))
    return heads, tails, cls.literal_area_grid(terms, degrees, coords, n)


def _grid_totals(spec: FunctionalSpec, heads: list, tails: list, areas: list) -> list[float]:
    """The total column: ``_terms``'s sum, in its order of operations."""
    weight, sq_weight, extra_weight = spec.area_weight, spec.area_sq_weight, spec.extra_area_weight
    return [
        head + tail + weight * area + sq_weight * area * area + extra_weight * area
        for head, tail, area in zip(heads, tails, areas)
    ]


def _grid_columns(
    spec: FunctionalSpec, cls: type, n: int, avals, coords: tuple[float, ...], sigma: float,
    shared: dict,
) -> tuple[list, ...]:
    """The ten ``TermBreakdown`` columns, in field order, of ``_grid_terms``.
    All but the interpretation depend on the head, weights and sigma alone,
    and on coords for a literal area at n > 1: sets that agree there (the
    n = 1 literal set, the slice sets of one sigma) share them in shared."""
    key = (
        spec.head, spec.area_weight, spec.area_sq_weight, spec.extra_area_weight,
        coords if _literal(spec.area_interpretation, n) else 1, repr(sigma),
    )
    if key not in shared:
        heads, tails, areas = _grid_terms(spec, cls, n, avals, coords, sigma, shared)
        totals = _grid_totals(spec, heads, tails, areas)
        sq_weight, extra_weight = spec.area_sq_weight, spec.extra_area_weight
        size = len(heads)
        # Moebius-type heads and tails are exact closed forms: every row is certified.
        shared[key] = (
            heads, tails, areas, [sq_weight * area * area for area in areas],
            [extra_weight * area for area in areas], totals, [1.0 - total for total in totals],
            [True] * size, [_closed_form(spec, cls.closed, n)] * size,
        )
    return (*shared[key], [spec.area_interpretation] * len(avals))

