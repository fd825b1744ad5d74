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

Functionals are evaluated on families only, slice-first: every term is
read from the family's own rules (series.py) at sigma = (r_1 + ... + r_n)/q,
the radius reached by the Moebius argument, which is exact at any
polyradius.  No functional expands a multi-index series or reads one: the
literal area reweights the slice sum per degree (``literal_area``).

``evaluate`` is its checks (dimension, domain cap) and one private core,
prepared by ``_prepare`` once per (spec, family): it reads once what the
pair fixes (the head rule, and for the constant head |a_0| itself; whether
the spec weighs an area, and which; the three weights; ``closed_form``) and
returns the per-radius evaluation, which takes the checked polyradius and
its sigma, reads the sigma-dependent terms through the family's methods and
returns the ten ``TermBreakdown`` fields as a plain tuple.  ``evaluate``
builds the record from them with ``_breakdown``; a radius search prepares
the core once and reads the total and certification of each radius it tries
from the tuple with ``_total_certified``.  The grid kernel is the same
functional for the Moebius-type family of one class and n over a grid of a,
and builds no family: ``_grid_terms`` reads a sweep's head, tail and area
columns from the class's column rules, each (a, sigma) column once per sweep,
``_grid_totals`` sums them, and ``_grid_columns`` returns all ten as the
fields of one ``TermBreakdown``, each set of equal columns built once; a
scan sums its totals in one pass of ``total_grid``, from ``HEADS`` and
``_weights``.  So only this module knows the order of an evaluation's fields.
``_prepare``'s core is the reference order of operations; both column sums
keep its bits.  A zero weight adds +-0.0, which changes only a -0.0 partial
sum, and no partial sum after a positive-weight term is -0.0, as no area is
-0.0: so ``_grid_totals`` drops a zero extra-area term when some weight is
positive, and with none both fold the three terms into one signed zero,
-0.0 only when all three weights are.  A zero weight's contribution column
is that signed zero, repeated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from . import constants as sharp
from . import series as ser
from .errors import DomainError, UnsupportedInterpretationError

HEAD_CONSTANT = "constant_term"
HEAD_ABS = "abs_f"
HEAD_ABS_SQ = "abs_f_squared"
#: The heads in the order of the ``head`` kinds of ``series._MoebiusType.total_grid``.
HEADS = (HEAD_CONSTANT, HEAD_ABS, HEAD_ABS_SQ)

INTERP_LITERAL = "literal"
INTERP_SLICE = "slice"


# --------------------------------------------------------------------------
# Radius specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSpec:
    """Evaluation polyradius; bold_r is its largest coordinate."""

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

    @property
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
        if self.head not in HEADS:
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
        else its twin, built on the first call and kept on the instance (not
        in a cache keyed by the spec: equality would mix -0.0 and +0.0
        weights)."""
        if interpretation == self.area_interpretation:
            return self
        twin = self.__dict__.get("_twin")
        if twin is None or twin.area_interpretation != interpretation:
            twin = replace(self, area_interpretation=interpretation)  # refuses an unknown one
            object.__setattr__(self, "_twin", twin)
        return twin


@lru_cache(maxsize=1)
def _preset_table() -> dict[str, FunctionalSpec]:
    """The ten presets, keyed by the ``preset_name`` of each theorem in
    ``verify.THEOREMS``; T21 and T22 share the specs of C and D."""
    c = sharp.sharp_constants()
    thm_c = FunctionalSpec(HEAD_CONSTANT, area_weight=16.0 / 9.0, area_sq_weight=c.lambda1)
    thm_d = FunctionalSpec(HEAD_ABS_SQ, area_weight=16.0 / 9.0, area_sq_weight=c.lambda2)
    return {
        "classic": FunctionalSpec(HEAD_CONSTANT),
        "thm_a": FunctionalSpec(HEAD_CONSTANT, area_weight=16.0 / 9.0),
        "thm_b1": FunctionalSpec(HEAD_ABS),
        "thm_b2": FunctionalSpec(HEAD_ABS_SQ),
        "thm_c": thm_c,
        "thm_2_1": thm_c,
        "thm_d": thm_d,
        "thm_2_2": thm_d,
        "thm_e": FunctionalSpec(HEAD_ABS, area_weight=c.p),
        "thm_2_3": FunctionalSpec(HEAD_ABS, extra_area_weight=c.p),
    }


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
    tail certificate: ``_prepare`` and ``_grid_columns`` set it, true on every
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

#: The three area weights (w, w_q, w_x) of a spec.
_weights = operator.attrgetter("area_weight", "area_sq_weight", "extra_area_weight")

#: (total, certified) of ``_prepare``'s core tuple, in ``TermBreakdown`` field order.
_total_certified = operator.itemgetter(*map(TermBreakdown._fields.index, ("total", "certified")))


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


def _check_radius_for(family: ser.FamilySpec, radius: RadiusSpec) -> None:
    if radius.n != family.n:
        raise DomainError(f"radius has dimension {radius.n}, expected {family.n}")
    if radius.bold_r >= family.cap:
        raise DomainError(f"radius {radius.bold_r} not below the domain cap {family.cap}")


# --------------------------------------------------------------------------
# Area term
# --------------------------------------------------------------------------

def area_term(
    family: ser.FamilySpec, radius: RadiusSpec, interpretation: str = INTERP_LITERAL
) -> float:
    """The degree-weighted square sum of the family under the requested
    interpretation: the literal multi-index sum (``literal_area``) or the
    slice sum (``area``), which agree for n = 1."""
    if interpretation not in (INTERP_LITERAL, INTERP_SLICE):
        raise UnsupportedInterpretationError(f"unknown interpretation {interpretation!r}")
    _check_radius_for(family, radius)
    sigma = family.sigma(radius.coords)
    if _literal(interpretation, family.n):
        return family.literal_area(sigma, radius.coords)
    return family.area(sigma)


def _literal(interpretation: str, n: int) -> bool:
    """True when the area is the literal multi-index sum, not the slice one."""
    return interpretation == INTERP_LITERAL and n > 1


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
    _check_radius_for(family, radius)
    sigma = family.sigma(radius.coords)
    return _breakdown(_prepare(spec, family)(radius.coords, sigma, eval_point))


def _closed_form(spec: FunctionalSpec, closed: bool, n: int) -> bool:
    """True when no term of the evaluation was truncated."""
    return closed and not (spec.uses_area() and _literal(spec.area_interpretation, n))


def _prepare(spec: FunctionalSpec, family: ser.FamilySpec) -> Callable[..., tuple]:
    """The evaluation core of spec on family: what the pair fixes (the
    head rule, and for the constant head |a_0| itself; whether the spec
    weighs an area, and which; the three weights; ``closed_form``) is read
    once, and the returned terms(coords, sigma, eval_point=None) gives the
    ten ``TermBreakdown`` fields, as a plain tuple, at a checked polyradius
    coords whose argument radius is sigma.  Every other term is read from
    the family's methods; an |f| head is |f(eval_point)| or else the
    family's ``boundary_sup``."""
    constant = abs(family.a0) if spec.head == HEAD_CONSTANT else None
    squared = spec.head == HEAD_ABS_SQ
    weighs_area, literal = spec.uses_area(), _literal(spec.area_interpretation, family.n)
    weight, sq_weight, extra_weight = _weights(spec)
    closed, interpretation = _closed_form(spec, family.closed, family.n), spec.area_interpretation
    sup, majorant, slice_area = family.boundary_sup, family.majorant, family.area
    literal_area = family.literal_area if literal else None  # a rule of n > 1 families

    def terms(coords: tuple[float, ...], sigma: float, eval_point=None) -> tuple:
        if constant is not None:
            head_value = constant
        else:
            value = sup(sigma) if eval_point is None else abs(ser.family_value(family, eval_point))
            head_value = value * value if squared else value
        tail_value = majorant(sigma)
        if not weighs_area:
            area = 0.0
        elif literal:
            area = literal_area(sigma, coords)
        else:
            area = slice_area(sigma)
        area_sq = sq_weight * area * area
        extra = extra_weight * area
        total = head_value + tail_value + weight * area + area_sq + extra
        # Every head is a closed form or a certified enclosure, every tail a certified bound.
        return (
            head_value, tail_value, area, area_sq, extra, total, 1.0 - total,
            True, closed, interpretation,
        )

    return terms


def _grid_terms(
    spec: FunctionalSpec, cls: type, n: int, avals, coords: tuple[float, ...], sigma: float,
    shared: dict,
) -> tuple[list, list, list]:
    """The head, majorant-tail and area columns of the evaluation core of
    the Moebius-type family cls(a) in dimension n for every a of avals
    (inside [0, 1)), at a polyradius coords checked for that class and n
    whose argument radius is sigma.  Every column but a literal area is of
    (a, sigma) alone: it is built once, by one column rule call, into
    shared, a dict that lives for one sweep over avals, keyed by
    sigma's repr, since -0.0 == 0.0.  So are the literal-area degrees and
    slice terms."""
    at = repr(sigma)

    def once(name: str, build: Callable[[], list]) -> list:
        key = name, at
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
    """The total column: the sum of ``_prepare``'s core,

        head + tail + w * area + w_q * area * area + w_x * area,

    with the bits of its order of operations.  When no weight is positive,
    the three terms fold into one signed zero, w + w_q + w_x; when some
    weight is positive and w_x is zero, the last term is dropped.  Both keep
    every bit, since every area column is finite and +0.0 or above, never
    -0.0 (a sum of squares times sigma^2 >= +0.0):

    - a zero weight gives a term of +-0.0, of the weight's sign;
    - adding +-0.0 changes a partial sum only when that sum is -0.0, and
      then only +0.0 changes it, to +0.0;
    - a positive-weight term is +0.0 or above, so the partial sums after
      it are never -0.0, and a zero term after it changes nothing;
    - with no positive weight, head + tail gains the three zeros in turn,
      which is adding -0.0 when all three are -0.0 and +0.0 otherwise: the
      sign of their sum.
    """
    w, w_q, w_x = _weights(spec)
    if not (w or w_q or w_x):
        zero = w + w_q + w_x
        return [head + tail + zero for head, tail in zip(heads, tails)]
    rows = zip(heads, tails, areas)
    if not w_x:  # every preset but T23's weighs no extra area
        return [head + tail + w * area + w_q * area * area for head, tail, area in rows]
    return [head + tail + w * area + w_q * area * area + w_x * area for head, tail, area in rows]


def _grid_columns(
    spec: FunctionalSpec, cls: type, n: int, avals, coords: tuple[float, ...], sigma: float,
    shared: dict,
) -> TermBreakdown:
    """The ``TermBreakdown`` whose fields are the columns of ``_grid_terms``.
    All but the interpretation depend on the head, weights and sigma alone,
    and on coords for a literal area at n > 1: sets that agree there (the
    n = 1 literal set, the slice sets of one sigma) share them, as tuples, in shared."""
    literal = _literal(spec.area_interpretation, n)
    key = spec.head, *_weights(spec), coords if literal else 1, repr(sigma)
    if key not in shared:
        heads, tails, areas = _grid_terms(spec, cls, n, avals, coords, sigma, shared)
        totals = _grid_totals(spec, heads, tails, areas)
        w_q, w_x, size = spec.area_sq_weight, spec.extra_area_weight, len(heads)
        # A zero weight gives one signed zero, of its own sign, on every row
        # (``_grid_totals``): the column is that product, repeated.
        area_sq = [w_q * area * area for area in areas] if w_q else [w_q * 0.0 * 0.0] * size
        extra = [w_x * area for area in areas] if w_x else [w_x * 0.0] * size
        # Moebius-type heads and tails are exact closed forms: every row is certified.
        shared[key] = tuple(map(tuple, (
            heads, tails, areas, area_sq, extra, totals, [1.0 - total for total in totals],
            [True] * size, [_closed_form(spec, cls.closed, n)] * size,
        )))
    return _breakdown((*shared[key], (spec.area_interpretation,) * len(avals)))
