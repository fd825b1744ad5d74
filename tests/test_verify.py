"""Lemma checks, radius search, sharpness scans, and theorem sweeps."""

import itertools
import math
import operator
import random
import re
from decimal import Decimal
from fractions import Fraction
from collections.abc import Hashable
from dataclasses import replace
from functools import partial

import pytest

from bohrineq import constants as sharp
from bohrineq import functionals as fun
from bohrineq import series as ser
from bohrineq import verify as ver
from bohrineq.errors import BudgetExceededError, DomainError, UnsupportedInterpretationError
from bohrineq.functionals import (
    INTERP_LITERAL,
    INTERP_SLICE,
    FunctionalSpec,
    RadiusSpec,
    TermBreakdown,
    area_term,
    evaluate,
    preset,
)
from bohrineq.series import (
    ConstantFn,
    ExtremalPolydiskScaled,
    ExtremalPolydiskUnit,
    FiniteBlaschke,
    MoebiusDisk,
    oracle_expand,
)
from bohrineq.verify import (
    MAX_GRID_POINTS,
    RadiusResult,
    ScanRow,
    SweepRow,
    THEOREMS,
    check_tolerance,
    grid_values,
    lemma1a_check,
    lemma1b_check,
    lemma1c_bound,
    lemma1c_check,
    radius_search,
    sharpness_scan,
    theorem_family,
    theorem_sweep,
    violates,
)

SQRT5 = math.sqrt(5.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_grid_values_inclusive_and_stable():
    assert grid_values(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
    assert grid_values(0.5, 0.5, 0.1) == [0.5]
    with pytest.raises(DomainError):
        grid_values(0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "bounds",
    [(0.0, math.inf, 1.0), (-math.inf, 0.5, 0.1), (math.nan, 1.0, 0.1), (0.0, 1.0, math.nan),
     (0.0, 1.0, math.inf)],
)
def test_grid_values_rejects_non_finite_input(bounds):
    with pytest.raises(DomainError):
        grid_values(*bounds)


@pytest.mark.parametrize(
    "bounds",
    [(0.0, float(MAX_GRID_POINTS), 1.0), (0.0, 0.99, 1e-12), (-1e308, 1e308, 1.0),
     (0.0, 0.99, 5e-324)],
)
def test_grid_values_refuses_grids_over_the_cap(bounds):
    with pytest.raises(BudgetExceededError):
        grid_values(*bounds)


# ---------------------------------------------------------------- lemma1a_check

@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("bold_r", [0.2, 0.5, INV_SQRT2])
def test_lemma1a_moebius_equality(a, bold_r):
    check = lemma1a_check(MoebiusDisk(a), bold_r)
    assert check.ok
    assert abs(check.lhs - check.rhs) < 1e-10


def test_lemma1a_constant_is_trivial():
    check = lemma1a_check(ConstantFn(0.7), 0.5)
    assert check.lhs == 0.0 and check.ok


def test_lemma1a_scaled_family_strict_gap():
    check = lemma1a_check(ExtremalPolydiskScaled(0.6, 2), 0.5)
    assert check.ok
    assert check.gap > 1e-3


def test_lemma1a_truncated_equality_case_passes_within_the_slack():
    # B = z^2 has the one mass m2(2) = 1, so at r = 1/sqrt2 lemma 1a reads
    # 2 r^4 = r^2: an equality case, summed as a truncated family.  The
    # partial sum stays at or below rhs; the certified tail at K = 49 is
    # the whole excess, and only LEMMA_SLACK lets it pass.
    family = FiniteBlaschke((0j, 0j))
    check = lemma1a_check(family, INV_SQRT2)
    assert check.ok
    assert check.lhs - check.rhs == pytest.approx(9.05e-14, rel=1e-3)
    assert 0.0 < check.lhs - check.rhs < ver.LEMMA_SLACK
    K, tail = ser.truncation(lambda k: family.sq_tail(k, INV_SQRT2), first=1)
    assert K == 49 and tail == pytest.approx(9.06e-14, rel=1e-3)
    assert check.lhs - tail <= check.rhs


def test_lemma1a_range_and_hypothesis_errors():
    with pytest.raises(DomainError):
        lemma1a_check(MoebiusDisk(0.5), 0.8)
    with pytest.raises(DomainError):
        lemma1a_check(ExtremalPolydiskUnit(0.5, 2), 0.5)


# ---------------------------------------------------------------- lemma1b_check

@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("bold_r", [0.2, 0.7, 0.95])
def test_lemma1b_moebius_equality(a, bold_r):
    check = lemma1b_check(MoebiusDisk(a), bold_r)
    assert check.ok
    assert abs(check.lhs - check.rhs) < 1e-10


def test_lemma1b_scaled_family_strict_gap():
    check = lemma1b_check(ExtremalPolydiskScaled(0.5, 3), 0.7)
    assert check.ok
    assert check.gap > 1e-3


def test_lemma1b_range_error():
    with pytest.raises(DomainError):
        lemma1b_check(MoebiusDisk(0.5), 1.0)


class _Inflated(MoebiusDisk):
    """psi_a with its coefficient moduli scaled by 1 + 1e-8: no longer
    bounded by one, so each lemma fails at its equality case by a few 1e-9."""

    def sq_masses(self, K):
        return [m * (1 + 2e-8) for m in super().sq_masses(K)]

    def majorant(self, sigma):
        return super().majorant(sigma) * (1 + 1e-8)


@pytest.mark.parametrize("check", [lemma1a_check, lemma1b_check, lemma1c_check])
def test_lemma_verdict_fails_beyond_its_slack(check):
    # Every family the lemmas admit satisfies them, so only a family that is
    # not bounded by one can show a verdict fail.
    held, failed = check(MoebiusDisk(0.6), 0.4), check(_Inflated(0.6), 0.4)
    assert held.ok and abs(held.gap) < ver.LEMMA_SLACK
    assert not failed.ok and -1e-7 < failed.gap < -ver.LEMMA_SLACK


def test_lemma1_blaschke_holds():
    fam = FiniteBlaschke((0.5, -0.3))
    assert lemma1a_check(fam, 0.5).ok
    assert lemma1b_check(fam, 0.8).ok


# ---------------------------------------------------------------- lemma1c

def test_lemma1c_bound_is_exact_moebius_tail():
    a, r = 0.6, 0.4
    assert lemma1c_bound(a, r, 1) == pytest.approx(
        r * (1 - a * a) / (1 - a * r), rel=1e-15
    )


def test_lemma1c_bound_second_branch_value():
    got = lemma1c_bound(0.1, 0.2, 4)
    assert got == pytest.approx(2 * 0.2 * math.sqrt(0.99) / math.sqrt(1 - 0.16), rel=1e-15)


def test_lemma1c_zero_radius():
    assert lemma1c_bound(1.0, 0.0, 3) == 0.0


@pytest.mark.parametrize("bold_r", [math.nan, math.inf, -math.inf, -0.1])
def test_lemma1c_bound_refuses_a_radius_outside_zero_to_infinity(bold_r):
    for a0 in (0.0, 0.5):
        with pytest.raises(DomainError, match=f"^bold_r={bold_r} must be finite and nonnegative$"):
            lemma1c_bound(a0, bold_r, 1)


def test_lemma1c_branch_preconditions():
    with pytest.raises(DomainError):
        lemma1c_bound(0.9, 0.5, 3)  # n a0 r >= 1
    with pytest.raises(DomainError):
        lemma1c_bound(0.1, 0.7, 3)  # n r^2 >= 1
    for n in (1.5, 2.0, "2", None, 0):  # n = 1.5 used to return 0.216
        with pytest.raises(DomainError, match="dimension"):
            lemma1c_bound(0.5, 0.2, n)


@pytest.mark.parametrize(
    "family,bold_r",
    [
        (MoebiusDisk(0.6), 0.4),
        (ExtremalPolydiskScaled(0.7, 2), 0.3),
        (ExtremalPolydiskScaled(0.4, 3), 0.25),
        (FiniteBlaschke((0.5, -0.3)), 0.2),
        (ConstantFn(0.5), 0.3),
    ],
)
def test_lemma1c_family_tails_within_bound(family, bold_r):
    check = lemma1c_check(family, bold_r)
    assert check.ok


# ------------------------------------------------------- multinomial deficit

def test_degree_two_deficit_matches_oracle():
    # n=2, k=2: literal mass 6 of 16, so the slice term loses 10/16 exactly.
    a, bold_r = 0.6, 0.5
    series = oracle_expand(ExtremalPolydiskScaled(a, 2), 6)
    m2 = math.fsum(
        abs(c) ** 2 for key, c in series.sorted_items() if sum(key) == 2
    )
    literal_k2 = 2 * m2 * bold_r**4
    slice_k2 = 2 * ((1 - a * a) * a) ** 2 * bold_r**4
    assert literal_k2 == pytest.approx((6 / 16) * slice_k2, rel=1e-12)
    assert slice_k2 - literal_k2 == pytest.approx((10 / 16) * slice_k2, rel=1e-12)


def test_literal_below_slice_across_dimensions():
    for n in (1, 2, 3):
        for a in (0.0, 0.4, 0.8):
            fam = ExtremalPolydiskUnit(a, n)
            rad = RadiusSpec.diagonal(n, 1 / (3 * n))
            lit = area_term(fam, rad, INTERP_LITERAL)
            sli = area_term(fam, rad, INTERP_SLICE)
            assert lit <= sli + 1e-13
            if n == 1:
                assert lit == pytest.approx(sli, rel=1e-12)
            else:
                # (1 - a^2) > 0 keeps the degree-1 term alive, so the
                # deficit is strict for every a in [0, 1).
                assert lit < sli


# ---------------------------------------------------------------- radius search

def test_classic_radius_law():
    spec = preset("classic")
    for a in [0.1 * i for i in range(1, 10)]:
        result = radius_search(spec, MoebiusDisk(a), tol=1e-9)
        assert result.binding
        assert abs(result.radius - 1.0 / (1.0 + 2.0 * a)) <= 1e-9


def _count_cores(monkeypatch, budget=math.inf):
    """Record, for each evaluation core ``functionals._prepare`` prepares,
    the calls of that core; more than budget calls in all raise, which
    stands in for a timeout."""
    cores = []
    prepare = fun._prepare

    def counted_prepare(spec, family):
        terms, calls = prepare(spec, family), []
        cores.append(calls)

        def counted(*args):
            calls.append(args)
            if sum(map(len, cores)) > budget:
                raise RuntimeError("radius search does not terminate")
            return terms(*args)

        return counted

    monkeypatch.setattr(fun, "_prepare", counted_prepare)
    return cores


def test_radius_search_non_binding_constant(monkeypatch):
    cores = _count_cores(monkeypatch)
    result = radius_search(preset("classic"), ConstantFn(0.3))
    assert not result.binding
    assert [len(calls) for calls in cores] == [1]  # the total at hi decides; nothing is sampled
    assert result.radius == pytest.approx(1.0, abs=1e-8)


def test_radius_search_bracket_invariant():
    spec = preset("classic")
    fam = MoebiusDisk(0.7)
    tol = 1e-9
    result = radius_search(spec, fam, tol=tol)
    below = evaluate(spec, fam, RadiusSpec.diagonal(1, result.radius - tol)).total
    above = evaluate(spec, fam, RadiusSpec.diagonal(1, result.radius + tol)).total
    assert below <= 1.0 < above


def test_radius_search_stable_under_tolerance_refinement():
    spec = preset("thm_e")
    fam = MoebiusDisk(0.5)
    coarse = radius_search(spec, fam, tol=1e-6)
    fine = radius_search(spec, fam, tol=5e-7)
    assert abs(fine.radius - coarse.radius) < 1e-6


@pytest.mark.parametrize("tol", [1e-16, 1e-17, 1e-20, 5e-324])
def test_radius_search_stops_at_adjacent_floats(monkeypatch, tol):
    # Below the float spacing of the bracket the midpoint rounds to one of
    # its ends.  The search must stop there; a budget on calls of the
    # prepared evaluation core stands in for a timeout.
    cores = _count_cores(monkeypatch, budget=500)
    result = radius_search(preset("classic"), MoebiusDisk(0.5), tol=tol)
    monkeypatch.undo()
    lo, hi = result.bracket
    assert hi == math.nextafter(lo, math.inf)
    assert result.binding and lo <= result.radius <= hi
    # One core, run at hi and then at every step.
    assert [len(calls) for calls in cores] == [1 + result.iterations]
    spec, family = preset("classic"), MoebiusDisk(0.5)
    assert evaluate(spec, family, RadiusSpec.diagonal(1, lo)).total <= 1.0
    assert evaluate(spec, family, RadiusSpec.diagonal(1, hi)).total > 1.0


def _reference_radius_search(spec, family, tol):
    """The bisection of ``radius_search`` with a checked public evaluation
    at every step."""
    cap = family.cap
    hi = cap * (1.0 - 1e-9)

    def total(r):
        return evaluate(spec, family, RadiusSpec.diagonal(family.n, r))

    top = total(hi)
    certified = top.certified
    if top.total <= 1.0:
        return RadiusResult(hi, (hi, cap), 0, False, certified)
    lo, iterations = 0.0, 0
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


_SEARCH_CASES = [
    ("classic", MoebiusDisk(0.5)),
    ("thm_e", MoebiusDisk(0.9)),
    ("thm_d", MoebiusDisk(0.0)),
    ("thm_2_1", ExtremalPolydiskUnit(0.5, 3)),
    ("thm_2_1-literal", ExtremalPolydiskUnit(0.7, 2)),
    ("thm_2_3", ExtremalPolydiskScaled(0.4, 2)),
    ("thm_b2", ExtremalPolydiskScaled(0.8, 3)),
    ("thm_e", FiniteBlaschke((0.3, -0.5, 0.2j))),
    ("classic", FiniteBlaschke((0.5,))),
    ("classic", ConstantFn(0.3)),
    ("thm_a", MoebiusDisk(0.3)),
    ("thm_b1", MoebiusDisk(-0.0)),
    ("thm_c", MoebiusDisk(0.6)),
    ("thm_2_2", ExtremalPolydiskUnit(0.5, 5)),
    ("thm_2_2-literal", ExtremalPolydiskScaled(-0.0, 5)),
    ("thm_a-literal", ExtremalPolydiskUnit(0.2, 5)),
    ("thm_c-literal", ExtremalPolydiskScaled(0.7, 2)),
]


_SEARCH_IDS = [f"{name}-{type(family).__name__}" for name, family in _SEARCH_CASES]


def _search_spec(name):
    """The preset of a case name, under the interpretation after a dash."""
    preset_name, _, interp = name.partition("-")
    spec = preset(preset_name)
    return spec.with_interpretation(interp) if interp else spec


@pytest.mark.parametrize("tol", [1e-9, 1e-16, 5e-324])
@pytest.mark.parametrize("name, family", _SEARCH_CASES, ids=_SEARCH_IDS)
def test_radius_search_equals_a_bisection_on_public_evaluate(name, family, tol):
    # The search checks hi once and then runs one core at hi and at each
    # midpoint; every field equals a search that checks every radius.
    spec = _search_spec(name)
    expected = _reference_radius_search(spec, family, tol)
    assert repr(radius_search(spec, family, tol=tol)) == repr(expected)


@pytest.mark.parametrize("name, family", _SEARCH_CASES, ids=_SEARCH_IDS)
def test_radius_search_builds_one_breakdown(monkeypatch, name, family):
    # Whatever its iterations, a search prepares one core, calls no
    # ``evaluate`` and builds no record: the core decides hi and every
    # midpoint, read from its total and certification.
    spec = _search_spec(name)
    breakdowns = _count_builds(monkeypatch)
    evaluations = _count_calls(monkeypatch, fun, "evaluate")
    cores = _count_cores(monkeypatch)
    for tol in (1e-3, 1e-9, 5e-324):
        for calls in (breakdowns, evaluations, cores):
            calls.clear()
        radius_search(spec, family, tol=tol)
        assert (len(cores), len(evaluations), len(breakdowns)) == (1, 0, 0)


def test_radius_search_rejects_non_monotone_functional():
    # A negative area weight bends the total downward after an initial rise;
    # the spec is refused before any search can assume monotonicity.
    with pytest.raises(DomainError):
        radius_search(FunctionalSpec("constant_term", extra_area_weight=-5.0), MoebiusDisk(0.8))


def test_thm_e_radius_exceeds_threshold_for_all_a():
    spec = preset("thm_e")
    radii = [
        radius_search(spec, MoebiusDisk(a), tol=1e-9).radius
        for a in [0.1 * i for i in range(1, 10)] + [0.99]
    ]
    assert min(radii) >= SQRT5 - 2.0 - 1e-9


# ---------------------------------------------------------------- Schwarz-Pick chain

def test_schwarz_pick_chain_on_grids():
    head = FunctionalSpec("abs_f")
    for fam in (MoebiusDisk(0.5), ExtremalPolydiskScaled(0.5, 2), FiniteBlaschke((0.4,))):
        n, a0 = fam.n, abs(fam.a0)
        for r in (0.1, 0.25, 0.4):
            sup = evaluate(head, fam, RadiusSpec.diagonal(n, r)).head_value
            first = (r + a0) / (1 + a0 * r)
            second = (n * r + a0) / (1 + a0 * n * r)
            assert sup <= first + 1e-12 <= second + 1e-12


def test_unit_family_saturates_outer_bound():
    head = FunctionalSpec("abs_f")
    a, n, r = 0.6, 3, 0.1
    sup = evaluate(head, ExtremalPolydiskUnit(a, n), RadiusSpec.diagonal(n, r)).head_value
    assert sup == pytest.approx((n * r + a) / (1 + a * n * r), rel=1e-15)


# ---------------------------------------------------------------- sharpness scans

def test_scan_thm_c_finds_extremal_parameter(constants):
    report = sharpness_scan("C", grid_values(0.0, 0.99, 0.01))
    assert report.argmax_a == pytest.approx(constants.a_star1, abs=1e-12)
    assert abs(report.max_total - 1.0) < 1e-9
    assert report.max_total <= 1.0 + 1e-12


def test_scan_thm_c_perturbation_gap(constants):
    a = constants.a_star1
    report = sharpness_scan("C", [0.0, 0.5], epsilon=0.1)
    expected = 1.0 + 0.1 * 81 * (1 - a * a) ** 4 / (9 - a * a) ** 4
    assert report.perturbed_max == pytest.approx(expected, abs=1e-9)
    assert report.perturbed_max > 1.0


def test_scan_thm_d_perturbation(constants):
    report = sharpness_scan("D", grid_values(0.0, 0.9, 0.1), epsilon=1e-3)
    a = constants.a_star2
    gap = 1e-3 * 81 * (1 - a * a) ** 4 / (9 - a * a) ** 4
    assert report.max_total <= 1.0 + 1e-12
    assert report.perturbed_max == pytest.approx(1.0 + gap, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_scan_t21_perturbation_in_higher_dimensions(n, constants):
    # The slice totals at r = 1/(3n) are dimension-free, so the perturbation
    # gap matches the one-variable closed form.
    report = sharpness_scan("T21", grid_values(0.0, 0.9, 0.1), n=n, epsilon=1e-3)
    a = constants.a_star1
    gap = 1e-3 * 81 * (1 - a * a) ** 4 / (9 - a * a) ** 4
    assert report.max_total <= 1.0 + 1e-12
    assert abs(report.max_total - 1.0) < 1e-9
    assert report.perturbed_max == pytest.approx(1.0 + gap, abs=1e-9)
    assert report.perturbed_max > 1.0


@pytest.mark.parametrize("theorem_id,n", [("C", 1), ("D", 1), ("T21", 2), ("T22", 3)])
def test_scan_maximum_at_the_sharp_constants_is_at_most_one(theorem_id, n):
    # The equality row at a* sums to 1 within rounding; with correctly
    # rounded constants it stays <= 1 with no tolerance.
    report = sharpness_scan(theorem_id, grid_values(0.0, 0.99, 0.01), n=n)
    assert report.max_total <= 1.0


def test_e_threshold_near_tie_has_nonnegative_exact_margin():
    # E on moebius:0.99999999 at the threshold radius is tight as a -> 1.
    # Read the row's float inputs as rationals and sum its closed forms
    # exactly: the margin is about 7.4e-25, and negative at a radius float
    # above sqrt5 - 2.
    a = 0.99999999
    r, p = THEOREMS["E"].threshold(1), preset("thm_e").area_weight
    row = evaluate(preset("thm_e"), MoebiusDisk(a), RadiusSpec.diagonal(1, r))
    assert row.total == 1.0 and row.certified
    a, r, p = map(Fraction, (a, r, p))
    sup = (a + r) / (1 + a * r)
    tail = (1 - a * a) * r / (1 - a * r)
    area = r * r * (1 - a * a) ** 2 / (1 - a * a * r * r) ** 2
    assert 1 - (sup + tail + p * area) >= 0


def test_scan_t23_supremum_approached_near_one():
    report = sharpness_scan("T23", grid_values(0.0, 0.9999, 0.0001), n=2)
    assert report.max_total <= 1.0 + 1e-12
    assert report.max_total > 1.0 - 1e-8
    assert report.argmax_a >= 0.999


def test_scan_t23_perturbed_above_one():
    report = sharpness_scan("T23", grid_values(0.99, 0.9999, 0.0001), n=2, epsilon=1e-3)
    assert report.perturbed_max > 1.0


@pytest.mark.parametrize("head, sq_weight, a, total", [
    ("constant_term", 126.4, 0.372, 1.000146),
    ("abs_f_squared", 113.7, 0.331, 1.000240),
], ids=["T21", "T22"])
def test_literal_diagonal_weights_at_n2_are_sampled_upper_bounds(head, sq_weight, a, total):
    # At n = 2 and the diagonal threshold 1/6, the extremal family on the
    # literal reading admits an A^2 weight up to about 126.3 (T21) or 113.6
    # (T22), near 6.8 and 6.9 times lambda_1 and lambda_2.  A witness a shows
    # that 126.4 and 113.7 are too large: its total exceeds 1 by more than
    # the area's certified tail and the rounding of the sum.
    spec = FunctionalSpec(head, area_weight=16 / 9, area_sq_weight=sq_weight,
                          area_interpretation=INTERP_LITERAL)
    family = ExtremalPolydiskUnit(a, 2)
    row = evaluate(spec, family, RadiusSpec.diagonal(2, 1 / 6))
    assert row.total == pytest.approx(total, abs=5e-7)
    (_, tail), = family.degree_grid((a,), family.sigma((1 / 6, 1 / 6)))
    slack = (16 / 9 + 2 * sq_weight * row.area_term) * tail + 8 * math.ulp(1.0)
    assert row.total - 1.0 > slack


def test_t21_preset_at_n2_closes_on_the_slice_reading_only(constants):
    family = ExtremalPolydiskUnit(constants.a_star1, 2)
    radius = RadiusSpec.diagonal(2, 1 / 6)
    literal, slice_ = (
        evaluate(preset("thm_2_1").with_interpretation(reading), family, radius).total
        for reading in (INTERP_LITERAL, INTERP_SLICE)
    )
    assert literal == pytest.approx(0.9076, abs=5e-5)
    assert slice_ == pytest.approx(1.0, abs=1e-12)


def test_scan_grid_validation():
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5, 1.0])
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5], epsilon=-1.0)
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5], n=2)


def test_scan_empty_grid(constants):
    # Without an extremal parameter nothing is left to scan; with one, the
    # scan still reports the equality case alone.
    with pytest.raises(DomainError):
        sharpness_scan("B1", [])
    report = sharpness_scan("C", [])
    assert [row.a for row in report.rows] == [constants.a_star1]


# ---------------------------------------------------------------- sweeps

def test_sweep_t21_no_violations_and_both_interpretations():
    report = theorem_sweep("T21", [1, 2], grid_values(0.0, 0.9, 0.1))
    assert not report.violations
    assert report.worst_margin >= -1e-12
    n2_interps = {
        row.breakdown.interpretation for row in report.rows if row.n == 2
    }
    assert n2_interps == {INTERP_LITERAL, INTERP_SLICE}
    n1_interps = {row.breakdown.interpretation for row in report.rows if row.n == 1}
    assert n1_interps == {INTERP_LITERAL}


def test_sweep_rows_sorted_deterministically():
    report = theorem_sweep("T22", [2, 1], [0.2, 0.0, 0.1])
    keys = [
        (row.n, row.a, row.r, row.breakdown.interpretation) for row in report.rows
    ]
    assert keys == sorted(keys)


def _sweep_key(row):
    return (row.n, row.a, row.r, row.breakdown.interpretation)


def _sweep_reference(theorem_id, ns, grid, radii):
    """The rows as an evaluation per grid point followed by a stable sort."""
    spec = preset(THEOREMS[theorem_id].preset_name)
    rows = []
    for n in sorted(ns):
        for a in sorted(grid):
            for r in sorted(radii):
                for interp in [INTERP_LITERAL] if n == 1 else [INTERP_LITERAL, INTERP_SLICE]:
                    out = evaluate(
                        spec.with_interpretation(interp),
                        theorem_family(theorem_id, a, n),
                        RadiusSpec.diagonal(n, r),
                    )
                    rows.append(SweepRow(theorem_id, n, a, r, out))
    rows.sort(key=_sweep_key)
    return rows


def test_sweep_rows_come_out_stably_sorted_with_repeats_and_signed_zeros():
    # Unsorted inputs with repeats and both zeros: rows with equal sort keys
    # must keep their input order, exactly as a stable sort leaves them.
    ns, grid, radii = [3, 1, 2, 3], [0.5, -0.0, 0.2, 0.5, 0.0], [0.1, 0.02, -0.0, 0.0, 0.1]
    report = theorem_sweep("T21", ns, grid, radii)
    rows = list(report.rows)
    assert rows == sorted(rows, key=_sweep_key)
    assert [repr(row) for row in rows] == [repr(row) for row in sorted(rows, key=_sweep_key)]
    assert [repr(row) for row in rows] == [
        repr(row) for row in _sweep_reference("T21", ns, grid, radii)
    ]
    assert len(rows) == 5 * 5 * (1 + 2 * 3)


@pytest.mark.parametrize(
    "ns, grid, radii",
    [
        ([1, 2, 3], [0.1, 0.2, 0.3], [0.05, 0.1]),  # in order: the sort is skipped
        ([3, 1, 2], [0.1, 0.2, 0.3], [0.05, 0.1]),
        ([2, 2], [0.1, 0.2, 0.3], [0.05, 0.1]),
        ([1, 2], [0.1, 0.2, 0.3], [0.1, 0.1]),
        ([1, 2], [0.1, 0.2, 0.3], [0.1, 0.05]),
        ([1, 2], [0.0, -0.0, 0.3, 0.3, 0.2, 0.1], [0.05, 0.1]),
        ([1, 2], [-0.0, 0.0, 0.1, 0.1, 0.2], [0.05]),
    ],
)
@pytest.mark.parametrize("tol", [None, -1.0])
def test_sweep_rows_are_in_order_whether_or_not_they_are_sorted(ns, grid, radii, tol):
    # The sweep sorts only when its input order is not already sorted; with
    # tol = -1 every literal row violates and the sorted rows decide.
    key = operator.attrgetter("n", "a", "r", "breakdown.interpretation")
    report = theorem_sweep("T21", ns, grid, radii, tol=tol)
    rows = list(report.rows)
    assert [repr(row) for row in rows] == [repr(row) for row in sorted(rows, key=key)]
    assert [repr(row) for row in rows] == [
        repr(row) for row in _sweep_reference("T21", ns, grid, radii)
    ]
    literal = [row for row in rows if row.breakdown.interpretation == INTERP_LITERAL]
    assert report.worst_margin == min(row.breakdown.margin for row in literal)
    assert report.violations == tuple(row for row in literal if violates(row.breakdown, tol))
    assert len(report.violations) == (len(literal) if tol else 0)


def test_sweep_tolerance_decides_violations():
    grid = grid_values(0.5, 0.9, 0.1)
    flagged = theorem_sweep("classic", a_grid=grid, r_values=[0.4])
    assert [row.a for row in flagged.violations] == [0.8, 0.9]
    assert not theorem_sweep("classic", a_grid=grid, r_values=[0.4], tol=1.0).violations
    assert len(theorem_sweep("classic", a_grid=grid, r_values=[0.4], tol=math.nan).violations) == 5


@pytest.mark.parametrize("a_grid", [[0.5], [], grid_values(0.5, 0.9, 0.1)])
def test_sweep_reads_a_decimal_or_fraction_tolerance_as_a_float(a_grid):
    # A Decimal orders against floats but does not add to one; the sweep
    # reads every tolerance once as a float.
    expected = theorem_sweep("C", a_grid=a_grid, tol=0.0)
    for tol in (Decimal("0"), Decimal("-0"), Fraction(0)):
        assert theorem_sweep("C", a_grid=a_grid, tol=tol) == expected
    tight = theorem_sweep("C", a_grid=a_grid, tol=1e-12)
    assert theorem_sweep("C", a_grid=a_grid, tol=Decimal("1e-12")) == tight
    for bad in (Decimal("Infinity"), Decimal("-Infinity"), Fraction(10**400), Decimal("sNaN")):
        with pytest.raises(DomainError, match="tolerance"):
            theorem_sweep("C", a_grid=a_grid, tol=bad)
    assert check_tolerance(Decimal("1e-12")) == 1e-12 and check_tolerance(None) is None
    assert math.isnan(check_tolerance(Decimal("NaN")))


def test_radius_search_reads_its_tolerance_like_a_sweep():
    # One reader: a tolerance beyond the float range is infinite and refused
    # by both, and a rational or a Decimal just below a bracket width stops
    # where the float it rounds to stops, not one step later.
    spec, family = preset("classic"), MoebiusDisk(0.5)
    for call in (partial(radius_search, spec, family), partial(theorem_sweep, "C", a_grid=[0.5])):
        with pytest.raises(DomainError, match="infinite"):
            call(tol=10**400)
    lo, hi = radius_search(spec, family, tol=1e-6).bracket
    width = hi - lo
    expected = radius_search(spec, family, tol=width)
    for tol in (Fraction(width) - Fraction(1, 10**40), Decimal(width).next_minus()):
        assert tol < width and float(tol) == width
        assert radius_search(spec, family, tol=tol) == expected


_DECIMAL_TWINS = [
    (lambda x: sharpness_scan("C", [0.5], epsilon=x), "0.1"),
    (lambda x: radius_search(preset("classic"), MoebiusDisk(0.5), tol=x), "1e-6"),
    (lambda x: evaluate(preset("thm_c"), MoebiusDisk(x), RadiusSpec.diagonal(1, 0.3)), "0.5"),
    (lambda x: lemma1a_check(MoebiusDisk(0.5), x), "0.3"),
    (lambda x: lemma1b_check(MoebiusDisk(0.5), x), "0.3"),
    (lambda x: fun.schwarz_pick(x, x), "0.3"),
    (lambda x: lemma1c_bound(x, x, 2), "0.3"),
    (lambda x: ser.majorant_tail_bound(MoebiusDisk(0.5), 3, x), "0.3"),
    (lambda x: ser.torus_bound_check(ser.expand(MoebiusDisk(0.5), 4), x), "0.3"),
    (lambda x: FunctionalSpec("abs_f", area_weight=x), "0.5"),
    (lambda x: sharp.lambda1_of(x), "0.5"),
    (lambda x: sharp.phi2(x, x), "0.5"),
]


@pytest.mark.parametrize("call,text", _DECIMAL_TWINS, ids=[
    "sharpness_scan-epsilon", "radius_search-tol", "evaluate-MoebiusDisk", "lemma1a_check",
    "lemma1b_check", "schwarz_pick", "lemma1c_bound", "majorant_tail_bound", "torus_bound_check",
    "FunctionalSpec", "lambda1_of", "phi2",
])
def test_a_decimal_input_counts_like_its_float(call, text):
    # A real that is not rational is read once as a float, so a Decimal
    # gives what its float gives; a Decimal NaN is refused like a float NaN.
    assert call(Decimal(text)) == call(float(text))

    def outcome(x):
        try:
            return repr(call(x))
        except DomainError:
            return "DomainError"

    assert outcome(Decimal("NaN")) == outcome(math.nan)


def test_a_fraction_input_stays_exact():
    assert MoebiusDisk(Fraction(1, 2)).a == Fraction(1, 2)
    assert FunctionalSpec("abs_f", area_weight=Fraction(1, 3)).area_weight == Fraction(1, 3)
    assert type(MoebiusDisk(Decimal("0.5")).a) is float


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_scan_builds_one_radius(monkeypatch):
    grid = grid_values(0.0, 0.9995, 0.0005)
    assert len(grid) == 2000
    built = _count_calls(monkeypatch, RadiusSpec, "__post_init__")
    report = sharpness_scan("T22", grid, n=3, epsilon=1e-3)
    assert len(built) == 1
    assert len(report.rows) == 2001  # the extremal parameter is appended


def test_sweep_builds_one_radius_per_dimension_and_two_specs(monkeypatch):
    built = _count_calls(monkeypatch, RadiusSpec, "__post_init__")
    specs = _count_calls(monkeypatch, FunctionalSpec, "with_interpretation")
    report = theorem_sweep("T21", [1, 2, 3, 5], grid_values(0.0, 0.99, 0.01))
    assert len(built) == 4
    assert len(specs) <= 2
    assert len(report.rows) == 100 * (1 + 2 * 3)
    built.clear()
    theorem_sweep("T22", [2, 3], grid_values(0.0, 0.9, 0.1), [0.05, 0.1, 0.2])
    assert len(built) == 2 * 3


def test_scan_and_sweep_build_no_family_per_row(monkeypatch):
    # Rows are evaluated by the grid kernel; the only families built are the
    # cap probes of the checked radii, one per (n, r), whatever the grid size.
    built = _count_calls(monkeypatch, ser._MoebiusType, "__post_init__")
    report = sharpness_scan("T21", grid_values(0.0, 0.9995, 0.0005), n=2, epsilon=1e-3)
    assert len(report.rows) == 2001
    assert len(built) == 1
    built.clear()
    report = theorem_sweep("T21", [1, 2, 3, 5], grid_values(0.0, 0.99, 0.01))
    assert len(report.rows) == 700
    assert len(built) == 4
    built.clear()
    sharpness_scan("C", grid_values(0.0, 0.9995, 0.0005))
    theorem_sweep("D", a_grid=grid_values(0.0, 0.99, 0.01))
    assert len(built) == 2


def test_literal_rows_share_their_powers_and_weights(monkeypatch):
    # sigma = n r has the same bits for n = 2, 3 and 5: the literal rows of
    # all three read one column of slice terms, and no (n, k) weight is
    # asked for twice in a sweep.
    weights = _count_calls(monkeypatch, ser, "multinomial_sq_ratio")
    terms = _count_calls(monkeypatch, ser._MoebiusType, "slice_term_grid")
    report = theorem_sweep("T21", [2, 3, 5], grid_values(0.0, 0.99, 0.01))
    assert len(report.rows) == 600
    assert len(terms) == 1
    assert len(weights) == len(set(weights))
    assert {n for n, _ in weights} == {2, 3, 5}


def _count_rules(monkeypatch):
    """Calls of each column rule of the Moebius-type classes, of their
    one-pass total rule, and of the literal-area degree search."""
    rules = ("sup_grid", "majorant_tail_grid", "area_grid", "degree_grid", "total_grid")
    calls = {name: _count_calls(monkeypatch, ser._MoebiusType, name) for name in rules}
    calls["truncation"] = _count_calls(monkeypatch, ser, "truncation")
    return calls


@pytest.mark.parametrize("tid", ["T21", "T22", "T23"])
def test_sweep_sets_of_one_sigma_share_their_columns(monkeypatch, tid):
    # At the threshold sigma = n r has the same bits for n = 1, 2, 3 and 5:
    # the seven sets of a sweep read one head, tail and slice-area column,
    # and the literal rows one degree search per a.
    calls = _count_rules(monkeypatch)
    report = theorem_sweep(tid, [1, 2, 3, 5], grid_values(0.0, 0.99, 0.01))
    assert len(report.rows) == 700
    constant_head = fun.preset(THEOREMS[tid].preset_name).head == fun.HEAD_CONSTANT
    assert len(calls["sup_grid"]) == (0 if constant_head else 1)
    assert len(calls["majorant_tail_grid"]) == len(calls["area_grid"]) == 1
    assert len(calls["degree_grid"]) == 1
    assert len(calls["truncation"]) == 100


def test_sweep_reads_each_rule_once_per_distinct_sigma(monkeypatch):
    # Three radii, two sigmas: the repeated radius reads the columns of the
    # first.  No column outlives its sweep: a second sweep reads them anew.
    calls = _count_rules(monkeypatch)
    for _ in range(2):
        report = theorem_sweep("T22", [2], grid_values(0.0, 0.9, 0.1), [0.1, 0.05, 0.1])
        assert len(report.rows) == 10 * 3 * 2
    for name in ("sup_grid", "majorant_tail_grid", "area_grid", "degree_grid"):
        assert len(calls[name]) == 2 * 2, name
    assert [sigma for _, sigma in calls["area_grid"]] == [0.2, 0.1] * 2


def test_sweep_builds_each_set_of_equal_columns_once(monkeypatch):
    # The literal set of n = 1 and the slice sets of n = 2, 3 and 5 have one
    # sigma, head and weights: they read one copy of their columns, and one
    # area column, beside the literal area of each n >= 2.
    areas = [_count_calls(monkeypatch, ser._MoebiusType, rule)
             for rule in ("area_grid", "literal_area_grid")]
    report = theorem_sweep("T21", [1, 2, 3, 5])
    assert len(report.rows) == 100 * (1 + 2 * 3)
    assert list(map(len, areas)) == [1, 3]


def test_one_sweeps_dict_gives_each_set_the_columns_of_a_fresh_dict():
    # The literal and slice specs of one preset share one dict, as the sets
    # of one sweep do, over n = 1, 2, 3, 5, two polyradii of one sigma (the
    # diagonal and a corner) and sigma 1/3, 0.0 and -0.0: each set reads the
    # columns of a fresh dict.
    cls, grid = ExtremalPolydiskUnit, [0.2, -0.0, 0.0, 0.6]
    for name in fun._preset_table():
        shared = {}
        for r in (1 / 3, 0.0, -0.0):
            for n in (1, 2, 3, 5):
                diagonal = (r / n,) * n
                sigma = cls(0.0, n).sigma(diagonal)
                corner = (2 * diagonal[0], 0.0, *diagonal[2:])
                for coords in [diagonal] + [corner] * (n > 1 and r > 0):
                    assert repr(cls(0.0, n).sigma(coords)) == repr(sigma)
                    for interp in (INTERP_LITERAL, INTERP_SLICE):
                        spec = preset(name).with_interpretation(interp)
                        columns = fun._grid_columns(spec, cls, n, grid, coords, sigma, shared)
                        fresh = fun._grid_columns(spec, cls, n, grid, coords, sigma, {})
                        assert repr(columns) == repr(fresh), (name, r, coords, interp)


def _rule_columns(spec, cls, n, grid, coords, sigma):
    """The head, majorant-tail and area columns of spec's core on cls at a
    polyradius coords of argument radius sigma, read from the column rules,
    the area whatever the weights."""
    sups = cls.sup_grid(grid, sigma)
    heads = {
        fun.HEAD_CONSTANT: [abs(a) for a in grid], fun.HEAD_ABS: sups,
        fun.HEAD_ABS_SQ: [x * x for x in sups],
    }[spec.head]
    if fun._literal(spec.area_interpretation, n):
        degrees = cls.degree_grid(grid, sigma)
        areas = cls.literal_area_grid(cls.slice_term_grid(grid, sigma, degrees), degrees, coords, n)
    else:
        areas = cls.area_grid(grid, sigma)
    return heads, cls.majorant_tail_grid(grid, 0, sigma), areas


def _five_term_totals(spec, heads, tails, areas):
    """The total of ``functionals._prepare``'s core, term by term, zero
    weights included: the reference for the grid totals."""
    w, w_q, w_x = spec.area_weight, spec.area_sq_weight, spec.extra_area_weight
    return [
        head + tail + w * area + w_q * area * area + w_x * area
        for head, tail, area in zip(heads, tails, areas)
    ]


_SIGNED_WEIGHTS = (0.0, -0.0, 0.5)


def _fold_specs():
    yield from (preset(name) for name in fun._preset_table())
    for head in (fun.HEAD_CONSTANT, fun.HEAD_ABS, fun.HEAD_ABS_SQ):
        for weights in itertools.product(_SIGNED_WEIGHTS, repeat=3):
            yield FunctionalSpec(head, *weights)


@pytest.mark.parametrize("sigma", [0.0, -0.0, 1 / 3], ids=repr)
@pytest.mark.parametrize("tid, n", [("C", 1), ("T21", 2)])
def test_grid_totals_drop_zero_weights_bit_for_bit(tid, n, sigma):
    # Every preset, and every spec with weights in {+0.0, -0.0, 0.5}, on
    # the slice and literal areas: the kernel's total column is the sum of
    # the five terms of the column rules, on the rules' area and on its own
    # area column, which is [0.0] * size for a spec that weighs none and
    # folds its zero terms.
    grid = [0.3, -0.0, 0.0, 0.3, 0.9, -0.0, 0.0]
    coords, sig, cls = ver._checked_radius(tid, n, sigma / n)
    assert repr(sig) == repr(sigma)
    for base in _fold_specs():
        for interp in (INTERP_SLICE, INTERP_LITERAL):
            spec = base.with_interpretation(interp)
            columns = fun._grid_columns(spec, cls, n, grid, coords, sigma, {})
            heads, tails, areas = _rule_columns(spec, cls, n, grid, coords, sigma)
            own = areas if spec.uses_area() else [0.0] * len(grid)
            assert repr(columns[:3]) == repr((tuple(heads), tuple(tails), tuple(own)))
            for area in (areas, own):
                totals = _five_term_totals(spec, heads, tails, area)
                assert repr(list(columns.total)) == repr(totals)


def _bumped(spec, epsilon):
    """The spec a scan perturbs by epsilon: its A^2 weight if it has one,
    else its extra-area weight; None for epsilon = 0."""
    field = "area_sq_weight" if spec.area_sq_weight else "extra_area_weight"
    return replace(spec, **{field: getattr(spec, field) + epsilon}) if epsilon else None


def _total_grid_reference(spec, perturbed, cls, n, grid, sigma):
    """What ``total_grid`` must return: the five-term totals of both specs
    on the slice columns of the column rules, or None for the second."""

    def totals(s):
        s = s.with_interpretation(INTERP_SLICE)
        return _five_term_totals(s, *_rule_columns(s, cls, n, grid, (sigma,) * n, sigma))

    return totals(spec), perturbed and totals(perturbed)


def _total_grid(spec, perturbed, cls, grid, sigma):
    """The two total columns of a scan, one ``total_grid`` pass per spec,
    or None for the second when there is no perturbed spec."""

    def column(s):
        return cls.total_grid(grid, sigma, fun.HEADS.index(s.head), fun._weights(s))

    return column(spec), perturbed and column(perturbed)


_RULE_CLASSES = [(MoebiusDisk, 1)] + [
    (cls, n) for cls in (ExtremalPolydiskUnit, ExtremalPolydiskScaled) for n in (1, 2, 3, 5)
]
_SEEDED_GRIDS = [[random.Random(seed).random() for _ in range(16)] for seed in range(20)]
_EDGE_GRID = [0.5, 0.0, -0.0, 0.5, 5e-324, 0.0, 0.99, -0.0, 0.25, 0.25]


def _threshold_sigmas(cls, n):
    """The argument radius of cls at n for every theorem threshold at n."""
    family = cls(0.0) if cls is MoebiusDisk else cls(0.0, n)
    radii = {td.threshold(n) for td in THEOREMS.values() if n == 1 or td.multidimensional}
    return [family.sigma((r,) * n) for r in sorted(radii)]


@pytest.mark.parametrize("name", list(fun._preset_table()))
def test_total_grid_equals_the_grid_totals_of_the_terms(name):
    # The one-pass rule keeps the bits of the terms' totals, for both specs
    # of a scan, on every class and n, at every threshold sigma and at 0.0,
    # -0.0 and 0.1, on seeded grids and on 0.0, -0.0, repeats and a
    # subnormal.  The default scan grid runs where the CLI scans it: at the
    # threshold of each theorem of the preset, on its family's class.
    spec, default = preset(name), grid_values(0.0, 0.9999, 0.0001)
    scanned = {
        (ver._checked_radius(tid, n, td.threshold(n))[1:], n)
        for tid, td in THEOREMS.items() if td.preset_name == name
        for n in ((1, 2, 3, 5) if td.multidimensional else (1,))
    }
    for cls, n in _RULE_CLASSES:
        for sigma in _threshold_sigmas(cls, n) + [0.0, -0.0, 0.1]:
            grids = _SEEDED_GRIDS + [_EDGE_GRID] + [default] * (((sigma, cls), n) in scanned)
            for epsilon in (0.0, 1e-3):
                perturbed = _bumped(spec, epsilon)
                for grid in grids:
                    assert repr(_total_grid(spec, perturbed, cls, grid, sigma)) == repr(
                        _total_grid_reference(spec, perturbed, cls, n, grid, sigma)
                    ), (cls.__name__, n, sigma, epsilon, grid[:3])


@pytest.mark.parametrize("sigma", [0.0, -0.0, 1 / 3], ids=repr)
def test_total_grid_keeps_the_signed_zeros_of_any_weights(sigma):
    # Specs with weights in {+0.0, -0.0, 0.5} beyond the presets: the
    # one-pass rule sums a zero weight's term with the sign that the
    # column rules' five terms give it.
    for spec in _fold_specs():
        for epsilon in (0.0, 1e-3):
            perturbed = _bumped(spec, epsilon)
            assert repr(_total_grid(spec, perturbed, MoebiusDisk, _EDGE_GRID, sigma)) == repr(
                _total_grid_reference(spec, perturbed, MoebiusDisk, 1, _EDGE_GRID, sigma)
            )


def test_grid_totals_keep_the_negative_zero_of_an_all_negative_zero_spec():
    # At sigma = -0.0 and a = -0.0 the |f| head and the tail are -0.0; the
    # total of a spec whose three weights are -0.0 stays -0.0, and any +0.0
    # weight makes it +0.0.
    coords, sigma, cls = ver._checked_radius("B1", 1, -0.0)
    for weights, total in (((-0.0, -0.0, -0.0), "-0.0"), ((-0.0, 0.0, -0.0), "0.0")):
        spec = FunctionalSpec(fun.HEAD_ABS, *weights)
        columns = fun._grid_columns(spec, cls, 1, [-0.0], coords, sigma, {})
        assert repr(columns[:2]) == "((-0.0,), (-0.0,))"
        assert repr(columns.total) == f"({total},)"


def _row_verdicts(report, tol):
    """Violations and worst margin read from the rows: the reference for
    the column decisions of a sweep."""
    literal = [row for row in report.rows if row.breakdown.interpretation == INTERP_LITERAL]
    violations = tuple(row for row in literal if violates(row.breakdown, tol))
    worst = min(row.breakdown.margin for row in literal) if literal else math.inf
    return violations, worst


@pytest.mark.parametrize("tol", [None, 0.0, -1e-3, math.nan])
@pytest.mark.parametrize(
    "tid, ns, grid, radii",
    [
        ("T21", [3, 1, 2, 3], [0.5, -0.0, 0.2, 0.5, 0.0, 0.95], None),
        ("T22", [5, 2], [0.9, 0.3, 0.9, -0.0, 0.0], [0.1, 0.02, -0.0, 0.0, 0.1, 0.19]),
        ("classic", [1], [0.9, 0.5, 0.7, 0.0, -0.0, 0.7, 0.6, 0.8], [0.4, 0.3, 0.4]),
        ("C", [1], [], None),
    ],
)
def test_sweep_verdicts_equal_the_row_level_reference(tid, ns, grid, radii, tol):
    report = theorem_sweep(tid, ns, grid, radii, tol)
    violations, worst = _row_verdicts(report, tol)
    assert repr(report.violations) == repr(violations)
    assert repr(report.worst_margin) == repr(worst)


@pytest.mark.parametrize(
    "tid, ns, grid, radii, tol",
    [
        ("T21", [2, 3], [0.5, -0.0, 0.2, 0.5, 0.0], None, math.nan),
        ("C", [1], [0.9, 0.0, -0.0, 0.3, 0.9, 0.3], [0.3, 0.25], -1.0),
        ("classic", [1], [0.9, -0.0, 0.5, 0.0, 0.9], [0.4, 0.2], None),  # 0.4 > 1/3
        ("T23", [3, 2], [0.9, 0.1, 0.9, -0.0, 0.0], [0.2, 0.05], None),  # 0.2 > (sqrt5 - 2)/2
    ],
)
def test_violating_sweep_takes_its_worst_margin_from_the_columns(tid, ns, grid, radii, tol):
    # Every literal total is finite and no margin is -0.0, so the least
    # margin of the columns is the row-level minimum, bit for bit, on a
    # sweep that violates as on one that does not.
    report = theorem_sweep(tid, ns, grid, radii, tol)
    literal = [row for row in report.rows if row.breakdown.interpretation == INTERP_LITERAL]
    assert report.violations
    margins = [row.breakdown.margin for row in literal]
    assert all(math.isfinite(m) and repr(m) != "-0.0" for m in margins)
    assert repr(report.worst_margin) == repr(min(margins))


def test_sweep_verdict_reference_covers_both_paths():
    # The worst margin is read off the columns; a sweep that no column
    # flags lists no violation, and one that is flagged (a violation, or a
    # NaN tolerance) lists them from its sorted rows.
    assert not theorem_sweep("T21", [1, 2, 3, 5]).violations
    assert len(theorem_sweep("T21", [2], [0.5, 0.2], tol=math.nan).violations) == 2
    flagged = theorem_sweep("T22", [5], [0.9, 0.3], [0.19])
    assert [row.a for row in flagged.violations] == [0.3, 0.9]
    assert flagged.worst_margin == min(row.breakdown.margin for row in flagged.violations)


@pytest.mark.parametrize(
    "tid, n, grid, r",
    [
        ("C", 1, [0.5, 0.5, -0.0, 0.0, 0.3, 0.0, -0.0], None),
        ("classic", 1, [0.0, -0.0, 0.0], 0.0),
        ("B1", 1, [-0.0, 0.0, -0.0], -0.0),
        ("classic", 1, [0.2, 0.7, -0.0, 0.7, 0.4, 0.7], 0.0),
        ("T22", 3, [0.9, 0.2, 0.9, 0.9, 0.0, -0.0], None),
        # Near a*, the total is 1.0 or 1.0000000000000002 at every point: the
        # maximum is reached at several distinct a.
        ("C", 1, [sharp.sharp_constants().a_star1 + k * 1e-9 for k in range(6, -7, -1)], None),
    ],
)
def test_scan_maximum_equals_the_tuple_maximum(tid, n, grid, r):
    report = sharpness_scan(tid, grid, n=n, bold_r=r, epsilon=1e-3)
    a = [row.a for row in report.rows]
    assert repr((report.max_total, report.argmax_a)) == repr(
        max(zip([row.total for row in report.rows], a))
    )
    assert repr((report.perturbed_max, report.perturbed_argmax)) == repr(
        max(zip([row.perturbed_total for row in report.rows], a))
    )


def test_largest_equals_the_tuple_maximum_on_sorted_grids_with_ties():
    # Totals are a function of the value of a, so equal a (repeats, 0.0 and
    # -0.0) have equal totals, and a step function reaches its maximum at
    # several distinct a.
    rng = random.Random(19)
    for _ in range(300):
        points = [-0.0, 0.0, 0.1, 0.25, 0.5, 0.7, 0.9]
        grid = sorted(rng.choice(points) for _ in range(rng.randint(1, 12)))
        cut = rng.choice([0.0, 0.3, 0.6, 1.0])
        totals = [min(a, cut) * 2.0 for a in grid]
        assert repr(ver._largest(totals, grid)) == repr(max(zip(totals, grid)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -1e-300])
@pytest.mark.parametrize("where", [0, 1234, 1999])
def test_scans_and_sweeps_refuse_one_point_outside_the_unit_interval(bad, where):
    grid = grid_values(0.0, 0.9995, 0.0005)
    assert len(grid) == 2000
    grid[where] = bad
    with pytest.raises(DomainError, match="scan grid must lie inside"):
        sharpness_scan("C", grid)
    with pytest.raises(DomainError, match="sweep grid must lie inside"):
        theorem_sweep("C", a_grid=grid)


@pytest.mark.parametrize("tid, n", [("C", 1), ("D", 1), ("T21", 2), ("T22", 3), ("B1", 1)])
def test_scan_places_a_star_in_its_sorted_grid(tid, n):
    # The scan's grid is the sorted input with a* added when it is absent:
    # equal points (repeats, 0.0 and -0.0) keep their input order.
    rng = random.Random(32)
    c = sharp.sharp_constants()
    a_star = {"C": c.a_star1, "T21": c.a_star1, "D": c.a_star2, "T22": c.a_star2}.get(tid)
    near = a_star if a_star is not None else 0.5
    points = [-0.0, 0.0, 0.2, near, math.nextafter(near, 0.0), math.nextafter(near, 1.0), 0.9]
    seen = set()
    for _ in range(60):
        # An empty grid holds only a*; without one it is refused.
        grid = [rng.choice(points) for _ in range(rng.randint(a_star is None, 9))]
        report = sharpness_scan(tid, grid, n=n)
        present = a_star is None or a_star in grid
        seen.add(present)
        expected = sorted(grid) if present else sorted(list(grid) + [a_star])
        assert list(map(repr, (row.a for row in report.rows))) == list(map(repr, expected))
    assert seen == ({True} if a_star is None else {True, False})


def test_scans_and_sweeps_accept_negative_zero_and_sweeps_an_empty_grid():
    grid = grid_values(0.0, 0.9995, 0.0005)
    grid[1234] = -0.0
    assert len(sharpness_scan("B1", grid).rows) == 2000
    assert len(theorem_sweep("B1", a_grid=grid).rows) == 2000
    empty = theorem_sweep("T21", [1, 2], [])
    assert (empty.rows, empty.violations, empty.worst_margin) == ((), (), math.inf)


@pytest.mark.parametrize("tid, n", [("C", 1), ("B1", 1), ("T22", 3)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25, -1e-300, 1.0])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_scan_checks_an_unsorted_grid_by_its_sum_and_ends(tid, n, bad, where):
    # A scan checks its sorted grid by its sum and its two ends.  Sorting
    # may leave a NaN anywhere: here a NaN in the middle of the input stays
    # between valid points, and only the sum refuses it.
    grid = [0.5, 0.2, 0.7, 0.1, 0.9, 0.3]
    grid.insert({"first": 0, "middle": 3, "last": len(grid)}[where], bad)
    if bad != bad and where == "middle":
        ends = sorted(grid)[0], sorted(grid)[-1]
        assert 0.0 <= ends[0] and ends[1] < 1.0
    with pytest.raises(DomainError, match=r"^scan grid must lie inside \[0, 1\)$"):
        sharpness_scan(tid, grid, n=n)


@pytest.mark.parametrize("tid, n", [("C", 1), ("B1", 1), ("T22", 3)])
def test_scan_grid_check_admits_negative_zero_and_keeps_the_empty_grid(tid, n):
    c = sharp.sharp_constants()
    a_star = {"C": c.a_star1, "T22": c.a_star2}.get(tid)
    for grid in ([-0.0], [0.5, -0.0, 0.2], [-0.0, 0.0, -0.0], [0.99, -0.0]):
        report = sharpness_scan(tid, grid, n=n)
        expected = sorted(grid + ([a_star] if a_star is not None else []))
        assert list(map(repr, (row.a for row in report.rows))) == list(map(repr, expected))
    if a_star is None:
        with pytest.raises(DomainError, match="^scan grid is empty$"):
            sharpness_scan(tid, [], n=n)
    else:
        assert [row.a for row in sharpness_scan(tid, [], n=n).rows] == [a_star]


@pytest.mark.parametrize("tid,n", [("classic", 1), ("B1", 1), ("C", 1), ("T22", 3), ("T23", 2)])
def test_perturbed_scan_reads_each_rule_once(monkeypatch, tid, n):
    # A scan hands out totals only: it sums each total column in one pass
    # of ``total_grid``, with the weights of its spec, and calls no column
    # rule: one pass at epsilon = 0, then the base and the perturbed pass.
    calls = _count_rules(monkeypatch)
    spec = fun.preset(THEOREMS[tid].preset_name)
    head, base = fun.HEADS.index(spec.head), fun._weights(spec)
    for epsilon, weights in ((0.0, [base]), (1e-3, [base, fun._weights(_bumped(spec, 1e-3))])):
        calls["total_grid"].clear()
        report = sharpness_scan(tid, grid_values(0.0, 0.99, 0.01), n=n, epsilon=epsilon)
        assert (report.perturbed_max > report.max_total) == (epsilon > 0)
        assert [args[2:] for args in calls["total_grid"]] == [(head, w) for w in weights]
    assert not any(calls[name] for name in calls if name != "total_grid")


@pytest.mark.parametrize("tid", ["classic", "B2", "E", "T21", "T22", "T23"])
def test_sweep_rows_equal_per_row_evaluation_with_both_zero_radii(tid):
    # 0.0 and -0.0 give sigmas that compare equal but differ in bits: each
    # keeps its own columns.
    ns = [2, 1, 3] if THEOREMS[tid].multidimensional else [1]
    grid, radii = [0.4, -0.0, 0.0, 0.9], [0.0, 0.1, -0.0, 0.0]
    rows = theorem_sweep(tid, ns, grid, radii).rows
    assert [repr(row) for row in rows] == [
        repr(row) for row in _sweep_reference(tid, ns, grid, radii)
    ]
    assert {repr(row.r) for row in rows} == {"0.0", "-0.0", "0.1"}


@pytest.mark.parametrize("tid", ["classic", "B1", "B2", "T21"])
def test_sweep_keeps_the_sign_of_negative_zero_weights(monkeypatch, tid):
    # A spec whose weights are all -0.0 weighs no area: its A^2 and extra
    # contributions are -0.0 on every row, as evaluate reports them.
    spec = FunctionalSpec(preset(THEOREMS[tid].preset_name).head, -0.0, -0.0, -0.0)
    monkeypatch.setattr(fun, "preset", lambda name: spec)
    ns, grid = [1, 2, 5] if THEOREMS[tid].multidimensional else [1], [0.4, -0.0, 0.0, 0.9]
    for radii in ([-0.0], [0.1, -0.0]):  # one set or two per n = 1
        rows = theorem_sweep(tid, ns, grid, radii).rows
        expected = sorted(
            (
                SweepRow(tid, n, a, r, evaluate(
                    spec.with_interpretation(interp), theorem_family(tid, a, n),
                    RadiusSpec.diagonal(n, r),
                ))
                for n in ns for a in grid for r in radii
                for interp in ([INTERP_LITERAL] if n == 1 else [INTERP_LITERAL, INTERP_SLICE])
            ),
            key=_sweep_key,
        )
        assert [repr(row) for row in rows] == [repr(row) for row in expected]
        contributions = {
            repr(value) for row in rows
            for value in (row.breakdown.area_sq_contribution, row.breakdown.extra_area_contribution)
        }
        assert contributions == {"-0.0"}


def test_lemma_default_degree_is_the_truncation_degree():
    # Lemmas 1a and 1b sum the square masses to the degree ``truncation``
    # picks for their own tail and add that tail: rebuilt here bit for bit.
    families = (
        ExtremalPolydiskScaled(0.6, 3), MoebiusDisk(0.5), FiniteBlaschke((0.5, -0.3)),
        ConstantFn(0.4),
    )
    for family in families:
        for r in (0.3, 0.5, 0.7):
            K, tail = ser.truncation(lambda k: family.sq_tail(k, r), first=1)
            m2 = family.sq_masses(K)
            lhs = math.fsum(k * m2[k] * r ** (2 * k) for k in range(1, K + 1)) + tail
            assert repr(lemma1a_check(family, r).lhs) == repr(lhs)
            K, tail = ser.truncation(lambda k: family.sq_mass_tail(k, r), first=1)
            m2 = family.sq_masses(K)
            lhs = math.fsum(m2[k] * r**k for k in range(1, K + 1)) + tail
            assert repr(lemma1b_check(family, r).lhs) == repr(lhs)


@pytest.mark.parametrize("check", [lemma1a_check, lemma1b_check, lemma1c_check])
@pytest.mark.parametrize(
    "family", [MoebiusDisk(0.5), FiniteBlaschke((0.5,)), ExtremalPolydiskScaled(0.6, 2)]
)
def test_lemma_refuses_a_negative_degree(check, family):
    # A lemma takes no degree at all, negative or not: each sums to the
    # degree its own tail picks, so no degree can sum too few terms, or take
    # a loose tail, and report a false violation.
    for K in (-1, 0, 3):
        with pytest.raises(TypeError):
            check(family, 0.5, K=K)
        with pytest.raises(TypeError):
            check(family, 0.5, K)
    assert check(family, 0.5).ok


def test_lemma1c_holds_with_equality_on_a_one_zero_blaschke_product():
    # B(z) = (0.5 - z)/(1 - 0.5 z) is psi_0.5: its majorant tail at r = 0.4,
    # 0.75 * 0.4 / (1 - 0.5 * 0.4) = 0.375, is the first branch of the bound.
    # At degree 0 the geometric Blaschke tail, 0.4 / 0.6, exceeds the bound.
    check = lemma1c_check(FiniteBlaschke((0.5,)), 0.4)
    assert check.ok and check.certified
    assert check.rhs == pytest.approx(0.375, abs=1e-15)
    assert abs(check.lhs - check.rhs) <= 1e-12


def test_sweep_builds_one_tail_rule_per_a_and_sigma(monkeypatch):
    # sigma = n r = 1/3 for every n: the literal rows of n = 2, 3 and 5 share
    # one degree search, and with it one tail rule, per a.
    rules = _count_calls(monkeypatch, ser, "_sq_tail_rule")
    report = theorem_sweep("T21", [1, 2, 3, 5], grid_values(0.0, 0.99, 0.01))
    literal = [
        row for row in report.rows if row.n > 1 and row.breakdown.interpretation == INTERP_LITERAL
    ]
    assert len(literal) == 300
    assert len(rules) == 100
    assert {sigma for _, sigma in rules} == {1.0 / 3.0}


def _count_builds(monkeypatch):
    """Count every construction of a ``TermBreakdown``: through its
    constructor, through ``_make``, which ``_replace`` also calls, through
    ``functionals._breakdown``, which builds the rows of ``evaluate`` at C
    speed, and through ``verify._rows``, which builds the breakdowns of
    sweeps from their columns, each counted as it is built.  The record of
    a sweep set's columns, which ``_breakdown`` also builds, is no row and
    is not counted."""
    calls = []
    new, make, breakdown = TermBreakdown.__new__, TermBreakdown._make.__func__, fun._breakdown
    rows = ver._rows

    def counted_new(*args, **kwargs):
        calls.append(args)
        return new(*args, **kwargs)

    def counted_make(owner, iterable):
        calls.append(iterable)
        return make(owner, iterable)

    def counted_breakdown(iterable):
        record = breakdown(iterable)
        if type(record.total) is not tuple:
            calls.append(record)
        return record

    def counted_rows(cls, columns):
        for row in rows(cls, columns):
            if cls is TermBreakdown:
                calls.append(row)
            yield row

    monkeypatch.setattr(TermBreakdown, "__new__", counted_new)
    monkeypatch.setattr(TermBreakdown, "_make", classmethod(counted_make))
    monkeypatch.setattr(fun, "_breakdown", counted_breakdown)
    monkeypatch.setattr(ver, "_rows", counted_rows)
    return calls


def _count_rows(monkeypatch):
    """Wrap ``verify._rows``, the single row builder, and record the class of
    each call and every ``ScanRow`` and ``SweepRow`` built through it."""
    calls, rows = [], []
    build = ver._rows

    def counted_rows(cls, columns):
        calls.append(cls)
        for row in build(cls, columns):
            if cls in (ScanRow, SweepRow):
                rows.append(row)
            yield row

    monkeypatch.setattr(ver, "_rows", counted_rows)
    return calls, rows


def _scan_reference(tid, grid, n, epsilon):
    """The rows as an evaluation per point of the sorted grid, a* added."""
    td = THEOREMS[tid]
    spec = preset(td.preset_name).with_interpretation(INTERP_SLICE)
    field, star = _SCAN_SHARP.get(tid, ("extra_area_weight", None))
    points = sorted(map(float, grid))
    if star and getattr(sharp.sharp_constants(), star) not in points:
        points = sorted(points + [getattr(sharp.sharp_constants(), star)])
    pert = replace(spec, **{field: getattr(spec, field) + epsilon})
    radius = RadiusSpec.diagonal(n, td.threshold(n))
    families = [theorem_family(tid, a, n) for a in points]
    return [
        ScanRow(a, evaluate(spec, family, radius).total, evaluate(pert, family, radius).total)
        for a, family in zip(points, families)
    ]


@pytest.mark.parametrize(
    "tid, grid, n, epsilon",
    [
        ("C", [0.1, 0.5, 0.9], 1, 1e-3),  # a* is inserted
        ("T21", [0.5, -0.0, 0.2, 0.5, 0.0], 2, 0.0),  # repeats, unsorted, both zeros
        ("E", [0.9, 0.0, -0.0, 0.9, 0.3], 1, 0.5),
        ("T22", [0.7, 0.2], 3, 1e-3),
    ],
)
def test_scan_builds_its_rows_only_when_they_are_read(monkeypatch, tid, grid, n, epsilon):
    calls, built = _count_rows(monkeypatch)
    report = sharpness_scan(tid, grid, n=n, epsilon=epsilon)
    assert (calls, built) == ([], [])
    rows = report.rows
    assert (calls, len(built)) == ([ScanRow], len(rows))
    expected = _scan_reference(tid, grid, n, epsilon)
    assert [repr(row) for row in rows] == [repr(row) for row in expected]
    # Rows are not kept: each read builds them anew, from the same columns.
    assert report.rows == rows and len(built) == 2 * len(rows)


@pytest.mark.parametrize(
    "tid, ns, grid, radii, tol",
    [
        ("T21", [1, 2, 3], [0.1, 0.2, 0.3], [0.05, 0.1], None),  # in order, two radii
        ("T21", [3, 1, 2, 3], [0.5, -0.0, 0.2, 0.5, 0.0], [0.1, 0.02, -0.0, 0.0, 0.1], None),
        ("T22", [2, 5], [0.9, 0.3, 0.9], [0.19, 0.1], None),  # flagged: 0.19 is beyond n = 5
        ("classic", [1], [0.9, 0.5, -0.0, 0.7, 0.0], [0.4, 0.3, 0.4], None),  # flagged at 0.4
        ("C", [1], [0.2, 0.6], [0.3, 0.2], math.nan),  # a NaN tolerance flags every row
        ("C", [1], [0.2, 0.6], [0.2, 0.3], math.nan),  # flagged, and in order
        ("T22", [2, 5], [0.3, 0.6, 0.9], [0.1, 0.19], None),  # flagged at n = 5, in order
    ],
)
def test_sweep_builds_its_rows_only_when_they_are_read(monkeypatch, tid, ns, grid, radii, tol):
    calls, built = _count_rows(monkeypatch)
    report = theorem_sweep(tid, ns, grid, radii, tol)
    in_call = len(built)
    rows = report.rows
    assert len(built) - in_call == len(rows)
    # Only a flagged sweep builds rows in the call: all of them, to list its violations.
    assert in_call == (len(rows) if report.violations else 0)
    expected = _sweep_reference(tid, ns, grid, radii)
    assert [repr(row) for row in rows] == [repr(row) for row in expected]
    literal = [row for row in expected if row.breakdown.interpretation == INTERP_LITERAL]
    violations = [row for row in literal if violates(row.breakdown, tol)]
    assert [repr(row) for row in report.violations] == [repr(row) for row in violations]
    calls.clear()
    empty = theorem_sweep(tid, ns, [], radii, tol)
    assert calls == []
    assert (empty.rows, empty.violations) == ((), ())


def test_cli_scans_and_sweeps_build_no_row(monkeypatch, capsys):
    from bohrineq import cli

    calls, built = _count_rows(monkeypatch)
    assert cli.main(["scan", "--theorem", "C"]) == 0
    assert cli.main(["scan", "--theorem", "T21", "--n", "2", "--epsilon", "0.1"]) == 0
    assert cli.main(["verify", "--theorem", "T21", "--n", "3,1,2,3", "--a", "0:0.9:0.3"]) == 0
    assert (calls, built) == ([], [])
    # A sweep that violates lists its violations, which are rows: it builds
    # all 200 of its rows, literal and slice, and keeps its 100 literal rows,
    # which all violate.
    assert len(theorem_sweep("T22", [5], r_values=[0.19]).violations) == 100
    built.clear()
    assert cli.main(["verify", "--theorem", "T22", "--n", "5", "--r", "0.19"]) == 1
    interpretations = [row.breakdown.interpretation for row in built]
    assert len(built) == 200
    assert interpretations.count(INTERP_LITERAL) == interpretations.count(INTERP_SLICE) == 100
    capsys.readouterr()


def test_build_counter_sees_every_way_to_build_a_breakdown(monkeypatch):
    breakdowns = _count_builds(monkeypatch)
    out = evaluate(preset("classic"), MoebiusDisk(0.5), RadiusSpec.diagonal(1, 0.3))
    TermBreakdown(*out)
    out._replace(total=0.0)
    assert len(breakdowns) == 3
    breakdowns.clear()
    assert len(theorem_sweep("T21", [1, 2], [0.1, 0.5]).rows) == 6
    assert len(breakdowns) == 6


def test_sweep_rows_build_one_breakdown_per_row(monkeypatch):
    # The T21 thresholds give every n the same sigma, so the slice sets of
    # n = 2, 3, 5 share their columns, and ``rows`` builds one breakdown per row.
    breakdowns = _count_builds(monkeypatch)
    report = theorem_sweep("T21", [1, 2, 3, 5])
    assert (len(report.rows), len(breakdowns)) == (700, 700)
    grid = grid_values(0.0, 0.99, 0.01)
    expected = [
        row for n in (1, 2, 3, 5)
        for row in _sweep_reference("T21", [n], grid, [THEOREMS["T21"].threshold(n)])
    ]
    assert [repr(row) for row in report.rows] == [repr(row) for row in expected]


def test_scan_checks_the_radius_once_and_builds_no_breakdown(monkeypatch):
    grid = [(k + 0.5) / 2000 for k in range(2000)]
    checks = _count_calls(monkeypatch, fun, "_check_radius_for")
    sigmas = _count_calls(monkeypatch, ExtremalPolydiskUnit, "sigma")
    breakdowns = _count_builds(monkeypatch)
    report = sharpness_scan("T21", grid, n=2, epsilon=1e-3)
    assert len(report.rows) == 2001
    assert (len(checks), len(sigmas), len(breakdowns)) == (1, 1, 0)


@pytest.mark.parametrize("theorem_id, n", [("C", 1), ("E", 1), ("T21", 2), ("T23", 3)])
def test_scan_base_column_does_not_depend_on_epsilon(monkeypatch, theorem_id, n):
    # An unperturbed scan builds no spec at all: its spec is the preset.
    grid = grid_values(0.0, 0.99, 0.01)
    preset("classic")  # the preset table is built once per process
    built = _count_calls(monkeypatch, FunctionalSpec, "__post_init__")
    reports = [sharpness_scan(theorem_id, grid, n=n, epsilon=eps) for eps in (0.0, -0.0, 1e-3)]
    assert len(built) == 1  # the perturbed spec of epsilon = 1e-3
    bases = [[repr(row.total) for row in report.rows] for report in reports]
    assert bases[0] == bases[1] == bases[2]
    assert [repr(row.perturbed_total) for row in reports[1].rows] == bases[0]
    assert reports[2].perturbed_max > reports[2].max_total == reports[0].max_total


def test_sweep_checks_the_radius_once_per_dimension_and_radius(monkeypatch):
    checks = _count_calls(monkeypatch, fun, "_check_radius_for")
    sigmas = _count_calls(monkeypatch, ExtremalPolydiskUnit, "sigma")
    report = theorem_sweep("T21", [1, 2, 3, 5], grid_values(0.0, 0.99, 0.01))
    assert len(report.rows) == 700
    assert (len(checks), len(sigmas)) == (4, 4)
    checks.clear()
    theorem_sweep("T22", [2, 3], grid_values(0.0, 0.9, 0.1), [0.05, 0.1, 0.2])
    assert len(checks) == 2 * 3


def test_sweep_refuses_a_radius_beyond_the_cap():
    with pytest.raises(DomainError, match="cap"):
        theorem_sweep("T21", [2], [0.5], [0.6])


def _theorem_cases():
    for tid, td in THEOREMS.items():
        for n in (1, 2, 3) if td.multidimensional else (1,):
            yield tid, n


# The weight a scan perturbs and the extremal parameter it appends: the
# sharp lambda_1 and lambda_2 weigh A^2, and are attained at a*_1 (C, T21)
# and a*_2 (D, T22); every other theorem perturbs its extra area weight.
_SCAN_SHARP = {
    "C": ("area_sq_weight", "a_star1"),
    "D": ("area_sq_weight", "a_star2"),
    "T21": ("area_sq_weight", "a_star1"),
    "T22": ("area_sq_weight", "a_star2"),
}


@pytest.mark.parametrize("tid,n", list(_theorem_cases()))
def test_scan_and_sweep_rows_equal_evaluate(tid, n):
    # Scans and sweeps evaluate their rows with the grid kernel; every row
    # must be what evaluate returns on the row's own family, exactly.  The
    # grid holds a = 0, an integer 0, -0.0, a near 1 and a repeat.
    td = THEOREMS[tid]
    grid = [0.3, 0.0, 0.05, 0, 0.3, 0.55, -0.0, 0.6, 0.8, 0.97, 0.999]
    r = td.threshold(n)
    radius = RadiusSpec.diagonal(n, r)
    spec = preset(td.preset_name).with_interpretation(INTERP_SLICE)
    field, star = _SCAN_SHARP.get(tid, ("extra_area_weight", None))
    a_star = getattr(sharp.sharp_constants(), star) if star else None
    for epsilon in (0.0, 1e-3, 0.5):
        pert = replace(spec, **{field: getattr(spec, field) + epsilon})
        report = sharpness_scan(tid, grid, n=n, epsilon=epsilon)
        assert report.a_star == a_star
        for row in report.rows:
            family = theorem_family(tid, row.a, n)
            assert row.total == evaluate(spec, family, radius).total
            assert row.perturbed_total == evaluate(pert, family, radius).total
    rows = theorem_sweep(tid, [n], grid).rows
    literal_a = [row.a for row in rows if row.breakdown.interpretation == INTERP_LITERAL]
    # The grid is read as floats, as a scan reads it: the integer 0 is 0.0.
    assert list(map(repr, literal_a)) == list(map(repr, sorted(map(float, grid))))
    for row in rows:
        interp_spec = spec.with_interpretation(row.breakdown.interpretation)
        assert row.breakdown == evaluate(interp_spec, theorem_family(tid, row.a, n), radius)


def test_sweep_reads_its_grid_as_floats_like_a_scan():
    grid = [0, "0.5", -0.0]
    rows = theorem_sweep("C", a_grid=grid).rows
    assert [repr(row.a) for row in rows] == ["0.0", "-0.0", "0.5"]
    assert rows == theorem_sweep("C", a_grid=[0.0, 0.5, -0.0]).rows
    scan = sharpness_scan("B1", grid)
    assert [repr(row.a) for row in scan.rows] == ["0.0", "-0.0", "0.5"]
    with pytest.raises(DomainError):
        theorem_sweep("C", a_grid=["nan"])


def test_sweep_reads_its_radii_as_floats():
    rows = theorem_sweep("classic", a_grid=[0.5], r_values=[0]).rows
    assert [repr(row.r) for row in rows] == ["0.0"]
    rows = theorem_sweep("classic", a_grid=[0.5], r_values=["0.3", 0.2]).rows
    assert [repr(row.r) for row in rows] == ["0.2", "0.3"]
    assert rows == theorem_sweep("classic", a_grid=[0.5], r_values=[0.3, 0.2]).rows
    for bad in (math.nan, "nan"):
        with pytest.raises(DomainError):
            theorem_sweep("classic", a_grid=[0.5], r_values=[0.2, bad])


def test_row_records_are_immutable_hashable_tuples():
    breakdown = evaluate(preset("thm_c"), MoebiusDisk(0.5), RadiusSpec.diagonal(1, 1 / 3))
    scan = sharpness_scan("C", [0.5])
    sweep = theorem_sweep("C", a_grid=[0.5])
    records = [
        (breakdown, (
            "head_value", "majorant_tail", "area_term", "area_sq_contribution",
            "extra_area_contribution", "total", "margin", "certified", "closed_form",
            "interpretation",
        )),
        (sweep.rows[0], ("theorem", "n", "a", "r", "breakdown")),
        (scan.rows[0], ("a", "total", "perturbed_total")),
        # The reports, lemma results and constants validate nothing either.
        (ser.torus_bound_check(ser.expand(MoebiusDisk(0.5), 5), 0.5),
         ("sup_modulus", "witness", "tail_bound", "certified", "ok")),
        (lemma1a_check(MoebiusDisk(0.5), 0.5), ("lhs", "rhs", "ok", "gap", "certified")),
        (radius_search(preset("classic"), MoebiusDisk(0.5)),
         ("radius", "bracket", "iterations", "binding", "certified")),
        (THEOREMS["C"], ("preset_name", "multidimensional", "threshold")),
        (scan, (
            "theorem", "n", "bold_r", "epsilon", "a", "total", "perturbed_total", "max_total",
            "argmax_a", "perturbed_max", "perturbed_argmax", "a_star",
        )),
        (sweep, ("theorem", "grid", "sets", "order", "worst_margin", "violations")),
        (sharp.PSI1, ("coefficients",)),
        (sharp.sharp_constants(), ("a_star1", "a_star2", "lambda1", "lambda2", "p")),
        (sharp.constants_report(), (
            "constants", "radius_classic", "radius_abs_head", "residuals", "tolerances", "ok",
        )),
    ]
    for row, fields in records:
        assert type(row)._fields == fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(row, name, None)
        assert row == tuple(row)
        # A report holding dicts (the constants residuals) is not hashable.
        if all(isinstance(value, Hashable) for value in row):
            assert hash(row) == hash(tuple(row))
    # Scans and sweeps hold their columns, and a sorted sweep its order, as tuples.
    unsorted = theorem_sweep("T21", [2, 1], [0.5, 0.1])
    assert unsorted.order is not None
    for report in (scan, sweep, unsorted):
        assert hash(report) == hash(tuple(report))


def test_sweep_b2_margin_shrinks_toward_one():
    report = theorem_sweep("B2", a_grid=grid_values(0.0, 0.99, 0.01))
    assert not report.violations
    margins = {row.a: row.breakdown.margin for row in report.rows}
    assert margins[0.99] < margins[0.5] < margins[0.0]
    assert margins[0.99] < 2e-4


def test_sweep_classic_flags_super_threshold_radius():
    report = theorem_sweep("classic", a_grid=grid_values(0.5, 0.9, 0.1), r_values=[0.4])
    assert report.violations
    worst = min(row.breakdown.margin for row in report.violations)
    assert worst < 0


def test_sweep_rejects_bad_dimensions():
    with pytest.raises(DomainError):
        theorem_sweep("C", n_list=[2])
    with pytest.raises(DomainError):
        theorem_sweep("nope")


def test_violation_check_fails_closed_on_nan():
    out = evaluate(preset("classic"), MoebiusDisk(0.5), RadiusSpec.diagonal(1, 0.3))
    assert not violates(out)
    assert not violates(out, tol=0.0)
    assert violates(out._replace(total=math.nan))
    assert violates(out, tol=math.nan)


def test_lemma_and_search_reject_non_finite_arguments():
    with pytest.raises(DomainError):
        lemma1c_check(MoebiusDisk(0.5), math.nan)
    with pytest.raises(DomainError):
        radius_search(preset("classic"), MoebiusDisk(0.5), tol=math.nan)
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5], epsilon=math.nan)
    with pytest.raises(DomainError):
        radius_search(preset("classic"), MoebiusDisk(0.5), tol=math.inf)
    for bold_r in (None, 0.0):
        with pytest.raises(DomainError):
            sharpness_scan("C", [0.5], bold_r=bold_r, epsilon=math.inf)
    for tol in (math.inf, -math.inf):
        with pytest.raises(DomainError):
            theorem_sweep("classic", a_grid=[0.5], r_values=[0.9], tol=tol)


@pytest.mark.parametrize("call", [
    lambda: theorem_sweep("C", a_grid=["abc"]),
    lambda: theorem_sweep("C", a_grid=[0.5], r_values=["abc"]),
    lambda: sharpness_scan("C", [None]),
    lambda: theorem_sweep("C", n_list=["x"]),
    lambda: theorem_sweep("T21", n_list=[2.5], a_grid=[0.5]),
    lambda: sharpness_scan("C", [0.5], bold_r="abc"),
    lambda: theorem_sweep("C", n_list=3),
], ids=[
    "sweep-grid", "sweep-radius", "scan-grid", "sweep-n-str", "sweep-n-float",
    "scan-bold-r", "sweep-n-not-a-list",
])
def test_sweep_and_scan_refuse_non_numeric_input(call):
    with pytest.raises(DomainError):
        call()


_MOEBIUS = MoebiusDisk(0.5)


@pytest.mark.parametrize("call, name", [
    (lambda: RadiusSpec(("abc",)), "radius coordinates"),
    (lambda: RadiusSpec.diagonal(2, None), "radius coordinates"),
    (lambda: FiniteBlaschke(("x",)), "Blaschke zeros"),
    (lambda: ConstantFn(None), "constant c"),
    (lambda: lemma1a_check(_MOEBIUS, "0.5"), "bold_r"),
    (lambda: lemma1b_check(_MOEBIUS, "0.5"), "bold_r"),
    (lambda: lemma1c_check(_MOEBIUS, "0.5"), "bold_r"),
    (lambda: radius_search(preset("classic"), _MOEBIUS, tol="x"), "tolerance"),
    (lambda: ser.torus_bound_check(ser.expand(_MOEBIUS, 4), "0.5"), "radius"),
    (lambda: sharpness_scan("C", [0.5], epsilon="x"), "epsilon"),
    (lambda: theorem_sweep("C", a_grid=[0.5], tol="x"), "tolerance"),
    (lambda: fun.schwarz_pick("0.5", 0.1), "a0"),
    (lambda: lemma1c_bound("0.5", 0.1, 1), "a0"),
    (lambda: ser.majorant_tail_bound(_MOEBIUS, 3, "0.5"), "radius"),
    (lambda: ser.default_truncation(_MOEBIUS, None), "radius"),
    (lambda: ser.family_value(_MOEBIUS, ("x",)), "point coordinates"),
    (lambda: ser.family_value(_MOEBIUS, 0.3), "point coordinates"),
    (
        lambda: evaluate(preset("thm_b1"), _MOEBIUS, RadiusSpec((0.1,)), eval_point=0.3),
        "point coordinates",
    ),
    (lambda: grid_values("a", 1, 0.1), "grid start, stop and step"),
    # A string is one value, not a sequence of digits.
    (lambda: RadiusSpec("00"), "radius coordinates"),
    (lambda: theorem_sweep("C", a_grid="00"), "sweep grid"),
    (lambda: FiniteBlaschke(b"\x00"), "Blaschke zeros"),
    (lambda: sharp.constants_report("x"), "tolerance override"),
    (lambda: sharp.solve_unique_root(sharp.PSI1, "a", 1.0), "bracket end"),
    (lambda: sharp.lambda1_of("x"), "parameter a"),
    (lambda: sharp.lambda2_of("x"), "parameter a"),
    (lambda: sharp.phi1("x", 1.0), "argument"),
    (lambda: sharp.phi2(0.5, "x"), "weight"),
    (lambda: sharp.phi1_factored("x"), "argument"),
    (lambda: sharp.big_f("x"), "argument"),
    (lambda: sharp.case2_bound_constant_head("x", 1.0), "argument"),
    (lambda: sharp.case2_bound_squared_head(0.5, "x"), "weight"),
], ids=[
    "RadiusSpec", "RadiusSpec.diagonal", "FiniteBlaschke", "ConstantFn", "lemma1a",
    "lemma1b", "lemma1c", "radius_search", "torus_bound_check", "sharpness_scan",
    "theorem_sweep", "schwarz_pick", "lemma1c_bound", "majorant_tail_bound",
    "default_truncation", "family_value", "family_value-scalar", "evaluate-eval_point",
    "grid_values", "RadiusSpec-str", "theorem_sweep-str", "FiniteBlaschke-bytes",
    "constants_report", "solve_unique_root", "lambda1_of", "lambda2_of", "phi1", "phi2-weight",
    "phi1_factored", "big_f", "case2_bound_constant_head", "case2_bound_squared_head-weight",
])
def test_non_numeric_inputs_are_domain_errors_that_name_the_input(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: RadiusSpec(()), DomainError, "radius needs at least one coordinate"),
    (lambda: fun.FunctionalSpec("bogus"), DomainError, "unknown head 'bogus'"),
    (
        lambda: fun.FunctionalSpec("abs_f", area_interpretation="x"),
        UnsupportedInterpretationError, "unknown interpretation 'x'",
    ),
    (
        lambda: fun.area_term(MoebiusDisk(0.5), RadiusSpec((0.3,)), "x"),
        UnsupportedInterpretationError, "unknown interpretation 'x'",
    ),
    (lambda: FiniteBlaschke(()), DomainError, "Blaschke product needs at least one zero"),
    (
        lambda: ser.default_truncation(FiniteBlaschke((0.5,)), 1.0), DomainError,
        "Blaschke tail bound needs radius < 1",
    ),
    (
        lambda: ser.family_value(ExtremalPolydiskUnit(0.5, 2), (0.1,)), DomainError,
        "point has 1 coordinates, family has dimension 2",
    ),
    (lambda: grid_values(0.5, 0.1, 0.1), DomainError, "grid stop must be >= start"),
    (
        lambda: ser.default_truncation(MoebiusDisk(0.5), math.nan), DomainError,
        "radius nan outside the closed domain of the family",
    ),
    (
        lambda: ser.majorant_tail_bound(MoebiusDisk(0.5), 3, math.nan), DomainError,
        "radius nan outside the closed domain of the family",
    ),
    (lambda: sharp.lambda2_of(0.5), DomainError, "lambda2 formula is singular at a = 1/2"),
    (lambda: sharp.lambda2_of(1.0), DomainError, "a=1.0 outside [0, 1)"),
    (lambda: sharp.phi1_factored(0.6), DomainError, "factored form is singular at s = 3/5"),
    (lambda: sharp.phi2_factored(0.5), DomainError, "factored form is singular at s = 1/2"),
    (lambda: sharp.phi1_factored(2.0), DomainError, "argument 2.0 outside"),
    (lambda: sharp.phi2_factored(-3.0), DomainError, "argument -3.0 outside"),
], ids=[
    "RadiusSpec-empty", "FunctionalSpec-head", "FunctionalSpec-interpretation",
    "area_term-interpretation", "FiniteBlaschke-empty", "default_truncation-Blaschke-radius",
    "family_value-dimension", "grid_values-order", "default_truncation-nan",
    "majorant_tail_bound-nan", "lambda2_of-pole", "lambda2_of-range", "phi1_factored-pole",
    "phi2_factored-pole", "phi1_factored-range", "phi2_factored-range",
])
def test_input_guards_raise_their_class_and_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as caught:
        call()
    assert type(caught.value) is error


def test_inputs_read_by_float_or_complex_still_take_numeric_strings():
    assert RadiusSpec(("0.5",)) == RadiusSpec((0.5,)) == RadiusSpec.diagonal(1, "0.5")
    assert ConstantFn("0.3") == ConstantFn(0.3) and FiniteBlaschke(("0.5",)).zeros == (0.5,)
    rows = theorem_sweep("C", a_grid=["0.5"], r_values=["0.3"]).rows
    assert rows == theorem_sweep("C", a_grid=[0.5], r_values=[0.3]).rows


def test_scan_reads_its_radius_as_a_float():
    report = sharpness_scan("classic", [0.5], bold_r=0)
    assert type(report.bold_r) is float and report.bold_r == 0.0
    assert report == sharpness_scan("classic", [0.5], bold_r=0.0)


def test_sweep_and_scan_report_their_dimensions_as_ints():
    # An integer of another type, such as a bool or a numpy integer, is read as an int.
    assert type(sharpness_scan("T21", [0.5], n=True).n) is int
    rows = theorem_sweep("T21", n_list=[True, 2], a_grid=[0.5]).rows
    assert [type(row.n) for row in rows] == [int] * len(rows) and len(rows) == 3


def test_registry_thresholds():
    assert THEOREMS["T21"].threshold(3) == pytest.approx(1 / 9)
    assert THEOREMS["T23"].threshold(2) == pytest.approx((SQRT5 - 2) / 2)
    assert THEOREMS["E"].threshold(1) == pytest.approx(SQRT5 - 2)
