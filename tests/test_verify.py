"""Lemma checks, radius search, sharpness scans, and theorem sweeps."""

import math
from dataclasses import replace

import pytest

from bohrineq.errors import DomainError, MonotonicityError
from bohrineq.functionals import (
    INTERP_LITERAL,
    INTERP_SLICE,
    FunctionalSpec,
    RadiusSpec,
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
    MultiIndex,
    oracle_expand,
)
from bohrineq.verify import (
    THEOREMS,
    grid_values,
    lemma1a_check,
    lemma1b_check,
    lemma1c_bound,
    lemma1c_check,
    radius_search,
    sharpness_scan,
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


def test_lemma1c_branch_preconditions():
    with pytest.raises(DomainError):
        lemma1c_bound(0.9, 0.5, 3)  # n a0 r >= 1
    with pytest.raises(DomainError):
        lemma1c_bound(0.1, 0.7, 3)  # n r^2 >= 1


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
        abs(c) ** 2 for idx, c in series.sorted_items() if idx.degree == 2
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


def test_radius_search_non_binding_constant():
    result = radius_search(preset("classic"), ConstantFn(0.3))
    assert not result.binding
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


def test_radius_search_rejects_non_monotone_functional():
    # A negative area weight bends the total downward after an initial rise.
    spec = FunctionalSpec("constant_term", extra_area_weight=-5.0)
    with pytest.raises(MonotonicityError):
        radius_search(spec, MoebiusDisk(0.8))


def test_thm_e_radius_exceeds_threshold_for_all_a():
    spec = preset("thm_e")
    radii = [
        radius_search(spec, MoebiusDisk(a), tol=1e-9).radius
        for a in [0.1 * i for i in range(1, 10)] + [0.99]
    ]
    assert min(radii) >= SQRT5 - 2.0 - 1e-9


# ---------------------------------------------------------------- Schwarz-Pick chain

def test_schwarz_pick_chain_on_grids():
    head = FunctionalSpec("abs_f", include_majorant_tail=False)
    for fam in (MoebiusDisk(0.5), ExtremalPolydiskScaled(0.5, 2), FiniteBlaschke((0.4,))):
        from bohrineq.series import constant_term, dimension

        n = dimension(fam)
        a0 = abs(constant_term(fam))
        for r in (0.1, 0.25, 0.4):
            sup = evaluate(head, fam, RadiusSpec.diagonal(n, r)).head_value
            first = (r + a0) / (1 + a0 * r)
            second = (n * r + a0) / (1 + a0 * n * r)
            assert sup <= first + 1e-12 <= second + 1e-12


def test_unit_family_saturates_outer_bound():
    head = FunctionalSpec("abs_f", include_majorant_tail=False)
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


def test_scan_t23_supremum_approached_near_one():
    report = sharpness_scan("T23", grid_values(0.0, 0.9999, 0.0001), n=2)
    assert report.max_total <= 1.0 + 1e-12
    assert report.max_total > 1.0 - 1e-8
    assert report.argmax_a >= 0.999


def test_scan_t23_perturbed_above_one():
    report = sharpness_scan("T23", grid_values(0.99, 0.9999, 0.0001), n=2, epsilon=1e-3)
    assert report.perturbed_max > 1.0


def test_scan_grid_validation():
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5, 1.0])
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5], epsilon=-1.0)
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5], n=2)


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
    assert violates(replace(out, total=math.nan))
    assert violates(out, tol=math.nan)


def test_lemma_and_search_reject_non_finite_arguments():
    with pytest.raises(DomainError):
        lemma1c_check(MoebiusDisk(0.5), math.nan)
    with pytest.raises(DomainError):
        radius_search(preset("classic"), MoebiusDisk(0.5), tol=math.nan)
    with pytest.raises(DomainError):
        sharpness_scan("C", [0.5], epsilon=math.nan)


def test_registry_thresholds():
    assert THEOREMS["T21"].threshold(3) == pytest.approx(1 / 9)
    assert THEOREMS["T23"].threshold(2) == pytest.approx((SQRT5 - 2) / 2)
    assert THEOREMS["E"].threshold(1) == pytest.approx(SQRT5 - 2)
