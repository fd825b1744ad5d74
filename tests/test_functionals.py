"""Majorant, area term, composite functionals, and their closed forms."""

import math

import pytest

from bohrineq.constants import big_f
from bohrineq.errors import DomainError, UnsupportedInterpretationError
from bohrineq.functionals import (
    INTERP_LITERAL,
    INTERP_SLICE,
    FunctionalSpec,
    RadiusSpec,
    area_term,
    evaluate,
    majorant,
    multinomial_sq_ratio,
    preset,
    schwarz_pick,
)
from bohrineq.series import (
    ConstantFn,
    ExtremalPolydiskScaled,
    ExtremalPolydiskUnit,
    FiniteBlaschke,
    MoebiusDisk,
    default_truncation,
    expand,
    oracle_expand,
)

SQRT5 = math.sqrt(5.0)


def _diag(n, r):
    return RadiusSpec.diagonal(n, r)


def _moebius_series(a, r):
    fam = MoebiusDisk(a)
    return expand(fam, default_truncation(fam, r))


# ---------------------------------------------------------------- radius spec

def test_radius_spec_basics():
    rad = RadiusSpec.vector((0.1, 0.3, 0.2))
    assert rad.n == 3 and rad.bold_r == 0.3 and not rad.is_diagonal
    assert _diag(2, 0.25).is_diagonal
    with pytest.raises(DomainError):
        RadiusSpec.vector((-0.1,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_radius_spec_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        RadiusSpec.diagonal(2, bad)
    with pytest.raises(DomainError):
        RadiusSpec.vector((0.1, bad))


# ---------------------------------------------------------------- majorant

def test_majorant_threshold_value():
    # M at the radius 1/(1 + 2a) equals exactly 1 for the Moebius family.
    assert majorant(_moebius_series(0.5, 0.5), _diag(1, 0.5)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_majorant_constant():
    series = expand(ConstantFn(0.3), 0)
    assert majorant(series, _diag(1, 0.77)) == pytest.approx(0.3, abs=1e-15)


def test_majorant_unit_family_spot_value(constants):
    a = constants.a_star1
    fam = ExtremalPolydiskUnit(a, 2)
    series = expand(fam, default_truncation(fam, 1.0 / 6.0))
    got = majorant(series, _diag(2, 1.0 / 6.0))
    assert got == pytest.approx(a + (1 - a * a) / (3 - a), rel=1e-12)


def test_majorant_monotone_in_radius():
    series = _moebius_series(0.7, 0.9)
    values = [majorant(series, _diag(1, r)) for r in [0.1, 0.3, 0.5, 0.7, 0.9]]
    assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))


def test_majorant_domain_error_at_cap():
    fam = ExtremalPolydiskUnit(0.5, 2)
    series = expand(fam, 10)
    with pytest.raises(DomainError):
        majorant(series, _diag(2, 0.5))


# ---------------------------------------------------------------- area term

def test_area_single_variable_trivial_case():
    # a = 0 leaves the single coefficient -z: area = r^2.
    fam = MoebiusDisk(0.0)
    r = 1.0 / 3.0
    for interp in (INTERP_LITERAL, INTERP_SLICE):
        assert area_term(fam, _diag(1, r), interp) == pytest.approx(1 / 9, abs=1e-15)


@pytest.mark.parametrize("a", [0.1, 0.4, 0.7, 0.95])
def test_area_interpretations_agree_for_n1(a):
    fam = MoebiusDisk(a)
    rad = _diag(1, 0.3)
    lit = area_term(fam, rad, INTERP_LITERAL)
    sli = area_term(fam, rad, INTERP_SLICE)
    expected = 0.09 * (1 - a * a) ** 2 / (1 - a * a * 0.09) ** 2
    assert lit == pytest.approx(sli, rel=1e-12)
    assert sli == pytest.approx(expected, rel=1e-12)


def test_area_unit_family_slice_closed_form():
    a, n, r = 0.6, 3, 0.1
    got = area_term(ExtremalPolydiskUnit(a, n), _diag(n, r), INTERP_SLICE)
    nr = n * r
    expected = nr**2 * (1 - a * a) ** 2 / (1 - a * a * nr * nr) ** 2
    assert got == pytest.approx(expected, rel=1e-13)


def test_area_literal_vs_oracle_n2():
    fam = ExtremalPolydiskUnit(0.6, 2)
    rad = _diag(2, 1.0 / 6.0)
    lit = area_term(fam, rad, INTERP_LITERAL)
    series = oracle_expand(fam, 40)
    brute = math.fsum(
        k * series.homogeneous_sq_sum(k, rad.coords) for k in range(1, 41)
    )
    assert lit == pytest.approx(brute, abs=1e-12)
    assert lit < area_term(fam, rad, INTERP_SLICE)


def test_multinomial_sq_ratio_values():
    # n=2, k=2: (2!/alpha!)^2 sums to 1 + 4 + 1 = 6 against n^(2k) = 16.
    assert multinomial_sq_ratio(2, 2) == 6 / 16
    assert multinomial_sq_ratio(1, 7) == 1.0
    assert multinomial_sq_ratio(3, 1) == 3 / 9


def test_area_slice_needs_family():
    series = oracle_expand(MoebiusDisk(0.5), 8)
    bare = type(series)(series.n, series.truncation, dict(series.coeffs))
    with pytest.raises(UnsupportedInterpretationError):
        area_term(bare, _diag(1, 0.3), INTERP_SLICE)


@pytest.mark.parametrize(
    "family,coords",
    [
        (ExtremalPolydiskUnit(0.5, 2), (0.1, 0.3)),
        (ExtremalPolydiskScaled(0.5, 2), (0.2, 0.6)),
    ],
)
def test_vector_radius_is_exact_at_sum_of_radii(family, coords):
    # The Moebius argument reaches sigma = (r_1 + r_2)/q = 0.4 on this torus,
    # not its value at the enclosing diagonal radius.
    rad = RadiusSpec.vector(coords)
    out = evaluate(FunctionalSpec("abs_f"), family, rad)
    assert out.head_value == pytest.approx((0.5 + 0.4) / (1 + 0.5 * 0.4), abs=1e-15)
    assert out.majorant_tail == pytest.approx(0.75 * 0.4 / (1 - 0.5 * 0.4), abs=1e-15)
    assert out.head_value == pytest.approx(0.75, abs=1e-15)
    assert out.majorant_tail == pytest.approx(0.375, abs=1e-15)
    assert out.closed_form
    partial = majorant(expand(family, 80), rad) - 0.5
    assert out.majorant_tail == pytest.approx(partial, abs=1e-12)


def test_area_vector_radius_below_diagonal():
    fam = ExtremalPolydiskUnit(0.5, 2)
    vec = area_term(fam, RadiusSpec.vector((0.1, 0.2)), INTERP_LITERAL)
    diag = area_term(fam, _diag(2, 0.2), INTERP_LITERAL)
    assert 0 < vec < diag


# ---------------------------------------------------------------- schwarz-pick

def test_schwarz_pick_values():
    assert schwarz_pick(0.0, 0.37) == 0.37
    assert schwarz_pick(1.0, 0.9) == 1.0
    assert schwarz_pick(0.5, 0.5) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(DomainError):
        schwarz_pick(0.5, 1.0)


@pytest.mark.parametrize(
    "family",
    [
        MoebiusDisk(0.6),
        ExtremalPolydiskScaled(0.6, 2),
        FiniteBlaschke((0.5, -0.3)),
        ConstantFn(0.4),
    ],
)
def test_abs_head_within_schwarz_pick(family):
    # Families bounded on the unit polydisk obey the boundary bound.
    from bohrineq.series import constant_term, dimension

    spec = FunctionalSpec("abs_f", include_majorant_tail=False)
    n = dimension(family)
    for r in (0.1, 0.3, 0.6):
        head = evaluate(spec, family, _diag(n, r)).head_value
        assert head <= schwarz_pick(abs(constant_term(family)), r) + 1e-12


# ---------------------------------------------------------------- evaluate

def test_thm_c_equality_at_extremal_parameter(constants):
    spec = preset("thm_c")
    out = evaluate(spec, MoebiusDisk(constants.a_star1), _diag(1, 1 / 3))
    assert abs(out.total - 1.0) < 1e-9
    assert out.certified and out.closed_form


def test_thm_c_at_zero_parameter(constants):
    out = evaluate(preset("thm_c"), MoebiusDisk(0.0), _diag(1, 1 / 3))
    expected = 1 / 3 + 16 / 81 + constants.lambda1 / 81
    assert out.total == pytest.approx(expected, rel=1e-12)
    assert out.total == pytest.approx(0.76061, abs=1e-5)


def test_thm_c_grid_below_one(constants):
    spec = preset("thm_c")
    grid = [i / 10 for i in range(10)] + [constants.a_star1]
    for a in grid:
        total = evaluate(spec, MoebiusDisk(a), _diag(1, 1 / 3)).total
        assert total <= 1.0 + 1e-12
        if abs(a - constants.a_star1) > 1e-12:
            assert total < 1.0 - 1e-9


def test_thm_d_grid_equality_only_at_extremal(constants):
    spec = preset("thm_d")
    grid = [i / 10 for i in range(10)] + [constants.a_star2]
    for a in grid:
        total = evaluate(spec, MoebiusDisk(a), _diag(1, 1 / 3)).total
        assert total <= 1.0 + 1e-12
        if abs(a - constants.a_star2) > 1e-12:
            assert total < 1.0 - 1e-9
        else:
            assert abs(total - 1.0) < 1e-9


def test_thm_e_margins(constants):
    spec = preset("thm_e")
    r = SQRT5 - 2.0
    for i in range(100):
        total = evaluate(spec, MoebiusDisk(i / 100), _diag(1, r)).total
        assert total <= 1.0 + 1e-12
    margin = evaluate(spec, MoebiusDisk(0.999), _diag(1, r)).margin
    assert 0 <= margin < 1e-7


def test_thm_2_3_matches_margin_closed_form():
    # The three-summand composite at the threshold radius equals 1 + F(a).
    spec = preset("thm_2_3")
    for n in (1, 2, 3):
        r = (SQRT5 - 2.0) / n
        for a in (0.0, 0.3, 0.6, 0.9, 0.99):
            total = evaluate(spec, ExtremalPolydiskUnit(a, n), _diag(n, r)).total
            assert total == pytest.approx(1.0 + big_f(a), abs=1e-12)


def test_classic_threshold_sign_change():
    spec = preset("classic")
    for a in (0.2, 0.5, 0.8):
        fam = MoebiusDisk(a)
        threshold = 1.0 / (1.0 + 2.0 * a)
        below = evaluate(spec, fam, _diag(1, threshold - 1e-9)).total
        above = evaluate(spec, fam, _diag(1, threshold + 1e-9)).total
        assert below <= 1.0 < above


def test_breakdown_total_composition(constants):
    spec = preset("thm_d")
    out = evaluate(spec, MoebiusDisk(0.4), _diag(1, 0.3))
    recomposed = (
        out.head_value
        + out.majorant_tail
        + spec.area_weight * out.area_term
        + out.area_sq_contribution
        + out.extra_area_contribution
    )
    assert out.total == pytest.approx(recomposed, abs=1e-15)
    assert out.margin == pytest.approx(1.0 - out.total, abs=1e-15)
    assert out.area_sq_contribution == pytest.approx(
        constants.lambda2 * out.area_term**2, rel=1e-15
    )


def test_explicit_eval_point_uses_exact_value():
    fam = MoebiusDisk(0.5)
    spec = FunctionalSpec("abs_f", include_majorant_tail=False)
    r = 0.2
    at_point = evaluate(spec, fam, _diag(1, r), eval_point=(r + 0j,)).head_value
    assert at_point == pytest.approx(abs((0.5 - r) / (1 - 0.5 * r)), abs=1e-15)
    sup = evaluate(spec, fam, _diag(1, r)).head_value
    assert sup == pytest.approx((0.5 + r) / (1 + 0.5 * r), abs=1e-15)
    assert at_point < sup


def test_blaschke_head_is_uncertified():
    out = evaluate(
        FunctionalSpec("abs_f"), FiniteBlaschke((0.5, -0.3)), _diag(1, 0.2)
    )
    assert not out.certified
    assert out.total > 0


def test_evaluate_domain_checks():
    with pytest.raises(DomainError):
        evaluate(preset("classic"), ExtremalPolydiskUnit(0.5, 2), _diag(2, 0.5))
    with pytest.raises(DomainError):
        evaluate(preset("classic"), MoebiusDisk(0.5), _diag(2, 0.1))
    with pytest.raises(DomainError):
        preset("no_such_preset")


def test_total_monotone_in_bold_r():
    for name in ("classic", "thm_a", "thm_b1", "thm_b2", "thm_c", "thm_d", "thm_e", "thm_2_3"):
        spec = preset(name)
        fam = ExtremalPolydiskUnit(0.5, 2)
        totals = [
            evaluate(spec, fam, _diag(2, r)).total
            for r in [0.01 * i for i in range(1, 49)]
        ]
        assert all(x <= y + 1e-13 for x, y in zip(totals, totals[1:]))
