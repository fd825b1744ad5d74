"""Majorant, area term, composite functionals, and their closed forms."""

import math
import random
from dataclasses import replace

import pytest

from bohrineq.constants import big_f, sharp_constants
from bohrineq.errors import DomainError, UnsupportedInterpretationError
from bohrineq.functionals import (
    INTERP_LITERAL,
    INTERP_SLICE,
    PRESET_NAMES,
    FunctionalSpec,
    RadiusSpec,
    area_term,
    evaluate,
    majorant,
    preset,
    schwarz_pick,
)
from bohrineq import series as ser
from bohrineq.series import (
    CoefficientSeries,
    ConstantFn,
    ExtremalPolydiskScaled,
    ExtremalPolydiskUnit,
    FiniteBlaschke,
    MoebiusDisk,
    default_truncation,
    expand,
    multinomial_sq_ratio,
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
    rad = RadiusSpec((0.1, 0.3, 0.2))
    assert rad.n == 3 and rad.bold_r == 0.3
    with pytest.raises(DomainError):
        RadiusSpec((-0.1,))


@pytest.mark.parametrize(
    "coords", [(0.3,), (0.2, 0.2, 0.2), (0.1, 0.3, 0.2), (0.3, 0.1), (0.0, -0.0), (-0.0, 0.0)]
)
def test_radius_spec_cached_properties_equal_fresh_values(coords):
    rad = RadiusSpec(coords)
    for _ in range(2):  # each read computes the largest coordinate afresh
        assert repr(rad.bold_r) == repr(max(rad.coords))
    twin = RadiusSpec(coords)
    assert rad == twin and hash(rad) == hash(twin)
    assert repr(rad) == f"RadiusSpec(coords={tuple(float(r) for r in coords)!r})"


_AREA_CASES = [
    (MoebiusDisk(0.5), _diag(1, 0.2), INTERP_LITERAL),
    (ExtremalPolydiskUnit(0.5, 2), _diag(2, 0.2), INTERP_LITERAL),
    (ExtremalPolydiskUnit(0.5, 2), _diag(2, 0.2), INTERP_SLICE),
    (ExtremalPolydiskScaled(0.6, 3), RadiusSpec((0.1, 0.05, 0.2)), INTERP_SLICE),
    (FiniteBlaschke((0.3, -0.5)), _diag(1, 0.4), INTERP_LITERAL),
    (ExtremalPolydiskUnit(0.5, 2), RadiusSpec((0.1, 0.3)), INTERP_LITERAL),
]


@pytest.mark.parametrize("family,rad,interp", _AREA_CASES)
def test_evaluate_computes_sigma_once(monkeypatch, family, rad, interp):
    calls = []
    sigma = type(family).sigma

    def counted(self, radii):
        calls.append(radii)
        return sigma(self, radii)

    monkeypatch.setattr(type(family), "sigma", counted)
    spec = preset("thm_c").with_interpretation(interp)
    out = evaluate(spec, family, rad)
    assert len(calls) == 1
    assert out.area_term == area_term(family, rad, interp)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_radius_spec_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        RadiusSpec.diagonal(2, bad)
    with pytest.raises(DomainError):
        RadiusSpec((0.1, bad))


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None, 0])
def test_diagonal_radius_refuses_a_dimension_that_is_not_a_positive_integer(n):
    with pytest.raises(DomainError, match="dimension"):
        RadiusSpec.diagonal(n, 0.1)


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


@pytest.mark.parametrize("m, sigma", [(6, 1e-3), (8, 0.01), (2, 0.5), (1, 0.9)])
def test_power_of_z_terms_are_upper_bounds(m, sigma):
    # B = z^m has majorant sigma^m and area m sigma^(2m).  At the first two
    # radii the truncation degree (4, 6) lies below m: the partial sums are
    # 0 and the certified tails alone carry both values.
    out = evaluate(
        FunctionalSpec("constant_term", area_weight=1.0), FiniteBlaschke((0.0,) * m),
        RadiusSpec((sigma,)),
    )
    assert out.majorant_tail >= sigma**m * (1.0 - 1e-12)
    assert out.area_term >= m * sigma ** (2 * m) * (1.0 - 1e-12)


def test_literal_area_of_a_series_without_family_is_its_partial_sum():
    # No generating family, so no tail: 1 * 0.5^2 * 0.5^2 + 2 * 0.25^2 * 0.5^4.
    bare = CoefficientSeries(1, 2, {(1,): 0.5, (2,): 0.25})
    assert area_term(bare, RadiusSpec((0.5,))) == 0.0703125


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
    rad = RadiusSpec(coords)
    out = evaluate(FunctionalSpec("abs_f"), family, rad)
    assert out.head_value == pytest.approx((0.5 + 0.4) / (1 + 0.5 * 0.4), abs=1e-15)
    assert out.majorant_tail == pytest.approx(0.75 * 0.4 / (1 - 0.5 * 0.4), abs=1e-15)
    assert out.head_value == pytest.approx(0.75, abs=1e-15)
    assert out.majorant_tail == pytest.approx(0.375, abs=1e-15)
    assert out.closed_form
    partial = majorant(expand(family, 80), rad) - 0.5
    assert out.majorant_tail == pytest.approx(partial, abs=1e-12)


def test_vector_radius_literal_area_matches_dictionary_series():
    # The degree-weight recurrence against the monomial-by-monomial sum of a
    # dictionary series expanded at the family's own truncation degree, so
    # both add the same tail.  Tolerance fixed beforehand: 1e-14 relative.
    cases = [
        (ExtremalPolydiskUnit(0.5, 3), (0.1, 0.04, 0.02)),
        (ExtremalPolydiskUnit(0.5, 2), (0.1, 0.3)),
        (ExtremalPolydiskUnit(0.9, 3), (0.3, 0.01, 0.2)),
        (ExtremalPolydiskScaled(0.6, 3), (0.2, 0.5, 0.9)),
        (ExtremalPolydiskScaled(0.3, 2), (0.0, 0.7)),
    ]
    for family, coords in cases:
        rad = RadiusSpec(coords)
        sigma = family.sigma(coords)
        K = ser.truncation(lambda k: family.sq_tail(k, sigma), first=1)[0]
        series = expand(family, K)
        copy = CoefficientSeries(family.n, K, dict(series.coeffs), source=family)
        expected = area_term(copy, rad)
        got = evaluate(preset("thm_2_1").with_interpretation(INTERP_LITERAL), family, rad)
        assert got.area_term == pytest.approx(expected, rel=1e-14, abs=0.0), (family, coords)


_GUARD_FAMILIES = [
    (family(a, n), coords)
    for family in (ExtremalPolydiskUnit, ExtremalPolydiskScaled)
    for a in (0.0, 0.6, 0.95)
    for n, coords in ((1, (0.3,)), (2, (0.1, 0.3)), (2, (0.2, 0.2)), (3, (0.1, 0.04, 0.2)))
] + [
    (MoebiusDisk(0.7), (0.4,)),
    (FiniteBlaschke((0.5, -0.3 + 0.2j)), (0.6,)),
    (ConstantFn(0.4), (0.5,)),
]


def test_family_functionals_build_no_multi_index(monkeypatch):
    # Every family functional reads the slice and sigma: with the
    # multi-index layer refusing, evaluate, area_term and lemmas a/b/c run.
    from bohrineq import verify

    def refuse(*args, **kwargs):
        raise AssertionError("multi-index work")

    monkeypatch.setattr(ser, "_compositions", refuse)
    lemmas = (verify.lemma1a_check, verify.lemma1b_check, verify.lemma1c_check)
    for family, coords in _GUARD_FAMILIES:
        scale = family.cap * (1.0 if family.cap < 1.0 else 0.99)
        rad = RadiusSpec(tuple(scale * r for r in coords))
        for name in PRESET_NAMES:
            for interp in (INTERP_LITERAL, INTERP_SLICE):
                out = evaluate(preset(name).with_interpretation(interp), family, rad)
                assert math.isfinite(out.total)
        for interp in (INTERP_LITERAL, INTERP_SLICE):
            assert area_term(family, rad, interp) >= 0.0
        if family.cap == 1.0:
            for lemma in lemmas:
                assert lemma(family, 0.3).certified


@pytest.mark.parametrize(
    "rad", [_diag(3, 0.3), RadiusSpec((0.1, 0.3, 0.2)), _diag(3, 0.0)]
)
def test_slice_backed_series_sums_build_no_multi_index(monkeypatch, rad):
    # |b_k| (sum r)^k and |b_k|^2 W_k (sum r)^(2k) per degree: the 176,851
    # coefficients of this series are never built.
    family = ExtremalPolydiskUnit(0.75, 3)
    series = expand(family, 100)

    def refuse(*args, **kwargs):
        raise AssertionError("multi-index work")

    monkeypatch.setattr(ser, "_compositions", refuse)
    sigma = family.sigma(rad.coords)
    assert majorant(series, rad) == pytest.approx(0.75 + family.majorant(sigma), rel=1e-13)
    # The family stops at its own degree, where the tail is below TAIL_TARGET;
    # both values bound the same sum from above.
    literal = area_term(family, rad, INTERP_LITERAL)
    assert area_term(series, rad) == pytest.approx(literal, rel=0.0, abs=ser.TAIL_TARGET)


def test_area_vector_radius_below_diagonal():
    fam = ExtremalPolydiskUnit(0.5, 2)
    vec = area_term(fam, RadiusSpec((0.1, 0.2)), INTERP_LITERAL)
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

    spec = FunctionalSpec("abs_f")
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
    spec = FunctionalSpec("abs_f")
    r = 0.2
    at_point = evaluate(spec, fam, _diag(1, r), eval_point=(r + 0j,)).head_value
    assert at_point == pytest.approx(abs((0.5 - r) / (1 - 0.5 * r)), abs=1e-15)
    sup = evaluate(spec, fam, _diag(1, r)).head_value
    assert sup == pytest.approx((0.5 + r) / (1 + 0.5 * r), abs=1e-15)
    assert at_point < sup


def test_blaschke_head_is_certified():
    # Both factors peak on |z| = 0.2 at z = -0.2, so max |B| is their product.
    out = evaluate(
        FunctionalSpec("abs_f"), FiniteBlaschke((0.5, 0.3)), _diag(1, 0.2)
    )
    assert out.certified
    exact = (0.7 / 1.1) * (0.5 / 1.06)
    assert exact <= out.head_value <= exact * (1.0 + 1e-14)


def test_evaluate_domain_checks():
    with pytest.raises(DomainError):
        evaluate(preset("classic"), ExtremalPolydiskUnit(0.5, 2), _diag(2, 0.5))
    with pytest.raises(DomainError):
        evaluate(preset("classic"), MoebiusDisk(0.5), _diag(2, 0.1))
    with pytest.raises(DomainError):
        preset("no_such_preset")


def test_presets_are_built_once_with_the_sharp_weights():
    # Each name returns one shared frozen spec, whose weights are the sharp
    # constants; an unknown name is still refused.
    c = sharp_constants()
    weights = {
        "classic": (0.0, 0.0, 0.0), "thm_a": (16 / 9, 0.0, 0.0), "thm_b1": (0.0, 0.0, 0.0),
        "thm_b2": (0.0, 0.0, 0.0), "thm_c": (16 / 9, c.lambda1, 0.0),
        "thm_2_1": (16 / 9, c.lambda1, 0.0), "thm_d": (16 / 9, c.lambda2, 0.0),
        "thm_2_2": (16 / 9, c.lambda2, 0.0), "thm_e": (c.p, 0.0, 0.0),
        "thm_2_3": (0.0, 0.0, c.p),
    }
    assert set(weights) == set(PRESET_NAMES)
    for name in PRESET_NAMES:
        spec = preset(name)
        assert preset(name) is spec
        assert (spec.area_weight, spec.area_sq_weight, spec.extra_area_weight) == weights[name]
        assert spec.area_interpretation == INTERP_SLICE
    for bad in ("no_such_preset", "", "THM_C"):
        with pytest.raises(DomainError, match="unknown preset"):
            preset(bad)


@pytest.mark.parametrize("weight", ["area_weight", "area_sq_weight", "extra_area_weight"])
@pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, -math.inf, "x", None, 1j])
def test_spec_refuses_negative_or_non_finite_weights(weight, bad):
    # A negative weight could make a total decrease in the radius.
    with pytest.raises(DomainError):
        FunctionalSpec("abs_f", **{weight: bad})
    with pytest.raises(DomainError):
        replace(preset("thm_c"), **{weight: bad})
    assert getattr(FunctionalSpec("abs_f", **{weight: 0.0}), weight) == 0.0


def _seeded_blaschke(seed):
    rng = random.Random(seed)
    return FiniteBlaschke(tuple(
        complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(2)
    ))


def test_total_monotone_in_bold_r():
    # The theorem radius_search relies on instead of sampling: with
    # nonnegative weights |a_0|, the torus supremum of |f|, the majorant tail
    # and both areas never decrease in bold_r, for every family class.  For
    # n = 1 the two interpretations run the same code, so one is evaluated.
    families = [
        MoebiusDisk(0.5), ExtremalPolydiskUnit(0.5, 2), ExtremalPolydiskScaled(0.6, 3),
        ConstantFn(0.3), _seeded_blaschke(1), _seeded_blaschke(2),
    ]
    for family in families:
        interps = (INTERP_LITERAL, INTERP_SLICE) if family.n > 1 else (INTERP_SLICE,)
        specs = {preset(name).with_interpretation(i) for name in PRESET_NAMES for i in interps}
        hi = family.cap * (1.0 - 1e-9)
        radii = [_diag(family.n, hi * i / 255) for i in range(256)]
        for spec in specs:
            totals = [evaluate(spec, family, radius).total for radius in radii]
            assert all(x <= y for x, y in zip(totals, totals[1:])), (family, spec)


def test_spec_twin_is_built_once_and_kept():
    for name in PRESET_NAMES:
        spec = preset(name)
        literal = spec.with_interpretation(INTERP_LITERAL)
        assert spec.with_interpretation(INTERP_SLICE) is spec
        assert preset(name).with_interpretation(INTERP_LITERAL) is literal
        assert literal == replace(spec, area_interpretation=INTERP_LITERAL)
        assert literal.with_interpretation(INTERP_LITERAL) is literal
        assert literal.with_interpretation(INTERP_SLICE) == spec


@pytest.mark.parametrize("head", ["constant_term", "abs_f", "abs_f_squared"])
def test_spec_twin_keeps_the_sign_of_a_negative_zero_weight(head):
    # -0.0 equals and hashes like 0.0, yet a -0.0 weight of A^2 or of the
    # extra area reports a -0.0 contribution: each spec needs its own twin.
    family, radius = ExtremalPolydiskUnit(0.4, 2), _diag(2, 0.1)
    for weight in ("area_sq_weight", "extra_area_weight"):
        plus = FunctionalSpec(head, **{weight: 0.0})
        minus = FunctionalSpec(head, **{weight: -0.0})
        assert plus == minus and hash(plus) == hash(minus)
        for interp in (INTERP_LITERAL, INTERP_SLICE):
            for spec in (plus, minus):  # the +0.0 twin is built first
                fresh = replace(spec, area_interpretation=interp)
                got = evaluate(spec.with_interpretation(interp), family, radius)
                assert repr(got) == repr(evaluate(fresh, family, radius))
            got_minus = evaluate(minus.with_interpretation(interp), family, radius)
            got_plus = evaluate(plus.with_interpretation(interp), family, radius)
            assert repr(got_minus) != repr(got_plus)


def test_spec_twin_refuses_an_unknown_interpretation():
    spec = preset("thm_c")
    for bad in ("diagonal", "", "LITERAL", None):
        with pytest.raises(DomainError, match="unknown interpretation"):
            spec.with_interpretation(bad)
        with pytest.raises(DomainError, match="unknown interpretation"):
            spec.with_interpretation(INTERP_LITERAL).with_interpretation(bad)
    assert spec.with_interpretation(INTERP_LITERAL).area_interpretation == INTERP_LITERAL
