"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from bohrineq.constants import (
    PSI1,
    PSI2,
    RADIUS_ABS_HEAD,
    big_f,
    case2_bound_constant_head,
    case2_bound_squared_head,
    constants_report,
    lambda1_of,
    lambda2_of,
    phi1,
    phi1_factored,
    phi2,
    phi2_factored,
    radius_multi,
    radius_multi_abs,
)
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
    expand,
    oracle_expand,
)
from bohrineq.verify import (
    grid_values,
    lemma1a_check,
    lemma1b_check,
    radius_search,
    theorem_sweep,
)
from grids import linspace, rounding_interval

SQRT5 = math.sqrt(5.0)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_criterion_1_constants_reproduction():
    with criterion("1 constants reproduction"):
        start = time.perf_counter()
        report = constants_report()
        c = report.constants
        assert abs(c.a_star1 - 0.567284) <= 1e-6
        assert abs(c.a_star2 - 0.537869) <= 1e-6
        assert abs(c.lambda1 - 18.6095) <= 1e-3
        assert abs(c.lambda2 - 16.4618) <= 1e-3
        assert abs(c.p - 2.0 * (SQRT5 - 1.0)) <= 1e-9
        assert abs(RADIUS_ABS_HEAD - 0.236068) <= 1e-6
        # Computed, not hard-coded: the roots satisfy their polynomials and
        # each weight is its closed formula at its root, rounded once: within
        # half an ulp of the formula's exact values over the root's rounding
        # interval.
        assert abs(PSI1(c.a_star1)) < 1e-9
        assert abs(PSI2(c.a_star2)) < 1e-9
        for a, lam, lam_of in (
            (c.a_star1, c.lambda1, lambda1_of), (c.a_star2, c.lambda2, lambda2_of)
        ):
            ends = [lam_of(end) for end in rounding_interval(a)]
            half_ulp = Fraction(math.ulp(lam)) / 2
            assert min(ends) - half_ulp <= lam <= max(ends) + half_ulp
        assert report.ok
        assert time.perf_counter() - start < 1.0


def test_criterion_2_classical_radius_law():
    with criterion("2 classical radius law"):
        start = time.perf_counter()
        spec = preset("classic")
        for a in [round(0.1 * i, 10) for i in range(1, 10)]:
            result = radius_search(spec, MoebiusDisk(a), tol=1e-9)
            assert result.binding
            assert abs(result.radius - 1.0 / (1.0 + 2.0 * a)) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_3_equalities_and_perturbations(constants):
    with criterion("3 theorem C/D equalities and perturbation gap"):
        third = RadiusSpec.diagonal(1, 1.0 / 3.0)
        eps = 1e-3
        for name, a_star in (("thm_c", constants.a_star1), ("thm_d", constants.a_star2)):
            spec = preset(name)
            fam = MoebiusDisk(a_star)
            total = evaluate(spec, fam, third).total
            assert abs(total - 1.0) <= 1e-9
            bumped = replace(spec, area_sq_weight=spec.area_sq_weight + eps)
            perturbed = evaluate(bumped, fam, third).total
            gap = eps * 81.0 * (1 - a_star**2) ** 4 / (9 - a_star**2) ** 4
            assert perturbed > 1.0
            assert abs((perturbed - 1.0) - gap) <= 1e-9


def test_criterion_4_thm_e_sharpness_shape():
    with criterion("4 theorem E sharpness shape"):
        spec = preset("thm_e")
        r = RadiusSpec.diagonal(1, SQRT5 - 2.0)
        for a in grid_values(0.0, 0.999, 0.001):
            total = evaluate(spec, MoebiusDisk(a), r).total
            assert total <= 1.0 + 1e-12
        margin = evaluate(spec, MoebiusDisk(0.999), r).margin
        assert 0.0 <= margin < 1e-7


def test_criterion_5_multidimensional_sweeps():
    with criterion("5 multidimensional sweeps"):
        start = time.perf_counter()
        a_grid = grid_values(0.0, 0.99, 0.01)
        dims = [1, 2, 3, 5]
        for theorem in ("T21", "T22", "T23"):
            report = theorem_sweep(theorem, dims, a_grid)
            assert not report.violations, f"{theorem}: {report.violations[:3]}"
            assert report.worst_margin >= -1e-12
            for n in dims:
                rows = [row for row in report.rows if row.n == n]
                assert len(rows) == len(a_grid) * (1 if n == 1 else 2)
        assert time.perf_counter() - start < 60.0


def test_criterion_6_proof_polynomials(constants):
    with criterion("6 proof-polynomial checks"):
        import random

        rng = random.Random(2024)
        for _ in range(10):
            lam = rng.uniform(0.0, 50.0)
            assert phi1(1.0, lam) == 4096.0
            assert phi2(1.0, lam) == 1920.0
        for s in linspace(0.01, 0.998, 101):
            lhs1, rhs1 = phi1(s, lambda1_of(s)), phi1_factored(s)
            assert abs(lhs1 - rhs1) <= 1e-8 * max(1.0, abs(rhs1))
            lhs2, rhs2 = phi2(s, lambda2_of(s)), phi2_factored(s)
            assert abs(lhs2 - rhs2) <= 1e-8 * max(1.0, abs(rhs2))
        assert case2_bound_constant_head(1 / 3, constants.lambda1) <= 0.98
        assert case2_bound_squared_head(1 / 3, constants.lambda2) <= 0.987
        for a in linspace(0.0, 1.0, 1001):
            assert big_f(a) <= 0.0


def test_criterion_7_lemma_suite():
    with criterion("7 lemma suite"):
        # Equality for the one-variable Moebius family.
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            for r in (0.2, 0.5, 1.0 / math.sqrt(2.0)):
                check = lemma1a_check(MoebiusDisk(a), r)
                assert check.ok and abs(check.lhs - check.rhs) < 1e-10
            for r in (0.2, 0.6, 0.9):
                check = lemma1b_check(MoebiusDisk(a), r)
                assert check.ok and abs(check.lhs - check.rhs) < 1e-10
        # Strict inequality for the scaled polydisk family.
        for n in (2, 3):
            for a in (0.2, 0.5, 0.8):
                check_a = lemma1a_check(ExtremalPolydiskScaled(a, n), 0.5)
                check_b = lemma1b_check(ExtremalPolydiskScaled(a, n), 0.6)
                assert check_a.ok and check_a.gap > 1e-10
                assert check_b.ok and check_b.gap > 1e-10
        # Multinomial deficit at n=2, k=2, measured from oracle coefficients:
        # the literal degree-2 term retains 6/16 of the slice value.
        a, bold_r = 0.6, 0.5
        series = oracle_expand(ExtremalPolydiskScaled(a, 2), 6)
        m2 = math.fsum(
            abs(c) ** 2 for key, c in series.sorted_items() if sum(key) == 2
        )
        literal_k2 = 2 * m2 * bold_r**4
        slice_k2 = 2 * ((1 - a * a) * a) ** 2 * bold_r**4
        assert slice_k2 - literal_k2 == pytest.approx((10 / 16) * slice_k2, rel=1e-12)
        # Boundary-sup chain |f| <= (r + a0)/(1 + a0 r) <= (nr + a0)/(1 + a0 nr).
        head = FunctionalSpec("abs_f")
        bounded = [
            MoebiusDisk(0.5),
            ExtremalPolydiskScaled(0.5, 2),
            ExtremalPolydiskScaled(0.3, 3),
            FiniteBlaschke((0.5, -0.3)),
            ConstantFn(0.4),
        ]
        for fam in bounded:
            n, a0 = fam.n, abs(fam.a0)
            for r in (0.1, 0.2, 0.3):
                sup = evaluate(head, fam, RadiusSpec.diagonal(n, r)).head_value
                first = (r + a0) / (1 + a0 * r)
                second = (n * r + a0) / (1 + a0 * n * r)
                assert sup <= first + 1e-12
                assert first <= second + 1e-15


def test_criterion_8_oracle_equivalence():
    with criterion("8 oracle equivalence"):
        families = [MoebiusDisk(a) for a in (0.0, 0.3, 0.7, 0.99)]
        families += [ConstantFn(0.0), ConstantFn(0.3)]
        families += [FiniteBlaschke((0.3,)), FiniteBlaschke((0.5, -0.4))]
        for n in (1, 2, 3):
            for a in (0.0, 0.5, 0.9):
                families.append(ExtremalPolydiskUnit(a, n))
                families.append(ExtremalPolydiskScaled(a, n))
        for family in families:
            closed = expand(family, 10)
            oracle = oracle_expand(family, 10)
            keys = set(closed.coeffs) | set(oracle.coeffs)
            for idx in keys:
                assert abs(closed.coefficient(idx) - oracle.coefficient(idx)) <= 1e-12


def test_note_polydisk_sharpness_is_property_based(constants):
    # Slice equality at the extremal parameter plus a strictly positive
    # literal slack, reported per dimension.
    with criterion("note n>=2 sharpness: slice equality + literal slack"):
        for theorem, a_star in (("T21", constants.a_star1), ("T22", constants.a_star2)):
            spec = preset("thm_2_1" if theorem == "T21" else "thm_2_2")
            for n in (2, 3, 5):
                fam = ExtremalPolydiskUnit(a_star, n)
                rad = RadiusSpec.diagonal(n, radius_multi(n))
                slice_total = evaluate(
                    spec.with_interpretation(INTERP_SLICE), fam, rad
                ).total
                literal_total = evaluate(
                    spec.with_interpretation(INTERP_LITERAL), fam, rad
                ).total
                slack = slice_total - literal_total
                assert abs(slice_total - 1.0) <= 1e-9
                assert slack > 1e-3
                print(
                    f"[acceptance]   {theorem} n={n}: slice total {slice_total:.12f}, "
                    f"literal slack {slack:.6e}"
                )
        # The |f|-head analogue approaches its supremum only as a -> 1.
        spec = preset("thm_2_3")
        for n in (2, 3, 5):
            rad = RadiusSpec.diagonal(n, radius_multi_abs(n))
            totals = [
                evaluate(
                    spec.with_interpretation(INTERP_SLICE),
                    ExtremalPolydiskUnit(a, n),
                    rad,
                ).total
                for a in (0.9, 0.99, 0.999)
            ]
            assert all(t <= 1.0 for t in totals)
            assert totals[0] < totals[1] < totals[2]
