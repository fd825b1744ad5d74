"""Sharp constants: roots, weight formulas, proof-side polynomial checks."""

import math
import random
import time
from fractions import Fraction

import pytest

from bohrineq.constants import (
    PSI1,
    PSI2,
    RADIUS_ABS_HEAD,
    RADIUS_CLASSIC,
    PolynomialR,
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
    solve_unique_root,
    _sturm_root_count,
)
from bohrineq.errors import DomainError, NonUniqueRootError, RootBracketError
from grids import linspace, rounding_interval

# 101 points of (0, 1), asymmetric so the grid avoids the poles 1/2 and 3/5.
FACTOR_GRID = linspace(0.01, 0.998, 101)


def test_psi_endpoint_values():
    assert PSI1(0.0) == -405.0
    assert PSI1(1.0) == 512.0
    assert PSI2(0.0) == -513.0
    assert PSI2(1.0) == 480.0


# The constants' exact definitions, written out again here so that the
# checks below share no code with the package.
def _psi1(t):
    return -405 + 473 * t + 402 * t**2 + 38 * t**3 + 3 * t**4 + t**5


def _psi2(t):
    return -513 + 910 * t + 80 * t**2 + 2 * t**3 + t**4


def _lambda1(a):
    return 4 * (486 - 261 * a - 324 * a**2 + 2 * a**3 + 30 * a**4 + 3 * a**5) / (
        81 * (1 + a) ** 3 * (3 - 5 * a)
    )


def _lambda2(a):
    return (-81 + 1044 * a + 54 * a**2 - 116 * a**3 - 5 * a**4) / (
        162 * (a + 1) ** 2 * (2 * a - 1)
    )


def test_each_constant_is_the_float_of_its_exact_value(constants):
    c = constants
    for a, lam, psi, lam_of in ((c.a_star1, c.lambda1, _psi1, _lambda1),
                                (c.a_star2, c.lambda2, _psi2, _lambda2)):
        # psi increases on [0, 1], so its root lies strictly inside the
        # rounding interval of a: a is the float of the root.
        lo, hi = rounding_interval(a)
        assert psi(lo) < 0 < psi(hi)
        # lambda is monotone near the root (slope about 486 and -422), so
        # lambda at the root lies between its values at a 2^-120 bracket.
        while hi - lo > Fraction(1, 2**120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if psi(mid) < 0 else (lo, mid)
        assert float(lam_of(lo)) == float(lam_of(hi)) == lam
    # s <= 2^120 sqrt(m) < s + 1, for sqrt5 - 2 and for p = 2 sqrt5 - 2 = sqrt20 - 2.
    for value, m in ((RADIUS_ABS_HEAD, 5), (c.p, 20)):
        s = math.isqrt(m << 240)
        assert float(Fraction(s, 2**120) - 2) == float(Fraction(s + 1, 2**120) - 2) == value
    assert (Fraction(RADIUS_ABS_HEAD) + 2) ** 2 < 5  # below the theorem's radius


def test_lambda_formulas_are_exact_on_fractions():
    assert lambda1_of(Fraction(1, 2)) == _lambda1(Fraction(1, 2))
    assert lambda2_of(Fraction(1, 3)) == _lambda2(Fraction(1, 3))
    assert isinstance(lambda1_of(Fraction(1, 2)), Fraction)
    # A float argument keeps its float arithmetic, bit for bit.
    for a in FACTOR_GRID:
        assert lambda1_of(a) == 4.0 * (
            486.0 - 261.0 * a - 324.0 * a**2 + 2.0 * a**3 + 30.0 * a**4 + 3.0 * a**5
        ) / (81.0 * (1.0 + a) ** 3 * (3.0 - 5.0 * a))
        assert lambda2_of(a) == (-81.0 + 1044.0 * a + 54.0 * a**2 - 116.0 * a**3 - 5.0 * a**4) / (
            162.0 * (a + 1.0) ** 2 * (2.0 * a - 1.0)
        )


def test_unique_roots_are_correctly_rounded():
    # Roots of t^2 - 2 and 3t - 1: the floats of sqrt2 and 1/3.
    assert solve_unique_root(PolynomialR((-2.0, 0.0, 1.0)), 1.0, 2.0) == math.sqrt(2.0)
    assert solve_unique_root(PolynomialR((-1, 3)), 0.0, 1.0) == 1 / 3
    # A root at a bracket end, or a dyadic root met exactly, is returned as is.
    assert solve_unique_root(PolynomialR((-1, 2)), 0.5, 1.0) == 0.5
    assert solve_unique_root(PolynomialR((-3, 8)), 0.0, 1.0) == 0.375


def test_unique_roots_match_references():
    a1 = solve_unique_root(PSI1, 0.0, 1.0)
    a2 = solve_unique_root(PSI2, 0.0, 1.0)
    assert abs(a1 - 0.567284) < 1e-6
    assert abs(a2 - 0.537869) < 1e-6
    assert abs(PSI1(a1)) < 1e-9
    assert abs(PSI2(a2)) < 1e-9


def test_root_bracket_errors():
    with pytest.raises(RootBracketError):
        solve_unique_root(PSI1, 0.6, 1.0)
    triple = PolynomialR((-0.08, 0.66, -1.5, 1.0))  # roots 0.2, 0.5, 0.8
    with pytest.raises(NonUniqueRootError):
        solve_unique_root(triple, 0.0, 1.0)


def test_uniqueness_is_counted_exactly():
    # Roots 0.5 and 0.50001 share one cell of a 10^4-point grid, which sees a
    # single sign change; the Sturm count finds all three roots.
    r = (0.2, 0.5, 0.50001)
    close_pair = PolynomialR(
        (-r[0] * r[1] * r[2], r[0] * r[1] + r[0] * r[2] + r[1] * r[2], -(r[0] + r[1] + r[2]), 1.0)
    )
    with pytest.raises(NonUniqueRootError, match="3 distinct roots"):
        solve_unique_root(close_pair, 0.0, 1.0)
    # One root on each side of the pair: both brackets stay unique.
    assert solve_unique_root(close_pair, 0.0, 0.4) == pytest.approx(0.2, abs=1e-12)
    assert _sturm_root_count(close_pair, 0.3, 1.0) == 2


def test_sturm_count_distinct_roots_and_endpoints():
    double = PolynomialR((-0.0625, 0.5, -1.25, 1.0))  # (t - 1/2)^2 (t - 1/4)
    assert _sturm_root_count(double, 0.0, 1.0) == 2
    assert _sturm_root_count(double, 0.5, 1.0) == 1  # root at the lower end
    assert _sturm_root_count(double, 0.0, 0.5) == 2  # root at the upper end
    assert _sturm_root_count(double, 0.3, 0.4) == 0
    assert _sturm_root_count(PolynomialR((2.0, 0.0)), 0.0, 1.0) == 0
    assert _sturm_root_count(PSI1, 0.0, 1.0) == _sturm_root_count(PSI2, 0.0, 1.0) == 1


@pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.inf), (1.0, 0.0)])
def test_solve_rejects_non_finite_or_reversed_arguments(lo, hi):
    with pytest.raises(DomainError):
        solve_unique_root(PSI1, lo, hi)


def test_lambda_formula_values(constants):
    assert lambda1_of(0.0) == pytest.approx(8.0, abs=1e-14)
    assert lambda2_of(0.0) == pytest.approx(0.5, abs=1e-14)
    assert abs(constants.lambda1 - 18.6095) < 1e-3
    assert abs(constants.lambda2 - 16.4618) < 1e-3


def test_lambda_singularities():
    with pytest.raises(DomainError):
        lambda1_of(0.6 - 1e-12)
    with pytest.raises(DomainError):
        lambda2_of(0.5)
    with pytest.raises(DomainError):
        lambda1_of(1.2)


def test_phi_values_at_one_for_random_weights():
    rng = random.Random(42)
    for _ in range(10):
        lam = rng.uniform(0.0, 100.0)
        assert phi1(1.0, lam) == 4096.0
        assert phi2(1.0, lam) == 1920.0


def test_phi1_factorization_identity():
    for s in FACTOR_GRID:
        lhs = phi1(s, lambda1_of(s))
        rhs = phi1_factored(s)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_phi2_factorization_identity():
    for s in FACTOR_GRID:
        lhs = phi2(s, lambda2_of(s))
        rhs = phi2_factored(s)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_phi_nonnegative_on_upper_interval(constants):
    for s in linspace(1 / 3, 1.0, 1001):
        assert phi1(s, constants.lambda1) >= -1e-9
        assert phi2(s, constants.lambda2) >= -1e-9


def test_case2_bounds(constants):
    grid = linspace(0.0, 1 / 3, 10_001)
    psi1_vals = [case2_bound_constant_head(a, constants.lambda1) for a in grid]
    psi2_vals = [case2_bound_squared_head(a, constants.lambda2) for a in grid]
    assert all(x < y for x, y in zip(psi1_vals, psi1_vals[1:]))
    assert all(x < y for x, y in zip(psi2_vals, psi2_vals[1:]))
    assert psi1_vals[-1] <= 0.98
    assert psi2_vals[-1] <= 0.987


def test_big_f_nonpositive():
    for a in linspace(0.0, 1.0, 1001):
        assert big_f(a) <= 0.0
    assert big_f(1.0) == 0.0


def test_radius_helpers():
    assert radius_multi(3) == pytest.approx(1 / 9, abs=1e-15)
    assert radius_multi_abs(1) == RADIUS_ABS_HEAD
    assert abs(RADIUS_ABS_HEAD - 0.236068) < 1e-6
    assert RADIUS_CLASSIC == 1 / 3
    for threshold in (radius_multi, radius_multi_abs):
        for n in (0, 2.5, 2.0, "2", None):
            with pytest.raises(DomainError, match="dimension"):
                threshold(n)


def test_constants_report_passes_quickly():
    start = time.perf_counter()
    report = constants_report()
    elapsed = time.perf_counter() - start
    assert report.ok
    assert report.failed() == []
    assert elapsed < 1.0
    assert report.constants.p == pytest.approx(2.4721359550, abs=1e-9)


def test_constants_report_tolerance_override_flags_failure():
    report = constants_report(tol_override=1e-18)
    assert not report.ok
    assert "a_star1" in report.failed()


def test_constants_report_non_finite_override_fails_closed():
    # An infinite tolerance would pass every residual; a NaN one must fail
    # every constant, in ``ok`` and in ``failed`` alike.
    with pytest.raises(DomainError):
        constants_report(tol_override=math.inf)
    report = constants_report(tol_override=math.nan)
    assert not report.ok
    assert report.failed() == sorted(report.residuals)
