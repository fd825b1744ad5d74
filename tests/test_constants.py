"""Sharp constants: roots, weight formulas, proof-side polynomial checks."""

import math
import random
import time

import numpy as np
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
)
from bohrineq.errors import DomainError, NonUniqueRootError, RootBracketError

# 101 points of (0, 1), asymmetric so the grid avoids the poles 1/2 and 3/5.
FACTOR_GRID = np.linspace(0.01, 0.998, 101)


def test_psi_endpoint_values():
    assert PSI1(0.0) == -405.0
    assert PSI1(1.0) == 512.0
    assert PSI2(0.0) == -513.0
    assert PSI2(1.0) == 480.0


def test_polynomial_derivative():
    poly = PolynomialR((1.0, 2.0, 3.0))
    assert poly.derivative().coefficients == (2.0, 6.0)
    assert poly(2.0) == 1 + 4 + 12


def test_unique_roots_match_references():
    a1 = solve_unique_root(PSI1, 0.0, 1.0, 1e-12)
    a2 = solve_unique_root(PSI2, 0.0, 1.0, 1e-12)
    assert abs(a1 - 0.567284) < 1e-6
    assert abs(a2 - 0.537869) < 1e-6
    assert abs(PSI1(a1)) < 1e-9
    assert abs(PSI2(a2)) < 1e-9


def test_root_bracket_errors():
    with pytest.raises(RootBracketError):
        solve_unique_root(PSI1, 0.6, 1.0, 1e-12)
    triple = PolynomialR((-0.08, 0.66, -1.5, 1.0))  # roots 0.2, 0.5, 0.8
    with pytest.raises(NonUniqueRootError):
        solve_unique_root(triple, 0.0, 1.0, 1e-12)


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
    for s in np.linspace(1 / 3, 1.0, 1001):
        assert phi1(s, constants.lambda1) >= -1e-9
        assert phi2(s, constants.lambda2) >= -1e-9


def test_case2_bounds(constants):
    grid = np.linspace(0.0, 1 / 3, 10_001)
    psi1_vals = [case2_bound_constant_head(a, constants.lambda1) for a in grid]
    psi2_vals = [case2_bound_squared_head(a, constants.lambda2) for a in grid]
    assert all(x < y for x, y in zip(psi1_vals, psi1_vals[1:]))
    assert all(x < y for x, y in zip(psi2_vals, psi2_vals[1:]))
    assert psi1_vals[-1] <= 0.98
    assert psi2_vals[-1] <= 0.987


def test_big_f_nonpositive():
    for a in np.linspace(0.0, 1.0, 1001):
        assert big_f(a) <= 0.0
    assert big_f(1.0) == 0.0


def test_radius_helpers():
    assert radius_multi(3) == pytest.approx(1 / 9, abs=1e-15)
    assert radius_multi_abs(1) == RADIUS_ABS_HEAD
    assert abs(RADIUS_ABS_HEAD - 0.236068) < 1e-6
    assert RADIUS_CLASSIC == 1 / 3
    with pytest.raises(DomainError):
        radius_multi(0)


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
