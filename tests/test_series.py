"""Series core: expansions, the brute-force oracle, tails, torus checks."""

import math

import pytest

from bohrineq.errors import BudgetExceededError, DomainError
from bohrineq.series import (
    CoefficientSeries,
    ConstantFn,
    ExtremalPolydiskScaled,
    ExtremalPolydiskUnit,
    FiniteBlaschke,
    MoebiusDisk,
    MultiIndex,
    coefficient_count,
    default_truncation,
    domain_radius_cap,
    expand,
    family_value,
    majorant_tail_bound,
    multi_indices,
    oracle_expand,
    slice_coefficients,
    torus_bound_check,
)


def _coeff(series, *exps):
    return series.coefficient(MultiIndex(tuple(exps)))


# ---------------------------------------------------------------- multi-index

def test_multi_index_degree_and_factorial():
    idx = MultiIndex((2, 0, 3))
    assert idx.degree == 5
    assert idx.factorial() == 12
    assert idx.multinomial() == math.factorial(5) // 12


def test_multi_index_rejects_negative_exponents():
    with pytest.raises(DomainError):
        MultiIndex((1, -1))


def test_graded_lex_order():
    got = sorted(MultiIndex(e) for e in [(2, 0), (0, 1), (0, 2), (1, 1), (0, 0), (1, 0)])
    assert [m.exponents for m in got] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]


def test_multi_indices_enumeration_count():
    assert sum(1 for _ in multi_indices(3, 4)) == math.comb(4 + 2, 2)
    assert coefficient_count(3, 10) == math.comb(13, 3)


# ---------------------------------------------------------------- families

def test_family_parameter_validation():
    with pytest.raises(DomainError):
        MoebiusDisk(1.0)
    with pytest.raises(DomainError):
        ExtremalPolydiskUnit(-0.1, 2)
    with pytest.raises(DomainError):
        FiniteBlaschke((1.0,))
    with pytest.raises(DomainError):
        ConstantFn(1.0 + 0.5j)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_families_reject_non_finite_parameters(bad):
    with pytest.raises(DomainError):
        ConstantFn(bad)
    with pytest.raises(DomainError):
        ConstantFn(complex(0.1, bad))
    with pytest.raises(DomainError):
        FiniteBlaschke((0.3, bad))
    with pytest.raises(DomainError):
        FiniteBlaschke((complex(bad, 0.1),))
    with pytest.raises(DomainError):
        MoebiusDisk(bad)
    with pytest.raises(DomainError):
        ExtremalPolydiskScaled(bad, 2)


def test_domain_caps():
    assert domain_radius_cap(MoebiusDisk(0.4)) == 1.0
    assert domain_radius_cap(ExtremalPolydiskUnit(0.4, 4)) == 0.25
    assert domain_radius_cap(ExtremalPolydiskScaled(0.4, 4)) == 1.0
    assert domain_radius_cap(ConstantFn(0.2)) == 1.0


def test_family_value_moebius():
    fam = MoebiusDisk(0.5)
    z = 0.3 + 0.1j
    assert family_value(fam, (z,)) == (0.5 - z) / (1 - 0.5 * z)
    with pytest.raises(DomainError):
        family_value(fam, (1.0 + 0j,))


# ---------------------------------------------------------------- expansion

def test_moebius_expand_first_coefficients():
    # Long division of (a - z)/(1 - a z) at a = 0.5: the oracle below
    # recomputes the same numbers by formal series division.
    series = expand(MoebiusDisk(0.5), 3)
    assert _coeff(series, 0) == 0.5
    assert _coeff(series, 1) == -0.75
    assert _coeff(series, 2) == -0.375
    assert _coeff(series, 3) == -0.1875
    oracle = oracle_expand(MoebiusDisk(0.5), 3)
    for k in range(4):
        assert _coeff(oracle, k) == pytest.approx(_coeff(series, k), abs=1e-15)


def test_constant_expansion():
    series = expand(ConstantFn(0.3), 5)
    assert series.constant_term() == 0.3
    assert all(idx.degree == 0 for idx in series.coeffs)


def test_unit_family_mixed_coefficient():
    # At |alpha| = (1, 1) the multinomial weight 2!/1!1! = 2 applies.
    for a in (0.2, 0.5, 0.8):
        series = expand(ExtremalPolydiskUnit(a, 2), 2)
        expected = -(1 - a * a) * a * 2
        assert _coeff(series, 1, 1) == pytest.approx(expected, abs=1e-15)


def test_degree_slice_has_pure_degrees():
    series = expand(ExtremalPolydiskUnit(0.5, 3), 5)
    for k in range(6):
        assert all(idx.degree == k for idx in series.degree_slice(k))


def test_multinomial_identity_on_diagonal():
    # sum_{|alpha|=k} |a_alpha| r^alpha = (1-a^2) a^(k-1) (n r)^k
    a, n, r = 0.6, 3, 0.1
    series = expand(ExtremalPolydiskUnit(a, n), 8)
    for k in range(1, 9):
        got = series.homogeneous_abs_sum(k, (r,) * n)
        expected = (1 - a * a) * a ** (k - 1) * (n * r) ** k
        assert got == pytest.approx(expected, rel=1e-12)


def test_zero_function_oracle():
    series = oracle_expand(ConstantFn(0.0), 6)
    assert series.coeffs == {}
    assert series.constant_term() == 0


@pytest.mark.parametrize(
    "family",
    [
        MoebiusDisk(0.3),
        MoebiusDisk(0.95),
        ExtremalPolydiskUnit(0.6, 2),
        ExtremalPolydiskUnit(0.6, 3),
        ExtremalPolydiskScaled(0.45, 3),
        FiniteBlaschke((0.5, -0.4)),
        FiniteBlaschke((0.3 + 0.4j, -0.2)),
        ConstantFn(0.3),
    ],
)
def test_oracle_equivalence(family):
    K = 8
    closed = expand(family, K)
    oracle = oracle_expand(family, K)
    keys = set(closed.coeffs) | set(oracle.coeffs)
    for idx in keys:
        assert closed.coefficient(idx) == pytest.approx(
            oracle.coefficient(idx), abs=1e-12
        )


def test_oracle_on_small_unit_instance():
    fam = ExtremalPolydiskUnit(0.6, 3)
    closed, oracle = expand(fam, 6), oracle_expand(fam, 6)
    assert len(oracle.coeffs) == coefficient_count(3, 6)
    for idx, value in closed.sorted_items():
        assert oracle.coefficient(idx) == pytest.approx(value, abs=1e-12)


def test_budget_exhaustion_is_distinct_from_domain_error():
    with pytest.raises(BudgetExceededError):
        oracle_expand(ExtremalPolydiskUnit(0.5, 3), 300)
    with pytest.raises(BudgetExceededError):
        expand(ExtremalPolydiskUnit(0.5, 3), 300)
    with pytest.raises(DomainError):
        oracle_expand(ConstantFn(0.5), -1)


# ---------------------------------------------------------------- slices

def test_slice_coefficients_moebius():
    a = 0.7
    b = slice_coefficients(MoebiusDisk(a), 4)
    assert b[0] == a
    for k in range(1, 5):
        assert b[k] == pytest.approx(-(1 - a * a) * a ** (k - 1), abs=1e-15)


def test_slice_coefficients_degenerate_and_scaled():
    b = slice_coefficients(ExtremalPolydiskUnit(0.0, 4), 5)
    assert b[1] == -1.0
    assert all(bk == 0 for bk in b[2:])
    b = slice_coefficients(ExtremalPolydiskScaled(0.5, 2), 3)
    assert b[1] == pytest.approx(-0.375, abs=1e-15)


def test_slice_coefficients_blaschke_match_taylor():
    fam = FiniteBlaschke((0.5, -0.3))
    b = slice_coefficients(fam, 6)
    series = expand(fam, 6)
    for k in range(7):
        assert b[k] == series.coefficient(MultiIndex((k,)))


# ---------------------------------------------------------------- tails

@pytest.mark.parametrize(
    "family,bold_r",
    [
        (MoebiusDisk(0.8), 0.5),
        (ExtremalPolydiskUnit(0.7, 2), 0.3),
        (ExtremalPolydiskScaled(0.6, 3), 0.7),
    ],
)
def test_tail_certificate_equals_geometric_remainder(family, bold_r):
    K = 12
    b = slice_coefficients(family, 600)
    n = 1 if isinstance(family, MoebiusDisk) else family.n
    remainder = math.fsum(abs(b[k]) * (n * bold_r) ** k for k in range(K + 1, 601))
    cert = majorant_tail_bound(family, K, bold_r)
    assert cert == pytest.approx(remainder, rel=1e-12)


def test_blaschke_tail_certificate_is_an_upper_bound():
    fam = FiniteBlaschke((0.6, 0.5, -0.4))
    K, r = 10, 0.4
    b = slice_coefficients(fam, 400)
    remainder = math.fsum(abs(b[k]) * r**k for k in range(K + 1, 401))
    assert majorant_tail_bound(fam, K, r) >= remainder


def test_default_truncation_meets_target():
    fam = ExtremalPolydiskUnit(0.99, 2)
    K = default_truncation(fam, 1.0 / 6.0)
    assert K <= 200
    assert majorant_tail_bound(fam, K, 1.0 / 6.0) < 1e-13


# ---------------------------------------------------------------- torus

def test_torus_moebius_unit_boundary_modulus():
    fam = MoebiusDisk(0.5)
    series = expand(fam, default_truncation(fam, 0.999))
    report = torus_bound_check(series, 0.999)
    assert report.ok and report.certified
    assert report.sup_modulus == pytest.approx(1.0, abs=1e-3)


def test_torus_constant():
    series = expand(ConstantFn(0.3), 0)
    for r in (0.2, 0.9):
        report = torus_bound_check(series, r)
        assert report.sup_modulus == pytest.approx(0.3, abs=1e-15)
        assert report.ok


def test_torus_unit_family_at_its_cap():
    fam = ExtremalPolydiskUnit(0.6, 2)
    series = expand(fam, default_truncation(fam, 0.5))
    report = torus_bound_check(series, 0.5)
    assert report.ok
    assert report.sup_modulus <= 1.0 + 1e-9


def test_torus_uncertified_series_is_flagged():
    series = CoefficientSeries(1, 1, {MultiIndex((1,)): 0.5 + 0j})
    report = torus_bound_check(series, 0.5)
    assert not report.certified
    assert not report.ok
    assert report.tail_bound is None


def test_torus_argument_validation():
    series = expand(MoebiusDisk(0.5), 5)
    with pytest.raises(DomainError):
        torus_bound_check(series, 0.5, samples_per_axis=4)
    series2 = expand(ExtremalPolydiskUnit(0.5, 2), 5)
    with pytest.raises(DomainError):
        torus_bound_check(series2, 0.8)


def test_torus_determinism():
    series = expand(ExtremalPolydiskUnit(0.4, 2), 20)
    first = torus_bound_check(series, 0.3)
    second = torus_bound_check(series, 0.3)
    assert first == second


@pytest.mark.parametrize(
    "n,a",
    # a is capped per dimension so the certified truncation stays inside the
    # coefficient budget at the domain boundary, where decay is slowest.
    [(1, a) for a in (0.0, 0.25, 0.5, 0.75, 0.85)]
    + [(2, a) for a in (0.0, 0.25, 0.5, 0.75, 0.85)]
    + [(3, a) for a in (0.0, 0.25, 0.5, 0.75)],
)
def test_torus_sweep_families_bounded_at_cap(n, a):
    for family in (ExtremalPolydiskUnit(a, n), ExtremalPolydiskScaled(a, n)):
        cap = domain_radius_cap(family)
        series = expand(family, default_truncation(family, cap))
        samples = 16 if n < 3 else 8
        report = torus_bound_check(series, cap, samples_per_axis=samples)
        assert report.ok, (family, report.sup_modulus, report.tail_bound)


@pytest.mark.parametrize("n", [1, 2])
def test_torus_sweep_families_at_sweep_radius(n):
    # The sweep radii keep tails tiny even for parameters close to 1.
    family = ExtremalPolydiskUnit(0.99, n)
    r = 1.0 / (3.0 * n)
    series = expand(family, default_truncation(family, r))
    report = torus_bound_check(series, r)
    assert report.ok
    assert report.sup_modulus < 1.0
