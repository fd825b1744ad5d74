"""Series core: expansions, the brute-force oracle, tails, torus checks."""

import itertools
import math
import random
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest

import crosscheck
from bohrineq import series as ser
from bohrineq.errors import BudgetExceededError, DomainError
from bohrineq.functionals import RadiusSpec, evaluate, preset
from bohrineq.series import (
    CoefficientSeries,
    ConstantFn,
    ExtremalPolydiskScaled,
    ExtremalPolydiskUnit,
    FiniteBlaschke,
    MoebiusDisk,
    coefficient_count,
    default_truncation,
    domain_radius_cap,
    expand,
    family_value,
    majorant_tail_bound,
    multinomial_sq_ratio,
    oracle_expand,
    slice_coefficients,
    torus_bound_check,
)
from bohrineq.verify import lemma1c_check, radius_search, theorem_sweep


def _coeff(series, *exps):
    return series.coefficient(exps)


# ---------------------------------------------------------------- multi-index

def test_multi_index_degree_and_factorial():
    # alpha = (2, 0, 3): |alpha|! / alpha! = 5! / (2! 0! 3!) = 10.
    assert ser._multinomial((2, 0, 3)) == math.factorial(5) // 12 == 10
    assert ser._multinomial((0, 0)) == ser._multinomial((4,)) == 1
    assert ser._multinomial((1, 1, 1)) == 6


def _assert_keys_refused(bads):
    # Each key is refused by name where a series is built and where a
    # coefficient is read, from a dictionary and from a slice-backed series;
    # the slice-backed map reads it as a missing key, as a dict would.
    dict_backed = CoefficientSeries(2, 1, {(0, 0): 1.0 + 0j})
    slice_backed = expand(ExtremalPolydiskUnit(0.5, 2), 4)
    for bad in bads:
        if not isinstance(bad, list):  # a list cannot be a dict key
            with pytest.raises(DomainError, match="exponents") as err:
                CoefficientSeries(2, 1, {(0, 0): 1.0 + 0j, bad: 0.5 + 0j})
            assert repr(bad) in str(err.value)
        for series in (dict_backed, slice_backed):
            with pytest.raises(DomainError, match="exponents") as err:
                series.coefficient(bad)
            assert repr(bad) in str(err.value)
        assert slice_backed.coeffs.get(bad) is None and bad not in slice_backed.coeffs
    return slice_backed


def test_multi_index_rejects_negative_exponents():
    # A key is a tuple of exponents, each an integer >= 0: int() would
    # truncate 1.7 and parse "1", so floats (2.0 too), strings and None are
    # refused, as are the empty tuple and a bare number.
    slice_backed = _assert_keys_refused([(1, -1), (1.7, 2), ("1", 2), (2.0,), (None,), (), 5])
    # Bools and other integer types are exponents.
    series = CoefficientSeries(2, 1, {(True, 0): 0.5 + 0j})
    assert series.coefficient((1, 0)) == series.coefficient((True, False)) == 0.5
    assert slice_backed.coefficient((True, 0)) == slice_backed.coefficient((1, 0)) == -0.75
    assert slice_backed.coefficient((_Three(), 1)) == slice_backed.coefficient((3, 1)) != 0


def test_coefficient_series_names_a_key_that_is_not_a_multi_index():
    # A key is a tuple of exactly n exponents: lists, sets, strings and
    # tuples of another length are refused by name.
    _assert_keys_refused([[1, 0], frozenset({0, 1}), "x", (1,), (1, 0, 0)])
    with pytest.raises(DomainError, match="truncation"):
        CoefficientSeries(1, 1, {(2,): 0.5 + 0j})
    # The dimension is an integer >= 1 and the truncation one >= 0, stored
    # as ints, for a dict-backed and a slice-backed series alike.
    slice_backed = expand(MoebiusDisk(0.5), 3).coeffs
    for n, truncation, coeffs, field in [
        (1, 2.5, {(1,): 0.5 + 0j}, "truncation"),
        (1, -1, {}, "truncation"),
        (0, 1, {}, "dimension n"),
        (1, 3.0, slice_backed, "truncation"),
        (1.0, 3, slice_backed, "dimension n"),
    ]:
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            CoefficientSeries(n, truncation, coeffs)
    series = CoefficientSeries(True, _Three(), slice_backed)
    assert (type(series.n), type(series.truncation)) == (int, int)


def test_graded_lex_order():
    keys = [(2, 0), (0, 1), (0, 2), (1, 1), (0, 0), (1, 0)]
    series = CoefficientSeries(2, 2, {key: complex(i) for i, key in enumerate(keys)})
    assert [key for key, _ in series.sorted_items()] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]


def test_multi_indices_enumeration_count():
    assert sum(1 for _ in ser._compositions(3, 4)) == math.comb(4 + 2, 2)
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


class _Three:
    """An integer that is not an int, as numpy integers are."""

    def __index__(self):
        return 3


@pytest.mark.parametrize("family", [ExtremalPolydiskUnit, ExtremalPolydiskScaled])
def test_polydisk_families_read_their_dimension_as_an_integer(family):
    # A float or string n used to be stored and fail, or evaluate, later.
    for bad in (2.5, 2.0, "2", None, 0, -1):
        with pytest.raises(DomainError, match="dimension"):
            family(0.5, bad)
    three = family(0.5, _Three())
    assert type(three.n) is int and three == family(0.5, 3)


@pytest.mark.parametrize("bad", ["0.5", None, 0.5j])
def test_moebius_refuses_a_parameter_that_is_not_real(bad):
    with pytest.raises(DomainError, match="outside"):
        MoebiusDisk(bad)


@pytest.mark.parametrize("route", [expand, oracle_expand, slice_coefficients])
def test_expansions_read_their_degree_as_an_integer(route):
    for bad in (2.5, 3.0, "3", None, -1):
        with pytest.raises(DomainError, match="degree"):
            route(MoebiusDisk(0.5), bad)
    assert route(MoebiusDisk(0.5), _Three()) == route(MoebiusDisk(0.5), 3)


@pytest.mark.parametrize("route", [expand, oracle_expand])
def test_series_stores_its_degree_as_an_int(route):
    series = route(MoebiusDisk(0.5), True)
    assert type(series.truncation) is int and series.truncation == 1


def test_domain_caps():
    assert domain_radius_cap(MoebiusDisk(0.4)) == 1.0
    assert domain_radius_cap(ExtremalPolydiskUnit(0.4, 4)) == 0.25
    assert domain_radius_cap(ExtremalPolydiskScaled(0.4, 4)) == 1.0
    assert domain_radius_cap(ConstantFn(0.2)) == 1.0


def test_family_value_moebius():
    fam = MoebiusDisk(0.5)
    z = 0.3 + 0.1j
    assert family_value(fam, (z,)) == (0.5 - z) / (1 - 0.5 * z)
    # A point is read once, so an iterator gives the same value.
    assert family_value(fam, iter((z,))) == family_value(fam, [z])
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
    assert all(sum(key) == 0 for key in series.coeffs)


def test_unit_family_mixed_coefficient():
    # At |alpha| = (1, 1) the multinomial weight 2!/1!1! = 2 applies.
    for a in (0.2, 0.5, 0.8):
        series = expand(ExtremalPolydiskUnit(a, 2), 2)
        expected = -(1 - a * a) * a * 2
        assert _coeff(series, 1, 1) == pytest.approx(expected, abs=1e-15)


def test_degree_slice_has_pure_degrees():
    series = expand(ExtremalPolydiskUnit(0.5, 3), 5)
    for k in range(6):
        assert all(sum(key) == k for key in series.coeffs.degree(k))


def test_multinomial_identity_on_diagonal():
    # sum_{|alpha|=k} |a_alpha| r^alpha = (1-a^2) a^(k-1) (n r)^k
    a, n, r = 0.6, 3, 0.1
    series = expand(ExtremalPolydiskUnit(a, n), 8)
    got = [0.0] * 9
    for key, c in series.coeffs.items():
        got[sum(key)] += abs(c) * r ** sum(key)
    for k in range(1, 9):
        expected = (1 - a * a) * a ** (k - 1) * (n * r) ** k
        assert got[k] == pytest.approx(expected, rel=1e-12)


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


# Reference bodies of the oracle, with keys and sums built by generators:
# the bit-for-bit test below holds the oracle to them.
def _reference_poly_mul(p, q, K):
    buckets = {}
    for ep, cp in p.items():
        dp = sum(ep)
        for eq, cq in q.items():
            if dp + sum(eq) > K:
                continue
            key = tuple(x + y for x, y in zip(ep, eq))
            buckets.setdefault(key, []).append(cp * cq)
    return {key: _reference_fsum_complex(vals) for key, vals in sorted(buckets.items())}


def _reference_series_inverse(d, n, K):
    zero = (0,) * n
    d0 = d.get(zero, 0j)
    by_degree = {}
    for exps, c in d.items():
        by_degree.setdefault(sum(exps), {})[exps] = c
    inv = {zero: 1.0 / d0}
    inv_by_degree = {0: {zero: 1.0 / d0}}
    for k in range(1, K + 1):
        buckets = {}
        for j, dj in by_degree.items():
            if j == 0 or j > k:
                continue
            lower = inv_by_degree.get(k - j, {})
            for ed, cd in dj.items():
                for eu, cu in lower.items():
                    key = tuple(x + y for x, y in zip(ed, eu))
                    buckets.setdefault(key, []).append(cd * cu)
        level = {key: -_reference_fsum_complex(vals) / d0 for key, vals in sorted(buckets.items())}
        inv_by_degree[k] = level
        inv.update(level)
    return inv


def _reference_fsum_complex(values):
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def _reference_rational_form(family):
    if not isinstance(family, FiniteBlaschke):
        return family.rational_form()
    num = den = {(0,): 1.0 + 0j}
    for w in family.zeros:
        num = _reference_poly_mul(num, {(0,): w, (1,): -1.0 + 0j}, len(family.zeros))
        den = _reference_poly_mul(den, {(0,): 1.0 + 0j, (1,): -w.conjugate()}, len(family.zeros))
    return num, den


def _bits(terms):
    return [(key, repr(value)) for key, value in terms.items()]


def _oracle_families():
    """44 seeded families, each at a K where some exponent reaches K: the
    unit and scaled forms for n = 1..4, Blaschke products of 1..4 zeros
    (signed zeros among them, and K below the number of zeros), constants.
    The key (K, 0, ..., 0) is in every inverse, and only the zero key, whose
    exponents reach K = 0, in a constant's."""
    rng = random.Random(2901)
    signed = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.3))
    cases = []
    for n, K in ((1, 30), (2, 16), (3, 9), (4, 6)):
        for form in (ExtremalPolydiskUnit, ExtremalPolydiskScaled):
            cases += [(form(rng.uniform(0.0, 0.95), n), K), (form(0.0, n), K), (form(0.9, n), 1)]
    for m in range(1, 5):
        for K in (m - 1, m, 3 * m + 5):
            zeros = [complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(m)]
            zeros[rng.randrange(m)] = rng.choice(signed)
            cases.append((FiniteBlaschke(tuple(zeros)), K))
    random_c = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
    for c in (0.0, -0.0, complex(-0.0, 0.5), random_c):
        cases += [(ConstantFn(c), 0), (ConstantFn(c), 5)]
    return cases


@pytest.mark.parametrize(
    "family,K",
    [
        (MoebiusDisk(0.5), 20),
        (ExtremalPolydiskUnit(0.47, 2), 30),
        (ExtremalPolydiskScaled(0.47, 3), 14),
        (FiniteBlaschke((complex(-0.0, 0.0), 0.3, -0.5j)), 25),
        (ConstantFn(0.0), 6),
        (ConstantFn(0.4), 6),
    ]
    + _oracle_families(),
)
def test_oracle_keeps_its_coefficients_bit_for_bit(family, K):
    # Same keys in the same order, and the same repr of every value
    # (signed zeros included), as the reference bodies above.
    num, den = _reference_rational_form(family)
    assert [_bits(part) for part in family.rational_form()] == [_bits(num), _bits(den)]
    radix = K + 1

    def tuple_keyed(poly):
        return dict(ser._decoded(poly, family.n, radix))

    inverse = _reference_series_inverse(den, family.n, K)
    got = ser._series_inverse(ser._encoded(den, radix), radix)
    assert _bits(tuple_keyed(got)) == _bits(inverse)
    product = _reference_poly_mul(num, inverse, K)
    got = ser._poly_mul(ser._encoded(num, radix), ser._encoded(inverse, radix), radix)
    assert _bits(tuple_keyed(got)) == _bits(product)
    expected = [(key, value) for key, value in _bits(product) if product[key] != 0]
    got = oracle_expand(family, K).coeffs
    assert [(key, repr(value)) for key, value in got.items()] == expected


@pytest.mark.parametrize("family,K", _oracle_families())
def test_oracle_series_takes_its_keys_unread(monkeypatch, family, K):
    # The oracle's keys are exponent tuples of degree <= K by construction,
    # so its series does not read them again; each is what the key reader
    # returns for it, and a series built from a copy of the map is equal.
    reads = []
    exponents = ser._exponents
    monkeypatch.setattr(ser, "_exponents", lambda key, n: reads.append(key) or exponents(key, n))
    series = oracle_expand(family, K)
    monkeypatch.undo()
    assert reads == []
    for key in series.coeffs:
        assert type(key) is tuple and set(map(type, key)) == {int}
        assert ser._exponents(key, family.n) == key and sum(key) <= K
    assert CoefficientSeries(family.n, K, dict(series.coeffs), source=family) == series


def test_series_inverse_refuses_a_denominator_that_vanishes_at_the_origin():
    for d in ({(1,): 1.0 + 0j}, {(0,): 0j, (1,): 1.0 + 0j}, {(0, 0): complex(-0.0, 0.0)}):
        with pytest.raises(DomainError, match="vanishes"):
            ser._series_inverse(ser._encoded(d, 5), 5)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [complex(-0.0, -0.0)],
        [complex(-0.0, 0.0), complex(0.0, -0.0)],
        [complex(1.0, -0.0), complex(-1.0, -0.0)],
        [complex(-0.0, 0.1), complex(0.2, -0.0), complex(-0.0, -0.0)],
        [complex(0.1, 1e-17), complex(0.2, -1e-17), complex(-0.3, 0.0)],
    ],
)
def test_fsum_complex_keeps_its_bits(values):
    assert repr(ser._fsum_complex(values)) == repr(_reference_fsum_complex(values))


def test_oracle_on_small_unit_instance():
    for fam, K in ((ExtremalPolydiskUnit(0.6, 3), 6), (ExtremalPolydiskUnit(0.5, 2), 4)):
        closed, oracle = expand(fam, K), oracle_expand(fam, K)
        assert len(oracle.coeffs) == coefficient_count(fam.n, K)
        for key, value in closed.sorted_items():
            assert oracle.coefficient(key) == pytest.approx(value, abs=1e-12)
    # A plain tuple is the key: the coefficient of z_1 is -(1 - a^2) at a = 0.5.
    assert closed.coefficient((1, 0)) == oracle.coefficient((1, 0)) == -0.75


def test_budget_exhaustion_is_distinct_from_domain_error():
    with pytest.raises(BudgetExceededError):
        oracle_expand(ExtremalPolydiskUnit(0.5, 3), 300)
    # A slice-backed series refuses only when its whole map is built.
    series = expand(ExtremalPolydiskUnit(0.5, 3), 300)
    assert len(series.coeffs) == coefficient_count(3, 300)
    assert series.coefficient((100, 100, 100)) != 0
    for build in (list, lambda coeffs: coeffs.items(), repr):
        with pytest.raises(BudgetExceededError):
            build(series.coeffs)
    with pytest.raises(DomainError):
        oracle_expand(ConstantFn(0.5), -1)


# ---------------------------------------------------------------- slice-backed series

SLICE_BACKED_CASES = [
    (MoebiusDisk(0.6), 12),
    (ExtremalPolydiskUnit(0.0, 2), 6),
    (ConstantFn(0.3), 4),
    (ConstantFn(0.0), 3),
    (FiniteBlaschke((0.5, -0.3 + 0.2j)), 10),
] + [
    (family(a, n), K)
    for family in (ExtremalPolydiskUnit, ExtremalPolydiskScaled)
    for n, K in ((1, 15), (2, 12), (3, 8))
    for a in (0.35, 0.8)
]


def _eager_expand(family, K):
    """The multi-index map built key by key, as a dictionary series holds it,
    from an enumeration of its own: every exponent tuple of degree k in
    lexicographic order, times k!/alpha!."""
    coeffs = {}
    for k, bk in enumerate(family.slice(K)):
        if bk != 0:
            for exps in itertools.product(range(k + 1), repeat=family.n):
                if sum(exps) == k:
                    coeffs[exps] = bk * (math.factorial(k) // math.prod(map(math.factorial, exps)))
    return CoefficientSeries(family.n, K, coeffs, source=family)


@pytest.mark.parametrize("family,K", SLICE_BACKED_CASES)
def test_slice_backed_map_equals_eager_build(family, K):
    series, eager = expand(family, K), _eager_expand(family, K)
    assert series.slice == tuple(family.slice(K))
    assert eager.slice is None
    assert len(series.coeffs) == len(eager.coeffs)
    # Same keys, same graded-lex order, bit-identical values.
    assert repr(list(series.coeffs.items())) == repr(list(eager.coeffs.items()))
    assert repr(series) == repr(eager)


@pytest.mark.parametrize("family,K", SLICE_BACKED_CASES)
def test_slice_backed_reads_equal_dictionary_reads(family, K):
    series, eager = expand(family, K), _eager_expand(family, K)
    n = family.n
    radii = tuple(0.9 * family.cap * (i + 1) / n for i in range(n))
    # Plus a key above the truncation; one of the wrong dimension is refused.
    for key in list(eager.coeffs) + [(K + 1,) + (0,) * (n - 1)]:
        assert repr(series.coefficient(key)) == repr(eager.coefficient(key))
    for either in (series, eager):
        with pytest.raises(DomainError, match="exponents"):
            either.coefficient((1,) * (n + 1))
    assert repr(series.constant_term()) == repr(eager.constant_term())
    # The reference sums read a slice-backed series by the multinomial
    # theorem, not by summing the map.  Tolerance fixed beforehand: 1e-14
    # relative.
    for total in (crosscheck.majorant, crosscheck.literal_area):
        fast, slow = total(series, RadiusSpec(radii)), total(eager, RadiusSpec(radii))
        assert fast == pytest.approx(slow, rel=1e-14, abs=0.0), total


@pytest.mark.parametrize("radii", [(math.nan, 0.1), (math.inf, 0.1), (-0.1, 0.1), (0.1,)])
def test_homogeneous_sums_reject_bad_radii(radii):
    # The reference degree sums over a series refuse what the family path
    # refuses: a bad coordinate, or a radius of the wrong dimension.
    family = ExtremalPolydiskUnit(0.5, 2)
    with pytest.raises(DomainError):
        evaluate(preset("thm_c"), family, RadiusSpec(radii))
    for series in (expand(family, 5), _eager_expand(family, 5)):
        for total in (crosscheck.majorant, crosscheck.literal_area):
            with pytest.raises(DomainError):
                total(series, RadiusSpec(radii))


@pytest.mark.parametrize("a", [0.0, 0.3, 0.6, 0.95])
@pytest.mark.parametrize("coords", [(1 / 9,) * 3, (0.02, 0.1, 0.05)])
def test_literal_area_reads_its_final_tail_once(monkeypatch, a, coords):
    # The degree and the tail are those of truncation(sq_tail, first=1).
    family = ExtremalPolydiskUnit(a, 3)
    sigma = family.sigma(coords)
    K = ser.truncation(lambda k: family.sq_tail(k, sigma), first=1)[0]
    weights = [multinomial_sq_ratio(3, k) for k in range(1, K + 1)]
    if coords[0] != coords[1]:
        weights = list(ser._degree_weights(coords, K)[1:])
    terms = [
        k * (1 - a * a) ** 2 * a ** (2 * k - 2) * sigma ** (2 * k) * w
        for k, w in enumerate(weights, 1)
    ]
    expected = math.fsum(terms) + family.sq_tail(K, sigma)
    calls = []
    sq_tail = ExtremalPolydiskUnit.sq_tail

    def counted(self, k, s):
        calls.append(k)
        return sq_tail(self, k, s)

    monkeypatch.setattr(ExtremalPolydiskUnit, "sq_tail", counted)
    assert family.literal_area(sigma, coords) == expected
    assert len(calls) <= 1


@pytest.mark.parametrize(
    "family",
    [
        family(a, n)
        for family in (ExtremalPolydiskUnit, ExtremalPolydiskScaled)
        for n in (1, 2, 3)
        for a in (0.0, 0.25, 0.5)
    ]
    + [MoebiusDisk(0.5), FiniteBlaschke((0.4, -0.2 + 0.3j)), ConstantFn(0.3)],
)
def test_slice_torus_matches_dictionary_torus(family):
    cap = 0.99 if family.cap == 1.0 and family.n == 1 else family.cap
    series = expand(family, default_truncation(family, cap))
    eager = _eager_expand(family, series.truncation)
    m = 16 if family.n < 3 else 8
    # The slice series samples the circle |s| = n r at n m aligned points,
    # the grid reference the m^n grid, whose aligned points are among
    # them; every family here peaks at such a point (s = -n r, or any point
    # when |g| is constant on the circle), so the two maxima agree.
    fast, slow = torus_bound_check(series, cap, m), crosscheck.grid_torus(eager, cap, m)
    assert fast.sup_modulus == pytest.approx(slow.sup_modulus, abs=1e-12)
    assert (fast.tail_bound, fast.certified, fast.ok) == (slow.tail_bound, slow.certified, slow.ok)
    for report in (fast, slow):
        assert len(report.witness) == family.n
        assert all(type(z) is complex and abs(abs(z) - cap) <= 1e-15 for z in report.witness)
    assert len(set(fast.witness)) == 1
    value = ser.family_value(family, fast.witness) if family.cap > cap else None
    if value is not None:
        assert abs(value) == pytest.approx(fast.sup_modulus, abs=1e-12)


def test_dictionary_torus_sums_the_grid_in_product_order():
    coeffs = {(0, 0, 0): 0.25, (1, 0, 0): 0.5j, (0, 2, 1): -0.125, (1, 1, 2): 0.3 - 0.1j}
    series = CoefficientSeries(3, 4, {e: complex(c) for e, c in coeffs.items()})
    axis = ser._circle(0.7, 8)
    values = crosscheck.grid_sum(series, axis)
    points = list(itertools.product(axis, repeat=3))
    assert len(values) == len(points) == 512
    for value, z in zip(values, points):
        direct = sum(c * z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2] for e, c in coeffs.items())
        assert abs(value - direct) <= 1e-15
    # |z_1 - z_2| peaks first at z_1 = 0.5, z_2 = -0.5: the witness is that point.
    pair = CoefficientSeries(2, 1, {(1, 0): 1 + 0j, (0, 1): -1 + 0j})
    report = crosscheck.grid_torus(pair, 0.5, 8)
    assert report.witness == (ser._circle(0.5, 8)[0], ser._circle(0.5, 8)[4])
    assert report.sup_modulus == pytest.approx(1.0, abs=1e-15)
    assert not report.certified and not report.ok


def test_expanded_torus_at_cap_builds_no_multi_index(monkeypatch):
    def refuse(n, total):
        raise AssertionError("multi-index map built")

    monkeypatch.setattr(ser, "_compositions", refuse)
    family = ExtremalPolydiskUnit(0.75, 3)
    cap = domain_radius_cap(family)
    series = expand(family, default_truncation(family, cap))
    assert len(series.coeffs) == coefficient_count(3, series.truncation)
    report = torus_bound_check(series, cap, samples_per_axis=8)
    assert report.ok and report.certified


def _count_slice_builds(monkeypatch):
    """The degree of every Blaschke slice built from here on, cold: the
    slice cache starts empty."""
    builds = []
    build = ser._blaschke_pass

    def counted(zeros, K):
        builds.append(K)
        return build(zeros, K)

    monkeypatch.setattr(ser, "_blaschke_pass", counted)
    monkeypatch.setattr(ser, "_SLICE", ((), []))
    return builds


def test_blaschke_evaluate_builds_the_product_once(monkeypatch):
    builds = _count_slice_builds(monkeypatch)
    zeros = (0.413 - 0.171j, -0.237 + 0.529j, 0.083 + 0.661j)
    evaluate(preset("thm_e"), FiniteBlaschke(zeros), RadiusSpec.diagonal(1, 0.8))
    assert len(builds) == 1


@pytest.mark.parametrize("name", ["classic", "thm_b1", "thm_e"])
def test_blaschke_radius_search_rereads_slices_from_a_small_cache(monkeypatch, name):
    # The first step builds the longest slice of the search, and every
    # later majorant and area reads a prefix of it.
    builds = _count_slice_builds(monkeypatch)
    radius_search(preset(name), FiniteBlaschke((0.3, -0.5, 0.2j)))
    assert len(builds) == 1, builds


def test_blaschke_slice_cache_holds_one_slice(monkeypatch):
    # The slot holds the product read last: another product, or a longer
    # degree of the same one, replaces it; a shorter degree reads a prefix.
    builds = _count_slice_builds(monkeypatch)
    rng = random.Random(7)
    families = []
    for _ in range(200):
        zeros = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(3))
        families.append(FiniteBlaschke(zeros))
        lemma1c_check(families[-1], 0.8)
        assert ser._SLICE[0] is families[-1].zeros
    assert len(builds) == 200
    last, previous = families[-1], families[-2]
    held = len(ser._SLICE[1]) - 1
    for family, K in ((last, held), (last, 3), (previous, 3), (previous, 2), (last, 3)):
        family.slice(K)
    assert builds[200:] == [3, 3]
    assert ser._SLICE[0] is last.zeros and len(ser._SLICE[1]) == 4
    last.slice(60)
    assert builds[202:] == [60] and len(ser._SLICE[1]) == 61


def test_blaschke_slice_cache_returns_fresh_exact_lists(monkeypatch):
    builds = _count_slice_builds(monkeypatch)
    family = FiniteBlaschke((0.37, -0.29 + 0.44j))
    first = family.slice(20)
    first[3] = 99.0
    assert family.slice(20)[3] != 99.0
    assert repr(family.slice(141)[:11]) == repr(family.slice(10))
    assert builds == [20, 141]
    # Signed zeros compare equal, so the slot is read with ``is``: each
    # variant gets the bits of its own build, never the other's.  Each
    # prefix, and a slice one degree longer than the one held, is what a
    # fresh build gives.
    plus = FiniteBlaschke((-0.5, 0.2j))
    minus = FiniteBlaschke((complex(-0.5, -0.0), complex(-0.0, 0.2)))
    assert plus == minus
    assert repr(ser._blaschke_pass(plus.zeros, 150)) != repr(ser._blaschke_pass(minus.zeros, 150))
    for family in (minus, plus, minus):
        for K in (150, 149, 0, 151, 160, 3):
            assert repr(family.slice(K)) == repr(ser._blaschke_pass(family.zeros, K))
        assert repr(_one_pass_slice(family.zeros)) == repr(_two_pass_blaschke_slice(family.zeros))


def test_blaschke_slice_cache_keeps_its_bits_under_threads():
    # Six products share one slot, so threads replace each other's slices;
    # every slice read must still be that of its own product, and the slot
    # holds a whole pair.
    families = [FiniteBlaschke((0.1 * k, -0.3j, complex(-0.0, 0.2 - 0.05 * k))) for k in range(6)]
    expected = [ser._blaschke_pass(family.zeros, 60) for family in families]
    errors = []

    def read(offset):
        for i in range(300):
            j, K = (i + offset) % 6, (7 * i + offset) % 61
            if repr(families[j].slice(K)) != repr(expected[j][: K + 1]):
                errors.append((j, K))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    key, held = ser._SLICE
    (family,) = [family for family in families if family.zeros is key]
    assert repr(held) == repr(ser._blaschke_pass(family.zeros, len(held) - 1))


def _two_pass_blaschke_slice(zeros, K=200):
    """The recurrence as two passes per zero: divide by 1 - conj(w) z
    forward, then multiply by w - z backward."""
    b = [complex(1.0)] + [0j] * K
    for w in zeros:
        c = w.conjugate()
        for k in range(1, K + 1):
            b[k] += c * b[k - 1]
        for k in range(K, 0, -1):
            b[k] = w * b[k] - b[k - 1]
        b[0] *= w
    return tuple(b)


def _one_pass_slice(zeros, K=200):
    return tuple(ser._blaschke_pass(zeros, K))


def _conv_blaschke_slice(zeros, K):
    """Loop reference: the product as m dense O(K^2) convolutions of the
    factors (w - z)/(1 - conj(w) z) = w + (|w|^2 - 1) sum conj(w)^(k-1) z^k."""
    out = [complex(1.0)] + [0j] * K
    for w in zeros:
        factor = [w] + [(abs(w) ** 2 - 1.0) * w.conjugate() ** (k - 1) for k in range(1, K + 1)]
        prod = [0j] * (K + 1)
        for i, pi in enumerate(out):
            for j, qj in enumerate(factor[: K + 1 - i]):
                prod[i + j] += pi * qj
        out = prod
    return out


def _exact_blaschke_slice(zeros, K):
    """Exact reference: numerator prod (w - z) and denominator
    prod (1 - conj(w) z) multiplied out in Fractions, then divided as power
    series.  Complex numbers are (re, im) pairs of Fractions."""

    def mul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def poly_mul(p, q):
        out = [(Fraction(0), Fraction(0))] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                t = mul(pi, qj)
                out[i + j] = (out[i + j][0] + t[0], out[i + j][1] + t[1])
        return out

    one, minus_one = (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))
    num, den = [one], [one]
    for w in zeros:
        re, im = Fraction(w.real), Fraction(w.imag)
        num = poly_mul(num, [(re, im), minus_one])
        den = poly_mul(den, [one, (-re, im)])
    out = []
    for k in range(K + 1):
        re, im = num[k] if k < len(num) else (Fraction(0), Fraction(0))
        for i in range(1, min(k, len(den) - 1) + 1):
            t = mul(den[i], out[k - i])
            re, im = re - t[0], im - t[1]
        out.append((re, im))
    return [complex(float(re), float(im)) for re, im in out]


BLASCHKE_REFERENCE_ZEROS = [
    (0.5,),
    (-0.95,),
    (0.3 + 0.4j, -0.6),
    (0.95j, -0.2 - 0.1j),
    (0.41 - 0.17j, -0.23 + 0.52j, 0.08 + 0.66j),
    (0.9, -0.9, 0.7j, -0.5 - 0.5j),
    (0.95, 0.95, -0.67 + 0.67j),
]


@pytest.mark.parametrize("zeros", BLASCHKE_REFERENCE_ZEROS)
def test_blaschke_slice_matches_convolution_and_exact_product(zeros):
    K = 141
    family = FiniteBlaschke(zeros)
    got = family.slice(K)
    assert len(got) == K + 1
    for reference in (_conv_blaschke_slice(zeros, K), _exact_blaschke_slice(zeros, K)):
        assert max(abs(g - r) for g, r in zip(got, reference)) <= 1e-15
    # One ascending pass per zero does the two passes' operations in their
    # order, so every bit is kept.
    assert repr(_one_pass_slice(family.zeros)) == repr(_two_pass_blaschke_slice(family.zeros))


def _sq_sum_recursive(n, k):
    if n == 1 or k == 0:
        return 1
    return sum(math.comb(k, j) ** 2 * _sq_sum_recursive(n - 1, k - j) for j in range(k + 1))


def test_sq_multinomial_sum_matches_recursive_definition():
    for n in range(1, 6):
        for k in range(13):
            assert ser._sq_multinomial_sum(n, k) == _sq_sum_recursive(n, k)
            ratio = 1.0 if n == 1 else _sq_sum_recursive(n, k) / n ** (2 * k)
            assert multinomial_sq_ratio(n, k) == ratio


def test_sq_multinomial_sum_at_large_dimension():
    # Deeper than the interpreter's recursion limit; S_n(2) = n + 4 C(n, 2).
    assert ser._sq_multinomial_sum(3000, 2) == 3000 + 4 * math.comb(3000, 2)


def test_sq_multinomial_sums_follow_their_recurrences():
    # S_n(k) = n^(2k) W_k, the even moments of a walk of n unit steps, obey
    #   k^2 S_3(k) = (10k^2 - 10k + 3) S_3(k-1) - 9 (k-1)^2 S_3(k-2),
    #   k^3 S_4(k) = 2 (2k-1)(5k^2 - 5k + 2) S_4(k-1) - 64 (k-1)^3 S_4(k-2).
    s3, s4 = [1, 3], [1, 4]
    for k in range(2, ser.MAX_TRUNCATION + 1):
        num3 = (10 * k * k - 10 * k + 3) * s3[-1] - 9 * (k - 1) ** 2 * s3[-2]
        num4 = 2 * (2 * k - 1) * (5 * k * k - 5 * k + 2) * s4[-1] - 64 * (k - 1) ** 3 * s4[-2]
        assert num3 % (k * k) == 0 and num4 % k**3 == 0
        s3.append(num3 // (k * k))
        s4.append(num4 // k**3)
    assert s3 == [ser._sq_multinomial_sum(3, k) for k in range(ser.MAX_TRUNCATION + 1)]
    assert s4 == [ser._sq_multinomial_sum(4, k) for k in range(ser.MAX_TRUNCATION + 1)]


@pytest.mark.parametrize("cls", [ExtremalPolydiskUnit, ExtremalPolydiskScaled])
@pytest.mark.parametrize("a, radii", [
    (0.5, (0.2, 0.2)), (0.7, (0.1, 0.3)), (0.9, (0.05, 0.4)), (0.3, (0.45, 0.01)),
    *((a, (r, r)) for a in (0.0, 0.3, 0.5, 0.9, 0.99) for r in (0.05, 0.2, 0.45)),
])
def test_literal_area_in_two_variables_matches_its_closed_form(cls, a, radii):
    # For n = 2, sum_k W_k c^k = G(c) = ((1 - c)(1 - c d))^(-1/2) with
    # c = a^2 sigma^2 and d = ((r_1 - r_2)/(r_1 + r_2))^2, so the literal area
    # is (1 - a^2)^2 sigma^2 G'(c); on the diagonal, d = 0 and it is
    # (1 - a^2)^2 sigma^2 / (2 (1 - c)^(3/2)).  The series sums W_k to K and
    # adds the slice tail (W_k <= 1): it lies above the closed form,
    # evaluated to 40 digits at the float a, sigma and radii, by at most that
    # tail plus one ulp, the rounding of the reported sum (at a = 0 the tail
    # is 0 and the area is sigma^2 / 2 rounded).
    family = cls(a, 2)
    sigma = family.sigma(radii)
    degrees = cls.degree_grid((a,), sigma)
    series = family.literal_area(sigma, radii)
    terms = cls.slice_term_grid((a,), sigma, degrees)
    assert series == cls.literal_area_grid(terms, degrees, radii, 2)[0]
    with localcontext() as ctx:
        ctx.prec = 40
        (r1, r2), s = map(Decimal, radii), Decimal(sigma)
        c, d = (Decimal(a) * s) ** 2, ((r1 - r2) / (r1 + r2)) ** 2
        g_prime = (1 / (1 - c) + d / (1 - c * d)) / (2 * ((1 - c) * (1 - c * d)).sqrt())
        excess = Decimal(series) - (1 - Decimal(a) ** 2) ** 2 * s * s * g_prime
    assert 0 < excess <= Decimal(degrees[0][1]) + Decimal(math.ulp(series))


def _exact_degree_weights(radii, K):
    p = [Fraction(r) / sum(map(Fraction, radii)) for r in radii]
    weights = [Fraction(0)] * (K + 1)
    for alpha in itertools.product(range(K + 1), repeat=len(radii)):
        k = sum(alpha)
        if k <= K:
            coeff = math.factorial(k) // math.prod(map(math.factorial, alpha))
            weights[k] += coeff**2 * math.prod(pj ** (2 * aj) for pj, aj in zip(p, alpha))
    return weights


@pytest.mark.parametrize("radii", [
    (0.3,), (0.1, 0.2), (0.3, 0.05), (0.1, 0.2, 0.3), (0.7, 0.175, 0.0778), (0.3, 0.05, 0.05, 0.05),
    (0.1, 0.2, 0.3, 0.4),
])
def test_degree_weights_match_an_exact_enumeration(radii):
    K = 12
    for got, exact in zip(ser._degree_weights(radii, K), _exact_degree_weights(radii, K)):
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact


@pytest.mark.parametrize("radii", [(0.1, 0.2), (0.3, 0.05, 0.05), (0.1, 0.2, 0.3, 0.4)])
def test_degree_weights_do_not_increase(radii):
    # W_k = E|sum_j p_j e^(i theta_j)|^(2k) with |sum_j p_j e^(i theta_j)| <= 1.
    weights = ser._degree_weights(radii, ser.MAX_TRUNCATION)
    assert weights[0] == 1.0 and all(x >= y for x, y in zip(weights, weights[1:]))
    for n in (2, 3, 4, 5):
        diagonal = [multinomial_sq_ratio(n, k) for k in range(ser.MAX_TRUNCATION + 1)]
        assert diagonal[0] == 1.0 and all(x >= y for x, y in zip(diagonal, diagonal[1:]))


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
        assert b[k] == series.coefficient((k,))


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


def _linear_truncation(tail, first):
    """Reference degree search: the first K from first up whose tail is
    below the target, else MAX_TRUNCATION."""
    for K in range(first, ser.MAX_TRUNCATION + 1):
        value = tail(K)
        if value < ser.TAIL_TARGET:
            break
    return K, value


def _tail_rules():
    """(name, tail rule) for every tail rule of the package, on coarse a and
    sigma grids with sigma = 0, the cap and values near 1, where a search
    runs to MAX_TRUNCATION."""
    sigmas = (0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999999)
    blaschke = FiniteBlaschke((0.5,))
    for s in sigmas:
        yield f"blaschke.majorant_tail {s}", lambda k, s=s: blaschke.majorant_tail(k, s)
        yield f"blaschke.sq_tail {s}", lambda k, s=s: blaschke.sq_tail(k, s)
        yield f"blaschke.sq_mass_tail {s}", lambda k, s=s: blaschke.sq_mass_tail(k, s)
    for a in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999):
        for s in sigmas + (1.0,):
            yield f"moebius.majorant_tail {a} {s}", lambda k, a=a, s=s: (
                MoebiusDisk(a).majorant_tail(k, s)
            )
            yield f"_sq_tail_rule {a} {s}", ser._sq_tail_rule(a, s)
            yield f"moebius.sq_mass_tail {a} {s}", lambda k, a=a, s=s: (
                MoebiusDisk(a).sq_mass_tail(k, s)
            )
    constant = ConstantFn(0.3)
    for s in (0.0, 0.5, 1.0):
        yield f"constant {s}", lambda k, s=s: constant.majorant_tail(k, s)


def test_truncation_equals_a_linear_scan():
    capped = 0
    for name, tail in _tail_rules():
        for first in (0, 1):
            expected = _linear_truncation(tail, first)
            assert repr(ser.truncation(tail, first)) == repr(expected), (name, first)
            capped += expected[0] == ser.MAX_TRUNCATION
    assert capped > 0  # the grids reach the cap


def _counting(tail):
    calls = []

    def counted(k):
        calls.append(k)
        return tail(k)

    return counted, calls


def test_blaschke_majorant_search_bisects_past_degree_16():
    family = FiniteBlaschke((0.41 - 0.17j, -0.23 + 0.52j, 0.08 + 0.66j))
    tail, calls = _counting(lambda k: family.majorant_tail(k, 0.8))
    assert ser.truncation(tail)[0] == 64
    assert len(calls) <= 25  # a linear scan reads 65 tails
    assert calls[:16] == list(range(16))


def test_truncation_from_any_start_equals_a_linear_scan():
    # A warm start walks down or up from start and must find the K of a
    # linear scan from first, with the same tail, wherever it starts.
    top = ser.MAX_TRUNCATION
    for name, tail in _tail_rules():
        for first in (0, 1):
            expected = _linear_truncation(tail, first)
            K = expected[0]
            starts = {first, K - 2, K - 1, K, K + 1, K + 2, 16, 17, top - 1, top}
            for start in sorted(x for x in starts if x >= first):
                got = ser.truncation(tail, first, start)
                assert repr(got) == repr(expected), (name, first, start)


def test_literal_area_search_at_the_t21_threshold_is_warm_started(monkeypatch):
    # sigma = n r = 1/3 at r = 1/(3n) has the same bits for n = 2 and 3, so
    # the sweep searches the degrees of its 100-point grid once.  Each search
    # after the first starts at the degree of the a before it, finds the
    # degree of a linear scan, and on the sorted default grid reads at most
    # 3 tails.
    searches = []
    search = ser.truncation

    def recorded(tail, first=0, start=None):
        counted, calls = _counting(tail)
        result = search(counted, first, start)
        searches.append((result, _linear_truncation(tail, first), start, calls))
        return result

    monkeypatch.setattr(ser, "truncation", recorded)
    theorem_sweep("T21")
    assert len(searches) == 100  # one per a, shared by n = 2 and 3
    assert [start for _, _, start, _ in searches].count(None) == 1  # one cold search
    for result, expected, start, calls in searches:
        assert repr(result) == repr(expected)
        assert start is None or len(calls) <= 3


_MOEBIUS_CLASSES = ((MoebiusDisk, 1), (ExtremalPolydiskUnit, 3), (ExtremalPolydiskScaled, 2))


def _moebius(cls, a, n):
    return cls(a) if cls is MoebiusDisk else cls(a, n)


def _column_grid(size=2000):
    """Seeded points of [0, 1) with 0.0 and values near 1, in no order."""
    rng = random.Random(16)
    near_one = [1.0 - 2.0**-k for k in (10, 20, 30, 40, 52)] + [math.nextafter(1.0, 0.0)]
    grid = [0.0, *near_one] + [rng.random() for _ in range(size - 1 - len(near_one))]
    rng.shuffle(grid)
    return grid


@pytest.mark.parametrize("cls, n", _MOEBIUS_CLASSES, ids=lambda v: getattr(v, "__name__", v))
def test_moebius_column_rules_equal_the_family_methods(cls, n):
    # Each column reads, for every a, the bits of the family method at a,
    # and of the closed form in its fixed order of operations.
    grid = _column_grid()
    families = [_moebius(cls, a, n) for a in grid]
    for sigma in (0.0, 1.0 / 3.0, math.sqrt(5.0) - 2.0, 0.9, 0.999):
        assert repr(cls.sup_grid(grid, sigma)) == repr([f.boundary_sup(sigma) for f in families])
        assert repr(cls.sup_grid(grid, sigma)) == repr(
            [(a + sigma) / (1.0 + a * sigma) for a in grid]
        )
        for K in (0, 7, 60):
            assert repr(cls.majorant_tail_grid(grid, K, sigma)) == repr(
                [f.majorant_tail(K, sigma) for f in families]
            )
            assert repr(cls.majorant_tail_grid(grid, K, sigma)) == repr(
                [(1.0 - a * a) * a**K * sigma ** (K + 1) / (1.0 - a * sigma) for a in grid]
            )
        assert repr(cls.majorant_tail_grid(grid, 0, sigma)) == repr(
            [f.majorant(sigma) for f in families]
        )
        assert repr(cls.area_grid(grid, sigma)) == repr([f.area(sigma) for f in families])
        one = [1.0 - a * a for a in grid]
        assert repr(cls.area_grid(grid, sigma)) == repr(
            [sigma * sigma * o * o / (1.0 - a * a * sigma * sigma) ** 2 for a, o in zip(grid, one)]
        )


#: (a, sigma) where the libm pow squares the area denominator
#: d = 1 - a^2 sigma^2 one ulp away from d * d, and the area moves with it.
_POW_NEAR_TIES = ((0.60525, 0.236), (0.96825, 0.9), (0.64275, 0.1))


@pytest.mark.parametrize("cls, n", _MOEBIUS_CLASSES, ids=lambda v: getattr(v, "__name__", v))
def test_area_grid_squares_its_denominator_with_pow(cls, n):
    # The golden areas rest on ``d ** 2``, which calls the libm pow: at these
    # near-ties a rewrite to d * d moves the area, and fails here.
    for a, sigma in _POW_NEAR_TIES:
        aa = a * a
        one, d = 1.0 - aa, 1.0 - aa * sigma * sigma
        assert d**2 != d * d, "this libm squares d as d * d does: golden areas may move"
        area = sigma * sigma * one * one / d**2
        assert area != sigma * sigma * one * one / (d * d)
        assert repr(cls.area_grid([a], sigma)) == repr([area])
        assert repr(_moebius(cls, a, n).area(sigma)) == repr(area)
        # The one-pass total squares d the same way: a weight of 2^60 lifts
        # the area's last bit above the head and the tail.
        head_tail = a + one * sigma / (1.0 - a * sigma)
        weight = 2.0**60
        total = head_tail + weight * area
        assert total != head_tail + weight * (sigma * sigma * one * one / (d * d))
        assert repr(cls.total_grid([a], sigma, 0, (weight, 0.0, 0.0))) == repr([total])


def test_moebius_column_rules_are_exact_on_fractions(monkeypatch):
    # The rules hold no float literal, so on Fraction inputs each one
    # computes its closed form exactly: here against formulas written out
    # from c_k = -(1 - a^2) a^(k-1), and against each other, as the slice
    # terms to K plus the square tail at K give the area for every K.
    rule, K = ser._MoebiusType, 6
    avals = [Fraction(0), Fraction(1, 2), Fraction(9, 10)]

    def exact_ratio(n, k):  # the diagonal W_k, exactly
        return Fraction(ser._sq_multinomial_sum(n, k), n ** (2 * k))

    monkeypatch.setattr(ser, "multinomial_sq_ratio", exact_ratio)
    for sigma in (Fraction(1, 5), Fraction(1, 3)):
        sups, areas = rule.sup_grid(avals, sigma), rule.area_grid(avals, sigma)
        tails = [rule.majorant_tail_grid(avals, k, sigma) for k in range(K + 1)]
        terms = rule.slice_term_grid(avals, sigma, [(K, 0)] * len(avals))
        for i, a in enumerate(avals):
            c = [-(1 - a * a) * a ** (k - 1) for k in range(1, K + 1)]  # c_1..c_K
            sq_tails = [ser._sq_tail_rule(a, sigma)(k) for k in range(K + 1)]
            masses = {n: rule.sq_masses(SimpleNamespace(a=a, n=n), K) for n in (1, 2)}
            values = [sups[i], areas[i], *terms[i], *(t[i] for t in tails), *sq_tails]
            assert all(type(v) is Fraction for v in values + masses[1] + masses[2])
            assert sups[i] == abs(a + sigma) / (1 + a * sigma)  # |psi_a(-sigma)|
            for k in range(K + 1):
                assert tails[k][i] == (1 - a * a) * a**k * sigma ** (k + 1) / (1 - a * sigma)
            for k in range(K):  # consecutive tails differ by |c_(k+1)| sigma^(k+1)
                assert tails[k][i] - tails[k + 1][i] == abs(c[k]) * sigma ** (k + 1)
            assert areas[i] == sigma**2 * (1 - a * a) ** 2 / (1 - a * a * sigma**2) ** 2
            assert terms[i] == [k * c[k - 1] ** 2 * sigma ** (2 * k) for k in range(1, K + 1)]
            assert all(sum(terms[i][:k]) + sq_tails[k] == areas[i] for k in range(K + 1))
            for n, m in masses.items():
                assert m == [a * a] + [c[k - 1] ** 2 * exact_ratio(n, k) for k in range(1, K + 1)]
        # The one-pass total of each head kind sums these terms exactly, with
        # a scan's base and perturbed weights, and with no weight at all.
        weights = (Fraction(16, 9), Fraction(1, 2), Fraction(1, 7))
        bumped = (Fraction(16, 9), Fraction(1, 2), Fraction(3, 7))
        for head, column in enumerate(([abs(a) for a in avals], sups, [x * x for x in sups])):
            pairs = list(zip(column, tails[0]))
            base = rule.total_grid(avals, sigma, head, weights)
            more = rule.total_grid(avals, sigma, head, bumped)
            assert all(type(v) is Fraction for v in base + more)
            assert base == [h + t + sum(w * A ** k for w, k in zip(weights, (1, 2, 1)))
                            for (h, t), A in zip(pairs, areas)]
            assert more == [h + t + sum(w * A ** k for w, k in zip(bumped, (1, 2, 1)))
                            for (h, t), A in zip(pairs, areas)]
            assert rule.total_grid(avals, sigma, head, (0, 0, 0)) == [h + t for h, t in pairs]
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert rule.sup_grid([half], third) == [Fraction(5, 7)]
    assert rule.majorant_tail_grid([half], 0, third) == [Fraction(3, 10)]
    assert rule.area_grid([half], third) == [Fraction(81, 1225)]
    # C at a = 1/2, sigma = 1/3: |a_0| + tail + (16/9) A = 4/5 + 144/1225,
    # plus lambda_1 (its float, exactly) times A^2 = 6561/1500625.
    lambda1 = Fraction(preset("thm_c").area_sq_weight)
    assert rule.total_grid([half], third, 0, (Fraction(16, 9), lambda1, 0)) == [
        Fraction(1124, 1225) + lambda1 * Fraction(6561, 1500625)
    ]


@pytest.mark.parametrize("cls, n", _MOEBIUS_CLASSES[1:], ids=lambda v: getattr(v, "__name__", v))
def test_literal_area_column_equals_one_cold_search_per_a(cls, n):
    # The warm-started column gives each a the area its own cold search
    # gives, on an unsorted grid, at diagonal and vector radii.
    grid = _column_grid(400)
    for radii in ((0.1,) * n, (0.3 / n,) * n, tuple(0.9 * (i + 1) / n**2 for i in range(n))):
        family = _moebius(cls, 0.5, n)
        sigma = family.sigma(radii)
        degrees = cls.degree_grid(grid, sigma)
        terms = cls.slice_term_grid(grid, sigma, degrees)
        column = cls.literal_area_grid(terms, degrees, radii, n)
        cold = [_moebius(cls, a, n).literal_area(sigma, radii) for a in grid]
        assert repr(column) == repr(cold), radii


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


def test_torus_sup_above_one_fails_with_a_certificate():
    # 0.9 + 0.5 z claims the tail certificate of psi_0.5 at degree 1 but
    # reaches modulus 1.15 on |z| = 0.5.
    coeffs = ser._SliceCoefficients(1, [0.9 + 0j, 0.5 + 0j])
    report = torus_bound_check(CoefficientSeries(1, 1, coeffs, MoebiusDisk(0.5)), 0.5)
    assert report.certified and report.sup_modulus == pytest.approx(1.15)
    assert not report.ok


def test_torus_uncertified_series_is_flagged():
    series = CoefficientSeries(1, 1, ser._SliceCoefficients(1, [0j, 0.5 + 0j]))
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


@pytest.mark.parametrize("radius_cap", [math.nan, math.inf])
def test_torus_refuses_a_non_finite_radius(radius_cap):
    bare = CoefficientSeries(1, 1, ser._SliceCoefficients(1, [0j, 0.5 + 0j]))
    with pytest.raises(DomainError, match="finite"):
        torus_bound_check(bare, radius_cap)


@pytest.mark.parametrize(
    "series",
    [CoefficientSeries(1, 1, {(1,): 0.5 + 0j}), oracle_expand(MoebiusDisk(0.5), 4)],
    ids=["by-hand", "oracle"],
)
def test_torus_refuses_a_dictionary_series(series):
    # Only a slice-backed series is sampled; the grid of a dictionary series
    # is the reference crosscheck.grid_torus.
    with pytest.raises(DomainError, match="slice-backed series from expand"):
        torus_bound_check(series, 0.5)


@pytest.mark.parametrize("samples", [8.5, math.inf, 8.0, True])
def test_torus_refuses_a_sample_count_that_is_not_an_integer(samples):
    series = expand(MoebiusDisk(0.5), 5)
    with pytest.raises(DomainError, match="integer"):
        torus_bound_check(series, 0.5, samples_per_axis=samples)


def test_torus_determinism():
    series = expand(ExtremalPolydiskUnit(0.4, 2), 20)
    first = torus_bound_check(series, 0.3)
    second = torus_bound_check(series, 0.3)
    assert first == second


@pytest.mark.parametrize(
    "n,a",
    # a is capped by MAX_TRUNCATION: at the domain boundary, where decay is
    # slowest, a = 0.9 and 0.95 need K > 200, and the tails left at K = 200
    # (1.3e-9 and 6.8e-5) exceed TORUS_SLACK.
    [(1, a) for a in (0.0, 0.25, 0.5, 0.75, 0.85)]
    + [(2, a) for a in (0.0, 0.25, 0.5, 0.75, 0.85)]
    + [(3, a) for a in (0.0, 0.25, 0.5, 0.75, 0.85)],
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
