"""The certified tails of a finite Blaschke product against exact ones.

``FiniteBlaschke`` bounds its majorant tail, its square tail and its mass
tail by the smaller of two geometric tails, from Cauchy's estimate
|b_k| <= M(R)/R^k at R = 1 (M = 1) and at the R > 1 of ``_cauchy``.  Each
tail here is held at or above the exact tail at every degree up to the one
``truncation`` picks for it.  The exact tail is summed from an exact
rational slice up to a degree H, and the bound |b_k| <= 1 adds the rest,
below 2^-60 at the H chosen.  The slice is summed in dyadic fixed point
with P fraction bits: the zeros and sigma are dyadic, so every product is
exact before its shift, and each shift rounds down by less than one unit
2^-P.  Per zero, the pass y_k = x_k + c y_(k-1), b_k = w y_k - y_(k-1)
takes an error E on the coefficients to at most 6 (E + 1)/(1 - |w|) units,
which the reference adds to every |b_k|.
"""

import math
import random
from fractions import Fraction

import pytest

from bohrineq import series as ser
from bohrineq.series import FiniteBlaschke

P = 128
ONE = 1 << P
SIGMAS = (0.2, 0.5, 0.8, 0.9, 0.95, 0.99)
SETS = 204


def _zero_sets():
    """SETS zero sets of 1 to 4 zeros, each modulus in (0, 0.95], with
    parts on the 2^-40 grid, so that they are exact in fixed point; every
    seventh set has its largest zero at modulus 0.95."""
    rng = random.Random(19)
    sets = []
    for i in range(SETS):
        zeros = []
        for j in range(rng.randint(1, 4)):
            modulus = 0.95 if i % 7 == 0 and j == 0 else 0.95 * math.sqrt(rng.random())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            parts = (modulus * math.cos(angle), modulus * math.sin(angle))
            zeros.append(complex(*(math.floor(x * 2.0**40) / 2.0**40 for x in parts)))
        sets.append(tuple(zeros))
    return sets


ZERO_SETS = _zero_sets()


def _fixed(x: float) -> int:
    scaled = Fraction(x) * ONE
    assert scaled.denominator == 1
    return int(scaled)


def _slice_moduli(zeros, H):
    """Upper bounds, in units 2^-P, of |b_0|..|b_H|."""
    b = [(ONE, 0)] + [(0, 0)] * H
    error = 0.0
    for w in zeros:
        wr, wi = _fixed(w.real), _fixed(w.imag)
        pr, pi = b[0]
        b[0] = ((pr * wr - pi * wi) >> P, (pr * wi + pi * wr) >> P)
        for k in range(1, H + 1):
            xr, xi = b[k]
            # y = x + conj(w) prev, then b_k = w y - prev.
            yr, yi = xr + ((wr * pr + wi * pi) >> P), xi + ((wr * pi - wi * pr) >> P)
            b[k] = (((wr * yr - wi * yi) >> P) - pr, ((wr * yi + wi * yr) >> P) - pi)
            pr, pi = yr, yi
        error = 6.0 * (error + 1.0) / (1.0 - abs(w))
    slack = math.ceil(2.0 * error) + 1
    return [math.isqrt(re * re + im * im) + 1 + slack for re, im in b]


def _upper_powers(x: float, H: int) -> list[int]:
    """Upper bounds, in units 2^-P, of x^0..x^(H+1)."""
    step, out = _fixed(x), [ONE]
    for _ in range(H + 1):
        out.append(-((-out[-1] * step) >> P))
    return out


def _suffix(terms: list[int]) -> list[int]:
    """out[K] = sum of terms[K+1:]."""
    out, total = [0] * len(terms), 0
    for K in range(len(terms) - 1, -1, -1):
        out[K] = total
        total += terms[K]
    return out


def _exact_tails(zeros, sigma):
    """(H, tails): tails(K) is a triple of exact fractions, for K <= H, at
    or above the exact tails sum_{k>K} of |b_k| sigma^k, k |b_k|^2 sigma^(2k)
    and |b_k|^2 sigma^k."""
    H = math.ceil(math.log(2.0**-60 * (1.0 - sigma)) / math.log(sigma))
    moduli = _slice_moduli(zeros, H)
    powers = _upper_powers(sigma, H)
    s, y = Fraction(sigma), Fraction(sigma) ** 2
    top = Fraction(powers[H + 1], ONE)
    # Beyond H, |b_k| <= 1: sum_{k>H} x^k = x^(H+1)/(1-x) and
    # sum_{k>H} k y^k = y^(H+1) ((H+1) - H y)/(1-y)^2.
    rests = (top / (1 - s), top * top * ((H + 1) - H * y) / (1 - y) ** 2, top / (1 - s))
    sums = (
        _suffix([m * p for m, p in zip(moduli, powers)]),
        _suffix([k * (m * p) ** 2 for k, (m, p) in enumerate(zip(moduli, powers))]),
        _suffix([m * m * p for m, p in zip(moduli, powers)]),
    )
    scales = (ONE**2, ONE**4, ONE**3)

    def tails(K):
        return tuple(Fraction(column[K], scale) + rest
                     for column, scale, rest in zip(sums, scales, rests))

    return H, tails


@pytest.mark.parametrize("sigma", SIGMAS)
def test_blaschke_tails_hold_over_exact_tails(sigma):
    # Every degree up to the one each tail's search picks: below it the
    # tail is what a partial sum adds, and at it the tail is below 1e-13.
    checked = 0
    for zeros in ZERO_SETS[SIGMAS.index(sigma)::len(SIGMAS)]:
        family = FiniteBlaschke(zeros)
        H, exact = _exact_tails(zeros, sigma)
        rules = (
            (family.majorant_tail, 0), (family.sq_tail, 1), (family.sq_mass_tail, 1)
        )
        tops = [ser.truncation(lambda K: tail(K, sigma), first)[0] for tail, first in rules]
        assert max(tops) <= H
        for K in range(max(tops) + 1):
            bounds = exact(K)
            for i, ((tail, _), top) in enumerate(zip(rules, tops)):
                if K <= top:
                    assert Fraction(tail(K, sigma)) >= bounds[i], (zeros, sigma, i, K)
                    checked += 1
    assert checked > 1000


def _modulus_above(w) -> Fraction:
    """A fraction at or above |w|, within 2^-100 of it."""
    square = Fraction(w.real) ** 2 + Fraction(w.imag) ** 2
    num, den = square.numerator, square.denominator
    return Fraction(math.isqrt(num * den << 200) + 1, den << 100)


def test_cauchy_circle_bound_is_rounded_up():
    # M(R) = prod (R + |w|)/(1 - |w| R) at the float R, in exact fractions
    # with each |w| rounded up: the float M must not lie below it.
    for zeros in ZERO_SETS:
        R, M = FiniteBlaschke(zeros)._cauchy
        moduli = [_modulus_above(w) for w in zeros]
        assert 1 < R and max(moduli) * Fraction(R) < 1, zeros
        exact = math.prod((Fraction(R) + x) / (1 - x * Fraction(R)) for x in moduli)
        assert Fraction(M) >= exact, zeros


@pytest.mark.parametrize("m", [1, 2, 6])
def test_power_of_z_keeps_the_unit_coefficient_bound(m):
    # All zeros at 0: B = (-z)^m, rho = 0.  The tails keep the bound
    # |b_k| <= 1, bit for bit, and no division by rho is made.
    family = FiniteBlaschke((0j,) * m)
    assert family._cauchy == (1.0, 1.0)
    for sigma in (0.1, 0.5, 0.9):
        y = sigma * sigma
        for K in (0, 3, 40):
            assert family.majorant_tail(K, sigma) == sigma ** (K + 1) / (1.0 - sigma)
            assert family.sq_mass_tail(K, sigma) == sigma ** (K + 1) / (1.0 - sigma)
            assert family.sq_tail(K, sigma) == y ** (K + 1) * ((K + 1) - K * y) / (1.0 - y) ** 2


@pytest.mark.parametrize("zeros", [
    (1e-300, -1e-300j, 2e-300),  # M(R) overflows at R = rho^-0.95
    (1.0 - 2.0**-40,),  # 1 - rho R is within rounding of 0
    (0.3, 1.0 - 2.0**-53),
])
def test_cauchy_falls_back_to_the_unit_bound(zeros):
    family = FiniteBlaschke(zeros)
    assert family._cauchy == (1.0, 1.0)
    assert family.majorant_tail(5, 0.5) == 0.5**6 / 0.5


def test_degree_starts_at_the_closed_form_degree(monkeypatch):
    # The closed-form degree of the smaller tail starts the search: the same
    # (K, tail) as a search from 0, in at most three tail reads.
    reads, tail = [], FiniteBlaschke.majorant_tail

    def counted(family, K, sigma):
        reads.append(K)
        return tail(family, K, sigma)

    monkeypatch.setattr(FiniteBlaschke, "majorant_tail", counted)
    for i, zeros in enumerate(ZERO_SETS):
        family = FiniteBlaschke(zeros)
        for sigma in (0.0, 1e-300, SIGMAS[i % len(SIGMAS)], 0.999999):
            expected = ser.truncation(lambda K: tail(family, K, sigma))
            reads.clear()
            assert repr(family._degree(sigma)) == repr(expected), (zeros, sigma)
            assert len(reads) <= 3, (zeros, sigma, reads)
