"""The certified circle maximum of a finite Blaschke product.

``FiniteBlaschke.boundary_sup(sigma)`` must return an upper bound on
max_theta |B(sigma e^(i theta))| that is tight to rounding.  Two references
are written here from the definition alone: a plain second-order
branch-and-bound (chord bound max(F(a), F(b)) + K2 w^2/8 on F = |B|^2, with
K2 from the factor derivatives) brackets the maximum, and the same chord
bound proves that every one of 65,536 equally spaced samples lies below
the reported value, evaluating each sample it cannot bound.
"""

import heapq
import math
import random

import pytest

from bohrineq import series as ser
from bohrineq.errors import DomainError
from bohrineq.functionals import PRESET_NAMES, RadiusSpec, evaluate, preset
from bohrineq.series import FiniteBlaschke

SIGMAS = (0.0, 0.05, 0.3, 0.8, 0.99, 0.999)
SETS_PER_SIGMA = 34
SAMPLES = 65_536


def _zero_sets(sigma_index):
    rng = random.Random(1000 + sigma_index)
    sets = []
    for _ in range(SETS_PER_SIGMA):
        zeros = []
        for _ in range(rng.randint(1, 5)):
            modulus, angle = 0.95 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
            zeros.append(complex(modulus * math.cos(angle), modulus * math.sin(angle)))
        sets.append(tuple(zeros))
    return sets


def _value(zeros, z):
    out = 1.0
    for w in zeros:
        out *= (w - z) / (1.0 - w.conjugate() * z)
    return out


def _chord_excess(zeros, sigma):
    """(a, b) -> K2 (b - a)^2 / 8 with K2 >= |F''| on the arc, F = |B|^2:
    |F''| <= 2 |beta''| + 2 |beta'|^2 for beta(theta) = B(sigma e^(i theta)),
    from |phi_w'| <= (1 - |w|^2)/d^2 and |phi_w''| <= 2 |w| (1 - |w|^2)/d^3,
    d the least |1 - conj(w) z| on the arc (it moves by |w| sigma per radian)."""
    factors = [
        (w.conjugate(), abs(w) * sigma, 1.0 - abs(w) ** 2, 2.0 * abs(w) * (1.0 - abs(w) ** 2))
        for w in zeros
    ]

    def excess(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        z = sigma * complex(math.cos(mid), math.sin(mid))
        d1 = d2 = 0.0
        for c, speed, one, two in factors:
            dist = max(abs(1.0 - c * z) - speed * half, 1.0 - speed)
            d1 += one / (dist * dist)
            d2 += two / (dist * dist * dist)
        k2 = 2.0 * sigma * d1 + 2.0 * sigma * sigma * (d2 + 2.0 * d1 * d1)
        return k2 * (b - a) ** 2 / 8.0

    return excess


def _oracle(zeros, sigma, rel=1e-13):
    """(lo, hi) around max |B| on |z| = sigma, with hi/lo - 1 <= rel/2."""

    def f(t):
        return abs(_value(zeros, sigma * complex(math.cos(t), math.sin(t)))) ** 2

    excess = _chord_excess(zeros, sigma)

    def item(a, b, fa, fb):
        return (-(max(fa, fb) + excess(a, b)), a, b, fa, fb)

    ts = [2.0 * math.pi * i / 64 for i in range(65)]
    fs = [f(t) for t in ts]
    lo = max(fs)
    heap = [item(ts[i], ts[i + 1], fs[i], fs[i + 1]) for i in range(64)]
    heapq.heapify(heap)
    while -heap[0][0] > lo * (1.0 + rel):
        _, a, b, fa, fb = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        fm = f(mid)
        lo = max(lo, fm)
        heapq.heappush(heap, item(a, mid, fa, fm))
        heapq.heappush(heap, item(mid, b, fm, fb))
    return math.sqrt(lo), math.sqrt(-heap[0][0])


def _samples_below(zeros, sigma, bound):
    """True when |B| at every one of SAMPLES equally spaced points is at
    most bound: a run of samples whose chord bound is below bound^2 (with a
    margin for rounding) is passed whole, every other sample is evaluated."""
    cache = {}

    def modulus(k):
        if k not in cache:
            t = 2.0 * math.pi * (k % SAMPLES) / SAMPLES
            cache[k] = abs(_value(zeros, sigma * complex(math.cos(t), math.sin(t))))
        return cache[k]

    limit = bound * bound * (1.0 - 1e-12)
    chord_excess = _chord_excess(zeros, sigma)
    runs = [(0, SAMPLES)]
    while runs:
        i, j = runs.pop()
        if modulus(i) > bound or modulus(j) > bound:
            return False
        if j - i <= 1:
            continue
        a, b = 2.0 * math.pi * i / SAMPLES, 2.0 * math.pi * j / SAMPLES
        excess = chord_excess(a, b)
        if excess == 0.0 or max(modulus(i), modulus(j)) ** 2 + excess <= limit:
            continue
        runs += [(i, (i + j) // 2), ((i + j) // 2, j)]
    return True


@pytest.mark.parametrize("sigma_index", range(len(SIGMAS)), ids=[str(s) for s in SIGMAS])
def test_enclosure_bounds_every_sample_and_matches_the_oracle(sigma_index):
    sigma = SIGMAS[sigma_index]
    for zeros in _zero_sets(sigma_index):
        upper = FiniteBlaschke(zeros).boundary_sup(sigma)
        lo, hi = _oracle(zeros, sigma)
        assert lo <= upper <= 1.0, (zeros, sigma)
        assert upper <= hi * (1.0 + 1e-13), (zeros, sigma, upper, hi)
        assert _samples_below(zeros, sigma, upper), (zeros, sigma)


def test_enclosure_of_the_reference_product():
    # The true maximum is 0.64724216327 to 11 digits; 4096 samples find
    # 0.6472421247, 3.9e-8 low.
    zeros = (0.5, -0.3 + 0.2j, 0.1j)
    upper = FiniteBlaschke(zeros).boundary_sup(0.8)
    assert abs(upper - 0.64724216327) <= 5e-12
    lo, _ = _oracle(zeros, 0.8)
    assert lo <= upper <= lo * (1.0 + 1e-14)


@pytest.mark.parametrize(
    "zeros,sigma,expected",
    [
        ((0.0,), 0.3, 0.3),  # |B| = sigma on the whole circle
        ((0.0, 0.0), 0.0, 0.0),
        ((0.4, -0.2j), 0.0, 0.08),  # |B(0)|
        ((0.5, -0.5), 0.5, 8 / 17),  # zeros on the circle; B = (z^2 - 1/4)/(1 - z^2/4)
    ],
)
def test_enclosure_of_degenerate_circles(zeros, sigma, expected):
    upper = FiniteBlaschke(zeros).boundary_sup(sigma)
    assert expected <= upper <= expected * (1.0 + 1e-14)


@pytest.mark.parametrize("sigma", [-0.1, 1.0, 1.5, math.nan, math.inf])
def test_enclosure_refuses_a_radius_outside_the_disk(sigma):
    with pytest.raises(DomainError):
        FiniteBlaschke((0.5,)).boundary_sup(sigma)


def test_boundary_sup_is_cached_per_zeros_and_radius():
    family = FiniteBlaschke((0.413 - 0.171j, -0.237 + 0.529j, 0.083 + 0.661j))
    misses = ser._blaschke_sup.cache_info().misses
    radius = RadiusSpec.diagonal(1, 0.8)
    for name in PRESET_NAMES:
        evaluate(preset(name), family, radius)
    assert ser._blaschke_sup.cache_info().misses == misses + 1
    family.boundary_sup(0.7)
    assert ser._blaschke_sup.cache_info().misses == misses + 2
    # Signed zeros compare equal, so the key carries repr(zeros), as for the slice.
    plus = FiniteBlaschke((-0.5, 0.2j))
    minus = FiniteBlaschke((complex(-0.5, -0.0), complex(-0.0, 0.2)))
    plus.boundary_sup(0.6)
    minus.boundary_sup(0.6)
    assert ser._blaschke_sup.cache_info().misses == misses + 4
