"""Reference sums over a truncated multi-index series, for cross-checks.

The package evaluates every functional on a family, from its slice in
s = z_1 + ... + z_n.  These references read a ``CoefficientSeries`` instead:
a dictionary series (``oracle_expand``, or one built by hand) monomial by
monomial, and a slice-backed one (``expand``) degree by degree, by the
multinomial theorem.  Each series needs its generating family (``source``),
whose certified tails the sums add, and refuses the radii the family path
refuses.  The tests hold the family functionals to them, and
``test_golden.py`` pins their values in ``library.txt``.

``grid_torus`` is the torus check of a dictionary series, which the package
refuses: it samples every point of the m^n grid of the torus, summed by
``grid_sum`` one axis at a time, where ``series.torus_bound_check`` samples
the aligned circle |s| = n r of a slice-backed series only.
"""

import itertools
import math

from bohrineq import series as ser
from bohrineq.functionals import _check_radius_for


def majorant(series, radius) -> float:
    """sum_{|alpha| <= K} |a_alpha| r^alpha, plus the certified majorant tail
    of the generating family."""
    _check_radius_for(series.source, radius)
    if series.slice is None:
        sums = _degree_sums(series, lambda c, exps: abs(c) * _monomial(radius.coords, exps))
    else:
        # sum_{|alpha| = k} |b_k| k!/alpha! r^alpha = |b_k| (sum r)^k.
        rho = math.fsum(radius.coords)
        sums = [abs(bk) * rho**k if bk else 0.0 for k, bk in enumerate(series.slice)]
    tail = ser.majorant_tail_bound(series.source, series.truncation, radius.bold_r)
    return math.fsum(sums) + tail


def literal_area(series, radius) -> float:
    """sum_{k=1}^{K} k sum_{|alpha| = k} |a_alpha|^2 r^(2 alpha), plus the
    slice square tail of the generating family (the literal degree masses
    never exceed the slice ones)."""
    _check_radius_for(series.source, radius)
    coords, K = radius.coords, series.truncation
    if series.slice is None:
        sums = _degree_sums(series, lambda c, exps: abs(c) ** 2 * _monomial(coords, exps) ** 2)
    else:
        # |b_k|^2 W_k (sum r)^(2k), with W_k the degree weight of the radius.
        rho = math.fsum(coords)
        if ser._is_diagonal(coords):
            weights = [ser.multinomial_sq_ratio(series.n, k) for k in range(K + 1)]
        else:
            weights = ser._degree_weights(coords, K)
        sums = [
            abs(bk) ** 2 * w * rho ** (2 * k) if bk else 0.0
            for k, (bk, w) in enumerate(zip(series.slice, weights))
        ]
    family = series.source
    tail = family.sq_tail(K, family.sigma(coords))
    return math.fsum(k * sums[k] for k in range(1, K + 1)) + tail


def _degree_sums(series, term) -> list[float]:
    """For each degree k = 0..K of a dictionary series, the exactly rounded
    sum of term(c, alpha) over its coefficients c at |alpha| = k."""
    terms = [[] for _ in range(series.truncation + 1)]
    for exps, c in series.coeffs.items():
        terms[sum(exps)].append(term(c, exps))
    return list(map(math.fsum, terms))


def _monomial(radii: tuple[float, ...], exps: tuple[int, ...]) -> float:
    return math.prod((r**e for r, e in zip(radii, exps) if e), start=1.0)


def grid_torus(series, radius, m) -> ser.TorusBoundReport:
    """The torus report of ``series.torus_bound_check``, sampled on the grid
    of m^n points of {|z_i| = radius}: the first largest modulus, in the
    order of itertools.product, its point, and the same certificate and
    verdict rule."""
    axis = ser._circle(radius, m)
    samples = zip(map(abs, grid_sum(series, axis)), itertools.product(axis, repeat=series.n))
    sup, witness = max(samples, key=lambda sample: sample[0])
    tail = ser.majorant_tail_bound(series.source, series.truncation, radius)
    certified = tail is not None
    ok = certified and sup + tail <= 1.0 + ser.TORUS_SLACK
    return ser.TorusBoundReport(sup, witness, tail, certified, ok)


def grid_sum(series: ser.CoefficientSeries, axis: list[complex]) -> list[complex]:
    """sum_alpha c_alpha z^alpha at every point of axis^n, in the order of
    itertools.product.  Each pass folds the last exponent of every key into
    a block of values over one more axis, O(len(coeffs) * m) per pass."""
    m = len(axis)
    powers = [[1 + 0j] * m]
    for _ in range(series.truncation):
        powers.append([p * z for p, z in zip(powers[-1], axis)])
    level = {exps: [c] for exps, c in series.sorted_items()}
    for _ in range(series.n):
        folded: dict[tuple[int, ...], list[complex]] = {}
        for exps, block in level.items():
            size = len(block)
            acc = folded.setdefault(exps[:-1], [0j] * (m * size))
            for i, p in enumerate(powers[exps[-1]]):
                acc[i * size:(i + 1) * size] = [
                    a + v * p for a, v in zip(acc[i * size:(i + 1) * size], block)
                ]
        level = folded
    return level.get((), [0j] * m**series.n)
