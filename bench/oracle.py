"""Independent reference values for checking the program's outputs.

Everything here is derived from the mathematics, not from the program's
code paths: the Moebius-type families are (a - u)/(1 - a u) with
u = (z_1 + ... + z_n)/q (q = 1 for the unit form and the disk, q = n for the
scaled form), and Blaschke products are expanded by direct convolution.
The benchmark compares the program against these values after the timed
phase, so the checks cost no measured time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

#: Relative tolerance for numbers that must not change, with an absolute
#: floor for values near zero (residuals, margins).
REL_TOL = 1e-9
ABS_FLOOR = 1e-12

#: Slack for enclosures and verdict thresholds.
SLACK = 1e-12

#: Sample count of the program's Blaschke supremum at this commit, and the
#: coarsest sampling a certified replacement is allowed to use.
BLASCHKE_SAMPLES = 4096
BLASCHKE_MIN_SAMPLES = 256


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_FLOOR


@lru_cache(maxsize=None)
def sq_multinomial(n: int, k: int) -> int:
    """sum over |alpha| = k in n variables of (k!/alpha!)^2, exactly."""
    if n == 1 or k == 0:
        return 1
    return sum(math.comb(k, j) ** 2 * sq_multinomial(n - 1, k - j) for j in range(k + 1))


@dataclass(frozen=True)
class Weights:
    """One Bohr-type functional: head kind and the three area weights."""

    head: str  # "const", "abs" or "abs2"
    area: float = 0.0
    area_sq: float = 0.0
    extra: float = 0.0


def preset_weights(constants: dict) -> dict[str, Weights]:
    """The ten theorem functionals, keyed by theorem id, from the constants
    recorded in the reference file."""
    c = constants
    table = {
        "classic": Weights("const"),
        "A": Weights("const", area=16.0 / 9.0),
        "B1": Weights("abs"),
        "B2": Weights("abs2"),
        "C": Weights("const", area=16.0 / 9.0, area_sq=c["lambda1"]),
        "D": Weights("abs2", area=16.0 / 9.0, area_sq=c["lambda2"]),
        "E": Weights("abs", area=c["p"]),
    }
    table["T21"] = table["C"]
    table["T22"] = table["D"]
    table["T23"] = Weights("abs", extra=c["p"])
    return table


@dataclass(frozen=True)
class Terms:
    head: float
    tail: float
    area: float
    total: float


def combine(w: Weights, sup: float, a0: float, tail: float, area: float) -> Terms:
    head = {"const": a0, "abs": sup, "abs2": sup * sup}[w.head]
    total = head + tail + w.area * area + w.area_sq * area * area + w.extra * area
    return Terms(head, tail, area, total)


# --------------------------------------------------------------------------
# Moebius-type families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Moebius:
    """(a - u)/(1 - a u) with u = (z_1 + ... + z_n)/q."""

    a: float
    n: int
    q: int

    def coeff_sq(self, k: int) -> float:
        """|c_k|^2, where the coefficient at z^alpha is c_k k!/alpha!."""
        a = self.a
        return (1.0 - a * a) ** 2 * a ** (2 * k - 2) / self.q ** (2 * k)

    def sigma(self, radii: tuple[float, ...]) -> float:
        """Largest modulus of u over the torus with these radii."""
        return math.fsum(radii) / self.q

    def sup(self, radii) -> float:
        s = self.sigma(radii)
        return (self.a + s) / (1.0 + self.a * s)

    def tail(self, radii) -> float:
        s = self.sigma(radii)
        return (1.0 - self.a * self.a) * s / (1.0 - self.a * s)

    def slice_area(self, radii) -> float:
        s = max(radii) * self.n / self.q
        one = 1.0 - self.a * self.a
        return s * s * one * one / (1.0 - self.a * self.a * s * s) ** 2

    def _area_degree(self, radii) -> int:
        """Degree after which the literal area remainder is below 1e-17; the
        remainder is dominated by the slice area at n max(r) / q."""
        s = self.n * max(radii) / self.q
        y = (self.a * s) ** 2
        scale = (1.0 - self.a * self.a) ** 2 * s * s / (1.0 - y) ** 2
        K = 1
        while scale * y**K * ((K + 1) - K * y) >= 1e-17:
            K += 1
        return K

    def literal_area(self, radii) -> float:
        """sum_k k |c_k|^2 sum_{|alpha|=k} (k!/alpha!)^2 r^(2 alpha)."""
        K = self._area_degree(radii)
        if len(set(radii)) == 1:
            level = [sq_multinomial(self.n, k) * radii[0] ** (2 * k) for k in range(K + 1)]
        else:
            level = _sq_levels([r * r for r in radii], K)
        return math.fsum(k * self.coeff_sq(k) * level[k] for k in range(1, K + 1))

    def lemma_a_lhs(self, r: float) -> float:
        return self.literal_area((r,) * self.n)

    def lemma_b_lhs(self, r: float) -> float:
        terms = []
        for k in range(1, 4000):
            term = self.coeff_sq(k) * sq_multinomial(self.n, k) * r**k
            terms.append(term)
            if k > 4 and term < 1e-19 * terms[0]:
                break
        return math.fsum(terms)


def _sq_levels(sq: list[float], K: int) -> list[float]:
    """level[k] = sum over |alpha| = k of (k!/alpha!)^2 prod_i sq_i^alpha_i,
    built one variable at a time."""
    level = [sq[0] ** k for k in range(K + 1)]
    for s in sq[1:]:
        level = [
            math.fsum(math.comb(k, j) ** 2 * s**j * level[k - j] for j in range(k + 1))
            for k in range(K + 1)
        ]
    return level


def moebius_terms(w: Weights, fam: Moebius, radii, interpretation: str) -> Terms:
    area = 0.0
    if w.area or w.area_sq or w.extra:
        if interpretation == "slice":
            area = fam.slice_area(radii)
        else:
            area = fam.literal_area(radii)
    return combine(w, fam.sup(radii), fam.a, fam.tail(radii), area)


def moebius_upper_terms(w: Weights, fam: Moebius, radii, interpretation: str) -> Terms:
    """Head and tail at the enclosing diagonal radius max(r) instead of the
    true polyradius: the conservative value the program reports for a
    vector radius at the commit that defined this benchmark."""
    diag = (max(radii),) * len(radii)
    exact = moebius_terms(w, fam, radii, interpretation)
    return combine(w, fam.sup(diag), fam.a, fam.tail(diag), exact.area)


def lemma1c_bound(a0: float, r: float, n: int) -> float:
    if a0 >= r:
        return math.sqrt(n) * r * (1.0 - a0 * a0) / (1.0 - n * a0 * r)
    return math.sqrt(n) * r * math.sqrt(1.0 - a0 * a0) / math.sqrt(1.0 - n * r * r)


# --------------------------------------------------------------------------
# Finite Blaschke products
# --------------------------------------------------------------------------

class Blaschke:
    """prod_j (w_j - z)/(1 - conj(w_j) z), expanded by convolution."""

    def __init__(self, zeros: tuple[complex, ...]):
        self.zeros = tuple(complex(w) for w in zeros)
        self.a0 = abs(math.prod(self.zeros))
        self._coeffs: list[complex] = []

    def coeffs(self, K: int) -> list[complex]:
        if len(self._coeffs) <= K:
            out = [1 + 0j] + [0j] * K
            for w in self.zeros:
                factor = [w] + [(abs(w) ** 2 - 1.0) * w.conjugate() ** (k - 1) for k in range(1, K + 1)]
                out = [
                    sum(out[i] * factor[k - i] for i in range(k + 1)) for k in range(K + 1)
                ]
            self._coeffs = out
        return self._coeffs[: K + 1]

    def _degree(self, r: float) -> int:
        # Coefficients of a unit-bounded function have modulus <= 1.
        K = 8
        while r ** (K + 1) / (1.0 - r) > 1e-18:
            K += 8
        return K

    def tail(self, r: float) -> float:
        b = self.coeffs(self._degree(r))
        return math.fsum(abs(c) * r**k for k, c in enumerate(b) if k)

    def area(self, r: float) -> float:
        b = self.coeffs(self._degree(r))
        return math.fsum(k * abs(c) ** 2 * r ** (2 * k) for k, c in enumerate(b))

    def sampled_sup(self, r: float, samples: int = BLASCHKE_SAMPLES) -> float:
        best = 0.0
        for j in range(samples):
            z = r * cmath.exp(2j * math.pi * j / samples)
            value = 1 + 0j
            for w in self.zeros:
                value *= (w - z) / (1.0 - w.conjugate() * z)
            best = max(best, abs(value))
        return best

    def sup_enclosure(self, r: float) -> tuple[float, float]:
        """[max over the program's sample points, upper bound that a
        certified supremum from at least BLASCHKE_MIN_SAMPLES points obeys]."""
        lo = self.sampled_sup(r)
        lipschitz = sum(
            (1.0 - abs(w) ** 2) / (1.0 - abs(w) * r) ** 2 for w in self.zeros
        )
        return lo, lo + 2.0 * math.pi * r / BLASCHKE_MIN_SAMPLES * lipschitz

    def terms_range(self, w: Weights, r: float) -> tuple[Terms, Terms]:
        """Lower and upper terms of the functional at radius r."""
        lo, hi = self.sup_enclosure(r)
        tail = self.tail(r)
        area = self.area(r) if (w.area or w.area_sq or w.extra) else 0.0
        return combine(w, lo, self.a0, tail, area), combine(w, hi, self.a0, tail, area)
