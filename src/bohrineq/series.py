"""Function families, their slice-first rules, and truncated power series.

Every family is f = g(s) with s = z_1 + ... + z_n:

    psi_a(z)            = (a - z) / (1 - a z)                    (n = 1)
    f_a(z), unit form   = (a - s) / (1 - a s),    s = z_1+...+z_n
    f_a(z), scaled form = (a - s/n) / (1 - a s/n)

together with finite Blaschke products and constants (n = 1).  Each family
class is the one home of its rules: a_0, the slice coefficients b_k of g,
the radius sigma = (r_1 + ... + r_n)/q that the argument u = s/q reaches on
the torus of polyradius r (q = n for the scaled form, else 1), certified
tails, the boundary supremum of |f| and the rational form.  Functionals read
the slice list and sigma; the Moebius-type families give exact closed forms
in (a, sigma), Blaschke products a slice sum to a certified degree.  The
unit form is bounded by one on the polydisk of polyradius 1/n, every other
family on the unit polydisk.

A multi-index series stores the full expansion as a sparse map from
multi-indices to complex coefficients, truncated at a total degree K.  Two
independent expansion routes are provided: ``expand`` uses the multinomial
closed form of the coefficients, ``oracle_expand`` performs formal
power-series division from the numerator/denominator polynomials and never
touches the closed form.  Their coefficientwise agreement is a standing
test obligation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Callable, Iterator, Union

import numpy as np

from .errors import BudgetExceededError, DomainError

#: Hard cap on materialized coefficients for any single expansion.
DEFAULT_COEFF_BUDGET = 500_000

#: Target for certified majorant tails when a truncation degree is chosen
#: automatically, and the hard cap on that degree.
TAIL_TARGET = 1e-13
MAX_TRUNCATION = 200

#: Slack allowed on the boundedness check of the distinguished boundary.
TORUS_SLACK = 1e-9

#: Boundary samples behind the (uncertified) Blaschke supremum of |f|.
BLASCHKE_SUP_SAMPLES = 4096


# --------------------------------------------------------------------------
# Multi-indices
# --------------------------------------------------------------------------

@total_ordering
@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector of one power-series monomial.

    Ordering is graded lexicographic (by total degree, then by the exponent
    tuple), which fixes a canonical iteration order for coefficient maps.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if len(exps) == 0:
            raise DomainError("multi-index needs at least one exponent")
        if any(e < 0 for e in exps):
            raise DomainError(f"negative exponent in multi-index {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def factorial(self) -> int:
        """alpha! = product of the factorials of the exponents."""
        out = 1
        for e in self.exponents:
            out *= math.factorial(e)
        return out

    def multinomial(self) -> int:
        """|alpha|! / alpha!, the number of monomial orderings."""
        return math.factorial(self.degree) // self.factorial()

    def __lt__(self, other: "MultiIndex") -> bool:
        return (self.degree, self.exponents) < (other.degree, other.exponents)


def multi_indices(n: int, degree: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given dimension and exact total degree,
    in graded-lexicographic order."""
    for exps in _compositions(n, degree):
        yield MultiIndex(exps)


def _compositions(n: int, total: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            yield (first,) + rest


def coefficient_count(n: int, max_degree: int) -> int:
    """Number of multi-indices with degree <= max_degree in n variables."""
    return math.comb(max_degree + n, n)


# --------------------------------------------------------------------------
# Function families
# --------------------------------------------------------------------------

def truncation(tail: Callable[[int], float], first: int = 0) -> int:
    """Smallest K in [first, MAX_TRUNCATION] with tail(K) < TAIL_TARGET,
    else MAX_TRUNCATION."""
    return next(
        (K for K in range(first, MAX_TRUNCATION + 1) if tail(K) < TAIL_TARGET),
        MAX_TRUNCATION,
    )


class _Family:
    """The rules every family provides, in terms of its slice.

    A family is f = g(s) with s = z_1 + ... + z_n, and g(s) = sum_k b_k s^k
    (``slice``).  On the torus of polyradius r the argument u = s/q reaches
    the radius sigma = sum(r_i)/q (``sigma``), and every functional is a
    function of the slice and sigma.  With c_k = b_k q^k the coefficients
    of u, each family provides the certified tails

        majorant_tail(K, sigma) >= sum_{k>K} |c_k| sigma^k
        sq_tail(K, sigma)       >= sum_{k>K} k |c_k|^2 sigma^(2k)
        sq_mass_tail(K, t)      >= sum_{k>K} |c_k|^2 t^k

    plus ``a0``, ``value``, ``boundary_sup`` and ``rational_form``.
    ``closed`` marks families whose majorant and area are exact closed forms;
    the slice sums below serve the one-variable families (n = q = 1).
    """

    q = 1
    cap = 1.0
    closed = True

    def sigma(self, radii: tuple[float, ...]) -> float:
        """sum(radii)/q; a diagonal (or single) radius r gives (n/q) r exactly."""
        if all(r == radii[0] for r in radii):
            return self.n // self.q * radii[0]
        return math.fsum(radii) / self.q

    def majorant(self, sigma: float, K: int | None = None) -> float:
        """sum_{k>=1} |c_k| sigma^k: slice partial sum plus certified tail."""
        K = K if K is not None else self._degree(sigma)
        b = self.slice(K)
        partial = math.fsum(abs(b[k]) * sigma**k for k in range(1, K + 1))
        return partial + self.majorant_tail(K, sigma)

    def area(self, sigma: float) -> float:
        """sum_{k>=1} k |c_k|^2 sigma^(2k): slice partial sum plus certified tail."""
        K = self._degree(sigma)
        b = self.slice(K)
        partial = math.fsum(k * (abs(b[k]) ** 2 * (sigma**k) ** 2) for k in range(1, K + 1))
        return partial + self.sq_tail(K, sigma)

    def sq_masses(self, K: int) -> list[float]:
        """m2(k) = sum_{|alpha| = k} |a_alpha|^2 for k = 0..K."""
        return [abs(c) ** 2 for c in self.slice(K)]

    def _degree(self, sigma: float) -> int:
        return truncation(lambda K: self.majorant_tail(K, sigma))


@dataclass(frozen=True)
class _MoebiusType(_Family):
    """(a - u)/(1 - a u) with u = s/q: every term is a closed form in (a, sigma)."""

    a: float

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise DomainError(f"family parameter a={self.a} outside [0, 1)")
        if self.n < 1:
            raise DomainError("dimension n must be >= 1")

    @property
    def a0(self) -> complex:
        return complex(self.a)

    def value(self, z: tuple[complex, ...]) -> complex:
        u = sum(z) / self.q
        return (self.a - u) / (1.0 - self.a * u)

    def slice(self, K: int) -> list[complex]:
        a = self.a
        return [complex(a)] + [
            complex(-(1.0 - a * a) * a ** (k - 1) / self.q**k) for k in range(1, K + 1)
        ]

    def majorant_tail(self, K: int, sigma: float) -> float:
        a = self.a
        # a**K with a = K = 0 correctly yields the full k >= 1 tail.
        return (1.0 - a * a) * a**K * sigma ** (K + 1) / (1.0 - a * sigma)

    def sq_tail(self, K: int, sigma: float) -> float:
        a = self.a
        y = (a * sigma) ** 2
        one = 1.0 - a * a
        return one * one * sigma * sigma * y**K * ((K + 1) - K * y) / (1.0 - y) ** 2

    def sq_mass_tail(self, K: int, t: float) -> float:
        a = self.a
        return (1.0 - a * a) ** 2 * a ** (2 * K) * t ** (K + 1) / (1.0 - a * a * t)

    def boundary_sup(self, sigma: float) -> tuple[float, bool]:
        return (self.a + sigma) / (1.0 + self.a * sigma), True

    def majorant(self, sigma: float, K: int | None = None) -> float:
        return self.majorant_tail(0, sigma)

    def area(self, sigma: float) -> float:
        one = 1.0 - self.a * self.a
        return sigma * sigma * one * one / (1.0 - self.a * self.a * sigma * sigma) ** 2

    def literal_area(self, sigma: float) -> float:
        """Literal multi-index area at a diagonal polyradius: the slice terms
        reweighted by the multinomial ratio, plus the slice tail."""
        a = self.a
        one_sq = (1.0 - a * a) ** 2
        K = truncation(lambda k: self.sq_tail(k, sigma), first=1)
        terms = [
            k * one_sq * a ** (2 * k - 2) * sigma ** (2 * k) * multinomial_sq_ratio(self.n, k)
            for k in range(1, K + 1)
        ]
        return math.fsum(terms) + self.sq_tail(K, sigma)

    def sq_masses(self, K: int) -> list[float]:
        # Degree-k masses of u-coefficients; equal to m2(k) when q = n.
        a = self.a
        one_sq = (1.0 - a * a) ** 2
        return [a * a] + [
            one_sq * a ** (2 * k - 2) * multinomial_sq_ratio(self.n, k) for k in range(1, K + 1)
        ]

    def rational_form(self) -> tuple[dict, dict]:
        n = self.n
        a = complex(self.a)
        num = {(0,) * n: a}
        den = {(0,) * n: 1.0 + 0j}
        for i in range(n):
            unit = tuple(1 if j == i else 0 for j in range(n))
            num[unit] = -1.0 / self.q
            den[unit] = -a / self.q
        return num, den


@dataclass(frozen=True)
class MoebiusDisk(_MoebiusType):
    """psi_a(z) = (a - z)/(1 - a z) on the unit disk, a in [0, 1)."""

    n = 1


@dataclass(frozen=True)
class ExtremalPolydiskUnit(_MoebiusType):
    """f_a(z) = (a - s)/(1 - a s) with s = z_1 + ... + z_n.

    Natural domain is the polydisk of polyradius 1/n, where |s| < 1.
    """

    n: int

    @property
    def cap(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True)
class ExtremalPolydiskScaled(_MoebiusType):
    """f_a(z) = (a - s/n)/(1 - a s/n); bounded by one on the unit polydisk."""

    n: int

    @property
    def q(self) -> int:
        return self.n


@dataclass(frozen=True)
class FiniteBlaschke(_Family):
    """Product of disk automorphism factors (w_j - z)/(1 - conj(w_j) z), n = 1."""

    zeros: tuple[complex, ...]
    n = 1
    closed = False

    def __post_init__(self):
        zs = tuple(complex(w) for w in self.zeros)
        if not zs:
            raise DomainError("Blaschke product needs at least one zero")
        if not all(abs(w) < 1.0 for w in zs):
            raise DomainError("Blaschke zeros must be finite with modulus < 1")
        object.__setattr__(self, "zeros", zs)

    @property
    def a0(self) -> complex:
        out = complex(1.0)
        for w in self.zeros:
            out *= w
        return out

    def value(self, z: tuple[complex, ...]) -> complex:
        out = complex(1.0)
        for w in self.zeros:
            out *= (w - z[0]) / (1.0 - w.conjugate() * z[0])
        return out

    def slice(self, K: int) -> list[complex]:
        out = [complex(1.0)]
        for w in self.zeros:
            out = _conv1d(out, _blaschke_factor(w, K), K)
        return out

    def majorant_tail(self, K: int, sigma: float) -> float:
        # Coefficients of a unit-bounded disk function have modulus <= 1.
        if sigma >= 1.0:
            raise DomainError("Blaschke tail bound needs radius < 1")
        return sigma ** (K + 1) / (1.0 - sigma)

    def sq_tail(self, K: int, sigma: float) -> float:
        y = sigma * sigma
        return y ** (K + 1) * ((K + 1) - K * y) / (1.0 - y) ** 2

    def sq_mass_tail(self, K: int, t: float) -> float:
        return t ** (K + 1) / (1.0 - t)

    def boundary_sup(self, sigma: float) -> tuple[float, bool]:
        # Sampled sup: a lower estimate of the true boundary supremum.
        theta = 2.0 * np.pi * np.arange(BLASCHKE_SUP_SAMPLES) / BLASCHKE_SUP_SAMPLES
        z = sigma * np.exp(1j * theta)
        vals = np.ones_like(z)
        for w in self.zeros:
            vals = vals * (w - z) / (1.0 - np.conjugate(w) * z)
        return float(np.max(np.abs(vals))), False

    def rational_form(self) -> tuple[dict, dict]:
        num: dict[tuple[int, ...], complex] = {(0,): 1.0 + 0j}
        den: dict[tuple[int, ...], complex] = {(0,): 1.0 + 0j}
        for w in self.zeros:
            num = _poly_mul(num, {(0,): w, (1,): -1.0 + 0j}, len(self.zeros))
            den = _poly_mul(den, {(0,): 1.0 + 0j, (1,): -w.conjugate()}, len(self.zeros))
        return num, den


@dataclass(frozen=True)
class ConstantFn(_Family):
    """Constant function z -> c with |c| <= 1."""

    c: complex
    n = 1

    def __post_init__(self):
        cc = complex(self.c)
        if not abs(cc) <= 1.0:
            raise DomainError(f"constant modulus {abs(cc)} is not a finite value <= 1")
        object.__setattr__(self, "c", cc)

    @property
    def a0(self) -> complex:
        return self.c

    def value(self, z: tuple[complex, ...]) -> complex:
        return self.c

    def slice(self, K: int) -> list[complex]:
        return [self.c] + [0j] * K

    def majorant_tail(self, K: int, sigma: float) -> float:
        return 0.0

    sq_tail = sq_mass_tail = majorant_tail

    def boundary_sup(self, sigma: float) -> tuple[float, bool]:
        return abs(self.c), True

    def rational_form(self) -> tuple[dict, dict]:
        return ({(0,): self.c} if self.c != 0 else {}), {(0,): 1.0 + 0j}


FamilySpec = Union[
    MoebiusDisk, ExtremalPolydiskUnit, ExtremalPolydiskScaled, FiniteBlaschke, ConstantFn
]


def dimension(family: FamilySpec) -> int:
    return family.n


def domain_radius_cap(family: FamilySpec) -> float:
    """Polyradius below which the family is defined and bounded by one."""
    return family.cap


def constant_term(family: FamilySpec) -> complex:
    """Value at the origin, the a_0 of the expansion."""
    return family.a0


def family_value(family: FamilySpec, z: tuple[complex, ...]) -> complex:
    """Exact rational evaluation at a point of the open domain."""
    if len(z) != family.n:
        raise DomainError(f"point has {len(z)} coordinates, family has dimension {family.n}")
    if any(abs(zi) >= family.cap for zi in z):
        raise DomainError(f"point outside the open polydisk of radius {family.cap}")
    return family.value(z)


@lru_cache(maxsize=None)
def _sq_multinomial_sum(n: int, k: int) -> int:
    """sum over |alpha| = k in n variables of (k!/alpha!)^2, exactly."""
    if n == 1 or k == 0:
        return 1
    return sum(
        math.comb(k, j) ** 2 * _sq_multinomial_sum(n - 1, k - j) for j in range(k + 1)
    )


@lru_cache(maxsize=None)
def multinomial_sq_ratio(n: int, k: int) -> float:
    """sum_{|alpha|=k} (k!/alpha!)^2 / n^(2k): the degree-k ratio between the
    literal and slice square sums.  Equals 1 iff n = 1 or k <= 0."""
    if n == 1:
        return 1.0
    return _sq_multinomial_sum(n, k) / n ** (2 * k)


# --------------------------------------------------------------------------
# Diagonal slice coefficients
# --------------------------------------------------------------------------

def slice_coefficients(family: FamilySpec, K: int) -> list[complex]:
    """Coefficients b_0..b_K of the univariate series in s = z_1 + ... + z_n.

    For Moebius-type families b_0 = a and b_k = -(1 - a^2) a^(k-1), scaled
    additionally by n^-k for the scaled family.  A Blaschke product (n = 1)
    returns its own Taylor coefficients; a constant returns (c, 0, ..., 0).
    """
    if K < 0:
        raise DomainError("truncation degree must be >= 0")
    return family.slice(K)


# --------------------------------------------------------------------------
# Coefficient series
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSeries:
    """Sparse truncated power series: coefficients of degree <= truncation.

    Instances are immutable after construction; the coefficient map must be
    treated as read-only.  ``source`` records the generating family when the
    series came from an expansion, which is what enables certified tail
    bounds; hand-built series carry no certificate.
    """

    n: int
    truncation: int
    coeffs: dict[MultiIndex, complex]
    source: FamilySpec | None = None

    def __post_init__(self):
        for idx in self.coeffs:
            if idx.dimension != self.n:
                raise DomainError(f"key {idx.exponents} has wrong dimension")
            if idx.degree > self.truncation:
                raise DomainError(f"key {idx.exponents} exceeds truncation degree")

    def coefficient(self, idx: MultiIndex) -> complex:
        return self.coeffs.get(idx, 0j)

    def constant_term(self) -> complex:
        return self.coeffs.get(MultiIndex((0,) * self.n), 0j)

    def sorted_items(self) -> list[tuple[MultiIndex, complex]]:
        """Canonical (graded-lexicographic) iteration order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def degree_slice(self, k: int) -> dict[MultiIndex, complex]:
        return {idx: c for idx, c in self.coeffs.items() if idx.degree == k}

    def homogeneous_abs_sum(self, k: int, radii: tuple[float, ...]) -> float:
        """sum over |alpha| = k of |a_alpha| * r^alpha."""
        self._check_radii(radii)
        terms = [
            abs(c) * _monomial(radii, idx.exponents)
            for idx, c in sorted(self.degree_slice(k).items())
        ]
        return math.fsum(terms)

    def homogeneous_sq_sum(self, k: int, radii: tuple[float, ...]) -> float:
        """sum over |alpha| = k of |a_alpha|^2 * r^(2 alpha)."""
        self._check_radii(radii)
        terms = [
            abs(c) ** 2 * _monomial(radii, idx.exponents) ** 2
            for idx, c in sorted(self.degree_slice(k).items())
        ]
        return math.fsum(terms)

    def majorant_tail_bound(self, bold_r: float) -> float | None:
        """Upper bound on sum_{|alpha| > K} |a_alpha| r^alpha at diagonal
        radius bold_r, or None when the series carries no certificate."""
        return majorant_tail_bound(self.source, self.truncation, bold_r)

    def _check_radii(self, radii: tuple[float, ...]) -> None:
        if len(radii) != self.n:
            raise DomainError(f"radius vector has length {len(radii)}, expected {self.n}")
        if any(r < 0 for r in radii):
            raise DomainError("radii must be nonnegative")


def _monomial(radii: tuple[float, ...], exps: tuple[int, ...]) -> float:
    out = 1.0
    for r, e in zip(radii, exps):
        if e:
            out *= r**e
    return out


def majorant_tail_bound(family: FamilySpec | None, K: int, bold_r: float) -> float | None:
    """Exact geometric bound on the degree > K majorant tail at diagonal
    radius bold_r.  None for inputs without a closed-form certificate."""
    if family is None:
        return None
    return family.majorant_tail(K, _diagonal_sigma(family, bold_r))


def default_truncation(family: FamilySpec, bold_r: float) -> int:
    """Smallest K whose certified majorant tail at bold_r is < TAIL_TARGET."""
    sigma = _diagonal_sigma(family, bold_r)
    return truncation(lambda K: family.majorant_tail(K, sigma))


def _diagonal_sigma(family: FamilySpec, bold_r: float) -> float:
    if not 0.0 <= bold_r <= family.cap:
        raise DomainError(f"radius {bold_r} outside the closed domain of the family")
    return family.sigma((bold_r,))


# --------------------------------------------------------------------------
# Closed-form expansion
# --------------------------------------------------------------------------

def expand(
    family: FamilySpec, K: int, budget: int = DEFAULT_COEFF_BUDGET
) -> CoefficientSeries:
    """All coefficients of degree <= K from the multinomial closed form:
    the coefficient at alpha is b_|alpha| * |alpha|!/alpha! with b_k the
    slice coefficient; zeros are not stored."""
    if K < 0:
        raise DomainError("truncation degree must be >= 0")
    _check_budget(family.n, K, budget)
    coeffs: dict[MultiIndex, complex] = {}
    for k, bk in enumerate(family.slice(K)):
        if bk != 0:
            for idx in multi_indices(family.n, k):
                coeffs[idx] = bk * idx.multinomial()
    return CoefficientSeries(family.n, K, coeffs, source=family)


def _blaschke_factor(w: complex, K: int) -> list[complex]:
    """(w - z)/(1 - conj(w) z) = w + (|w|^2 - 1) sum_k conj(w)^(k-1) z^k."""
    out = [w]
    lead = abs(w) ** 2 - 1.0
    for k in range(1, K + 1):
        out.append(lead * w.conjugate() ** (k - 1))
    return out


def _conv1d(p: list[complex], q: list[complex], K: int) -> list[complex]:
    out = [0j] * (K + 1)
    for i, pi in enumerate(p[: K + 1]):
        if pi == 0:
            continue
        for j, qj in enumerate(q[: K + 1 - i]):
            out[i + j] += pi * qj
    return out


def _check_budget(n: int, K: int, budget: int) -> None:
    if coefficient_count(n, K) > budget:
        raise BudgetExceededError(
            f"expansion would hold {coefficient_count(n, K)} coefficients, "
            f"budget is {budget}"
        )


# --------------------------------------------------------------------------
# Brute-force oracle: formal power-series division
# --------------------------------------------------------------------------

def oracle_expand(
    family: FamilySpec, K: int, budget: int = DEFAULT_COEFF_BUDGET
) -> CoefficientSeries:
    """Coefficients of degree <= K via N * (1/D) computed by formal division.

    Independent of the multinomial closed form in :func:`expand`; both the
    series inverse and the products run on exponent-tuple dictionaries with
    deterministic fsum accumulation.
    """
    if K < 0:
        raise DomainError("truncation degree must be >= 0")
    n = family.n
    _check_budget(n, K, budget)
    numerator, denominator = family.rational_form()
    inverse = _series_inverse(denominator, n, K)
    product = _poly_mul(numerator, inverse, K)
    coeffs = {
        MultiIndex(exps): value
        for exps, value in product.items()
        if value != 0
    }
    return CoefficientSeries(n, K, coeffs, source=family)


def _poly_mul(
    p: dict[tuple[int, ...], complex],
    q: dict[tuple[int, ...], complex],
    K: int,
) -> dict[tuple[int, ...], complex]:
    buckets: dict[tuple[int, ...], list[complex]] = {}
    for ep, cp in p.items():
        dp = sum(ep)
        for eq, cq in q.items():
            if dp + sum(eq) > K:
                continue
            key = tuple(x + y for x, y in zip(ep, eq))
            buckets.setdefault(key, []).append(cp * cq)
    return {key: _fsum_complex(vals) for key, vals in sorted(buckets.items())}


def _series_inverse(
    d: dict[tuple[int, ...], complex], n: int, K: int
) -> dict[tuple[int, ...], complex]:
    zero = (0,) * n
    d0 = d.get(zero, 0j)
    if d0 == 0:
        raise DomainError("denominator vanishes at the origin; series inverse undefined")
    by_degree: dict[int, dict[tuple[int, ...], complex]] = {}
    for exps, c in d.items():
        by_degree.setdefault(sum(exps), {})[exps] = c
    inv: dict[tuple[int, ...], complex] = {zero: 1.0 / d0}
    inv_by_degree: dict[int, dict[tuple[int, ...], complex]] = {0: {zero: 1.0 / d0}}
    for k in range(1, K + 1):
        buckets: dict[tuple[int, ...], list[complex]] = {}
        for j, dj in by_degree.items():
            if j == 0 or j > k:
                continue
            lower = inv_by_degree.get(k - j, {})
            for ed, cd in dj.items():
                for eu, cu in lower.items():
                    key = tuple(x + y for x, y in zip(ed, eu))
                    buckets.setdefault(key, []).append(cd * cu)
        level = {
            key: -_fsum_complex(vals) / d0 for key, vals in sorted(buckets.items())
        }
        inv_by_degree[k] = level
        inv.update(level)
    return inv


def _fsum_complex(values: list[complex]) -> complex:
    return complex(
        math.fsum(v.real for v in values), math.fsum(v.imag for v in values)
    )


# --------------------------------------------------------------------------
# Distinguished-boundary boundedness check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusBoundReport:
    """Result of sampling |truncated series| on the torus {|z_i| = r}."""

    sup_modulus: float
    witness: tuple[complex, ...]
    tail_bound: float | None
    certified: bool
    ok: bool


def torus_bound_check(
    series: CoefficientSeries,
    radius_cap: float,
    samples_per_axis: int = 16,
) -> TorusBoundReport:
    """Maximum of the truncated series modulus over the sampled torus
    {|z_i| = radius_cap}, plus the tail certificate when one exists.

    ``ok`` is set only on certified reports with sup + tail <= 1 + 1e-9;
    a series without a tail certificate is never silently certified.
    """
    if samples_per_axis < 8:
        raise DomainError("need at least 8 samples per axis")
    if radius_cap < 0:
        raise DomainError("radius must be nonnegative")
    if series.source is not None and radius_cap > domain_radius_cap(series.source):
        raise DomainError("radius exceeds the domain cap of the generating family")
    values, points = _torus_values(series, radius_cap, samples_per_axis)
    arg = int(np.argmax(np.abs(values)))
    sup = float(abs(values[arg]))
    tail = series.majorant_tail_bound(radius_cap)
    certified = tail is not None
    ok = certified and sup + tail <= 1.0 + TORUS_SLACK
    return TorusBoundReport(
        sup_modulus=sup,
        witness=tuple(points[arg]),
        tail_bound=tail,
        certified=certified,
        ok=ok,
    )


def _torus_values(
    series: CoefficientSeries, radius: float, m: int
) -> tuple[np.ndarray, np.ndarray]:
    n = series.n
    theta = 2.0 * np.pi * np.arange(m) / m
    axis = radius * np.exp(1j * theta)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)  # (P, n)
    items = series.sorted_items()
    if not items:
        return np.zeros(points.shape[0], dtype=complex), points
    K = series.truncation
    powers = [np.power.outer(points[:, i], np.arange(K + 1)) for i in range(n)]
    exps = np.array([idx.exponents for idx, _ in items], dtype=int)
    vals = np.array([c for _, c in items], dtype=complex)
    total = np.zeros(points.shape[0], dtype=complex)
    block = 256
    for start in range(0, len(items), block):
        stop = min(start + block, len(items))
        term = vals[start:stop, None] * powers[0][:, exps[start:stop, 0]].T
        for i in range(1, n):
            term = term * powers[i][:, exps[start:stop, i]].T
        total += term.sum(axis=0)
    return total, points
