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
the slice list and sigma.  A Moebius-type class writes each closed form
once, as a column rule over a grid of a (``sup_grid``, ``majorant_tail_grid``,
``area_grid``, ``literal_area_grid``) that its methods read at (a,), except
``total_grid``: it writes the first three again, inline, to sum a scan's
slice total in one pass.  Blaschke products sum a slice to a certified
degree; the literal area weights slice terms (``slice_term_grid``) by W_k
(``_degree_weights``) up to degrees of (a, sigma) alone, which
``degree_grid`` searches once for every n.  The unit form is bounded by one
on the polydisk of polyradius 1/n, every other family on the unit polydisk.

Every certified degree comes from one search, ``truncation``: given a tail
rule K -> tail(K) it returns the smallest K whose tail is below
``TAIL_TARGET``, with that tail.  The majorant, the area, the literal area
and the lemma square sums all pick their K there.  From a starting degree
(``degree_grid`` passes the K of the previous a, a Blaschke product the
closed-form degree of its tail) the search walks
down, or scans 16 degrees up and bisects above them; that finds the same K
because every tail rule decreases in K.

A multi-index series is a sparse map from exponent tuples to complex
coefficients, truncated at a total degree K.  Two independent expansion
routes are provided: ``expand`` uses the multinomial closed form of the
coefficients, ``oracle_expand`` performs formal power-series division from
the numerator/denominator polynomials and never touches the closed form:
two passes, the series inverse of the denominator level by level, then its
product with the numerator, on exponent tuples coded as integers (they
add and sort as the tuples do).  Their coefficientwise agreement is a
standing test obligation.

``expand`` is slice-backed: its series keeps b_0..b_K and builds the map on
demand (lookups and ``len`` read the slice, full iteration builds the map
once).  The torus check has one sampler: it sums sum_k b_k s^k on the
circle |s| = n r, which holds the torus supremum by the maximum principle,
and it refuses a dictionary series.  The coefficient budget is checked
where a whole map is built: by ``oracle_expand`` up front, and by a
slice-backed map when it is first iterated.  Blaschke slices take one
ascending O(K) pass per zero and are prefix-stable: the longest slice
built of the product read last serves every shorter one, so one operation
builds one slice.
The supremum of |B| on a circle is a certified enclosure (``_blaschke_sup``),
cached per (zeros, sigma); ``FiniteBlaschke`` says what keys both caches.

The module is pure Python: it needs nothing beyond the standard library.
"""

from __future__ import annotations

import bisect
import cmath
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, repeat
from numbers import Rational
from typing import Callable, Iterator, NamedTuple, Union

from .errors import BudgetExceededError, DomainError

#: Hard cap on the multi-index coefficients one map may build: checked by
#: ``oracle_expand`` up front and by a slice-backed map when it is iterated.
DEFAULT_COEFF_BUDGET = 500_000

#: Target for certified majorant tails when a truncation degree is chosen
#: automatically, and the hard cap on that degree.
TAIL_TARGET = 1e-13
MAX_TRUNCATION = 200

#: Slack allowed on the boundedness check of the distinguished boundary.
TORUS_SLACK = 1e-9


def _integer(value, what: str, least: int) -> int:
    """value as an int; anything but an integer >= least is a domain error."""
    try:
        number = operator.index(value)
        if number >= least:
            return number
    except TypeError:
        pass
    raise DomainError(f"{what} must be an integer >= {least}, not {value!r}")


def _real(value, what: str):
    """A float or a rational (int, Fraction) as it is, another real (a Decimal) as a float."""
    try:
        if isinstance(value, (float, Rational)):
            return value
        if isinstance(value, (str, bytes, bytearray)):
            raise TypeError  # float() would parse it
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a real number, not {value!r}") from None


def _numbers(values, what: str, read: Callable = float) -> tuple:
    """tuple(map(read, values)); a value that read refuses, or values that
    are not iterable or are a string (read character by character, "00"
    would be two zeros), is a domain error that names the input."""
    try:
        if isinstance(values, (str, bytes, bytearray)):
            raise TypeError
        return tuple(map(read, values))
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be numbers, not {values!r}") from None


# --------------------------------------------------------------------------
# Multi-indices: exponent tuples
# --------------------------------------------------------------------------

def _exponents(key, n: int) -> tuple[int, ...]:
    """A coefficient key as n int exponents >= 0, else a domain error; bools
    and numpy integers pass, floats and strings do not (operator.index)."""
    try:
        exps = tuple(map(operator.index, key)) if isinstance(key, tuple) else ()
    except TypeError:
        exps = ()
    if not exps or len(exps) != n or min(exps) < 0:
        raise DomainError(f"key {key!r} is not a tuple of {n} integer exponents >= 0")
    return exps


def _multinomial(exps: tuple[int, ...]) -> int:
    """|alpha|!/alpha!, the number of orderings of the monomial z^alpha."""
    return math.factorial(sum(exps)) // math.prod(map(math.factorial, exps))


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

#: Degrees ``truncation`` scans one by one before it bisects: a bisection
#: over [first, MAX_TRUNCATION] costs about 8 tail calls plus call overhead,
#: more than the scan when K is small, as at the Moebius literal-area
#: thresholds (K <= 12).
_LINEAR_DEGREES = 16


def truncation(
    tail: Callable[[int], float], first: int = 0, start: int | None = None
) -> tuple[int, float]:
    """(K, tail(K)) for the smallest K in [first, MAX_TRUNCATION] with
    tail(K) < TAIL_TARGET, else for K = MAX_TRUNCATION.

    From degree ``start`` (default: first), say the K of a neighbouring
    parameter, the search walks down while tail(K - 1) is below the target,
    or else scans 16 degrees up and bisects above them (about 9 tail calls,
    not up to 185).  That is exact because every tail rule of the package
    decreases in K, so tail(K) < TAIL_TARGET holds on a final run of
    degrees: a geometric tail c x^(K+1)/(1 - x) has ratio x < 1 from K to
    K + 1 (the Moebius majorant tail x = a sigma, the Moebius
    ``sq_mass_tail`` a^2 t), the square-tail form y^K ((K+1) - K y) the
    ratio y (K+2 - (K+1) y)/(K+1 - K y) < 1, since (K+1)(1 - y)^2 > 0,
    each Blaschke tail is the smaller of two such tails, and a
    constant's tail is 0.  Where a tail crosses
    TAIL_TARGET its ratio is far from 1, so rounding cannot reorder the
    computed values there."""
    K = first if start is None else min(max(start, first), MAX_TRUNCATION)
    value = tail(K)
    if value < TAIL_TARGET:
        while K > first and (below := tail(K - 1)) < TAIL_TARGET:
            K, value = K - 1, below
        return K, value
    for K in range(K + 1, min(K + _LINEAR_DEGREES, MAX_TRUNCATION + 1)):
        value = tail(K)
        if value < TAIL_TARGET:
            return K, value
    # Along falling K the tail rises: bisect_left counts the degrees, from
    # MAX_TRUNCATION down to the last one scanned, whose tail is below the target.
    degrees = range(MAX_TRUNCATION, K - 1, -1)
    below = bisect.bisect_left(degrees, TAIL_TARGET, key=tail)
    K = degrees[max(below - 1, 0)]
    return K, tail(K)


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

    plus ``a0``, ``value``, ``rational_form`` and ``boundary_sup``, the bound
    on sup |f| on the torus: a closed form, or a certified enclosure's upper end.
    ``closed`` marks families whose majorant and area are exact closed forms;
    the slice sums below serve the one-variable families (n = q = 1).
    """

    q = 1
    cap = 1.0
    closed = True

    def sigma(self, radii: tuple[float, ...]) -> float:
        """sum(radii)/q; a diagonal (or single) radius r gives (n/q) r exactly."""
        if _is_diagonal(radii):
            return self.n // self.q * radii[0]
        return math.fsum(radii) / self.q

    def _degree(self, sigma: float) -> tuple[int, float]:
        """(K, majorant_tail(K, sigma)) of ``truncation``: the degree that the
        majorant and the area share, and so one slice build."""
        return truncation(lambda k: self.majorant_tail(k, sigma))

    def majorant(self, sigma: float) -> float:
        """sum_{k>=1} |c_k| sigma^k: slice partial sum plus certified tail."""
        K, tail = self._degree(sigma)
        b = self.slice(K)
        partial = math.fsum(abs(b[k]) * sigma**k for k in range(1, K + 1))
        return partial + tail

    def area(self, sigma: float) -> float:
        """sum_{k>=1} k |c_k|^2 sigma^(2k): slice partial sum plus certified tail."""
        K = self._degree(sigma)[0]
        b = self.slice(K)
        partial = math.fsum(k * (abs(b[k]) ** 2 * (sigma**k) ** 2) for k in range(1, K + 1))
        return partial + self.sq_tail(K, sigma)

    def sq_masses(self, K: int) -> list[float]:
        """m2(k) = sum_{|alpha| = k} |a_alpha|^2 for k = 0..K."""
        return [abs(c) ** 2 for c in self.slice(K)]


@dataclass(frozen=True)
class _MoebiusType(_Family):
    """(a - u)/(1 - a u) with u = s/q: every term is a closed form in (a, sigma),
    a column rule over a grid of a that the methods read at (self.a,), the
    kernel of ``functionals`` at a grid, and ``total_grid`` sums in one pass."""

    a: float

    def __post_init__(self):
        try:
            a = _real(self.a, "a")
        except DomainError:  # not a real number
            a = math.nan
        if not 0.0 <= a < 1.0:
            raise DomainError(f"family parameter a={self.a!r} outside [0, 1)")
        object.__setattr__(self, "a", a)
        n = _integer(self.n, "dimension n", 1)
        if n is not self.n:  # an integer of another type, stored as int
            object.__setattr__(self, "n", n)

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
        return self.majorant_tail_grid((self.a,), K, sigma)[0]

    def sq_tail(self, K: int, sigma: float) -> float:
        return _sq_tail_rule(self.a, sigma)(K)

    def sq_mass_tail(self, K: int, t: float) -> float:
        a = self.a
        return (1.0 - a * a) ** 2 * a ** (2 * K) * t ** (K + 1) / (1.0 - a * a * t)

    def boundary_sup(self, sigma: float) -> float:
        return self.sup_grid((self.a,), sigma)[0]

    def majorant(self, sigma: float) -> float:
        return self.majorant_tail_grid((self.a,), 0, sigma)[0]

    def area(self, sigma: float) -> float:
        return self.area_grid((self.a,), sigma)[0]

    def literal_area(self, sigma: float, radii: tuple[float, ...]) -> float:
        degrees = self.degree_grid((self.a,), sigma)
        terms = self.slice_term_grid((self.a,), sigma, degrees)
        return self.literal_area_grid(terms, degrees, radii, self.n)[0]

    @staticmethod
    def sup_grid(avals, sigma: float) -> list[float]:
        """sup |f| on the torus, for every a of avals."""
        # The column rules hold no float literal, so exact inputs give exact
        # columns.  The rules a scan runs over its grid take their 1 in
        # sigma's type: float-only arithmetic runs faster than int-float.
        unit = type(sigma)(1)
        return [(a + sigma) / (unit + a * sigma) for a in avals]

    @staticmethod
    def majorant_tail_grid(avals, K: int, sigma: float) -> list[float]:
        """sum_{k>K} |c_k| sigma^k, for every a of avals."""
        # At K = 0 (the majorant) a**K is 1.0, skipped as x * 1.0 == x.
        power, unit = sigma ** (K + 1), type(sigma)(1)
        if K == 0:
            return [(unit - a * a) * power / (unit - a * sigma) for a in avals]
        return [(unit - a * a) * a**K * power / (unit - a * sigma) for a in avals]

    @staticmethod
    def area_grid(avals, sigma: float) -> list[float]:
        """sum_{k>=1} k |c_k|^2 sigma^(2k), for every a of avals."""
        ss, unit = sigma * sigma, type(sigma)(1)
        # ``** 2`` calls the libm pow, one ulp off d * d at near-ties: the golden bits rest on it.
        return [
            ss * (c1 := unit - (aa := a * a)) * c1 / (unit - aa * sigma * sigma) ** 2 for a in avals
        ]

    @staticmethod
    def total_grid(avals, sigma: float, head: int, weights) -> list[float]:
        """The total head + tail + w A + w_q A^2 + w_x A of ``functionals``'
        slice core for every a of avals, summed left to right in one pass, with
        the head |a_0| = |a| (head 0), sup |f| (1) or its square (2)."""
        (w, w_q, w_x), one, ss = weights, type(sigma)(1), sigma * sigma
        a0, sq = head == 0, head == 2
        return [(abs(a) if a0 else (x := (a + sigma) / (one + a * sigma)) * (x if sq else one))
                + (c1 := one - (aa := a * a)) * sigma / (one - a * sigma)
                + w * (A := ss * c1 * c1 / (one - aa * sigma * sigma) ** 2) + w_q * A * A
                + w_x * A for a in avals]

    @staticmethod
    def degree_grid(avals, sigma: float) -> list[tuple[int, float]]:
        """(K, tail) of ``truncation`` on the ``_sq_tail_rule`` of every a of
        avals, from the K of the a before it: the literal-area degrees, of
        (a, sigma) alone.  A sorted grid takes two or three tail reads per a."""
        last = (None,)
        return [last := truncation(_sq_tail_rule(a, sigma), 1, last[0]) for a in avals]

    @staticmethod
    def slice_term_grid(avals, sigma: float, degrees: list[tuple[int, float]]) -> list[list[float]]:
        """k |c_k|^2 sigma^(2k) for k <= K, for every a of avals whose
        ``degree_grid`` at sigma is degrees: the same for every n."""
        powers = list(map(pow, repeat(sigma), range(0, 2 * max(degrees, default=(0,))[0] + 1, 2)))
        return [
            [k * one_sq * a ** (2 * k - 2) * powers[k] for k in range(1, K + 1)]
            for a, one_sq, (K, _) in zip(avals, [(1 - a * a) ** 2 for a in avals], degrees)
        ]

    @staticmethod
    def literal_area_grid(terms, degrees, radii: tuple[float, ...], n: int) -> list[float]:
        """Literal area at polyradius radii in dimension n: each row of
        ``slice_term_grid`` terms times the degree weights W_k, plus its slice
        tail from the ``degree_grid`` degrees, a certificate as W_k <= 1."""
        K = max(degrees, default=(0,))[0]
        if _is_diagonal(radii):
            W = list(map(multinomial_sq_ratio, repeat(n), range(1, K + 1)))
        else:
            W = _degree_weights(radii, K)[1:]
        return [
            math.fsum(map(operator.mul, row, W)) + tail for row, (_, tail) in zip(terms, degrees)
        ]

    def sq_masses(self, K: int) -> list[float]:
        # Degree-k masses of u-coefficients; equal to m2(k) when q = n.
        a = self.a
        one_sq = (1 - a * a) ** 2
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


def _weighted_geometric(K: int, y: float) -> float:
    """sum_{k>K} k y^k for 0 <= y < 1."""
    return y ** (K + 1) * ((K + 1) - K * y) / (1.0 - y) ** 2


def _sq_tail_rule(a: float, sigma: float) -> Callable[[int], float]:
    """K -> sum_{k>K} k |c_k|^2 sigma^(2k) of a Moebius-type family, with
    the K-free factors computed once for a whole degree search."""
    y = (a * sigma) ** 2
    one = 1 - a * a
    lead, den = one * one * sigma * sigma, (1 - y) ** 2
    return lambda K: lead * y**K * ((K + 1) - K * y) / den


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
    """Product of disk automorphism factors (w_j - z)/(1 - conj(w_j) z), n = 1.

    ``slice(K)`` costs O(mK) for m zeros, one ascending pass per zero that
    divides by 1 - conj(w) z and multiplies by w - z; the longest slice
    built of the product read last serves every shorter one, so a radius
    search builds one slice.  Its tails rest on Cauchy's estimate
    |b_k| <= M(R)/R^k, with M(R) the maximum of |B| on |z| = R: each is the
    smaller of two geometric tails, one at R = 1, M = 1, the other at the
    R > 1 of ``_cauchy``.  ``_degree`` starts ``truncation`` at the
    closed-form degree of the smaller one, so a search reads two or three
    tails.  ``boundary_sup`` is the certified enclosure ``_blaschke_sup``,
    which every |f| head of one radius shares.

    Both caches key on ``zeros``.  The one-slot slice cache ``_SLICE`` holds
    the zeros tuple of the product read last and is read with ``is``:
    ``__post_init__`` builds that tuple fresh for every product and the slot
    keeps it alive, so no id is reused.  Products whose zeros differ only in
    the sign of a zero part compare equal, yet their slices can differ in
    the signs of zero parts; each keeps its own.  ``_blaschke_sup`` is cached
    on (zeros, sigma) by value, so those products share an entry: a zero
    u + iv reaches it only through u*u + v*v, |u| + |v|, 2 sigma u and
    2 sigma v, where a +-0 part adds a +-0 term that changes no nonzero sum
    and passes every >= 0.0 or <= 0.0 test the same way."""

    zeros: tuple[complex, ...]
    n = 1
    closed = False

    def __post_init__(self):
        zs = _numbers(self.zeros, "Blaschke zeros", complex)
        if not zs:
            raise DomainError("Blaschke product needs at least one zero")
        if not all(abs(w) < 1.0 for w in zs):
            raise DomainError("Blaschke zeros must be finite with modulus < 1")
        object.__setattr__(self, "zeros", zs)

    @property
    def a0(self) -> complex:
        return math.prod(self.zeros, start=complex(1.0))

    def value(self, z: tuple[complex, ...]) -> complex:
        factors = ((w - z[0]) / (1.0 - w.conjugate() * z[0]) for w in self.zeros)
        return math.prod(factors, start=complex(1.0))

    @cached_property
    def _cauchy(self) -> tuple[float, float]:
        """(R, M) with 1 < R < 1/rho, rho the largest zero modulus, and
        M >= prod_j (R + |w_j|)/(1 - |w_j| R) >= max |B| on |z| = R.

        R = rho^-0.95 sits near 1/rho: on random zero sets its Cauchy tail
        needs a degree within one or two of that of the best R.  The product
        is rounded up.  With |w_j| from abs, within an ulp, each factor errs
        by at most 5u/d_j + u (u = 2^-53, d_j = 1 - |w_j| R), since the
        cancellation in d_j scales the rounding of |w_j| R by 1/d_j; the
        widening by 16u sum_j 1/d_j also covers its own rounding and that
        of M * M.  When every zero is 0 (B = c z^m), when some d_j is within
        2^-30 of 0 or when M overflows, it is (1, 1): the bound |b_k| <= 1,
        so the tails keep their sigma^(K+1)/(1 - sigma) form."""
        moduli = [abs(w) for w in self.zeros]
        if not (rho := max(moduli)):
            return 1.0, 1.0
        R = rho**-0.95
        M, condition = 1.0, 0.0
        for x in moduli:
            if not (d := 1.0 - x * R) > 2.0**-30:
                return 1.0, 1.0
            M *= (R + x) / d
            condition += 1.0 / d
        M *= 1.0 + 8.0 * _ULP * condition
        return (R, M) if M < math.inf else (1.0, 1.0)

    def _degree(self, sigma: float) -> tuple[int, float]:
        # The smallest K of a geometric tail c x^(K+1)/(1 - x) below the
        # target, in closed form, for the smaller of the two tails.
        start = None
        if 0.0 < sigma < 1.0:
            R, M = self._cauchy
            start = int(min(math.log(TAIL_TARGET * (1.0 - x) / c) / math.log(x)
                            for c, x in ((1.0, sigma), (M, sigma / R))))
        return truncation(lambda k: self.majorant_tail(k, sigma), 0, start)

    def slice(self, K: int) -> list[complex]:
        # A prefix of the slice held of the product, else a build that
        # replaces it.  An evaluation's area re-reads the slice its majorant
        # built, and a radius search's first evaluation, at the top of its
        # bracket, builds the longest slice of its steps: one build per
        # operation.
        global _SLICE
        held, b = _SLICE
        if held is not self.zeros or len(b) <= K:
            b = _blaschke_pass(self.zeros, K)
            _SLICE = self.zeros, b  # one assignment: a thread reads a whole pair
        return b[:K + 1]

    def majorant_tail(self, K: int, sigma: float) -> float:
        if sigma >= 1.0:
            raise DomainError("Blaschke tail bound needs radius < 1")
        R, M = self._cauchy
        t = sigma / R
        return min(sigma ** (K + 1) / (1.0 - sigma), M * t ** (K + 1) / (1.0 - t))

    def sq_tail(self, K: int, sigma: float) -> float:
        # |b_k|^2 <= M^2 / R^(2k): the form sum_{k>K} k y^k at y = (sigma/R)^2.
        R, M = self._cauchy
        t = sigma / R
        return min(_weighted_geometric(K, sigma * sigma), M * M * _weighted_geometric(K, t * t))

    def sq_mass_tail(self, K: int, t: float) -> float:
        if t >= 1.0:
            raise DomainError("Blaschke tail bound needs radius < 1")
        R, M = self._cauchy
        u = t / (R * R)
        return min(t ** (K + 1) / (1.0 - t), M * M * u ** (K + 1) / (1.0 - u))

    def boundary_sup(self, sigma: float) -> float:
        # A certified upper end of max |B| on |z| = sigma.
        if not 0.0 <= sigma < 1.0:
            raise DomainError("Blaschke supremum needs a radius in [0, 1)")
        return _blaschke_sup(self.zeros, sigma)

    def rational_form(self) -> tuple[dict, dict]:
        radix = len(self.zeros) + 1
        num = den = {0: 1.0 + 0j}  # code-keyed, see ``oracle_expand``
        for w in self.zeros:
            num = _poly_mul(num, _encoded({(0,): w, (1,): -1.0 + 0j}, radix), radix)
            den = _poly_mul(den, _encoded({(0,): 1.0 + 0j, (1,): -w.conjugate()}, radix), radix)
        return dict(_decoded(num, 1, radix)), dict(_decoded(den, 1, radix))


@dataclass(frozen=True)
class ConstantFn(_Family):
    """Constant function z -> c with |c| <= 1."""

    c: complex
    n = 1

    def __post_init__(self):
        (cc,) = _numbers((self.c,), "constant c", complex)
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

    def boundary_sup(self, sigma: float) -> float:
        return abs(self.c)

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


def family_value(family: FamilySpec, z: tuple[complex, ...]) -> complex:
    """Exact rational evaluation at a point of the open domain."""
    # Read once, so that an iterator is not empty when family.value reads it;
    # +x is x for every number and refuses a string or None.
    point = _numbers(z, "point coordinates", operator.pos)
    if len(point) != family.n:
        raise DomainError(f"point has {len(point)} coordinates, family has dimension {family.n}")
    if any(abs(x) >= family.cap for x in point):
        raise DomainError(f"point outside the open polydisk of radius {family.cap}")
    return family.value(point)


#: S_m(0), S_m(1), ... of ``_sq_multinomial_sum`` for each dimension m >= 2
#: computed so far; rows only grow.
_SQ_SUM_ROWS: dict[int, list[int]] = {}


def _sq_multinomial_sum(n: int, k: int) -> int:
    """S_n(k) = sum over |alpha| = k in n variables of (k!/alpha!)^2, exactly.

    Built up one dimension at a time from S_1 = 1 by
    S_m(i) = sum_j C(i, j)^2 S_{m-1}(i - j), so any n works without recursion.
    """
    below = [1] * (k + 1)
    for m in range(2, n + 1):
        row = _SQ_SUM_ROWS.setdefault(m, [1])
        for i in range(len(row), k + 1):
            row.append(sum(math.comb(i, j) ** 2 * below[i - j] for j in range(i + 1)))
        below = row
    return below[k]


def _is_diagonal(radii: tuple[float, ...]) -> bool:
    return radii.count(radii[0]) == len(radii)


def _degree_weights(radii: tuple[float, ...], K: int) -> tuple[float, ...]:
    """W_k = sum_{|alpha|=k} (k!/alpha!)^2 p^(2 alpha), p = radii/sum(radii), k <= K,
    built one variable at a time by W'_k = sum_j C(k, j)^2 W_(k-j) p_m^(2j) in
    O(n K^2) floats; C(k, j)^2 <= C(200, 100)^2 ~ 8e117 is finite for K <= 200."""
    total = math.fsum(radii)
    t = (radii[0] / total) ** 2
    weights = [t**k for k in range(K + 1)]
    for r in radii[1:]:
        t = (r / total) ** 2
        powers = [t**j for j in range(K + 1)]
        weights = [
            math.fsum(math.comb(k, j) ** 2 * weights[k - j] * powers[j] for j in range(k + 1))
            for k in range(K + 1)
        ]
    return tuple(weights)


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
    return family.slice(_integer(K, "truncation degree", 0))


# --------------------------------------------------------------------------
# Coefficient series
# --------------------------------------------------------------------------

class _SliceCoefficients(Mapping):
    """Read-only exponent-tuple map of g(z_1 + ... + z_n) = sum_k b_k s^k.

    The coefficient at alpha is b_|alpha| |alpha|!/alpha! (multinomial
    theorem); degrees with b_k = 0 hold no keys.  Lookups, ``len`` and
    ``degree`` read the slice b_0..b_K; a key ``_exponents`` refuses is
    missing, as in a dict.  Only full iteration (``iter``, ``items``,
    ``repr``) builds the map, once, in graded-lexicographic order, and
    refuses a map over the coefficient budget.
    """

    def __init__(self, n: int, b: list[complex]):
        self.n = n
        self.b = tuple(b)
        self._built: dict[tuple[int, ...], complex] | None = None

    def b_at(self, k: int) -> complex:
        """b_k, and 0 at a degree outside 0..K."""
        return self.b[k] if 0 <= k < len(self.b) else 0j

    def degree(self, k: int) -> dict[tuple[int, ...], complex]:
        """The coefficients of total degree k, built for that degree only."""
        if (bk := self.b_at(k)) == 0:
            return {}
        return {exps: bk * _multinomial(exps) for exps in _compositions(self.n, k)}

    def __getitem__(self, key) -> complex:
        try:
            exps = _exponents(key, self.n)
        except DomainError:
            raise KeyError(key) from None
        if (bk := self.b_at(sum(exps))) != 0:
            return bk * _multinomial(exps)
        raise KeyError(key)

    def __len__(self) -> int:
        return sum(math.comb(k + self.n - 1, self.n - 1) for k, bk in enumerate(self.b) if bk != 0)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._map())

    def items(self):
        return self._map().items()

    def __repr__(self) -> str:
        return repr(self._map())

    def _map(self) -> dict[tuple[int, ...], complex]:
        if self._built is None:
            _check_budget(len(self))
            self._built = {}
            for k in range(len(self.b)):
                self._built.update(self.degree(k))
        return self._built


@dataclass(frozen=True)
class CoefficientSeries:
    """Sparse truncated power series in n >= 1 variables: coefficients of
    degree <= truncation (an integer >= 0; both are stored as ints), keyed
    by exponent tuples that ``_exponents`` reads where a map is built and
    where ``coefficient`` looks one up.

    Instances are immutable after construction; the coefficient map must be
    treated as read-only.  ``source`` records the generating family when the
    series came from an expansion, which is what enables certified tail
    bounds; hand-built series carry no certificate.  A series from
    ``expand`` is slice-backed (``slice``): its map is built on demand.
    """

    n: int
    truncation: int
    coeffs: Mapping[tuple[int, ...], complex]
    source: FamilySpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "dimension n", 1))
        object.__setattr__(self, "truncation", _integer(self.truncation, "truncation", 0))
        if self.slice is not None:
            return  # keys are generated from (n, b_0..b_K)
        for key in self.coeffs:
            if sum(_exponents(key, self.n)) > self.truncation:
                raise DomainError(f"key {key!r} exceeds truncation degree")

    @property
    def slice(self) -> tuple[complex, ...] | None:
        """b_0..b_K when the series is sum_k b_k (z_1 + ... + z_n)^k, else None."""
        return self.coeffs.b if isinstance(self.coeffs, _SliceCoefficients) else None

    def coefficient(self, key: tuple[int, ...]) -> complex:
        return self.coeffs.get(_exponents(key, self.n), 0j)

    def constant_term(self) -> complex:
        return self.coeffs.get((0,) * self.n, 0j)

    def sorted_items(self) -> list[tuple[tuple[int, ...], complex]]:
        """Canonical (graded-lexicographic) order: by degree, then by key."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def majorant_tail_bound(family: FamilySpec | None, K: int, bold_r: float) -> float | None:
    """Exact geometric bound on the degree > K majorant tail at diagonal
    radius bold_r.  None for inputs without a closed-form certificate."""
    if family is None:
        return None
    return family.majorant_tail(K, _diagonal_sigma(family, bold_r))


def default_truncation(family: FamilySpec, bold_r: float) -> int:
    """Smallest K whose certified majorant tail at bold_r is < TAIL_TARGET."""
    return family._degree(_diagonal_sigma(family, bold_r))[0]


def _diagonal_sigma(family: FamilySpec, bold_r: float) -> float:
    if not 0.0 <= (bold_r := _real(bold_r, "radius")) <= family.cap:
        raise DomainError(f"radius {bold_r} outside the closed domain of the family")
    return family.sigma((bold_r,))


# --------------------------------------------------------------------------
# Closed-form expansion
# --------------------------------------------------------------------------

def expand(family: FamilySpec, K: int) -> CoefficientSeries:
    """All coefficients of degree <= K from the multinomial closed form:
    the coefficient at alpha is b_|alpha| * |alpha|!/alpha! with b_k the
    slice coefficient; zeros are not stored.  The series keeps b_0..b_K and
    builds coefficients, keyed by exponent tuples, only when they are read."""
    K = _integer(K, "truncation degree", 0)
    return CoefficientSeries(
        family.n, K, _SliceCoefficients(family.n, family.slice(K)), source=family
    )


#: The (zeros, slice) pair of the Blaschke product read last, with the
#: longest slice built of it since another product was read; the zeros are
#: the product's own tuple (see ``FiniteBlaschke``).
_SLICE: tuple[tuple[complex, ...], list[complex]] = ((), [])


def _blaschke_pass(zeros: tuple[complex, ...], K: int) -> list[complex]:
    """b_0..b_K built anew.  Per zero w, with c = conj(w), dividing by 1 - c z
    is y_k = x_k + c y_(k-1) (its root 1/c lies outside the disk: rounding
    errors are damped), multiplying by w - z is w y_k - y_(k-1), and one
    ascending pass does both.  b_k reads b_0..b_k only: slices are prefix-stable."""
    b = [complex(1.0)] + [0j] * K
    for w in zeros:
        c = w.conjugate()
        prev = b[0]
        b[0] = prev * w
        for k in range(1, K + 1):
            y = b[k] + c * prev
            b[k] = w * y - prev
            prev = y
    return b


# --------------------------------------------------------------------------
# Circle maximum of a Blaschke product
# --------------------------------------------------------------------------

#: One ulp of 1.0; every float bound below is widened by multiples of it.
_ULP = 2.0**-52
#: The float just above 2 pi, so that the arcs cover the whole circle.
_TWO_PI_UP = math.nextafter(2.0 * math.pi, math.inf)
#: Arcs the circle is first cut into, and the most halvings of one arc
#: before it takes its chord bound.
_SUP_ARCS = 8
_SUP_DEPTH = 30


@lru_cache(maxsize=256)
def _blaschke_sup(zeros: tuple[complex, ...], sigma: float) -> float:
    """Certified upper end of max_theta |B(sigma e^(i theta))|, at most 1,
    cached per (zeros, sigma) by value; ``FiniteBlaschke`` says why the
    signs of zero parts need no key.

    On the circle F = |B|^2 = prod_j (A_j - x_j)/(B_j - x_j), with
    x_j = 2 sigma Re(conj(w_j) e^(i theta)), A_j = |w_j|^2 + sigma^2 and
    B_j = 1 + |w_j|^2 sigma^2 = A_j + D_j, D_j = (1 - |w_j|^2)(1 - sigma^2).
    The circle is cut into arcs; each arc [a, b] of width w is bounded by

    1. the chord bound max(F(a), F(b)) + K2 w^2/8, K2 >= |F''|, once that
       cannot beat the largest F seen;
    2. else enclosures of F, G = (log F)' and G' = (log F)'' on the arc,
       from Taylor enclosures of x_j and x_j' at its midpoint: an arc with
       F below the largest value seen, or monotone (G of one sign), or
       log-convex (G' >= 0), is bounded by its endpoints;
    3. a log-concave arc (G' <= -mu < 0) by Newton on G to a point t and
       F <= F(t) exp(G(t)^2 / mu);
    4. any other arc is halved, and at depth ``_SUP_DEPTH`` takes its chord
       bound, so the search always ends with a valid bound.

    Rounding is accounted for: each F value moves x_j, A_j and B_j by their
    rounding bounds in the unfavourable direction and the product up by
    (6m + 4) ulp, the interval sums widen by (16 + 2m) ulp of their absolute
    size, and the square root rounds up.  Three zeros at sigma = 0.8 take
    about 12 values of F, 13 arc enclosures and 10 Newton steps.
    """
    m = len(zeros)
    ss = sigma * sigma
    rows = []
    first = second = 0.0
    for w in zeros:
        u, v = w.real, w.imag
        mod2 = u * u + v * v
        # |x_j|, |x_j'| <= amp, and dx bounds the rounding of x_j.
        amp = 2.0 * sigma * math.sqrt(mod2) * (1.0 + 4.0 * _ULP)
        dx = 8.0 * _ULP * sigma * (abs(u) + abs(v))
        A, B, D = mod2 + ss, 1.0 + mod2 * ss, (1.0 - mod2) * (1.0 - ss)
        rows.append((2.0 * sigma * u, 2.0 * sigma * v, A, B, D, amp, dx,
                     dx + 2.0 * _ULP * A, dx + 2.0 * _ULP * B))
        # Factor f = (A - x)/(B - x): |f'| <= D amp / gap^2 = s and
        # |f''| <= s (1 + 2 amp / gap) in theta, where B - x >= gap.
        gap = B - amp
        s = D * amp / (gap * gap)
        first += s
        second += s + 2.0 * s * amp / gap
    curvature = (second + first * first) * (1.0 + 1e-10)
    widen = 1.0 + (6 * m + 4) * _ULP
    slack = (16 + 2 * m) * _ULP

    def value(t: float) -> float:
        co, si = math.cos(t), math.sin(t)
        f = widen
        for pu, pv, A, B, D, amp, dx, nA, nB in rows:
            x = pu * co + pv * si
            f *= (A - x + nA) / (B - x - nB)
        return f

    def newton_step(t: float) -> float:
        co, si = math.cos(t), math.sin(t)
        g = dg = 0.0
        for pu, pv, A, B, D, amp, dx, nA, nB in rows:
            x = pu * co + pv * si
            p = pv * co - pu * si
            a, b = A - x, B - x
            q = D / (a * b)
            g -= q * p
            dg += q * (x - p * p * (1.0 / a + 1.0 / b))
        return g / dg

    def enclose(t: float, h: float):
        """(upper F, G lo, G hi, G' lo, G' hi) on [t - h, t + h], or None
        where a factor may vanish.  With q = D/((A - x)(B - x)),
        G = -sum q x' and G' = sum q (x - x'^2 (1/(A - x) + 1/(B - x)))."""
        co, si = math.cos(t), math.sin(t)
        fup = widen
        glo = ghi = dlo = dhi = gmag = dmag = 0.0
        curve = 0.5 * h * h
        for pu, pv, A, B, D, amp, dx, nA, nB in rows:
            x = pu * co + pv * si
            p = pv * co - pu * si  # x'; and x'' = -x
            # On the arc x moves by at most |x'| h + amp h^2/2, x' likewise;
            # 4 dx also covers the rounding of these moves.
            reach = amp * curve + 4.0 * dx
            ex = (p if p >= 0.0 else -p) * h + reach
            ep = (x if x >= 0.0 else -x) * h + reach
            xl, xh, pl, ph = x - ex, x + ex, p - ep, p + ep
            if xl < -amp:
                xl = -amp
            if xh > amp:
                xh = amp
            if pl < -amp:
                pl = -amp
            if ph > amp:
                ph = amp
            al = A - xh - nA + dx
            if not al > 0.0:
                return None
            bl, ah, bh = B - xh - nB + dx, A - xl + nA - dx, B - xl + nB - dx
            fup *= ah / (B - xl - nB + dx)
            qh, ql = D / (al * bl), D / (ah * bh)
            if pl >= 0.0:
                glo, ghi, pm, p2l = glo - ph * qh, ghi - pl * ql, ph, pl * pl
            elif ph <= 0.0:
                glo, ghi, pm, p2l = glo - ph * ql, ghi - pl * qh, -pl, ph * ph
            else:
                glo, ghi, pm, p2l = glo - ph * qh, ghi - pl * qh, (ph if ph >= -pl else -pl), 0.0
            if xl >= 0.0:
                xql, xqh, xm = xl * ql, xh * qh, xh
            elif xh <= 0.0:
                xql, xqh, xm = xl * qh, xh * ql, -xl
            else:
                xql, xqh, xm = xl * qh, xh * qh, (xh if xh >= -xl else -xl)
            bend = pm * pm * qh * (1.0 / al + 1.0 / bl)
            dlo += xql - bend
            dhi += xqh - p2l * ql * (1.0 / ah + 1.0 / bh)
            gmag += pm * qh
            dmag += xm * qh + bend
        return fup, glo - slack * gmag, ghi + slack * gmag, dlo - slack * dmag, dhi + slack * dmag

    ts = [_TWO_PI_UP * i / _SUP_ARCS for i in range(_SUP_ARCS)] + [_TWO_PI_UP]
    fs = [value(t) for t in ts]
    best = max(fs)
    # Depth first, the half with the larger end on top, so best rises early.
    arcs = sorted(
        ((ts[i], ts[i + 1], fs[i], fs[i + 1], 0) for i in range(_SUP_ARCS)),
        key=lambda arc: max(arc[2], arc[3]),
    )
    upper = 0.0
    while arcs:
        a, b, fa, fb, depth = arcs.pop()
        top = fa if fa >= fb else fb
        w = (b - a) * (1.0 + 2.0 * _ULP)
        bound = top + curvature * w * w * 0.125
        if bound > best and depth < _SUP_DEPTH:
            mid = 0.5 * (a + b)
            arc = enclose(mid, (b - mid if b - mid >= mid - a else mid - a) * (1.0 + 2.0 * _ULP))
            bound = None
            if arc is not None:
                fup, glo, ghi, dlo, dhi = arc
                if fup <= best:
                    bound = fup
                elif glo >= 0.0 or ghi <= 0.0 or dlo >= 0.0:
                    bound = top
                elif dhi < 0.0:
                    t = mid
                    for _ in range(16):
                        step = newton_step(t)
                        t = min(max(t - step, a), b)
                        if abs(step) <= 1e-7:
                            break
                    point = enclose(t, 0.0)
                    if point is not None:
                        growth = max(-point[1], point[2]) ** 2 / -dhi
                        if growth <= _ULP:
                            ft = value(t)
                            best = max(best, ft)
                            bound = ft * math.exp(growth) * (1.0 + 4.0 * _ULP)
            if bound is None:
                fm = value(mid)
                best = max(best, fm)
                if fa > fb:
                    arcs += [(mid, b, fm, fb, depth + 1), (a, mid, fa, fm, depth + 1)]
                else:
                    arcs += [(a, mid, fa, fm, depth + 1), (mid, b, fm, fb, depth + 1)]
                continue
        upper = max(upper, bound)
    root = math.sqrt(upper)
    return min(1.0, math.nextafter(root, math.inf) if root else 0.0)


def _check_budget(count: int) -> None:
    if count > DEFAULT_COEFF_BUDGET:
        raise BudgetExceededError(
            f"expansion would hold {count} coefficients, budget is {DEFAULT_COEFF_BUDGET}"
        )


# --------------------------------------------------------------------------
# Brute-force oracle: formal power-series division
# --------------------------------------------------------------------------

def oracle_expand(family: FamilySpec, K: int) -> CoefficientSeries:
    """Coefficients of degree <= K via N * (1/D) computed by formal division.

    Independent of the multinomial closed form in :func:`expand`: the series
    inverse of D level by level, then its product with N, each coefficient
    the fsum of its products, after a check of the coefficient budget.  An
    exponent tuple e is keyed by its code, the base-(K + 1) number with the
    digits e_1, ..., e_n, |e|: no digit exceeds K, so codes sort as the
    tuples do, and the code of a sum of degree <= K is the sum of the codes.
    The keys are decoded to tuples once, for the series, which takes them
    without a second reading.
    """
    K = _integer(K, "truncation degree", 0)
    _check_budget(coefficient_count(family.n, K))
    radix = K + 1
    numerator, denominator = (_encoded(part, radix) for part in family.rational_form())
    product = _poly_mul(numerator, _series_inverse(denominator, radix), radix)
    coeffs = {e: v for e, v in _decoded(product, family.n, radix) if v != 0}
    series = CoefficientSeries(family.n, K, {}, source=family)
    # Decoded keys are n-tuples of ints >= 0 of degree <= K by construction,
    # so the map is set after the checks, not re-read key by key.
    object.__setattr__(series, "coeffs", coeffs)
    return series


def _encoded(poly: dict[tuple[int, ...], complex], radix: int) -> dict[int, complex]:
    """The terms of poly of degree < radix, keyed by their codes in base radix."""
    return {
        reduce(lambda code, e: code * radix + e, (*exps, sum(exps))): c
        for exps, c in poly.items() if sum(exps) < radix
    }


def _decoded(poly: dict[int, complex], n: int, radix: int) -> Iterator[tuple[tuple, complex]]:
    """(exponent tuple, coefficient) for every term of a code-keyed poly, in its order."""
    places = [radix**i for i in range(n, 0, -1)]  # of e_1, ..., e_n
    digits = [[code // place % radix for code in poly] for place in places]
    return zip(zip(*digits), poly.values())


def _poly_mul(p: dict[int, complex], q: dict[int, complex], radix: int) -> dict[int, complex]:
    """The terms of p * q of degree < radix, code-keyed and sorted; the
    degree of each term of q, the last digit of its code, is read once."""
    terms = [(eq, eq % radix, cq) for eq, cq in q.items()]
    buckets: dict[int, list[complex]] = {}
    for ep, cp in p.items():
        room = radix - 1 - ep % radix
        for eq, dq, cq in terms:
            if dq <= room:
                buckets.setdefault(ep + eq, []).append(cp * cq)
    return {key: _fsum_complex(vals) for key, vals in sorted(buckets.items())}


def _series_inverse(d: dict[int, complex], radix: int) -> dict[int, complex]:
    """1/d to degree radix - 1, code-keyed: level k is minus the sum of
    d_j * level k - j over j >= 1, divided by d_0, with sorted keys."""
    d0 = d.get(0, 0j)
    if d0 == 0:
        raise DomainError("denominator vanishes at the origin; series inverse undefined")
    by_degree: dict[int, dict[int, complex]] = {}
    for code, c in d.items():
        by_degree.setdefault(code % radix, {})[code] = c
    levels = [{0: 1.0 / d0}]
    for k in range(1, radix):
        buckets: dict[int, list[complex]] = {}
        for j, dj in by_degree.items():
            if 0 < j <= k:
                for ed, cd in dj.items():
                    for eu, cu in levels[k - j].items():
                        buckets.setdefault(ed + eu, []).append(cd * cu)
        levels.append({key: -_fsum_complex(vals) / d0 for key, vals in sorted(buckets.items())})
    return dict(chain.from_iterable(map(dict.items, levels)))


_REAL, _IMAG = operator.attrgetter("real"), operator.attrgetter("imag")


def _fsum_complex(values: list[complex]) -> complex:
    if len(values) == 1:
        # fsum of one float is that float, but turns -0.0 into 0.0, as + 0.0 does.
        return values[0] + 0j
    return complex(math.fsum(map(_REAL, values)), math.fsum(map(_IMAG, values)))


# --------------------------------------------------------------------------
# Distinguished-boundary boundedness check
# --------------------------------------------------------------------------

class TorusBoundReport(NamedTuple):
    """Result of sampling |truncated series| on the torus {|z_i| = r}: the
    largest sampled modulus, the sample point where it was found (a tuple
    of Python complex numbers), the tail certificate when the series
    carries one, and the verdict."""

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
    """Largest sampled modulus of the truncated series on the torus
    {|z_i| = radius_cap}, plus the tail certificate when one exists.

    The series must be slice-backed, as ``expand`` builds it: g(s) with
    s = z_1 + ... + z_n.  s fills the disk |s| <= n r on the torus, so by
    the maximum principle the torus supremum lies on the circle |s| = n r:
    that circle is sampled at n * samples_per_axis aligned points
    z_1 = ... = z_n, by Horner in s, O(n m K).  A dictionary series, built
    by hand or by ``oracle_expand``, is refused.  ``ok`` is set only on
    certified reports with sup + tail <= 1 + 1e-9; a series without a tail
    certificate is never silently certified.  A non-finite radius, or a
    sample count that is not an integer >= 8, is refused.
    """
    _integer(samples_per_axis, "samples per axis", 8)
    if not 0 <= (radius_cap := _real(radius_cap, "radius")) < math.inf:
        raise DomainError("radius must be finite and nonnegative")
    if (b := series.slice) is None:
        raise DomainError("the torus check needs a slice-backed series from expand")
    if series.source is not None and radius_cap > domain_radius_cap(series.source):
        raise DomainError("radius exceeds the domain cap of the generating family")
    n = series.n
    samples = []
    for z in _circle(radius_cap, n * samples_per_axis):
        # Horner in s = z_1 + ... + z_n = n z: O(K), no multi-index.
        s, total = n * z, b[-1]
        for bk in reversed(b[:-1]):
            total = total * s + bk
        samples.append((abs(total), (z,) * n))
    # The first largest modulus, as a scan in sample order finds it.
    sup, witness = max(samples, key=lambda sample: sample[0])
    tail = majorant_tail_bound(series.source, series.truncation, radius_cap)
    certified = tail is not None
    ok = certified and sup + tail <= 1.0 + TORUS_SLACK
    return TorusBoundReport(
        sup_modulus=sup, witness=witness, tail_bound=tail, certified=certified, ok=ok
    )


def _circle(radius: float, count: int) -> list[complex]:
    return [radius * cmath.exp(2j * math.pi * k / count) for k in range(count)]
