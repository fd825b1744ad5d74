"""Sharp constants of the improved Bohr inequalities, from first principles.

The two interior extremal parameters are the unique roots in (0, 1) of

    psi_1(t) = -405 + 473 t + 402 t^2 + 38 t^3 + 3 t^4 + t^5
    psi_2(t) = -513 + 910 t + 80 t^2 + 2 t^3 + t^4

and the attached weights are

    lambda_1(a) = 4 (486 - 261a - 324a^2 + 2a^3 + 30a^4 + 3a^5)
                  / (81 (1 + a)^3 (3 - 5a))
    lambda_2(a) = (-81 + 1044a + 54a^2 - 116a^3 - 5a^4)
                  / (162 (a + 1)^2 (2a - 1))

evaluated at the respective root.  The linear-area weight is p = 2(sqrt5 - 1)
and the radius thresholds are 1/3, sqrt5 - 2, and their 1/n divisions.
Each root is bisected in rational arithmetic until its bracket, and the
weight at both of its ends, round to one float, so every constant is the
correctly rounded float of its exact value; the printed six-figure reference
values are used only for residual checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import DomainError, NonUniqueRootError, RootBracketError
from .series import _integer, _real

RADIUS_CLASSIC = 1.0 / 3.0
#: sqrt5 - 2 rounded once: the float of s / 2^120 - 2 for s = isqrt(5 * 4^120),
#: so s <= 2^120 sqrt5 < s + 1, and both ends of that bracket round alike.  It
#: lies below sqrt5 - 2.
RADIUS_ABS_HEAD = float(Fraction(math.isqrt(5 << 240) - (2 << 120), 1 << 120))

#: Printed reference decimals for residual reporting, each with a residual
#: tolerance matched to its printed precision.
REFERENCE = {
    "a_star1": (0.567284, 1e-6),
    "a_star2": (0.537869, 1e-6),
    "lambda1": (18.6095, 1e-3),
    "lambda2": (16.4618, 1e-3),
    "p": (2.4721359550, 1e-9),
    "radius_abs_head": (0.236068, 1e-6),
}


def radius_multi(n: int) -> float:
    """Threshold 1/(3n) of the constant-head polydisk inequalities."""
    return 1.0 / (3.0 * _integer(n, "dimension n", 1))


def radius_multi_abs(n: int) -> float:
    """Threshold (sqrt5 - 2)/n of the |f|-head polydisk inequality."""
    return RADIUS_ABS_HEAD / _integer(n, "dimension n", 1)


# --------------------------------------------------------------------------
# Polynomials and root-finding
# --------------------------------------------------------------------------

class PolynomialR(NamedTuple):
    """Real polynomial with ascending coefficients, evaluated by Horner."""

    coefficients: tuple[float, ...]

    def __call__(self, t: float) -> float:
        out = 0  # an int start keeps Fraction coefficients and points exact
        for c in reversed(self.coefficients):
            out = out * t + c
        return out


PSI1 = PolynomialR((-405.0, 473.0, 402.0, 38.0, 3.0, 1.0))
PSI2 = PolynomialR((-513.0, 910.0, 80.0, 2.0, 1.0))


def solve_unique_root(poly: PolynomialR, lo: float, hi: float) -> float:
    """The unique root of poly in [lo, hi], correctly rounded to a float.

    Uniqueness is proved by counting the distinct roots in [lo, hi] exactly,
    with a Sturm sequence in rational arithmetic; any count but one raises.
    The root is then bisected in rational arithmetic until both ends of its
    bracket round to the same float, which is the float of the root.
    """
    return _rounded_root(poly, lo, hi, lambda t: t)[0]


def _rounded_root(poly: PolynomialR, lo: float, hi: float, weight: Callable) -> tuple[float, float]:
    """(t, weight(t)), each correctly rounded, for the unique root t of poly
    in [lo, hi]: the bracket of t is halved until its ends round alike and
    weight, which must be monotone near t, rounds alike at both ends.

    Coefficients and ends convert to ``Fraction`` without rounding: a float
    coefficient would turn every evaluation back into float arithmetic.
    """
    lo, hi = _real(lo, "bracket end"), _real(hi, "bracket end")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError("bracket ends must be finite with lo <= hi")
    exact = PolynomialR(tuple(map(Fraction, poly.coefficients)))
    a, b = Fraction(lo), Fraction(hi)
    f_a, f_b = exact(a), exact(b)
    if f_a * f_b > 0:
        raise RootBracketError(f"no sign change on [{lo}, {hi}]")
    roots = _sturm_root_count(exact, lo, hi)
    if roots != 1:
        raise NonUniqueRootError(f"{roots} distinct roots on [{lo}, {hi}], expected 1")
    if f_a == 0 or f_b == 0:
        a = b = a if f_a == 0 else b
    while float(a) != float(b) or float(weight(a)) != float(weight(b)):
        mid = (a + b) / 2
        f_mid = exact(mid)
        if f_mid == 0:
            a = b = mid
        elif (f_mid > 0) == (f_a > 0):
            a, f_a = mid, f_mid
        else:
            b = mid
    return float(a), float(weight(a))


def _sturm_root_count(poly: PolynomialR, lo: float, hi: float) -> int:
    """Number of distinct real roots of poly in [lo, hi], exactly.

    Coefficients and endpoints convert to ``Fraction`` without rounding.
    The Sturm chain p, p', -rem(p, p'), ... ends at g = gcd(p, p'); divided
    by g it is the chain of the square-free part of p, whose drop in sign
    changes from lo to hi counts the distinct roots in (lo, hi] (Sturm's
    theorem).  A root at lo is added.
    """
    p = _trim([Fraction(c) for c in poly.coefficients])
    chain = [p]
    nxt = _trim([k * c for k, c in enumerate(p)][1:])  # p'
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in _poly_divmod(chain[-2], chain[-1])[1]]
    chain = [PolynomialR(tuple(_poly_divmod(q, chain[-1])[0])) for q in chain]
    a, b = Fraction(lo), Fraction(hi)
    return _sign_changes(chain, a) - _sign_changes(chain, b) + (chain[0](a) == 0)


def _trim(p: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients without leading zeros; [] is the zero polynomial."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list, list]:
    """Quotient and remainder of num / den, ascending coefficients, exact."""
    rem = list(num)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(rem) >= len(den):
        q = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        quot[shift] = q
        for i, c in enumerate(den):
            rem[shift + i] -= q * c
        rem = _trim(rem[:-1])
    return quot, rem


def _sign_changes(chain: list[PolynomialR], t: Fraction) -> int:
    signs = [v > 0 for v in (q(t) for q in chain) if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


# --------------------------------------------------------------------------
# Weight formulas
# --------------------------------------------------------------------------

_SINGULARITY_GUARD = 1e-9


def lambda1_of(a: float) -> float:
    """Quadratic-area weight formula; pole at a = 3/5.  Its integer literals
    keep a Fraction a exact; a float a is computed in floats."""
    a = _real(a, "parameter a")
    if not 0.0 <= a < 1.0:
        raise DomainError(f"a={a} outside [0, 1)")
    if abs(a - 0.6) < _SINGULARITY_GUARD:
        raise DomainError("lambda1 formula is singular at a = 3/5")
    num = 4 * (486 - 261 * a - 324 * a**2 + 2 * a**3 + 30 * a**4 + 3 * a**5)
    den = 81 * (1 + a) ** 3 * (3 - 5 * a)
    return num / den


def lambda2_of(a: float) -> float:
    """Quadratic-area weight formula for the squared head; pole at a = 1/2.
    Exact for a Fraction a, as ``lambda1_of``."""
    a = _real(a, "parameter a")
    if not 0.0 <= a < 1.0:
        raise DomainError(f"a={a} outside [0, 1)")
    if abs(a - 0.5) < _SINGULARITY_GUARD:
        raise DomainError("lambda2 formula is singular at a = 1/2")
    num = -81 + 1044 * a + 54 * a**2 - 116 * a**3 - 5 * a**4
    den = 162 * (a + 1) ** 2 * (2 * a - 1)
    return num / den


# --------------------------------------------------------------------------
# Proof-side polynomials and bounds
# --------------------------------------------------------------------------

_PHI1_MAIN = PolynomialR((3078.0, 1944.0, -522.0, -432.0, 2.0, 24.0, 2.0))
_PHI1_LAMBDA = PolynomialR((-81.0, -243.0, -162.0, 162.0, 243.0, 81.0))
_PHI2_MAIN = PolynomialR((2349.0, 81.0, -522.0, -18.0, 29.0, 1.0))
_PHI2_LAMBDA = PolynomialR((-81.0, -162.0, 0.0, 162.0, 81.0))


def phi1(t: float, lam: float) -> float:
    """Margin polynomial of the constant-head case split, with free weight."""
    t = _unit_interval(t)
    return _PHI1_MAIN(t) + _real(lam, "weight") * _PHI1_LAMBDA(t)


def phi2(t: float, lam: float) -> float:
    """Margin polynomial of the squared-head case split, with free weight."""
    t = _unit_interval(t)
    return _PHI2_MAIN(t) + _real(lam, "weight") * _PHI2_LAMBDA(t)


def phi1_factored(s: float) -> float:
    """phi1 at the stationary weight lambda1_of(s), in factored form:
    2 (s^2 - 9) / (3 - 5s) * psi_1(s).  Vanishes exactly at the psi_1 root."""
    if abs((s := _unit_interval(s)) - 0.6) < _SINGULARITY_GUARD:
        raise DomainError("factored form is singular at s = 3/5")
    return 2.0 * (s * s - 9.0) / (3.0 - 5.0 * s) * PSI1(s)


def phi2_factored(s: float) -> float:
    """phi2 at the stationary weight lambda2_of(s), in factored form:
    (9 - s^2) / (2 (2s - 1)) * psi_2(s)."""
    if abs((s := _unit_interval(s)) - 0.5) < _SINGULARITY_GUARD:
        raise DomainError("factored form is singular at s = 1/2")
    return (9.0 - s * s) / (2.0 * (2.0 * s - 1.0)) * PSI2(s)


def big_f(a: float) -> float:
    """Margin of the |f|-head inequality at its threshold radius:

        F(a) = (1-a)^3 (7(-9+4 sqrt5) + 4(-47+21 sqrt5) a + (-161+72 sqrt5) a^2)
               / ((4 sqrt5 - 9) a^2 + 1)^2

    Nonpositive on [0, 1], cubically small as a -> 1.
    """
    a = _unit_interval(a)
    s5 = math.sqrt(5.0)
    bracket = (
        7.0 * (-9.0 + 4.0 * s5)
        + 4.0 * (-47.0 + 21.0 * s5) * a
        + (-161.0 + 72.0 * s5) * a**2
    )
    return (1.0 - a) ** 3 * bracket / ((4.0 * s5 - 9.0) * a**2 + 1.0) ** 2


def case2_bound_constant_head(a: float, lam1: float) -> float:
    """Small-|a_0| bound of the constant-head case split:
    a + sqrt(1-a^2)/sqrt8 + 16 (1-a^2)^2/(9-a^2)^2 + 81 lam (1-a^2)^4/(9-a^2)^4."""
    a = _unit_interval(a)
    one = 1.0 - a * a
    nine = 9.0 - a * a
    return (
        a
        + math.sqrt(one) / math.sqrt(8.0)
        + 16.0 * one**2 / nine**2
        + 81.0 * _real(lam1, "weight") * one**4 / nine**4
    )


def case2_bound_squared_head(a: float, lam2: float) -> float:
    """Small-|a_0| bound of the squared-head case split; head ((1+3a)/(3+a))^2."""
    a = _unit_interval(a)
    one = 1.0 - a * a
    nine = 9.0 - a * a
    return (
        ((1.0 + 3.0 * a) / (3.0 + a)) ** 2
        + math.sqrt(one) / math.sqrt(8.0)
        + 16.0 * one**2 / nine**2
        + 81.0 * _real(lam2, "weight") * one**4 / nine**4
    )


def _unit_interval(t: float) -> float:
    """t read by ``_real``; outside [0, 1] it is a domain error."""
    if not 0.0 <= (t := _real(t, "argument")) <= 1.0:
        raise DomainError(f"argument {t} outside [0, 1]")
    return t


# --------------------------------------------------------------------------
# Aggregate report
# --------------------------------------------------------------------------

class SharpConstants(NamedTuple):
    """The computed sharp constants, single source of truth for all presets."""

    a_star1: float
    a_star2: float
    lambda1: float
    lambda2: float
    p: float

    @classmethod
    def compute(cls) -> "SharpConstants":
        # Each weight is evaluated exactly on the root's bracket, where it is
        # monotone (slope about 486 and -422), and rounded once.
        a1, lambda1 = _rounded_root(PSI1, 0.0, 1.0, lambda1_of)
        a2, lambda2 = _rounded_root(PSI2, 0.0, 1.0, lambda2_of)
        return cls(a1, a2, lambda1, lambda2, p=2.0 * (math.sqrt(5.0) - 1.0))


@lru_cache(maxsize=1)
def sharp_constants() -> SharpConstants:
    return SharpConstants.compute()


class ConstantsReport(NamedTuple):
    """Computed constants with residuals against the reference decimals."""

    constants: SharpConstants
    radius_classic: float
    radius_abs_head: float
    residuals: dict[str, float]
    tolerances: dict[str, float]
    ok: bool

    def failed(self) -> list[str]:
        return _breaches(self.residuals, self.tolerances)

    def as_dict(self) -> dict:
        return {
            **self.constants._asdict(),
            "radius_classic": self.radius_classic,
            "radius_abs_head": self.radius_abs_head,
            "residuals": dict(sorted(self.residuals.items())),
            "ok": self.ok,
        }


def constants_report(tol_override: float | None = None) -> ConstantsReport:
    """Compute every constant and compare with the reference decimals.

    ``tol_override`` replaces every per-constant tolerance, which is mainly
    useful to force a failing report in tests of the reporting path.  An
    infinite override would pass any residual and is refused; a NaN override
    fails every constant.
    """
    if tol_override is None:
        tolerances = {name: tol for name, (_, tol) in REFERENCE.items()}
    elif math.isinf(tol_override := _real(tol_override, "tolerance override")):
        raise DomainError("tolerance override must not be infinite")
    else:
        tolerances = dict.fromkeys(REFERENCE, tol_override)
    c = sharp_constants()
    values = {**c._asdict(), "radius_abs_head": RADIUS_ABS_HEAD}
    residuals = {name: abs(values[name] - ref) for name, (ref, _) in REFERENCE.items()}
    ok = not _breaches(residuals, tolerances)
    return ConstantsReport(
        constants=c,
        radius_classic=RADIUS_CLASSIC,
        radius_abs_head=RADIUS_ABS_HEAD,
        residuals=residuals,
        tolerances=tolerances,
        ok=ok,
    )


def _breaches(residuals: dict[str, float], tolerances: dict[str, float]) -> list[str]:
    """Names whose residual is not within its tolerance; a NaN on either
    side is a breach, so ``ok`` and ``failed`` fail closed together."""
    return [
        name for name, residual in sorted(residuals.items()) if not residual <= tolerances[name]
    ]
