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
Everything is computed here by bracketed root-finding plus closed formulas;
the printed six-figure reference values are used only for residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NonUniqueRootError, RootBracketError

RADIUS_CLASSIC = 1.0 / 3.0
RADIUS_ABS_HEAD = math.sqrt(5.0) - 2.0

#: Six-figure reference decimals used for residual reporting.
REFERENCE = {
    "a_star1": 0.567284,
    "a_star2": 0.537869,
    "lambda1": 18.6095,
    "lambda2": 16.4618,
    "p": 2.4721359550,
    "radius_abs_head": 0.236068,
}

#: Residual tolerances matched to the printed precision of each value.
RESIDUAL_TOL = {
    "a_star1": 1e-6,
    "a_star2": 1e-6,
    "lambda1": 1e-3,
    "lambda2": 1e-3,
    "p": 1e-9,
    "radius_abs_head": 1e-6,
}

_UNIQUENESS_GRID = 10_000
_POLISH_BRACKET = 1e-6


def radius_multi(n: int) -> float:
    """Threshold 1/(3n) of the constant-head polydisk inequalities."""
    if n < 1:
        raise DomainError("dimension n must be >= 1")
    return 1.0 / (3.0 * n)


def radius_multi_abs(n: int) -> float:
    """Threshold (sqrt5 - 2)/n of the |f|-head polydisk inequality."""
    if n < 1:
        raise DomainError("dimension n must be >= 1")
    return RADIUS_ABS_HEAD / n


# --------------------------------------------------------------------------
# Polynomials and root-finding
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialR:
    """Real polynomial with ascending coefficients, evaluated by Horner."""

    coefficients: tuple[float, ...]

    def __call__(self, t: float) -> float:
        out = 0.0
        for c in reversed(self.coefficients):
            out = out * t + c
        return out

    def derivative(self) -> "PolynomialR":
        coeffs = tuple(k * c for k, c in enumerate(self.coefficients))[1:]
        return PolynomialR(coeffs if coeffs else (0.0,))


PSI1 = PolynomialR((-405.0, 473.0, 402.0, 38.0, 3.0, 1.0))
PSI2 = PolynomialR((-513.0, 910.0, 80.0, 2.0, 1.0))


def solve_unique_root(poly: PolynomialR, lo: float, hi: float, tol: float = 1e-12) -> float:
    """The unique root of poly in [lo, hi].

    Uniqueness is certified by sign-counting on a 10^4-point grid; more than
    one sign change raises.  Bisection narrows the bracket to width 1e-6,
    then Newton steps polish the root, falling back to plain bisection
    whenever an iterate leaves the bracket.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    f_lo, f_hi = poly(lo), poly(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise RootBracketError(f"no sign change on [{lo}, {hi}]")
    changes = 0
    prev = f_lo
    for i in range(1, _UNIQUENESS_GRID + 1):
        value = poly(lo + (hi - lo) * i / _UNIQUENESS_GRID)
        if value == 0.0:
            continue
        if prev * value < 0:
            changes += 1
        prev = value
    if changes > 1:
        raise NonUniqueRootError(f"{changes} sign changes on [{lo}, {hi}]")

    a, b, f_a = lo, hi, f_lo
    while b - a > _POLISH_BRACKET:
        mid = 0.5 * (a + b)
        f_mid = poly(mid)
        if f_mid == 0.0:
            return mid
        if f_a * f_mid < 0:
            b = mid
        else:
            a, f_a = mid, f_mid

    deriv = poly.derivative()
    x = 0.5 * (a + b)
    for _ in range(80):
        fx = poly(x)
        if fx == 0.0:
            return x
        if f_a * fx < 0:
            b = x
        else:
            a, f_a = x, fx
        dfx = deriv(x)
        if dfx != 0.0:
            nxt = x - fx / dfx
            if not a < nxt < b:
                nxt = 0.5 * (a + b)
        else:
            nxt = 0.5 * (a + b)
        if abs(nxt - x) <= 0.25 * tol:
            return nxt
        x = nxt
    return x


# --------------------------------------------------------------------------
# Weight formulas
# --------------------------------------------------------------------------

_SINGULARITY_GUARD = 1e-9


def lambda1_of(a: float) -> float:
    """Quadratic-area weight formula; pole at a = 3/5."""
    if not 0.0 <= a < 1.0:
        raise DomainError(f"a={a} outside [0, 1)")
    if abs(a - 0.6) < _SINGULARITY_GUARD:
        raise DomainError("lambda1 formula is singular at a = 3/5")
    num = 4.0 * (486.0 - 261.0 * a - 324.0 * a**2 + 2.0 * a**3 + 30.0 * a**4 + 3.0 * a**5)
    den = 81.0 * (1.0 + a) ** 3 * (3.0 - 5.0 * a)
    return num / den


def lambda2_of(a: float) -> float:
    """Quadratic-area weight formula for the squared head; pole at a = 1/2."""
    if not 0.0 <= a < 1.0:
        raise DomainError(f"a={a} outside [0, 1)")
    if abs(a - 0.5) < _SINGULARITY_GUARD:
        raise DomainError("lambda2 formula is singular at a = 1/2")
    num = -81.0 + 1044.0 * a + 54.0 * a**2 - 116.0 * a**3 - 5.0 * a**4
    den = 162.0 * (a + 1.0) ** 2 * (2.0 * a - 1.0)
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
    _check_unit_interval(t)
    return _PHI1_MAIN(t) + lam * _PHI1_LAMBDA(t)


def phi2(t: float, lam: float) -> float:
    """Margin polynomial of the squared-head case split, with free weight."""
    _check_unit_interval(t)
    return _PHI2_MAIN(t) + lam * _PHI2_LAMBDA(t)


def phi1_factored(s: float) -> float:
    """phi1 at the stationary weight lambda1_of(s), in factored form:
    2 (s^2 - 9) / (3 - 5s) * psi_1(s).  Vanishes exactly at the psi_1 root."""
    if abs(s - 0.6) < _SINGULARITY_GUARD:
        raise DomainError("factored form is singular at s = 3/5")
    return 2.0 * (s * s - 9.0) / (3.0 - 5.0 * s) * PSI1(s)


def phi2_factored(s: float) -> float:
    """phi2 at the stationary weight lambda2_of(s), in factored form:
    (9 - s^2) / (2 (2s - 1)) * psi_2(s)."""
    if abs(s - 0.5) < _SINGULARITY_GUARD:
        raise DomainError("factored form is singular at s = 1/2")
    return (9.0 - s * s) / (2.0 * (2.0 * s - 1.0)) * PSI2(s)


def big_f(a: float) -> float:
    """Margin of the |f|-head inequality at its threshold radius:

        F(a) = (1-a)^3 (7(-9+4 sqrt5) + 4(-47+21 sqrt5) a + (-161+72 sqrt5) a^2)
               / ((4 sqrt5 - 9) a^2 + 1)^2

    Nonpositive on [0, 1], cubically small as a -> 1.
    """
    _check_unit_interval(a)
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
    _check_unit_interval(a)
    one = 1.0 - a * a
    nine = 9.0 - a * a
    return (
        a
        + math.sqrt(one) / math.sqrt(8.0)
        + 16.0 * one**2 / nine**2
        + 81.0 * lam1 * one**4 / nine**4
    )


def case2_bound_squared_head(a: float, lam2: float) -> float:
    """Small-|a_0| bound of the squared-head case split; head ((1+3a)/(3+a))^2."""
    _check_unit_interval(a)
    one = 1.0 - a * a
    nine = 9.0 - a * a
    return (
        ((1.0 + 3.0 * a) / (3.0 + a)) ** 2
        + math.sqrt(one) / math.sqrt(8.0)
        + 16.0 * one**2 / nine**2
        + 81.0 * lam2 * one**4 / nine**4
    )


def _check_unit_interval(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"argument {t} outside [0, 1]")


# --------------------------------------------------------------------------
# Aggregate report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpConstants:
    """The computed sharp constants, single source of truth for all presets."""

    a_star1: float
    a_star2: float
    lambda1: float
    lambda2: float
    p: float

    @classmethod
    def compute(cls) -> "SharpConstants":
        a1 = solve_unique_root(PSI1, 0.0, 1.0, 1e-12)
        a2 = solve_unique_root(PSI2, 0.0, 1.0, 1e-12)
        return cls(
            a_star1=a1,
            a_star2=a2,
            lambda1=lambda1_of(a1),
            lambda2=lambda2_of(a2),
            p=2.0 * (math.sqrt(5.0) - 1.0),
        )


@lru_cache(maxsize=1)
def sharp_constants() -> SharpConstants:
    return SharpConstants.compute()


@dataclass(frozen=True)
class ConstantsReport:
    """Computed constants with residuals against the reference decimals."""

    constants: SharpConstants
    radius_classic: float
    radius_abs_head: float
    residuals: dict[str, float]
    tolerances: dict[str, float]
    ok: bool

    def failed(self) -> list[str]:
        return [
            name
            for name, residual in sorted(self.residuals.items())
            if residual > self.tolerances[name]
        ]

    def as_dict(self) -> dict:
        c = self.constants
        return {
            "a_star1": c.a_star1,
            "a_star2": c.a_star2,
            "lambda1": c.lambda1,
            "lambda2": c.lambda2,
            "p": c.p,
            "radius_classic": self.radius_classic,
            "radius_abs_head": self.radius_abs_head,
            "residuals": dict(sorted(self.residuals.items())),
            "ok": self.ok,
        }


def constants_report(tol_override: float | None = None) -> ConstantsReport:
    """Compute every constant and compare with the reference decimals.

    ``tol_override`` replaces every per-constant tolerance, which is mainly
    useful to force a failing report in tests of the reporting path.
    """
    c = sharp_constants()
    residuals = {
        "a_star1": abs(c.a_star1 - REFERENCE["a_star1"]),
        "a_star2": abs(c.a_star2 - REFERENCE["a_star2"]),
        "lambda1": abs(c.lambda1 - REFERENCE["lambda1"]),
        "lambda2": abs(c.lambda2 - REFERENCE["lambda2"]),
        "p": abs(c.p - REFERENCE["p"]),
        "radius_abs_head": abs(RADIUS_ABS_HEAD - REFERENCE["radius_abs_head"]),
    }
    if tol_override is None:
        tolerances = dict(RESIDUAL_TOL)
    else:
        tolerances = {k: tol_override for k in residuals}
    ok = all(residuals[k] <= tolerances[k] for k in residuals)
    return ConstantsReport(
        constants=c,
        radius_classic=RADIUS_CLASSIC,
        radius_abs_head=RADIUS_ABS_HEAD,
        residuals=residuals,
        tolerances=tolerances,
        ok=ok,
    )
