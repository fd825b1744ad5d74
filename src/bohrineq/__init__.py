"""Numerical verification of classical and improved Bohr inequalities on the
disk and polydisk: sharp constants from first principles, certified majorant
and area functionals, lemma-level bound checks, radius searches, theorem
sweeps, and sharpness scans over the extremal families."""

from .constants import (
    PSI1,
    PSI2,
    ConstantsReport,
    PolynomialR,
    SharpConstants,
    big_f,
    constants_report,
    lambda1_of,
    lambda2_of,
    phi1,
    phi2,
    radius_multi,
    radius_multi_abs,
    sharp_constants,
    solve_unique_root,
)
from .errors import (
    BohrIneqError,
    BudgetExceededError,
    DomainError,
    NonUniqueRootError,
    RootBracketError,
    UnsupportedInterpretationError,
)
from .functionals import (
    FunctionalSpec,
    RadiusSpec,
    TermBreakdown,
    area_term,
    evaluate,
    preset,
    schwarz_pick,
)
from .series import (
    CoefficientSeries,
    ConstantFn,
    ExtremalPolydiskScaled,
    ExtremalPolydiskUnit,
    FamilySpec,
    FiniteBlaschke,
    MoebiusDisk,
    expand,
    oracle_expand,
    slice_coefficients,
    torus_bound_check,
)
from .verify import (
    LemmaCheck,
    RadiusResult,
    ScanReport,
    SweepReport,
    lemma1a_check,
    lemma1b_check,
    lemma1c_bound,
    lemma1c_check,
    radius_search,
    sharpness_scan,
    theorem_sweep,
)

__version__ = "0.1.0"
