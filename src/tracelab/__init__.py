"""trace-lab: exact trace-ideal calculus at desk scale.

Two engines: finite-dimensional local algebras over prime fields (where every
non-unit is a zerodivisor) and numerical semigroup rings with monomial
fractional ideals (the one-dimensional domain case).  Both compute traces,
colons, annihilators and isomorphism tests exactly, and the verify module runs
the classification suites over a built-in catalog.
"""

__version__ = "0.1.0"

from .errors import (
    EnumerationCapExceededError,
    NotLocalError,
    NotNumericalSemigroupError,
    NotZeroDimensionalError,
    PolynomialSyntaxError,
    SearchBudgetExceededError,
    SpecError,
    StructureError,
    TraceLabError,
)
from .finalg import FinAlgebra, HomBasis, IdealSubspace, algebra_from_presentation, product_algebra
from .numsgp import (
    NumericalSemigroup,
    RelativeIdeal,
    TranslationWitness,
    canonical_ideal,
    colength,
    dual,
    endo_semigroup,
    enumerate_normalized_ideals,
    filtration_lengths,
    ideal_colon,
    ideal_from_gens,
    ideal_sum,
    is_reflexive,
    is_symmetric,
    is_translate,
    maximal_ideal,
    parse_ideal_text,
    semigroup_as_ideal,
    semigroup_new,
    trace,
)
from .polyfp import (
    Polynomial,
    PrimeField,
    buchberger,
    normal_form,
    standard_monomials,
)
