"""Exception types shared across the toolkit."""


class TraceLabError(Exception):
    """Base class for all toolkit errors."""


class StructureError(TraceLabError):
    """Incompatible or malformed algebraic inputs (mixed fields, wrong sizes, ...)."""


class PolynomialSyntaxError(StructureError):
    """Text does not conform to the polynomial grammar."""


class NotZeroDimensionalError(TraceLabError):
    """The presented quotient has an infinite monomial basis."""


class NotLocalError(TraceLabError):
    """The presented quotient is not local at the origin: some variable is not
    nilpotent.  A local ring whose maximal ideal lies elsewhere, such as
    F_2[x]/(x^2+1), is refused too; present it in shifted variables (u^2 with
    u = x + 1)."""


class NotNumericalSemigroupError(TraceLabError):
    """Generators do not define a numerical semigroup (their gcd is not 1)."""


class EnumerationCapExceededError(TraceLabError):
    """An exhaustive enumeration would exceed the configured cap."""


class SearchBudgetExceededError(TraceLabError):
    """An isomorphism search space exceeds the configured budget."""


class SpecError(TraceLabError):
    """Invalid ring specification document.  Carries a stable error code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)
