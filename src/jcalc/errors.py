"""Exception hierarchy.

Every domain-level failure raised by this package derives from
:class:`JCalcError`, so callers (notably the CLI) can distinguish
"your inputs describe an impossible situation" from genuine bugs.
"""


class JCalcError(Exception):
    """Base class for all domain errors raised by jcalc."""


class InvalidInput(JCalcError, ValueError):
    """An argument lies outside the domain of the calculator."""


class UnsupportedForm(JCalcError):
    """The requested group form has no row in the torsion table."""


class ContextMismatch(JCalcError):
    """Operands live over different torsion contexts (p, d, k)."""


class InternalInconsistency(JCalcError):
    """An identity guaranteed by the embedded tables failed; data is corrupt."""


class NotDivisible(JCalcError):
    """An exact polynomial division left a nonzero remainder."""


class NegativeCoefficient(JCalcError):
    """A polynomial quotient that must be nonnegative has a negative entry."""


class NonIntegralRank(JCalcError):
    """A rank bookkeeping identity produced a non-integer."""


class MissingPrime(JCalcError):
    """No summand polynomial was supplied for a prime dividing m."""


class NoDivisor(JCalcError):
    """No m-positive divisor of the given polynomial exists."""


class SearchBudgetExceeded(JCalcError):
    """An exhaustive search was refused because its space exceeds its budget."""


class NotGenericallySplit(JCalcError):
    """The supplied parabolic/Tits data fails the generic-splitness test."""


class NotAlmostIdempotent(JCalcError):
    """The matrix is not idempotent modulo p, so it cannot be lifted."""


class NotAFamily(JCalcError):
    """The matrices are not an orthogonal idempotent family modulo p."""


class HypothesisViolated(JCalcError):
    """An input fails the hypotheses of a lifting construction."""


class DeterminantNotOne(JCalcError):
    """The matrix determinant is not 1 modulo m."""


class IndexOutOfRange(JCalcError):
    """A generator index lies outside 1..r."""


class ParseError(JCalcError):
    """A textual ring element or matrix could not be parsed."""
