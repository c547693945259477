"""Exception types shared across the package."""


class CotesrootError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedRule(CotesrootError, ValueError):
    """Requested a closed rule outside the supported node counts (n = 0..7)."""


class ParseError(CotesrootError, ValueError):
    """Function text could not be parsed; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(ParseError):
    """Identifier in the function text is not a known function or constant."""


class Breakdown(CotesrootError, ArithmeticError):
    """A map application or evaluation broke down; carries the breakdown kind.

    ``level`` is the ladder level it happened at, or None outside a ladder.
    """

    ZERO_DERIVATIVE = "zero_derivative"
    ZERO_DENOMINATOR = "zero_denominator"
    SINGULAR_MATRIX = "singular_matrix"
    DOMAIN = "domain"
    NONFINITE = "nonfinite"  # a value became NaN or infinite

    def __init__(self, kind: str, message: str = ""):
        super().__init__(message or kind)
        self.kind = kind
        self.level = None


class SingularMatrix(Breakdown):
    """LU elimination met a pivot below the working-precision threshold."""

    def __init__(self, message: str = ""):
        super().__init__(Breakdown.SINGULAR_MATRIX, message)


class DomainError(Breakdown):
    """Evaluation left the domain of a node (log of nonpositive, division by
    zero, derivative of cbrt/abs at zero, 0/0 in the multiple-root transform)."""

    def __init__(self, message: str = ""):
        super().__init__(Breakdown.DOMAIN, message)


class InsufficientData(CotesrootError, ValueError):
    """Not enough usable iterates to estimate a convergence order."""


class RoundoffFloor(CotesrootError, ArithmeticError):
    """Quantities sank below what the working precision can resolve."""
