"""Exception types shared across the package."""


class CotesrootError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CotesrootError, ValueError):
    """Function text could not be parsed; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Breakdown(CotesrootError, ArithmeticError):
    """A map application or evaluation broke down; carries the breakdown kind.

    ``level`` is the ladder level it happened at, or None outside a ladder.
    """

    ZERO_DERIVATIVE = "zero_derivative"
    ZERO_DENOMINATOR = "zero_denominator"
    SINGULAR_MATRIX = "singular_matrix"  # an LU pivot below the working-precision threshold
    # evaluation left the domain of a node (log of nonpositive, division by zero,
    # derivative of cbrt/abs at zero, 0/0 in the multiple-root transform)
    DOMAIN = "domain"
    NONFINITE = "nonfinite"  # a value became NaN or infinite
    DIVERGED = "diverged"  # a ladder node or a composition's inner result left the bound

    def __init__(self, kind: str, message: str = "", level=None):
        super().__init__(message or kind)
        self.kind = kind
        self.level = level


class InsufficientData(CotesrootError, ValueError):
    """Not enough usable iterates to estimate a convergence order, also when
    the errors reached the roundoff floor first."""
