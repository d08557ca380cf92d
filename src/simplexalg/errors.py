"""Exception hierarchy shared by all simplexalg modules."""


class ExactAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ExactAlgebraError):
    """Operands live in different numbers of variables or incompatible shapes."""


class InvalidParameter(ExactAlgebraError):
    """A parameter vector violates a well-definedness condition.

    The message names every violated condition.
    """


class DegenerateParameter(ExactAlgebraError):
    """A printed difference-operator coefficient cannot be resolved: one of
    its denominator forms vanishes and no structural numerator factor does.

    The message names the vanishing linear form and the index at which it
    vanished.
    """


class RangeEscape(ExactAlgebraError, ValueError):
    """A difference operator has a nonzero coefficient whose shift leaves the
    nonnegative indices of the level, so it does not act on that level.

    The message names the operator, the coefficient, nu and the shift.
    """


class SingularSystem(ExactAlgebraError):
    """An exact linear solve hit a singular or inconsistent system."""

    def __init__(self, message: str, rank: int, rows: int, cols: int):
        super().__init__(f"{message} (rank {rank}, shape {rows}x{cols})")
        self.rank = rank
        self.rows = rows
        self.cols = cols


class InvariantViolation(ExactAlgebraError):
    """A result that holds by construction came out wrong: a defect in this
    package, never a property of the input."""


class PackingOverflow(ExactAlgebraError):
    """An exponent of a polynomial, or an exponent or derivative order of a
    differential operator, would not fit the bit field of its packed key."""
