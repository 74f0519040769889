"""Exception types shared across the toolkit."""


class AnflatError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(AnflatError):
    """Operands have incompatible vector/matrix dimensions."""


class SingularMatrixError(AnflatError):
    """A matrix that must be invertible over GF(2) is not."""


class AnfSyntaxError(AnflatError):
    """ANF text does not conform to the grammar.

    The character offset of the offending token is kept in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IndexOutOfRangeError(AnflatError):
    """A variable index lies outside [1, n]."""


class TooLargeError(AnflatError):
    """Input exceeds the configured size cap for an exhaustive routine."""


class NoCrucialTermsError(AnflatError):
    """A greedy step was requested but no term of degree >= 3 remains."""


class DegreeTooHighError(AnflatError):
    """Quadratic-only routine received a function of degree > 2."""


class InconsistentError(AnflatError):
    """Arguments describe an impossible or contradictory object."""


class VerificationError(AnflatError):
    """Internal consistency check failed; indicates a bug, never expected."""
