"""Exception types shared across the package."""


class CoherifyError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CoherifyError):
    """Input dimensions are inconsistent with the requested operation."""


class NotHermitian(CoherifyError, ValueError):
    """Matrix fails the Hermitian symmetry check beyond tolerance.

    Also a ValueError, so that code catching ValueError for invalid
    matrices catches it too.
    """


class NotTracePreserving(CoherifyError):
    """Kraus set does not resolve the identity.

    Carries the deviation norm ``max|sum_i K_i^dag K_i - 1|`` as ``.deviation``.
    """

    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(
            f"Kraus operators are not trace preserving: deviation {self.deviation:.3e}"
        )


class NotUnistochastic(CoherifyError):
    """Transition matrix is not (or cannot be certified) unistochastic."""


class UndefinedAlpha(CoherifyError):
    """The polygon coefficient is undefined because T_ik * T_il = 0."""


class FamilyMismatch(CoherifyError):
    """Transition matrix does not match the requested zero pattern."""


class NotBistochastic(CoherifyError):
    """Operation requires a bistochastic transition matrix."""


class ConvergenceFailure(CoherifyError):
    """An iterative numerical routine failed to converge.

    Raised when a LAPACK eigensolver fails, and when a sampling or
    optimization run does not reach feasibility within its iteration limit.
    """
