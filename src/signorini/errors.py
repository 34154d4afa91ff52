"""Exception types shared across the package."""


class SignoriniError(Exception):
    """Base class for all package errors."""


class InvalidConfigurationError(SignoriniError):
    """A parameter or config field is out of its documented range."""


class InvalidCoefficientError(SignoriniError):
    """Coefficient matrix fails symmetry, ellipticity, or finiteness."""


class InvalidParameterError(SignoriniError):
    """A command-line parameter (--x0, --scale) is invalid."""


class UnsupportedRadiusError(SignoriniError):
    """Requested radius is outside the resolvable range of the grid."""


class OutOfDomainError(SignoriniError):
    """A point lies outside the computational box."""


class AssemblyError(SignoriniError):
    """Shapes of grid/problem data are inconsistent at assembly time."""


class NonconvergedError(SignoriniError):
    """Iterative solve hit its iteration budget.

    Carries the last iterate and the final update size so callers can
    inspect or restart.
    """

    def __init__(self, message, last_iterate=None, final_residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.final_residual = final_residual


class InsufficientDataError(SignoriniError):
    """Not enough points/radii to perform the requested fit."""
