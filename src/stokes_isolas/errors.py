"""Exception types shared across the library."""

__all__ = ["StokesIsolasError", "SolverError", "SingularityError", "DegenerateFitError", "OracleError"]


class StokesIsolasError(Exception):
    """Base class for all numerical failures raised by this package."""


class SolverError(StokesIsolasError):
    """Root bracketing or refinement failed; carries the last bracket tried."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class SingularityError(StokesIsolasError):
    """A Stokes-coefficient denominator underflowed to 0.0 (``stokes_coefficients(h)`` below h ~ 2.7e-33).

    The beta functions never raise it: they refuse depths outside their
    domain [0.05, 20] first.  The message names the phase speed c.
    """


class DegenerateFitError(StokesIsolasError):
    """Remainder rate fit is undefined (exactly zero remainder at a node)."""


class OracleError(StokesIsolasError):
    """The arbitrary-precision reference evaluator ran out of precision/iterations."""
