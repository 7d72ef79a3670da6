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
    """A resonance denominator came too close to zero to evaluate safely."""

    def __init__(self, message, denominator_label=None, value=None):
        super().__init__(message)
        self.denominator_label = denominator_label
        self.value = value


class DegenerateFitError(StokesIsolasError):
    """Remainder rate fit is undefined (exactly zero remainder at a node)."""


class OracleError(StokesIsolasError):
    """The arbitrary-precision reference evaluator ran out of precision/iterations."""
