"""Exception types shared across the package."""


class TailmixError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TailmixError):
    """A parameter lies outside its mathematical domain (e.g. alpha <= 1)."""


class DataError(TailmixError):
    """Input data violates a precondition (e.g. a count below x_min)."""


class ContractError(TailmixError):
    """Two objects that must agree do not (e.g. models fit on different data)."""


class EstimationError(TailmixError):
    """A point estimator could not produce a finite estimate."""


class FitError(TailmixError):
    """Optimization failed to produce a usable fit.

    Carries whatever partial results were available when the failure was
    detected so callers can report diagnostics.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else {}
