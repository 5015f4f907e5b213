"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the admissible domain (non-finite, wrong shape, bad range)."""


class SingularCurveError(DomainError):
    """A wave-curve formula was evaluated past its singular locus."""


class HyperbolicityError(ArithmeticError):
    """Eigenvalues failed to be strictly ordered by family at a state."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class ConvergenceError(ArithmeticError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, message, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class ContractionError(ConvergenceError):
    """A fixed-point iteration stopped contracting."""

    def __init__(self, message, iterate=None, residual=None, trace=None):
        super().__init__(message, iterate=iterate, residual=residual)
        self.trace = trace


class TrackerEventError(ArithmeticError):
    """A front-tracker event could not be resolved.

    Carries the event's time, position and incoming front ids, and the
    observable series of the run up to the last completed event.
    """

    def __init__(self, message, time=None, position=None, incoming_ids=(), series=()):
        super().__init__(message)
        self.time = time
        self.position = position
        self.incoming_ids = incoming_ids
        self.series = series
