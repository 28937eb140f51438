"""Exception types raised by the phasemag library."""


class PhasemagError(Exception):
    """Base class for all library errors."""


class InvalidParameter(PhasemagError, ValueError):
    """An argument violates a documented precondition."""


class ConvergenceFailure(PhasemagError):
    """Mesh refinement did not reach the requested tolerance.

    Attributes
    ----------
    error_history : tuple of float
        Richardson error estimates recorded at each refinement depth.
    """

    def __init__(self, message, error_history=()):
        super().__init__(message)
        self.error_history = tuple(error_history)


class FitFailure(PhasemagError):
    """A least-squares fit could not be performed on the given samples."""


class CalibrationFailure(PhasemagError):
    """No spectral-density parameters meet the coherence-time targets."""


class DegenerateSlope(PhasemagError):
    """The signal slope is numerically zero over the whole search window."""


class Unresolvable(PhasemagError):
    """Two or more field candidates match the measurement equally well.

    Attributes
    ----------
    candidates : tuple
        The tied candidates, for diagnostic printing.
    """

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class OutOfRange(PhasemagError):
    """A measured signal lies outside the physical range beyond noise."""


class AdiabaticityViolation(PhasemagError):
    """A control setting leaves the validity domain of slow driving.

    Attributes
    ----------
    scale : float or None
        The offending control scale factor, when applicable.
    """

    def __init__(self, message, scale=None):
        super().__init__(message)
        self.scale = scale
