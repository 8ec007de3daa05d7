"""Exception hierarchy for the besselq package.

Every numerical routine either returns a finite, trusted value or raises one
of these exceptions; NaN/Inf never escape silently.
"""


class BesselQError(Exception):
    """Base class for all besselq errors."""


class DomainError(BesselQError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at a pole (gamma at a nonpositive integer)."""


class OverflowRangeError(BesselQError, OverflowError):
    """The exact result is not representable in double precision."""


class TruncationError(BesselQError):
    """A series hit its term cap (or its optimal truncation floor) before
    reaching the requested tolerance."""


class CancellationError(BesselQError):
    """An alternating series lost too many digits to cancellation.

    Carries the observed largest-term/result ratio in ``ratio``.
    """

    def __init__(self, message: str, ratio: float = float("nan")):
        super().__init__(message)
        self.ratio = ratio


class NonConvergenceError(BesselQError):
    """An iterative scheme (continued fraction) failed its residual test."""


class RootIsolationError(BesselQError):
    """A Bessel-function zero could not be bracketed, or the refined zeros
    came out of order."""


class InconsistencyError(BesselQError):
    """Independent evaluation routes disagree beyond tolerance, or a
    structural sign condition (dissipativity) failed numerically."""
