"""Exception hierarchy for the besselq package, and the guards that keep
its promise: every numerical routine either returns a finite, trusted value
or raises one of these exceptions; NaN/Inf never escape silently.

The guards are the one home of the domain and range rules:

* ``_require_finite`` -- an argument is a finite float or complex;
* ``_require_order``    -- an order is finite and exceeds -1;
* ``_require_positive`` -- a frequency (or time) is finite and positive;
* ``_require_index``    -- a count or an index is a whole number >= 1, up
  to a limit, by default the one count ceiling ``_COUNT_MAX``;
* ``_representable``    -- a result is finite.

The argument guards convert the value themselves, so a number beyond the
double range (an int such as ``10**400``) raises DomainError, not a bare
OverflowError.  Every public entry checks its arguments through them, and
every float or complex that ``model`` and ``qfactor`` return passes
``_representable``.

The package's one accuracy ceiling, ``EST_REL_ERROR_CEILING``, lives here
too: a ``QEvaluation`` carries no worse estimate, and the bare-valued sums
that cancel, ``tricomi_it`` and ``fg_series``, return no worse running
bound.  So does the one rounding unit, ``_UNIT``: every error estimate of
the package counts its roundings in it.
"""

import math
import sys

__all__ = [
    "BesselQError",
    "CancellationError",
    "DomainError",
    "InconsistencyError",
    "NonConvergenceError",
    "OverflowRangeError",
    "PoleError",
    "RootIsolationError",
    "TruncationError",
]

#: Unit roundoff ``u = eps/2``: the relative rounding of one operation.
_UNIT = 0.5 * sys.float_info.epsilon

#: Largest relative error estimate a value may carry: a QEvaluation whose
#: route estimates worse raises InconsistencyError, a cancelling series
#: (``tricomi_it``, ``fg_series``) CancellationError.
EST_REL_ERROR_CEILING = 1e-6

#: Most entries a table may hold, the default ``top`` of ``_require_index``:
#: a larger count raises DomainError before a grid point or a zero is made.
_COUNT_MAX = 10**6


class BesselQError(Exception):
    """Base class for all besselq errors."""


class DomainError(BesselQError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at a pole: gamma at a nonpositive integer, or
    ``creep_rate_laplace`` where ``s`` lies within the rounding of
    ``sqrt(s)`` of a pole of ``T`` (its estimate passes
    ``EST_REL_ERROR_CEILING``)."""


class OverflowRangeError(BesselQError, OverflowError):
    """The exact result is not representable in double precision."""


class TruncationError(BesselQError):
    """A sum stopped short of its accuracy target: a series hit its term
    cap; neither the series nor the large-argument expansion reached the
    cap of the handover between them; ``J`` below its first zero carries an
    estimate too large beside its value; or the phase expansion of a
    Bessel-J zero stopped before its last term fell below ``1e-16 x``."""


class CancellationError(BesselQError):
    """An alternating series lost too many digits to cancellation: its
    running error bound exceeds ``EST_REL_ERROR_CEILING``.

    Carries the observed largest-term/result ratio in ``ratio``.
    """

    def __init__(self, message: str, ratio: float = float("nan")):
        super().__init__(message)
        self.ratio = ratio


class NonConvergenceError(BesselQError):
    """An iteration did not settle within its cap: the continued fraction of
    the modified-Bessel ratio failed its residual test, or Newton's method
    for a Bessel-J zero (in its bracket or on the phase) did not settle."""


class RootIsolationError(BesselQError):
    """A Bessel-function zero could not be bracketed, or the refined zeros
    came out of order."""


class InconsistencyError(BesselQError):
    """A structural condition failed numerically: independent routes
    disagree beyond their estimates; a ``Q^-1`` is not positive
    (dissipativity); a ``QEvaluation`` estimate lies outside ``[0,
    EST_REL_ERROR_CEILING]``; or ``Re(s J~) <= 0``, the storage response,
    on the way to ``Q^-1``."""


def _require_finite(value, name: str = "argument", kind: type = float):
    """``value`` as a ``kind`` (float or complex), or DomainError where it
    lies beyond the double range or has an infinite or NaN part."""
    try:
        value = kind(value)
    except OverflowError:
        raise DomainError(f"{name} lies beyond the double range") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _require_order(order) -> float:
    """``order`` as a float, or DomainError unless it is finite and > -1."""
    order = _require_finite(order, "order")
    if not order > -1.0:
        raise DomainError(f"order must exceed -1, got {order}")
    return order


def _require_positive(value, name: str) -> float:
    """``value`` as a float, or DomainError unless it is finite and > 0."""
    value = _require_finite(value, name)
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {value}")
    return value


def _require_index(value, name: str, top: int = _COUNT_MAX) -> int:
    """``value`` as an int, or DomainError unless it is a whole number from
    1 to ``top``, by default ``_COUNT_MAX``."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # infinite or NaN
        whole = 0
    if not (whole >= 1 and whole == value):
        raise DomainError(f"{name} must be a whole number >= 1, got {value}")
    if whole > top:
        raise DomainError(f"{name} must be at most {top:.0e}, got {value}")
    return whole


def _representable(value, what: str, *args):
    """``value`` (a float or complex), or OverflowRangeError where a part of
    it is infinite or NaN: ``what % args`` has left the double range.  The
    message is formatted only then, so a call that passes costs no
    formatting."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowRangeError(f"{what % args} exceeds the double range")
    return value
