"""Material functions of the Bessel class of linear viscoelastic media.

A model of order ``nu > -1`` is defined by its rate of creep, the time
derivative of the creep compliance normalized by the glass compliance
(nondimensional units, relaxation time set to one):

    Psi(t; nu) = 4(nu+1)(nu+2) + 4(nu+1) sum_k exp(-j_{nu+2,k}^2 t),

a Dirichlet series over the squared positive zeros of ``J_{nu+2}``.  In the
Laplace domain the same information appears as ratios of modified Bessel
functions of contiguous order,

    Psi~(s; nu)   = 2(nu+1)/sqrt(s) * I_{nu+1}(sqrt(s)) / I_{nu+2}(sqrt(s)),
    s J~(s; nu)   = 1 + Psi~(s; nu) = I_{nu}(sqrt(s)) / I_{nu+2}(sqrt(s)),

which this module evaluates through the cancellation-free contiguous-ratio
scheme (a single internal square root shared by numerator and denominator,
so the two expressions above are consistent by construction of the branch).

The fractional Maxwell comparison model closes the module: the Bessel class
behaves like a fractional Maxwell element of order 1/2 at high frequency
and like an ordinary Maxwell element at low frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .errors import DomainError, OverflowRangeError, TruncationError
from .specfun.modified import _ratio_next_order
from .specfun.zeros import _zero_table

#: ``creep_rate_time`` stops once its tail bound is below this fraction of
#: the partial result, and raises where that needs more than ``_MAX_ZEROS``.
_CREEP_TOL = 1e-15
_MAX_ZEROS = 100_000


@dataclass(frozen=True)
class ModelOrder:
    """Order parameter ``nu > -1`` selecting one Bessel medium."""

    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu > -1.0):
            raise DomainError(f"model order must be finite and > -1, got {self.nu}")


class DirichletTruncation(NamedTuple):
    """How a Dirichlet-series evaluation was truncated."""

    n_zeros: int
    tail_bound: float


def _check_s(s: complex) -> complex:
    s = complex(s)
    if s == 0:
        raise DomainError("Laplace frequency s must be nonzero")
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("Laplace frequency s must be finite")
    return s


def creep_rate_laplace(model: ModelOrder, s: complex) -> complex:
    """Laplace transform of the rate of creep, ``Psi~(s; nu)``.

    Equals ``2(nu+1)/z * I_{nu+1}(z)/I_{nu+2}(z)`` at ``z = sqrt(s)``
    (principal branch), evaluated as ``4(nu+1)(nu+2)/s + T`` from
    ``_compliance_split``, the continued fraction that also serves
    ``creep_compliance_laplace`` and ``q_inverse``.  Behaves like
    ``2(nu+1)/sqrt(s)`` as ``s -> inf`` and like ``4(nu+1)(nu+2)/s`` as
    ``s -> 0``.
    """
    s = _check_s(s)
    nu = model.nu
    return 4.0 * (nu + 1.0) * (nu + 2.0) / s + _compliance_split(nu, s)[1]


def _compliance_split(nu: float, s: complex) -> tuple[complex, complex, float, int]:
    """``s J~(s; nu)`` with its ``1/s`` pole split off.

    The recurrence ``I_{nu+1}/I_{nu+2} = 2(nu+2)/z + I_{nu+3}/I_{nu+2}``
    (DLMF 10.29.1) turns ``s J~ = 1 + (2(nu+1)/z) I_{nu+1}/I_{nu+2}`` into

        s J~ = 1 + 4(nu+1)(nu+2)/s + T,   T = (2(nu+1)/z) I_{nu+3}/I_{nu+2},

    with ``z = sqrt(s)`` and ``T`` bounded as ``s -> 0``.  The pole term is
    formed from ``s`` itself, never from ``z*z``, so on the imaginary axis it
    is exactly imaginary and ``Re(s J~) = 1 + Re T`` carries no cancellation.

    Returns ``(s J~, T, CF residual, CF iterations)``.
    """
    z = cmath.sqrt(s)
    r, residual, iterations = _ratio_next_order(nu + 2.0, z)
    tail = (2.0 * (nu + 1.0) / z) * r
    return 1.0 + 4.0 * (nu + 1.0) * (nu + 2.0) / s + tail, tail, residual, iterations


def creep_compliance_laplace(model: ModelOrder, s: complex) -> complex:
    """Laplace-domain creep compliance combination ``s J~(s; nu)``.

    Equals the contiguous ratio ``I_nu(sqrt(s)) / I_{nu+2}(sqrt(s))``,
    evaluated with its ``1/s`` pole split off (see ``_compliance_split``) so
    the real part keeps full accuracy as ``s -> 0``.  Equals
    ``1 + creep_rate_laplace(model, s)``, from the same continued fraction,
    up to rounding.  For real s > 0 the value is real and exceeds 1.
    """
    s = _check_s(s)
    return _compliance_split(model.nu, s)[0]


def _tail_bound(coeff: float, j: float, t: float) -> float:
    """``coeff e^{-j^2 t} q/(1-q)``, ``q = e^{-2 pi j t}``: the Dirichlet tail
    bound of ``creep_rate_time``, with ``1 - q`` from ``expm1`` so that a
    tiny ``t`` gives a huge bound, not a division by zero."""
    x = 2.0 * math.pi * j * t
    return coeff * math.exp(-j * j * t) * math.exp(-x) / -math.expm1(-x)


def creep_rate_time(model: ModelOrder, t: float) -> tuple[float, DirichletTruncation]:
    """Rate of creep ``Psi(t; nu)`` by summing the Dirichlet series.

    Terms are added until the analytic tail bound drops below 1e-15 times
    the partial result.  Consecutive zeros of
    ``J_{nu+2}`` (order > 1) are separated by at least pi, so the dropped
    tail beyond the K-th zero j_K is bounded by the geometric sum

        sum_{m>=1} exp(-(j_K + m pi)^2 t) <= e^{-j_K^2 t} q/(1-q),
        q = e^{-2 pi j_K t}.

    Returns the value together with the truncation record.  The series
    diverges at ``t = 0+`` (like ``2(nu+1)/sqrt(pi t)``), hence ``t > 0``
    is required; the long-time limit is the constant ``4(nu+1)(nu+2)``.

    Raises ``TruncationError`` when more than 100,000 zeros would be
    needed (at ``nu = 1`` below about ``t = 3.3e-10``).  Where that is certain
    it raises before computing any zero: for ``K = 100,000`` the zero
    ``j_K`` of ``J_{nu+2}`` lies below the McMahon leading term
    ``(K + (nu+2)/2 - 1/4) pi`` and ``j_k > k pi`` bounds the result by
    ``4(nu+1)(nu+2) + 2(nu+1)/sqrt(pi t)``, so a tail bound at that term
    above 1e-15 times that result means the summation could not stop by
    ``K``.

    The zeros come from the pure-Python table that ``bessel_j_zeros`` also
    reads, kept per order (at most 8 orders, the least recently used
    evicted), grown in doubling blocks from 64 and never shrunk, so a call
    only computes the zeros no earlier call at that order needed, and its
    result does not depend on the calls before it.  A first call at small
    ``t`` pays for the zeros it adds, about 1.5 us each: on a 2-core AMD
    EPYC host with Python 3.11, about 0.05 s for the 32,768 zeros that
    ``t = 1e-8`` brings in at ``nu = 1``, after which a call there takes
    about 4 ms.
    """
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    nu = model.nu
    order = nu + 2.0
    const = 4.0 * (nu + 1.0) * (nu + 2.0)
    coeff = 4.0 * (nu + 1.0)
    if _tail_bound(coeff, (_MAX_ZEROS + 0.5 * order - 0.25) * math.pi, t) > (
        _CREEP_TOL * (const + coeff / (2.0 * math.sqrt(math.pi * t)))
    ):
        raise TruncationError(
            f"Dirichlet series needs more than {_MAX_ZEROS} zeros at t = {t}"
        )
    zeros: tuple[float, ...] = ()
    partial = 0.0
    for k in range(_MAX_ZEROS):
        if k == len(zeros):
            zeros = _zero_table(order, min(max(2 * k, 64), _MAX_ZEROS))
        j = zeros[k]
        partial += math.exp(-j * j * t)
        tail = _tail_bound(coeff, j, t)
        result = const + coeff * partial
        if tail <= _CREEP_TOL * result:
            return result, DirichletTruncation(k + 1, tail)
    raise TruncationError(
        f"Dirichlet series needs more than {_MAX_ZEROS} zeros at t = {t}"
    )


def creep_compliance_asymptotic(
    model: ModelOrder, s: complex, regime: Literal["high", "low"]
) -> complex:
    """Two-term expansions of ``s J~(s; nu)`` at the ends of the s-range.

    ``high`` (s -> inf):  1 + 2(nu+1) s^{-1/2}   (principal branch);
    ``low``  (s -> 0):    2(nu+2)/(nu+3) + 4(nu+1)(nu+2)/s.
    """
    s = _check_s(s)
    nu = model.nu
    if regime == "high":
        return 1.0 + 2.0 * (nu + 1.0) / cmath.sqrt(s)
    if regime == "low":
        return 2.0 * (nu + 2.0) / (nu + 3.0) + 4.0 * (nu + 1.0) * (nu + 2.0) / s
    raise DomainError(f"regime must be 'high' or 'low', got {regime!r}")


def frac_maxwell_q_inverse(beta: float, omega_tau: float) -> float:
    """Specific dissipation of the fractional Maxwell model of order beta.

        Q^-1_beta(omega tau) = sin(pi beta/2) / ((omega tau)^beta + cos(pi beta/2))

    for ``0 < beta <= 1``; beta = 1 is the ordinary Maxwell element with
    ``Q^-1 = 1/(omega tau)``.
    """
    beta = float(beta)
    omega_tau = float(omega_tau)
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    if not omega_tau > 0.0:
        raise DomainError(f"omega*tau must be positive, got {omega_tau}")
    half = 0.5 * math.pi * beta
    try:
        denom = omega_tau**beta + math.cos(half)
    except OverflowError as exc:
        raise OverflowRangeError(str(exc)) from exc
    return math.sin(half) / denom
