"""The package's one power series, the uniform series

    T_a(s) = sum_m (s/4)^m / (m! Gamma(m+a+1)) = (z/2)^(-a) I_a(z),  z = sqrt(s),

summed by ``_tricomi_series`` at a point ``s`` times a prefactor:
``I_a(x)`` is ``(x/2)^a T_a(x^2)``, ``J_a(x)`` is ``(x/2)^a T_a(-x^2)``, the
f/g pair is ``T_a(i omega)`` and ``ber_a + i bei_a`` is
``(x/2)^a e^(3 pi i a/4) T_a(i x^2)``; ``tricomi_it`` is ``T_a`` itself.
The loop owns the overflow test and the cancellation guard; its tolerances
are fixed, and its term cap follows from ``|s|``.

Only the verification routes (``kelvinfg``, ``zeros``) and the public
``modified_bessel_i`` and ``tricomi_it`` sum it: ``q_inverse`` and
``creep_rate_time`` never import this module.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ..errors import (
    CancellationError,
    DomainError,
    OverflowRangeError,
    TruncationError,
)
from .gammafn import _require_finite, _require_order, gamma_real

#: Relative stopping tolerance of the power series: it stops once two
#: successive terms fall below this fraction of the partial sum.
_SERIES_TOL = 1e-15
#: Largest-term/result ratio above which an alternating series is rejected
#: (CancellationError).
_CANCELLATION_GUARD = 1e12
#: Terms the series may take beyond ``sqrt|s|``.  It never needs more than
#: about ``|z| + 35`` (orders -0.999 to 999, ``|z|`` from 1e-3 to 1e3, on
#: the real and imaginary axes and off them), so reaching
#: ``int(sqrt|s|) + _SERIES_SLACK`` means a fault: TruncationError.
_SERIES_SLACK = 64


class SeriesDiagnostics(namedtuple("SeriesDiagnostics", "terms_used max_term cancel_ratio")):
    """Bookkeeping returned by the shared series loop: the terms used, the
    largest term and ``cancel_ratio``, that term over ``|T(s)|``."""

    __slots__ = ()


def _half_power(x: float, order: float) -> float:
    """``(x/2)^order``, the prefactor of every series in ``x``; its overflow
    is an OverflowRangeError."""
    try:
        return (0.5 * x) ** order
    except OverflowError as exc:
        raise OverflowRangeError(
            f"(x/2)^order overflows at order {order}, x = {x:.3g}"
        ) from exc


def _tricomi_series(
    order: float,
    s: float | complex,
    scale: float | complex = 1.0,
    rel_tol: float = _SERIES_TOL,
    guard: float = _CANCELLATION_GUARD,
    first: float | None = None,
) -> tuple[float | complex, SeriesDiagnostics]:
    """``scale * T_order(s)`` with diagnostics: the package's one power
    series.

    A real ``s`` and ``scale`` keep the arithmetic real.  The sum stops once
    two successive terms fall below ``rel_tol`` of the partial sum.
    ``rel_tol`` and ``guard`` differ from their defaults for ``bessel_j``
    only, which is evaluated at its own zeros, where the sum cancels by
    design.  ``first`` replaces the first term ``1/Gamma(order+1)``, for
    ``modified_bessel_i`` where that leaves the double range.

    Raises
    ------
    OverflowRangeError
        If a term or the scaled result leaves the double range.
    CancellationError
        If the largest term exceeds ``guard`` times ``|T(s)|`` (oscillatory
        ``s`` of large modulus).
    TruncationError
        If ``int(sqrt|s|) + _SERIES_SLACK`` terms did not reach ``rel_tol``.
    """
    term = 1.0 / gamma_real(order + 1.0) if first is None else first
    total = term
    max_term = abs(term)
    quarter = s / 4.0
    modulus = 4.0 * abs(quarter)  # |s|; abs(s) of a complex may overflow
    max_terms = int(2.0 * math.sqrt(abs(quarter))) + _SERIES_SLACK
    small_streak = 0
    try:
        for m in range(1, max_terms + 1):
            term *= quarter / (m * (m + order))
            total += term
            mag = abs(term)
            if mag > max_term:
                max_term = mag
            if mag <= rel_tol * abs(total):
                small_streak += 1
                if small_streak >= 2:
                    break
            elif mag < math.inf:
                small_streak = 0
            else:
                break  # a term overflowed: the range test below raises
        else:
            raise TruncationError(
                f"uniform-I series did not converge within {max_terms} "
                f"terms (|s| = {modulus:.3g})"
            )
        size = abs(total)
        value = scale * total
        finite = abs(value) < math.inf
    except OverflowError:  # abs() of a complex beyond the double range
        finite = False
    if not finite:
        raise OverflowRangeError(
            f"series of order {order} at |s| = {modulus:.3g} exceeds "
            "double-precision range"
        )
    ratio = max_term / size if size else math.inf
    if ratio > guard:
        raise CancellationError(
            f"series lost too many digits at |s| = {modulus:.3g} "
            f"(term/result ratio {ratio:.3g})",
            ratio=ratio,
        )
    return value, SeriesDiagnostics(m + 1, max_term, ratio)


def modified_bessel_i(order: float, x: float) -> float:
    """Modified Bessel function ``I_order(x) = (x/2)^order T_order(x^2)``.

    All terms are positive, so the series is cancellation-free; it is
    accurate to ~1e-14 relative for ``x`` up to several hundred.  At order 0
    it returns up to ``x = 713`` and raises OverflowRangeError from
    ``x = 714``, where ``I_0(x) ~ e^x / sqrt(2 pi x)`` leaves the double
    range.  Where ``(x/2)^order`` or ``Gamma(order+1)`` alone leaves it,
    the leading term comes from ``lgamma`` (``I_200(147) = 2.33e9``).

    Parameters
    ----------
    order : float
        Order ``a > -1``.
    x : float
        Argument ``x >= 0``.
    """
    order = _require_order(order)
    x = _require_finite(float(x))
    if x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x}")
    if x == 0.0 and order < 0.0:
        raise OverflowRangeError("I_a(0) diverges for a < 0")
    try:
        scale, first = (0.5 * x) ** order, 1.0 / gamma_real(order + 1.0)
    except (OverflowError, OverflowRangeError):
        if x == 0.0:
            return 0.0
        total = _tricomi_series(order, x * x, first=1.0)[0]
        log_value = order * math.log(0.5 * x) - math.lgamma(order + 1.0) + math.log(total)
        try:
            return math.exp(log_value)
        except OverflowError as exc:
            raise OverflowRangeError(f"I_{order}({x:.3g}) exceeds double range") from exc
    return _tricomi_series(order, x * x, scale, first=first)[0]


def tricomi_it(order: float, s: complex) -> complex:
    """Uniform modified Bessel function ``(z/2)^(-order) I_order(z)`` at
    ``z = sqrt(s)``, evaluated directly in the variable ``s``.

    Because only integer powers of ``s`` appear, the result is a
    single-valued entire function of ``s``; callers never take a square
    root.  ``tricomi_it(a, 0)`` equals ``1/Gamma(a+1)``.

    Raises
    ------
    OverflowRangeError
        If the result leaves the double range (real ``s`` beyond ~5e5).
    CancellationError
        If the largest term exceeded 1e12 times the result magnitude
        (oscillatory ``s`` with large modulus).
    """
    order = _require_order(order)
    s = _require_finite(complex(s), "s")
    return _tricomi_series(order, s)[0]
