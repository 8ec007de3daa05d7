"""The package's one power series, the uniform series

    T_a(s) = sum_m (s/4)^m / (m! Gamma(m+a+1)) = (z/2)^(-a) I_a(z),  z = sqrt(s),

summed by ``_tricomi_series`` at a point ``s`` times ``(x/2)^a``:
``I_a(x)`` is ``(x/2)^a T_a(x^2)``, ``J_a(x)`` is ``(x/2)^a T_a(-x^2)``
(DLMF 10.2.2, 10.25.2), ``(x/2)^a T_a(i x^2)`` gives ber/bei
(``kelvinfg``), the f/g pair is ``T_a(i omega)`` and ``tricomi_it`` is
``T_a`` itself.  The loop owns the prefactor, the overflow test and one
running bound on its own rounding, its error estimate and its only
accuracy rule; it stops at the unit roundoff, and its term cap follows
from ``|s|``.  ``_series_or_expansion`` hands it over to a
large-argument expansion for ``J`` and ber/bei, and the bare sum
``tricomi_it`` (which ``fg_series`` splits in two) raises where that bound
passes ``EST_REL_ERROR_CEILING``.  Its first term
``1/Gamma(a+1)`` comes from ``gamma_real``, a checked ``math.gamma``, which
lives here with ``_require_argument``, the argument check of ``I``, ``J``
and ber/bei (built on the guards of ``errors``).

Only the verification routes (``kelvinfg``, ``zeros``) and the public
``modified_bessel_i`` and ``tricomi_it`` sum it: ``q_inverse`` and
``creep_rate_time`` never import this module.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from operator import truediv

from ..errors import (
    EST_REL_ERROR_CEILING,
    _UNIT,
    BesselQError,
    CancellationError,
    DomainError,
    OverflowRangeError,
    PoleError,
    TruncationError,
    _require_finite,
    _require_order,
)

#: Relative error of ``gamma_real``, and of ``math.lgamma`` to its size (where
#: that size is below 1, up to a few ``u`` more).
_GAMMA_ERROR = 1e-15
#: Terms the series may take beyond ``sqrt|s|``.  It never needs more than
#: about ``|z| + 35`` (orders -0.999 to 999, ``|z|`` from 1e-3 to 1e3, on
#: the real and imaginary axes and off them), so reaching
#: ``int(sqrt|s|) + _SERIES_SLACK`` means a fault: TruncationError.
_SERIES_SLACK = 64


class SeriesDiagnostics(namedtuple("SeriesDiagnostics", "terms_used rel_error cancel_ratio")):
    """Bookkeeping returned by the shared series loop: the terms used, the
    estimated relative error of the value, and ``cancel_ratio``, the largest
    term over ``|T(s)|``."""

    __slots__ = ()


def _in_range(function, *args) -> float:
    """``function(*args)``, or OverflowRangeError where the value leaves the
    normal double range: above it, or below it, where digits or the whole
    value are lost."""
    try:
        value = function(*args)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= abs(value) < math.inf:
        call = f"{function.__name__}({', '.join(map(repr, args))})"
        raise OverflowRangeError(f"{call} is outside the double-precision range")
    return value


def gamma_real(x: float) -> float:
    """Gamma function for real ``x`` away from the poles: ``math.gamma``
    with typed errors.

    Parameters
    ----------
    x : float
        Any real number that is not a nonpositive integer.

    Returns
    -------
    float
        ``Gamma(x)``, within 1e-15 (``_GAMMA_ERROR``) relative of mpmath:
        at most 8.4e-16 on 20,000 random points of ``[-170.5, 171.6]``, and
        7.8e-16 on 5,000 points within 1e-15 to 0.1 of the poles 0 to -160.

    Raises
    ------
    DomainError
        If ``x`` is infinite or NaN.
    PoleError
        If ``x`` is zero or a negative integer.
    OverflowRangeError
        If the result leaves the normal double-precision range: above it
        for x > ~171.6 or next to zero, below it (underflow, where digits or
        the whole value are lost) for x < ~-170.6.
    """
    x = _require_finite(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at nonpositive integer x = {x}")
    return _in_range(math.gamma, x)


def _require_argument(order: float, x: float) -> tuple[float, float]:
    """``order`` and ``x`` of ``I``, ``J`` or ber/bei, the one check of the
    three: DomainError unless both are finite, ``order > -1`` and ``x >= 0``;
    OverflowRangeError at ``x = 0`` below order 0, where all three diverge."""
    order = _require_order(order)
    x = _require_finite(x)
    if x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x}")
    if x == 0.0 and order < 0.0:
        raise OverflowRangeError(f"order {order} < 0 diverges at x = 0")
    return order, x


def _leading_factors(order: float, x: float) -> tuple[float, float] | None:
    """``(x/2)^order`` and the first term ``1/Gamma(order+1)``, or None where
    either is not a normal double or ``x/2`` is rounded (a subnormal ``x``).
    Above order 0 the first term is ``1/(order Gamma(order))``, so no rounded
    ``order + 1`` enters.  At ``x = 0`` it is left at 1: the value is
    ``0.0**order``."""
    if not x:
        return 0.0**order, 1.0
    half = 0.5 * x
    if half + half != x:
        return None
    try:
        gamma = order * gamma_real(order) if order > 0.0 else gamma_real(order + 1.0)
        return _in_range(pow, half, order), _in_range(truediv, 1.0, gamma)
    except OverflowRangeError:
        return None


def _tricomi_series(order: float, s: float | complex,
                    x: float = 2.0) -> tuple[float | complex, SeriesDiagnostics]:
    """``(x/2)^order T_order(s)`` with diagnostics: the package's one
    power series, and the one place that decides how it starts.

    ``x = 2`` (the default) gives ``T_order(s)``; a real ``s`` keeps the
    arithmetic real.  The value is the product of the sum and the
    ``_leading_factors``, or where there are none, of the sum started from 1
    and ``exp(order (log x - log 2) - lgamma(order+1) + log|sum|)``, with
    ``lgamma(order+1)`` as ``lgamma(order) + log(order)`` above order 0.
    The sum stops once two successive terms fall below ``u`` (``_UNIT``)
    times the partial sum.  It returns however much it cancels: its callers
    judge the estimate (``bessel_j`` is evaluated at its own zeros, where the
    sum cancels by design).

    The estimate ``rel_error`` is a running error bound (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 3.3), accumulated in
    the term loop from the terms ``t_m`` and the partial sums ``S_m``:

        u (|t_0| + sum |S_m| + 2 sum sqrt(m) |t_m| + |sum m t_m|) / |T|.

    ``sum |S_m|`` is the rounding of the additions, and so counts the
    cancellation; ``2 sqrt(m) |t_m|`` that
    of the ``m`` steps of the term recurrence, accumulated probabilistically
    (Higham & Mary, SIAM J. Sci. Comput. 41, 2019); ``|sum m t_m|`` the
    conditioning in ``s``, which carries the rounding of the ``x*x`` that
    ``I``, ``J`` and ber/bei pass in.  The prefactor adds ``_GAMMA_ERROR``
    for ``Gamma`` and ``7 u`` for its roundings; in logs, ``_GAMMA_ERROR``
    times the size of each logarithm, whose rounding ``exp()`` turns into
    relative error.

    Raises
    ------
    OverflowRangeError
        If a term or the result leaves the double range, above it or below
        its normal range; an exact zero, of the sum or at x = 0, is returned.
    TruncationError
        If ``int(sqrt|s|) + _SERIES_SLACK`` terms did not converge.
    """
    factors = _leading_factors(order, x)
    term = factors[1] if factors else 1.0
    total = term
    max_term = bound = abs(term)
    moment = 0.0  # sum m t_m
    quarter = s / 4.0
    modulus = 4.0 * abs(quarter)  # |s|; abs(s) of a complex may overflow
    small_streak = 0
    try:
        max_terms = int(2.0 * math.sqrt(abs(quarter))) + _SERIES_SLACK
        for m in range(1, max_terms + 1):
            term *= quarter / (m * (m + order))
            total += term
            mag, size = abs(term), abs(total)
            moment += m * term
            bound += size + 2.0 * math.sqrt(m) * mag
            if mag > max_term:
                max_term = mag
            small_streak = small_streak + 1 if mag <= _UNIT * size else 0
            if small_streak == 2 or not mag < math.inf:
                break  # converged, or a term overflowed: the range test below raises
        else:
            raise TruncationError(
                f"uniform-I series did not converge within {max_terms} "
                f"terms (|s| = {modulus:.3g})"
            )
        # 7 u, of which the roundings here take 4: pow, the product and
        # quotient of 1/(order Gamma(order)) (below order 0 the rounding of
        # order + 1 takes the product's place: at most u, as |psi(b)| b <= 1
        # on [1/2, 1]) and the product with the sum; in logs |sum|, exp(),
        # the quotient and the last product
        error = 7.0 * _UNIT
        if factors:
            value = factors[0] * total
            error += _GAMMA_ERROR
        elif size:
            logs = [order * (math.log(x) - math.log(2.0)), math.log(size)]
            logs += [-math.lgamma(order), -math.log(order)] if order > 0.0 else \
                [-math.lgamma(order + 1.0)]
            exponent = math.fsum(logs)
            value = math.exp(exponent) * (total / size)
            # exp() turns the exponent's absolute rounding into relative
            # error: each log within _GAMMA_ERROR of its size, the order times
            # that of log x and log 2, and fsum's one rounding
            error += _GAMMA_ERROR * sum(map(abs, logs)) + _UNIT * (2.0 * abs(order) + abs(exponent))
        else:
            value = total
        in_range = sys.float_info.min <= abs(value) < math.inf or not (total and x)
    except OverflowError:  # |s| = inf, or abs() of a complex or exp() beyond the double range
        in_range = False
    if not in_range:
        raise OverflowRangeError(
            f"series of order {order} at |s| = {modulus:.3g} leaves the "
            "double-precision range"
        )
    error += _UNIT * (bound + abs(moment)) / size if size else math.inf
    return value, SeriesDiagnostics(m + 1, error, max_term / size if size else math.inf)


def _series_or_expansion(order: float, x: float, series, expansion: tuple, cap: float,
                         unit: float | None = None, log_scale: float = 0.0) -> tuple:
    """``e^(-log_scale)`` times ``series()`` (a ``_tricomi_series`` call
    with ``x``) or the large-argument ``expansion`` ``(value, error)``,
    whichever has the smaller estimate, with that estimate: in units of
    ``unit``, else relative.  The one handover of ``bessel_j`` and ber/bei.
    The series' estimate is at least ``u`` times its first term and ``2
    sqrt(m) u`` times its ``m``-th, so it is summed only where those at
    ``m = 0`` and ``floor(x/2)`` let it beat ``min(error, cap)`` (for
    relative errors the expansion's size stands in for the value's).  A
    series that raises gives way to an expansion within ``cap`` and is let
    through otherwise; TruncationError where neither estimate is within
    ``cap``."""
    value, error = expansion
    log_half = math.log(0.5 * x)
    try:
        size = unit or abs(value)
        floor = max(
            (2.0 * m + order) * log_half - math.lgamma(m + 1.0) - math.lgamma(m + order + 1.0)
            + 0.5 * math.log(max(1.0, 4.0 * m)) for m in (0, math.floor(0.5 * x))
        )
    except OverflowError:  # |value| or lgamma beyond the double range: no series
        size = 0.0
    if size and floor - log_scale + math.log(_UNIT / size) < math.log(min(error, cap)):
        try:
            total, diagnostics = series()
        except BesselQError:
            if not error <= cap:
                raise
        else:
            total *= math.exp(-log_scale)
            rel = diagnostics.rel_error
            series_error = rel * abs(total) / unit if unit else rel
            if series_error < error:
                value, error = total, series_error
    if not error <= cap:
        scale = "relative" if unit is None else f"of {unit:.3g}"
        raise TruncationError(f"order {order} at x = {x}: neither the series nor the "
                              f"expansion reaches {cap:.0e} {scale} (estimate {error:.2e})")
    return value, error


def modified_bessel_i(order: float, x: float) -> float:
    """Modified Bessel function ``I_order(x) = (x/2)^order T_order(x^2)``.

    All terms are positive, so the series is cancellation-free: within
    2.7e-14 relative of mpmath (1,000 random points, orders -0.9 to 170,
    ``x`` from 1e-3 to 700), but where ``(x/2)^order`` or ``Gamma`` leaves
    the range and the prefactor is formed in logs: there the rounding of
    the exponent puts ``I_147.93(552.17)`` 5.0e-14 off.  The series' running
    bound (``_tricomi_series``) holds on both paths: on 300 random points
    over that sample the error is at most 0.62 of it.  OverflowRangeError
    where the value leaves the normal double range at ``x > 0``: from ``x =
    714`` at order 0, and at ``I_150(1e-3)``.

    Parameters
    ----------
    order : float
        Order ``a > -1``.
    x : float
        Argument ``x >= 0``.
    """
    order, x = _require_argument(order, x)
    return _tricomi_series(order, x * x, x)[0]


def tricomi_it(order: float, s: complex) -> complex:
    """Uniform modified Bessel function ``(z/2)^(-order) I_order(z)`` at
    ``z = sqrt(s)``, evaluated directly in the variable ``s``.

    Because only integer powers of ``s`` appear, the result is a
    single-valued entire function of ``s``; callers never take a square
    root.  ``tricomi_it(a, 0)`` equals ``1/Gamma(a+1)``.

    The value returns only where the series' running bound
    (``_tricomi_series``) is at most ``EST_REL_ERROR_CEILING``, 1e-6
    relative, and lies within it.  For orders up to 170 the relative error
    is also below ``1e-13 + 2 eps (1 + R) max(1, |s|^(1/4))``, ``R`` the
    largest term over ``|T|``: the rounding of the terms grows with their
    number and ``R``, and the running bound follows that growth term by
    term.  On the 3,784 of 4,500 random points that return (orders ``-1 +
    10^U(-3, log10 171)``, ``|s| = 10^U(-3, 5.3)``, every phase, seed 41)
    the error is at most 0.22 of the second and 0.27 of the first.

    Raises
    ------
    OverflowRangeError
        If the result leaves the double range (real ``s`` beyond ~5e5).
    CancellationError
        If the running bound exceeds ``EST_REL_ERROR_CEILING`` (oscillatory
        ``s`` of large modulus: from ``|s|`` of about 4.9e3 at order 0 on the
        imaginary axis).
    """
    order = _require_order(order)
    s = _require_finite(s, "s", complex)
    value, diag = _tricomi_series(order, s)
    if not diag.rel_error <= EST_REL_ERROR_CEILING:
        raise CancellationError(f"series of order {order} at s = {s:.3g} lost too many digits "
                                f"(estimate {diag.rel_error:.3g})", ratio=diag.cancel_ratio)
    return value
