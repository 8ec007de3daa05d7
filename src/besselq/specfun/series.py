"""The package's one power series, the uniform series

    T_a(s) = sum_m (s/4)^m / (m! Gamma(m+a+1)) = (z/2)^(-a) I_a(z),  z = sqrt(s),

summed by ``_tricomi_series`` at a point ``s`` times ``(x/2)^a``:
``I_a(x)`` is ``(x/2)^a T_a(x^2)``, ``J_a(x)`` is ``(x/2)^a T_a(-x^2)``
(DLMF 10.2.2, 10.25.2), ``(x/2)^a T_a(i x^2)`` gives ber/bei
(``kelvinfg``), the f/g pair is ``T_a(i omega)`` and ``tricomi_it`` is
``T_a`` itself.  The loop owns the prefactor, one power of two carried
for the whole sum and one running bound on its own rounding, its error
estimate and its only accuracy rule; it stops at the unit roundoff, and
its term cap follows from ``|s|``.  It returns a mantissa and that power
of two, and keeps no range rule: the public exits apply the power of two
by the normal-range rule (``_unscale``), and the verification routes'
quotients, where any power of two cancels, take the mantissas as they
are.  ``_series_or_expansion`` hands it over to a
large-argument expansion for ``J`` and ber/bei, and the bare sum
``tricomi_it`` (which ``fg_series`` splits in two) raises where that bound
passes ``EST_REL_ERROR_CEILING``.  Its first term
``(x/2)^a/Gamma(a+1)`` comes from ``_leading_factors``: from ``gamma_real``,
a checked ``math.gamma``, and beyond the double range of its factors by
Legendre's duplication formula.  ``gamma_real`` lives here with
``_require_argument``, the argument check of ``I``, ``J`` and ber/bei
(built on the guards of ``errors``).

Only the verification routes (``kelvinfg``, ``zeros``) and the public
``modified_bessel_i`` and ``tricomi_it`` sum it: ``q_inverse`` and
``creep_rate_time`` never import this module.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from ..errors import (
    EST_REL_ERROR_CEILING,
    _UNIT,
    BesselQError,
    CancellationError,
    DomainError,
    OverflowRangeError,
    PoleError,
    TruncationError,
    _in_range,
    _require_finite,
    _require_order,
)

#: Relative error of ``gamma_real``: each ``Gamma`` that the first term of
#: the series takes (``_leading_factors``) adds it to the series' estimate.
_GAMMA_ERROR = 1e-15
#: Relative error of a first term formed from one ``Gamma``
#: (``_leading_factors`` derives it).
_TERM_ERROR = 7.0 * _UNIT + _GAMMA_ERROR
#: Largest order whose first term ``_leading_factors`` forms, by duplication.
#: It is no range limit (the sum carries its power of two with it) but the
#: measured extent: ``I``, the series' value that returns at the largest
#: orders, lies within its estimate up to it (at most 0.16 of it on the 10
#: of 60 random points of orders 7,000 to 8,000, ``x`` 0.55 to 1.3 times the
#: order, that return, seed 5; ``I_8000(5500) = 2.2e151`` in 1.5 ms).  It
#: also bounds the recursion of ``_leading_factors`` and keeps ``(a-1)/2``
#: exact.  Past it the first term raises before any work.
_DUPLICATION_REACH = 8000.0
#: Terms the series may take beyond ``sqrt|s|``.  It never needs more than
#: about ``|z| + 35`` (orders -0.999 to 999, ``|z|`` from 1e-3 to 1e3, on
#: the real and imaginary axes and off them), so reaching
#: ``int(sqrt|s|) + _SERIES_SLACK`` means a fault: TruncationError.
_SERIES_SLACK = 64


class SeriesDiagnostics(namedtuple("SeriesDiagnostics", "terms_used rel_error cancel_ratio scale")):
    """Bookkeeping returned by the shared series loop: the terms used, the
    estimated relative error of the value, ``cancel_ratio``, the largest
    term over ``|T(s)|``, and ``scale``, the power of two of the value: the
    loop returns ``value 2^-scale``."""

    __slots__ = ()


def _checked(function, *args) -> float:
    """``function(*args)`` by the range rule of ``errors._in_range``: an
    OverflowError of the call counts as a value beyond the range."""
    try:
        value = function(*args)
    except OverflowError:
        value = math.inf
    return _in_range(value, "%s%r", function.__name__, args)


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
    return _checked(math.gamma, x)


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


def _leading_factors(order: float, x: float) -> tuple[float, float, int, float]:
    """The first term ``P_order(x) = (x/2)^order / Gamma(order+1)`` as
    ``(power, first, scale, error)``: ``P = power first 2^scale``, the
    series starts from ``first``, and ``error`` bounds the relative error.

    Where ``(x/2)^order`` and ``1/Gamma(order+1)`` are both normal doubles,
    and ``x/2`` is exact, they are ``power`` and ``first`` (``scale`` 0);
    above order 0 the latter is ``1/(order Gamma(order))``, so no rounded
    ``order + 1`` enters (up to order ``2^-1024``, where ``Gamma(order) ~
    1/order`` overflows, ``order + 1`` rounds to 1 and ``first`` is 1).  At
    ``x = 0`` ``power`` is ``0.0**order``.
    Elsewhere, at order 1 or below, ``x*x`` is 0 (or infinite, and the term
    raises): the sum is its first term, so the two fold into one, ``P =
    (2^54 x)^order ((2^-55)^order / Gamma(order+1))`` with ``first = 1``,
    which leaves the range only where ``P`` does (``x/2`` rounds at a
    subnormal ``x``, and ``(x/2)^order`` may overflow where ``P`` does not).
    Above order 1 Legendre's duplication formula (DLMF 5.5.5, at ``2z =
    order + 1``) takes the term from two at half the order,

        P_a(x) = sqrt(pi x)/2 P_{(a-1)/2}(x/2) P_{a/2}(x/2),

    each formed the same way, and returns their product as a mantissa
    ``power`` in [1/2, 1), ``first = 1`` and its power of two ``scale``, so
    nothing overflows on the way.  ``(a-1)/2`` is exact for ``a`` up to
    ``2^53``, and ``x/2`` is exact wherever the recursion runs: it runs only
    where ``x/2`` does not round, at large ``x`` or large ``a``.

    ``error`` sums ``_TERM_ERROR``, ``7 u + _GAMMA_ERROR`` (``u`` the unit
    ``_UNIT``), for each ``Gamma`` taken and ``4 u`` for each duplication.
    A direct term's own roundings take 3 of its ``7 u``: ``pow``, the
    product ``order Gamma(order)`` (below order 0 the rounding of ``order +
    1``: at most ``u``, as ``|psi(b)| b <= 1`` on ``(0, 2]``) and the
    quotient.  The 4 left over cover its use: the product with the sum in
    ``_tricomi_series`` and the ``3 u`` beyond it that
    ``kelvinfg._kelvin_series`` counts on, or its share of a duplication.
    A folded term takes 5 (two ``pow``, ``order + 1``, the quotient and the
    product) and its product with the sum none, as its sum is exact.  A
    duplication's own roundings are those of ``pi x`` (with ``pi`` itself,
    halved by the square root), the square root and the four products of
    five mantissas, at most ``(1.35/2 + 1 + 4) u``, within the ``2 x 4 u``
    its two halves leave over; its ``4 u`` cover its own use.  So a term
    formed directly carries ``_TERM_ERROR``, and one formed by ``n``
    duplications from ``n + 1`` Gammas ``(11 n + 7) u + (n + 1)
    _GAMMA_ERROR``.

    Raises OverflowRangeError before any work above ``_DUPLICATION_REACH``
    (at ``x > 0``), and where a term out of range is neither folded nor
    duplicated: where ``x*x`` is infinite, or ``x/2`` rounds above order 1;
    there the value leaves the range too.
    """
    if not x:
        return 0.0**order, 1.0, 0, _TERM_ERROR
    if order > _DUPLICATION_REACH:
        raise OverflowRangeError(f"order {order} lies beyond the reach of the series")
    half = 0.5 * x
    try:
        power = pow(half, order) if half + half == x else math.inf
        first = 1.0 / (order * gamma_real(order) if order > 2.0**-1024 else gamma_real(order + 1.0))
    except OverflowError:  # pow or Gamma (an OverflowRangeError) beyond the range
        power = first = math.inf
    if sys.float_info.min <= min(power, first) and max(power, first) < math.inf:
        return power, first, 0, _TERM_ERROR
    if order <= 1.0 and x * x == 0.0:
        fold = pow(math.ldexp(x, 54), order) * (pow(2.0**-55, order) / gamma_real(order + 1.0))
        return fold, 1.0, 0, _TERM_ERROR
    if order <= 1.0 or half + half != x:
        raise OverflowRangeError(f"the first term at order {order}, x = {x} leaves the range")
    (mantissa, scale), error = math.frexp(math.sqrt(0.25 * math.pi * x)), 4.0 * _UNIT
    for part in (0.5 * (order - 1.0), 0.5 * order):
        power, first, k, part_error = _leading_factors(part, half)
        (m1, k1), (m2, k2) = math.frexp(power), math.frexp(first)
        mantissa, scale, error = mantissa * m1 * m2, scale + k + k1 + k2, error + part_error
    mantissa, k = math.frexp(mantissa)
    return mantissa, 1.0, scale + k, error


def _tricomi_series(order: float, s: float | complex,
                    x: float = 2.0) -> tuple[float | complex, SeriesDiagnostics]:
    """``(x/2)^order T_order(s)`` with diagnostics: the package's one
    power series, and the one place that decides how it starts.

    ``x = 2`` (the default) gives ``T_order(s)``; a real ``s`` keeps the
    arithmetic real.  The sum starts from the ``first`` of
    ``_leading_factors``, and the value is ``power sum 2^scale``: the
    mantissa ``power sum``, both factors normalised by their powers of two
    (the larger part of the sum in [1/2, 1)), returns with ``scale`` in its
    ``SeriesDiagnostics``, so no product is formed outside the normal
    range and the value is in no range test here.  The exits apply
    ``2^scale`` (``_unscale``); the verification routes' quotients need
    none.  Once the running bound passes ``2^960`` the term, the partial
    sum, the bound, ``sum m t_m`` and the largest term are carried ``2^64``
    lower together into ``scale``, and again at each pass: each is then the
    unscaled one times an exact power of two, so value and estimate are
    bitwise those of the unscaled sum wherever that stays in range.  The
    sum stops once two successive terms fall below ``u`` (``_UNIT``) times
    the partial sum.
    It returns however much it cancels: its callers judge the estimate
    (``bessel_j`` is evaluated at its own zeros, where the sum cancels by
    design).

    The estimate ``rel_error`` is a running error bound (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 3.3), accumulated in
    the term loop from the terms ``t_m`` and the partial sums ``S_m``:

        u (|t_0| + sum |S_m| + 2 sum sqrt(m) |t_m| + |sum m t_m|) / |T|.

    ``sum |S_m|`` is the rounding of the additions, and so counts the
    cancellation; ``2 sqrt(m) |t_m|`` that
    of the ``m`` steps of the term recurrence, accumulated probabilistically
    (Higham & Mary, SIAM J. Sci. Comput. 41, 2019); ``|sum m t_m|`` the
    conditioning in ``s``, which carries the rounding of the ``x*x`` that
    ``I``, ``J`` and ber/bei pass in.  The first term adds its own
    ``error``, which holds the rounding of the product with the sum:
    ``_TERM_ERROR`` where it is formed directly.

    Raises
    ------
    OverflowRangeError
        If the first term cannot be formed (``_leading_factors``); where
        the running bound at the value's power of two, ``u bound
        2^scale``, leaves the double range (tested at each carry, so a
        large ``|s|`` stops within a few carries): there the value is out
        of range or its estimate passes 1; where a term overflows in one
        step (only at ``|s|`` beyond about 7e19) or ``|s|`` is infinite;
        and where the sum falls below the normal range.
    TruncationError
        If ``int(sqrt|s|) + _SERIES_SLACK`` terms did not converge.
    """
    power, term, scale, error = _leading_factors(order, x)
    power, k = math.frexp(power)  # power 2^k, power in [1/2, 1)
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
            max_term = max(max_term, mag)
            small_streak = small_streak + 1 if mag <= _UNIT * size else 0
            if not bound <= 2.0**960:  # near the top of the range: carry the sum 2^64 lower
                term, total, size, bound, moment, max_term = (
                    v * 2.0**-64 for v in (term, total, size, bound, moment, max_term))
                scale += 64
                # u bound at the value's power of two past the range (ldexp raises), or
                # a term that overflowed in one step (inf or nan)
                if not math.ldexp(_UNIT * bound, scale + k) < math.inf:
                    raise OverflowError
            if small_streak == 2:
                break
        else:
            raise TruncationError(
                f"uniform-I series did not converge within {max_terms} "
                f"terms (|s| = {modulus:.3g})"
            )
        j = math.frexp(max(abs(total.real), abs(total.imag)))[1]
        total *= 2.0**-j  # overflows where the sum is subnormal
    except OverflowError:  # |s| = inf, abs() of a complex or the bound beyond the double range
        raise OverflowRangeError(
            f"series of order {order} at |s| = {modulus:.3g} leaves the "
            "double-precision range"
        ) from None
    error += _UNIT * (bound + abs(moment)) / size if size else math.inf
    return power * total, SeriesDiagnostics(m + 1, error, max_term / size if size else math.inf,
                                            scale + k + j)


def _unscale(value: float | complex, scale: int, what: str, *args) -> float | complex:
    """``value 2^scale`` by the normal-range rule of ``errors._in_range``, the
    one exit of the series' power of two: ``2^scale`` applies in two halves
    (a complex has no ldexp), exact wherever the result is a normal double,
    and the modulus is taken by ``math.hypot``, which overflows to inf where
    ``abs()`` of a complex raises.  An exact zero returns; ``what % args``
    names the value."""
    scale = max(-2046, min(scale, 2046))  # past these no normal double returns to the range
    result = value * 2.0 ** (scale // 2) * 2.0 ** (scale - scale // 2)
    if value:
        _in_range(math.hypot(result.real, result.imag), what, *args)
    return result


def _series_value(order: float, s: float | complex, x: float, what: str,
                  *args) -> tuple[float | complex, SeriesDiagnostics]:
    """``_tricomi_series(order, s, x)`` with its power of two applied by
    ``_unscale`` (``what % args`` names the value), and ``scale`` 0 in its
    diagnostics: the exit of ``I``, ``J`` and ``T_a``."""
    value, diagnostics = _tricomi_series(order, s, x)
    return _unscale(value, diagnostics.scale, what, *args), diagnostics._replace(scale=0)


def _series_or_expansion(order: float, x: float, series, expansion: tuple, cap: float,
                         unit: float | None = None, scale: int = 0) -> tuple:
    """``series()`` (a ``_tricomi_series`` call with ``x``, or one in its
    form) or the large-argument ``expansion`` ``(value, error)``, a value
    scaled by ``2^-scale``, whichever has the smaller estimate, as
    ``(value, error, scale)``: the value stays a mantissa with the power of
    two of the branch that served, ``value 2^scale``, so no value is
    rescaled here.  The estimate is in units of ``unit`` (``bessel_j``,
    whose series returns its value unscaled, ``scale`` 0), else relative.
    The one handover of ``bessel_j`` and ber/bei.
    The series' estimate is at least ``u`` times its first term and ``2
    sqrt(m) u`` times its ``m``-th, so it is summed only where those at
    ``m = 0`` and ``floor(x/2)`` let it beat ``min(error, cap)`` (for
    relative errors the expansion's size stands in for the value's).  A
    series that raises gives way to an expansion within ``cap`` and is let
    through otherwise; TruncationError where neither estimate is within
    ``cap``."""
    (value, error), log_half = expansion, math.log(0.5 * x)
    try:
        size = unit or abs(value)
        floor = max(
            (2.0 * m + order) * log_half - math.lgamma(m + 1.0) - math.lgamma(m + order + 1.0)
            + 0.5 * math.log(max(1.0, 4.0 * m)) for m in (0, math.floor(0.5 * x))
        )
    except OverflowError:  # |value| or lgamma beyond the double range: no series
        size = 0.0
    if size and floor - scale * math.log(2.0) + math.log(_UNIT / size) < math.log(min(error, cap)):
        try:
            total, diagnostics = series()
        except BesselQError:
            if not error <= cap:
                raise
        else:
            rel = diagnostics.rel_error
            series_error = rel * abs(total) / unit if unit else rel
            if series_error < error:
                value, error, scale = total, series_error, diagnostics.scale
    if not error <= cap:
        units = "relative" if unit is None else f"of {unit:.3g}"
        raise TruncationError(f"order {order} at x = {x}: neither the series nor the "
                              f"expansion reaches {cap:.0e} {units} (estimate {error:.2e})")
    return value, error, scale


def modified_bessel_i(order: float, x: float) -> float:
    """Modified Bessel function ``I_order(x) = (x/2)^order T_order(x^2)``.

    All terms are positive, so the series is cancellation-free: within
    3.3e-14 relative of mpmath on 2,000 random points (orders -0.9 to 170,
    ``x`` from 1e-3 to 700, 1,000 each at seeds 5 and 23; 2.7e-14 at seed
    5), and within 8e-14 above order 170 (the 681 of 1,000 random points that
    return, orders 171 to 7,000, ``x`` from 0.35 to 1.2 times the order,
    seed 5).  The series' running bound (``_tricomi_series``) holds: the
    error is at most 0.77 of it on the first sample and 0.55 on the second.
    The sum carries one power of two, so neither it nor its bound
    overflows before ``I`` does: ``I_7000(4600) = 5.35e-34`` is 4.3e-15
    off against an estimate of 2.5e-13, where the sum alone left the range
    and this raised.

    OverflowRangeError where the value leaves the normal double range at ``x
    > 0`` (``_unscale``): from ``x = 714`` at order 0, and at
    ``I_150(1e-3)``.  Above order 8,000 (``_DUPLICATION_REACH``) it raises
    before any work, so ``I_10000(6600) = 9.19e-25`` raises.

    Parameters
    ----------
    order : float
        Order ``a > -1``.
    x : float
        Argument ``x >= 0``.
    """
    order, x = _require_argument(order, x)
    return _series_value(order, x * x, x, "I_%r(%r)", order, x)[0]


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
        If the result leaves the normal double range (real ``s`` beyond
        ~5e5), by the rule of ``_unscale``; the range is tested before the
        estimate.
    CancellationError
        If the running bound exceeds ``EST_REL_ERROR_CEILING`` (oscillatory
        ``s`` of large modulus: from ``|s|`` of about 4.9e3 at order 0 on the
        imaginary axis).
    """
    order = _require_order(order)
    s = _require_finite(s, "s", complex)
    value, diag = _series_value(order, s, 2.0, "T_%r(%r)", order, s)
    if not diag.rel_error <= EST_REL_ERROR_CEILING:
        raise CancellationError(f"series of order {order} at s = {s:.3g} lost too many digits "
                                f"(estimate {diag.rel_error:.3g})", ratio=diag.cancel_ratio)
    return value
