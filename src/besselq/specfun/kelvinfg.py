"""Kelvin functions ber/bei of real order and the companion oscillatory
pair (f, g) that splits the uniform modified Bessel function on the
imaginary axis.

For order ``a > -1`` and frequency ``w > 0`` the pair

    f_a(w) = sum_n (-1)^n w^(2n)   / (2^(4n)   (2n)!  Gamma(2n+a+1))
    g_a(w) = sum_n (-1)^n w^(2n+1) / (2^(4n+2) (2n+1)! Gamma(2n+a+2))

satisfies ``f_a(w) + i g_a(w) = (z/2)^(-a) I_a(z)`` at ``z = sqrt(i w)``,
and rotates into the Kelvin functions at argument ``x = sqrt(w)``:

    ber_a(x) + i bei_a(x) = (x/2)^a e^(3 pi i a / 4) (f_a(w) + i g_a(w)).

Both are the one uniform series ``T_a(s)`` of ``series`` on the imaginary
axis: ``f + i g = T_a(i w)`` and ``ber + i bei = (x/2)^a e^(3 pi i a/4)
T_a(i x^2)``.  It alternates there and loses digits as ``w`` grows; its
running error bound says how many, and ``fg_series`` raises where that
passes ``EST_REL_ERROR_CEILING``.  Above ``x = sqrt(omega*) = 18``
(``DEFAULT_CROSSOVER_OMEGA``) the Kelvin pair takes ``bessel_j``'s handover
to ``ber_a(x) + i bei_a(x) = e^(i a pi / 2) I_a(x e^(i pi / 4))``, scaled by
``e^(-x/sqrt(2))``, from ``modified._scaled_i``: the one large-argument form
of ``I``, both exponential branches of DLMF 10.40.5, which also serves the
production ratio.  Each pair is a mantissa and one integer power of two
(``kelvin_scaled``), 0 wherever ber/bei are normal doubles: the series'
own, or the expansion's ``e^(x/sqrt 2)`` folded into it exactly;
``kelvin`` and ``fg_from_kelvin`` apply it once, at their one exit.  The
f/g series has no such handover.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from ..errors import _UNIT, OverflowRangeError, _require_order, _require_positive
from .modified import _reflection, _rotation, _scaled_i
from .series import (SeriesDiagnostics, _checked, _require_argument, _series_or_expansion,
                     _tricomi_series, _unscale, tricomi_it)

#: Frequency up to which the alternating series serve alone, their running
#: bound there at most 1.5e-13 (orders -0.999 to 299): above ``x = sqrt(324) = 18``
#: ber/bei may take the large-argument expansion, returning with relative
#: estimates up to ``_KELVIN_MAX_ERROR``; the checks split their route
#: bands here.
DEFAULT_CROSSOVER_OMEGA = 324.0
_SERIES_MAX_X = math.sqrt(DEFAULT_CROSSOVER_OMEGA)
_KELVIN_MAX_ERROR = 3e-8


class FGPair(namedtuple("FGPair", "f g order omega")):
    """Value of the oscillatory pair at one (order, omega) point."""

    __slots__ = ()


class KelvinPair(namedtuple("KelvinPair", "ber bei order argument")):
    """Values of ber/bei at one (order, argument) point."""

    __slots__ = ()


def fg_series(order: float, omega: float) -> FGPair:
    """The pair ``(f_order(omega), g_order(omega))``: the real and imaginary
    parts of ``tricomi_it(order, i*omega)``.  The limits at
    ``omega -> 0+`` are ``(1/Gamma(order+1), 0)``.

    The error relative to the pair norm is ``tricomi_it``'s at ``s = i
    omega``: within the running bound of ``_tricomi_series``, which
    ``q_inverse_fg`` carries, and below ``1e-13 + 2 eps (1 + R) max(1,
    omega^(1/4))``, ``R`` the largest term over the norm.  Raises
    CancellationError where that running bound exceeds
    ``EST_REL_ERROR_CEILING``, 1e-6: far above the crossover, from
    ``omega`` of about 4.9e3 at order 0 (1.5e4 at order 150).
    """
    order = _require_order(order)
    omega = _require_positive(omega, "omega")
    pair = tricomi_it(order, complex(0.0, omega))
    return FGPair(pair.real, pair.imag, order, omega)


def _kelvin_series(order: float, x: float) -> tuple[complex, SeriesDiagnostics]:
    """``ber + i bei = (x/2)^order e^{3 pi i order/4} T_order(i x^2)`` by
    the shared power series, with its diagnostics: the series' mantissa,
    rotated, with its power of two ``2^scale``.  The rotation adds ``10 pi
    u`` to the estimate for its angle (below 2 pi, formed from ``c (order
    mod 8)`` below 6) and ``u`` for the product: a complex product may be
    off by ``sqrt(5) u``, and the rest lies within the ``3 u`` that the
    series' ``7 u`` holds beyond its own roundings."""
    pair, diag = _tricomi_series(order, complex(0.0, x * x), x)
    return _rotation(order, 0.75) * pair, diag._replace(
        rel_error=diag.rel_error + _UNIT * (1.0 + 10.0 * math.pi))


def kelvin_scaled(order: float, x: float) -> tuple[float, float, int, float]:
    """Kelvin pair with its power of two factored out.

    Returns ``(ber_s, bei_s, scale, est_rel)`` such that ``ber + i bei =
    (ber_s + i bei_s) 2^scale``, ``scale`` an integer, and ``est_rel``
    estimates the relative error of the pair.  Both branches leave by one
    rule (``series._unscale``): wherever ber/bei are normal doubles they
    return with ``scale`` 0, elsewhere as the mantissa of the branch that
    served with its power of two.  Up to ``x = 18`` the series serves
    (``_kelvin_series``, ``est_rel`` its ``SeriesDiagnostics.rel_error``).
    Above, the pair is the series or ``e^(i order pi/2) I_order(z)``, ``z =
    x e^(i pi/4)``, by ``bessel_j``'s handover
    (``series._series_or_expansion``): the value of ``modified._scaled_i``,
    scaled by ``e^(-z)``, times ``e^(r + i Im z)``, ``e^(i order pi/2)`` and
    ``1/sqrt(2 pi z)``, where ``Re z = k fl(ln 2) + r`` exactly
    (``math.remainder``) and ``2^k`` is the power of two; TruncationError
    where neither reaches 3e-8.  The expansion's estimate is that of
    ``_scaled_i``, which may cancel far below its first term, plus ``4u x``
    for the rounding of ``Im z`` (``u`` the unit ``_UNIT``) and ``0.21u
    |k|`` for that of ``ln 2``.

    The scaled form exists so that ratios of Kelvin-function products (the
    quality-factor formulas) can be formed at arguments where ber/bei
    themselves leave the range.  Two calls may return different scales: a
    product across orders adds each pair's own ``scale``, and a quotient of
    pairs each normalised on its own (``q_inverse_kelvin``) needs none.
    """
    order, x = _require_argument(order, x)
    if x <= _SERIES_MAX_X:
        pair, diag = _kelvin_series(order, x)
        est, scale = diag.rel_error, diag.scale
    else:
        z = x * cmath.exp(0.25j * math.pi)
        pair, est, _ = _scaled_i(order, z, _reflection(order, z))
        r = math.remainder(z.real, math.log(2.0))  # exact, where Re z - k fl(ln 2) rounds
        k = round((z.real - r) / math.log(2.0))
        pair *= cmath.exp(complex(r, z.imag)) * _rotation(order, 0.5) / cmath.sqrt(2 * math.pi * z)
        pair, est, scale = _series_or_expansion(
            order, x, lambda: _kelvin_series(order, x),
            (pair, est + _UNIT * (4.0 * x + 0.21 * abs(k))), _KELVIN_MAX_ERROR, None, k)
    try:
        pair, scale = _unscale(pair, scale, "the pair of order %r at x = %r", order, x), 0
    except OverflowRangeError:  # ber/bei leave the normal range: the mantissa stays
        pass
    return pair.real, pair.imag, scale, est


def kelvin(order: float, x: float) -> KelvinPair:
    """Kelvin functions ``(ber_order(x), bei_order(x))`` for ``x >= 0``.

    The pair is the real/imaginary split of ``J_order(x e^{3 pi i/4})``:
    ``kelvin_scaled``'s pair with its power of two applied
    (``series._unscale``).  It grows like ``e^{x/sqrt(2)}`` and raises
    OverflowRangeError once its modulus leaves the normal double range (x >
    ~1010 at order 0, or where it underflows at large orders, where
    ``kelvin_scaled`` still returns it scaled); the exact zero at ``x = 0``
    returns.
    """
    ber_s, bei_s, scale, _ = kelvin_scaled(order, x)
    pair = _unscale(complex(ber_s, bei_s), scale, "the pair of order %r at x = %r", order, x)
    return KelvinPair(pair.real, pair.imag, order, x)


def fg_from_kelvin(order: float, omega: float) -> FGPair:
    """Recover ``(f, g)`` from the Kelvin pair at ``x = sqrt(omega)``.

    Inverts the rotation between the two families:

        f = (2/sqrt(w))^a [ cos(3 pi a/4) ber + sin(3 pi a/4) bei ]
        g = (2/sqrt(w))^a [-sin(3 pi a/4) ber + cos(3 pi a/4) bei ]

    Agrees with ``fg_series`` wherever both are reliable, and checks it
    independently only where the Kelvin pair is the large-argument
    expansion (above ``omega = 324``); elsewhere both sum the same series.
    The pair of ``kelvin_scaled``, normalised to modulus in [1/2, 1), takes
    the prefactor ``2^(a - trunc a) / x^a`` (only exact inputs raised to a
    power; ``x^a`` is ``pow``'s, or where that leaves the normal range the
    square of ``x^(a/2)``), each factor a mantissa and a power of two; the
    powers of two, with ``2^trunc(a)``, join the pair's and apply once
    (``series._unscale``).  So f/g returns where ber/bei or the prefactor
    alone leave the range: ``fg_from_kelvin(110, 1400^2) = 4.7e113``, where
    ``(2/1400)^110 = 1.1e-313``.  Raises OverflowRangeError where f/g leaves
    the normal double range, or ``x^(order/2)`` does (``order = 50`` at
    ``omega = 1e-300``).
    """
    order = _require_order(order)
    omega = _require_positive(omega, "omega")
    x = math.sqrt(omega)
    ber_s, bei_s, scale, _ = kelvin_scaled(order, x)
    j = math.frexp(math.hypot(ber_s, bei_s))[1]
    try:
        power, k = math.frexp(_checked(pow, x, order))
    except OverflowRangeError:
        power, k = math.frexp(_checked(pow, x, 0.5 * order))
        power, k = power * power, 2 * k
    prefactor = _rotation(order, 0.75).conjugate() * (pow(2.0, math.fmod(order, 1.0)) / power)
    pair = _unscale(complex(ber_s, bei_s) * 2.0**-j * prefactor, scale + j + math.trunc(order) - k,
                    "f/g of order %r at omega = %r", order, omega)
    return FGPair(pair.real, pair.imag, order, omega)
