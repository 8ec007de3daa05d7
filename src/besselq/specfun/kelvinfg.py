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
production ratio.  Each pair keeps the scale of the branch that served it
(``kelvin_scaled``); ``kelvin`` and ``fg_from_kelvin`` unscale it once, at
their one exit.  The f/g series has no such handover.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from ..errors import _UNIT, _in_range, _require_order, _require_positive
from .modified import _reflection, _rotation, _scaled_i
from .series import (SeriesDiagnostics, _checked, _require_argument, _series_or_expansion,
                     _tricomi_series, tricomi_it)

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
    the shared power series, with its diagnostics.  The rotation adds ``10
    pi u`` to the estimate for its angle (below 2 pi, formed from ``c (order
    mod 8)`` below 6) and ``u`` for the product: a complex product may be off
    by ``sqrt(5) u``, and the rest lies within the ``3 u`` that the series'
    ``7 u`` holds beyond its own roundings."""
    pair, diag = _tricomi_series(order, complex(0.0, x * x), x)
    rel_error = diag.rel_error + _UNIT * (1.0 + 10.0 * math.pi)
    return _rotation(order, 0.75) * pair, diag._replace(rel_error=rel_error)


def kelvin_scaled(order: float, x: float) -> tuple[float, float, float, float]:
    """Kelvin pair with the exponential growth factored out.

    Returns ``(ber_s, bei_s, log_scale, est_rel)`` such that
    ``ber = ber_s * exp(log_scale)`` and likewise for bei, and ``est_rel``
    estimates the relative error of the pair.  ``log_scale`` is the scale of
    the branch that served, and the pair stays in it: 0 wherever the series
    serves (always up to ``x = 18``, ``est_rel`` its
    ``SeriesDiagnostics.rel_error``), ``Re z = x/sqrt(2)``, ``z = x e^(i
    pi/4)``, where the expansion does.  Above ``x = 18`` the pair is the
    series or ``e^(i order pi/2) I_order(z) e^(-Re z)``, the value of
    ``modified._scaled_i`` times ``e^(i Im z)``, ``e^(i order pi/2)`` and
    ``1/sqrt(2 pi z)``, by ``bessel_j``'s handover
    (``series._series_or_expansion``); TruncationError where neither
    reaches 3e-8.  The expansion's estimate is that of ``_scaled_i``, which
    may cancel far below its first term, plus ``4u x`` (``u`` the unit
    ``_UNIT``) for the rounding of ``Im z``.

    The scaled form exists so that ratios of Kelvin-function products (the
    quality-factor formulas) can be formed at arguments where ber/bei
    themselves overflow.  Two calls may return different scales: a
    product across orders adds each pair's own ``log_scale``, and a quotient
    of pairs each normalised on its own (``q_inverse_kelvin``) needs none.
    """
    order, x = _require_argument(order, x)
    if x <= _SERIES_MAX_X:
        pair, diag = _kelvin_series(order, x)
        return pair.real, pair.imag, 0.0, diag.rel_error
    z = x * cmath.exp(0.25j * math.pi)
    pair, est, _ = _scaled_i(order, z, _reflection(order, z))
    pair *= cmath.exp(1j * z.imag) * _rotation(order, 0.5) / cmath.sqrt(2.0 * math.pi * z)
    pair, est, log_scale = _series_or_expansion(order, x, lambda: _kelvin_series(order, x),
                                                (pair, est + 4.0 * _UNIT * x), _KELVIN_MAX_ERROR,
                                                None, z.real)
    return pair.real, pair.imag, log_scale, est


def _unscaled(order: float, x: float, fg: bool) -> tuple[float, float]:
    """The pair of ``kelvin_scaled`` at ``(order, x)`` unscaled, as real and
    imaginary parts: ber/bei, or with ``fg`` the f/g pair, the one exit of
    ``kelvin`` and ``fg_from_kelvin``.  The prefactor, 1 or ``(2/x)^order``
    with the inverse rotation ``e^(-3 pi i order/4)``, applies first and
    ``e^(log_scale)`` last, in two halves, so the pair returns wherever it
    is a normal double though the scale alone (``x > 709 sqrt(2)``) or
    ber/bei are not.  OverflowRangeError where the prefactor or the pair's
    modulus leaves the normal range, the rule of the series; the exact
    zero at ``x = 0`` returns."""
    ber_s, bei_s, log_scale, _ = kelvin_scaled(order, x)
    prefactor = _rotation(order, 0.75).conjugate() * _checked(pow, 2.0 / x, order) if fg else 1.0
    half = _checked(math.exp, 0.5 * log_scale)
    pair = complex(ber_s, bei_s) * prefactor * half * half
    if x:  # hypot, unlike abs() of a complex, overflows to inf
        _in_range(math.hypot(pair.real, pair.imag), "the pair of order %r at x = %r", order, x)
    return pair.real, pair.imag


def kelvin(order: float, x: float) -> KelvinPair:
    """Kelvin functions ``(ber_order(x), bei_order(x))`` for ``x >= 0``.

    The pair is the real/imaginary split of ``J_order(x e^{3 pi i/4})``;
    it grows like ``e^{x/sqrt(2)}`` and raises OverflowRangeError once its
    modulus leaves the normal double range (x > ~1010 at order 0, or where
    it underflows at large orders); the exact zero at ``x = 0`` returns.
    """
    return KelvinPair(*_unscaled(order, x, False), order, x)


def fg_from_kelvin(order: float, omega: float) -> FGPair:
    """Recover ``(f, g)`` from the Kelvin pair at ``x = sqrt(omega)``.

    Inverts the rotation between the two families:

        f = (2/sqrt(w))^a [ cos(3 pi a/4) ber + sin(3 pi a/4) bei ]
        g = (2/sqrt(w))^a [-sin(3 pi a/4) ber + cos(3 pi a/4) bei ]

    Agrees with ``fg_series`` wherever both are reliable, and checks it
    independently only where the Kelvin pair is the large-argument
    expansion (above ``omega = 324``); elsewhere both sum the same series.
    The prefactor applies to the scaled pair, so f/g returns where ber/bei
    overflow.  Raises OverflowRangeError where the prefactor
    ``(2/sqrt(omega))^order`` or the pair leaves the normal double range.
    """
    order = _require_order(order)
    omega = _require_positive(omega, "omega")
    return FGPair(*_unscaled(order, math.sqrt(omega), True), order, omega)
