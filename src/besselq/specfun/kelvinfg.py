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
T_a(i x^2)``.  It alternates there, so it is reliable only while the largest
term stays within the cancellation guard.  Above ``x = sqrt(omega*) = 18``
(``DEFAULT_CROSSOVER_OMEGA``) the Kelvin pair switches to a scaled
large-argument evaluation through ``ber_a(x) + i bei_a(x) = e^(i a pi / 2)
I_a(x e^(i pi / 4))``; the f/g series has no such switch.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from ..errors import DomainError, OverflowRangeError, TruncationError
from .modified import _hankel_sums
from .series import (
    SeriesDiagnostics,
    _in_range,
    _require_argument,
    _require_finite,
    _require_order,
    _rotation,
    _tricomi_series,
)

#: Frequency above which the alternating small-argument series of the
#: verification routes (the f/g pair and the ber/bei power series) are
#: abandoned: the f/g route refuses it and ber/bei switch to their
#: large-argument form at sqrt(324) = 18, which keeps the largest-term/result
#: ratio of those series well below 1e12 in 64-bit arithmetic.
DEFAULT_CROSSOVER_OMEGA = 324.0

#: Argument x = sqrt(omega) where the Kelvin series hands over to the
#: large-argument evaluation.
_SERIES_MAX_X = math.sqrt(DEFAULT_CROSSOVER_OMEGA)

#: Largest x for which the unscaled pair (growing like e^(x/sqrt(2))) is
#: representable in double precision.
_KELVIN_OVERFLOW_X = 709.0 * math.sqrt(2.0)


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

    Raises CancellationError when the largest term exceeded 1e12 times the
    pair norm; this happens far above the recommended crossover, so results
    returned without error are trustworthy to roughly 1e-15 * 1e12 = 1e-3
    of the pair norm (series tolerance times cancellation guard).
    """
    order = _require_order(order)
    omega = _require_finite(float(omega), "omega")
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    pair, _ = _tricomi_series(order, complex(0.0, omega))
    return FGPair(pair.real, pair.imag, order, omega)


def _kelvin_series(order: float, x: float) -> tuple[complex, SeriesDiagnostics]:
    """``ber + i bei = (x/2)^order e^{3 pi i order/4} T_order(i x^2)`` by
    the shared power series, with its diagnostics."""
    return _tricomi_series(order, complex(0.0, x * x), x, _rotation(order, 0.75))


def modified_i_asymptotic_scaled(order: float, z: complex) -> tuple[complex, float]:
    """``I_order(z) * exp(-Re z)`` from the large-argument expansion, and
    its error estimate: the remainder bound of ``_hankel_sums`` plus
    roundoff.

    Keeps both exponential branches (the reflected ``e^{-z}`` term matters
    near the series/asymptotic handover).  For ``arg z = pi/4`` and
    ``|z| >= 18`` the estimate is at most about 5e-9 up to order 14 (6.6e-11
    at order 12), against a true error near 1e-13.

    Raises TruncationError where the estimate exceeds 3e-8: ``|z|`` is too
    small for the order (``kelvin(30, 25)``, off by 2.8e-5, raises).
    """
    order = _require_order(order)
    z = _require_finite(complex(z), "z")
    even, odd, remainder, roundoff = _hankel_sums(order, z)
    est = remainder + roundoff
    if est > 3.0e-8:
        raise TruncationError(
            f"asymptotic expansion unreliable at |z| = {abs(z):.3g} "
            f"(estimated relative error {est:.2e})"
        )
    prefactor = 1.0 / cmath.sqrt(2.0 * math.pi * z)
    main = cmath.exp(complex(0.0, z.imag)) * (even - odd)  # e^z scaled by e^{-Re z}
    reflected = _rotation(order, 1.0) * 1j * cmath.exp(-z - z.real) * (even + odd)
    return prefactor * (main + reflected), est


def kelvin_scaled(order: float, x: float) -> tuple[float, float, float, float]:
    """Kelvin pair with the exponential growth factored out.

    Returns ``(ber_s, bei_s, log_scale, est_rel)`` such that
    ``ber = ber_s * exp(log_scale)`` and likewise for bei.  Up to ``x = 18``
    the direct series is used and ``log_scale`` is 0; above it, the scaled
    large-argument evaluation (``log_scale = x/sqrt(2)``).  ``est_rel``
    estimates the relative accuracy of the pair: up to ``x = 18`` it is the
    series' own (``SeriesDiagnostics.rel_error``: its cancellation and the
    rounding of its prefactor and phase, in logs above order ~170.6); above
    it the expansion's, plus ``2 eps x`` for the rounding of the phase
    ``Im z = x/sqrt(2)``.

    The scaled form exists so that ratios of Kelvin-function products (the
    quality-factor formulas) can be formed at arguments where ber/bei
    themselves overflow.
    """
    order, x = _require_argument(order, x)
    if x <= _SERIES_MAX_X:
        pair, diag = _kelvin_series(order, x)
        return pair.real, pair.imag, 0.0, diag.rel_error
    z = x * cmath.exp(0.25j * math.pi)
    scaled_i, est = modified_i_asymptotic_scaled(order, z)
    pair = _rotation(order, 0.5) * scaled_i
    return pair.real, pair.imag, z.real, est + 2.0 * sys.float_info.epsilon * x


def kelvin(order: float, x: float) -> KelvinPair:
    """Kelvin functions ``(ber_order(x), bei_order(x))`` for ``x >= 0``.

    The pair is the real/imaginary split of ``J_order(x e^{3 pi i/4})``;
    it grows like ``e^{x/sqrt(2)}`` and raises OverflowRangeError once that
    factor leaves the double range (x > ~1003).
    """
    ber_s, bei_s, log_scale, _ = kelvin_scaled(order, x)
    if log_scale == 0.0:
        return KelvinPair(ber_s, bei_s, order, x)
    if x > _KELVIN_OVERFLOW_X:
        raise OverflowRangeError(
            f"ber/bei overflow near x = {x:.3g}; use the scaled evaluation"
        )
    scale = math.exp(log_scale)
    return KelvinPair(ber_s * scale, bei_s * scale, order, x)


def fg_from_kelvin(order: float, omega: float) -> FGPair:
    """Recover ``(f, g)`` from the Kelvin pair at ``x = sqrt(omega)``.

    Inverts the rotation between the two families:

        f = (2/sqrt(w))^a [ cos(3 pi a/4) ber + sin(3 pi a/4) bei ]
        g = (2/sqrt(w))^a [-sin(3 pi a/4) ber + cos(3 pi a/4) bei ]

    Agrees with ``fg_series`` wherever both are reliable.  Above
    ``omega = 324`` the Kelvin pair comes from the large-argument expansion,
    which makes this an independent check of the direct summation there;
    below it both sum the same series.  Raises OverflowRangeError where the
    prefactor ``(2/sqrt(omega))^order`` leaves the normal double range.
    """
    order = _require_order(order)
    omega = _require_finite(float(omega), "omega")
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    x = math.sqrt(omega)
    pair = kelvin(order, x)
    rotation = _rotation(order, 0.75)
    c, s = rotation.real, rotation.imag
    prefactor = _in_range(pow, 2.0 / x, order)
    f = prefactor * (c * pair.ber + s * pair.bei)
    g = prefactor * (-s * pair.ber + c * pair.bei)
    return FGPair(f, g, order, omega)
