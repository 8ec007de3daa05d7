"""Kelvin functions ber/bei of real order and the companion oscillatory
pair (f, g) that splits the uniform modified Bessel function on the
imaginary axis.

For order ``a > -1`` and frequency ``w > 0`` the pair

    f_a(w) = sum_n (-1)^n w^(2n)   / (2^(4n)   (2n)!  Gamma(2n+a+1))
    g_a(w) = sum_n (-1)^n w^(2n+1) / (2^(4n+2) (2n+1)! Gamma(2n+a+2))

satisfies ``f_a(w) + i g_a(w) = (z/2)^(-a) I_a(z)`` at ``z = sqrt(i w)``,
and rotates into the Kelvin functions at argument ``x = sqrt(w)``:

    ber_a(x) + i bei_a(x) = (x/2)^a e^(3 pi i a / 4) (f_a(w) + i g_a(w)).

Both expansions alternate, so they are reliable only while the largest term
stays within the cancellation guard; beyond the crossover (default
``x = 18``) the Kelvin pair switches to a scaled large-argument evaluation
through ``ber_a(x) + i bei_a(x) = e^(i a pi / 2) I_a(x e^(i pi / 4))``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from ..errors import CancellationError, DomainError, OverflowRangeError, TruncationError
from ..policy import DEFAULT_POLICY, SeriesPolicy
from .gammafn import gamma_real
from .modified import SeriesDiagnostics, _require_order, modified_i_asymptotic_scaled

#: Default argument (x = sqrt(omega)) where the alternating series hand over
#: to the large-argument evaluation.
DEFAULT_SERIES_CROSSOVER_X = 18.0

#: Largest x for which the unscaled pair (growing like e^(x/sqrt(2))) is
#: representable in double precision.
_KELVIN_OVERFLOW_X = 709.0 * math.sqrt(2.0)


class FGPair(NamedTuple):
    """Value of the oscillatory pair at one (order, omega) point."""

    f: float
    g: float
    order: float
    omega: float


class KelvinPair(NamedTuple):
    """Values of ber/bei at one (order, argument) point."""

    ber: float
    bei: float
    order: float
    argument: float


def _fg_sums(
    order: float, omega: float, policy: SeriesPolicy
) -> tuple[float, float, SeriesDiagnostics]:
    """Shared evaluation loop for the f/g pair with diagnostics."""
    tf = 1.0 / gamma_real(order + 1.0)
    tg = omega / (4.0 * gamma_real(order + 2.0))
    sf, sg = tf, tg
    max_term = max(abs(tf), abs(tg))
    w2 = omega * omega
    small_streak = 0
    n = 0
    while n < policy.max_terms:
        tf *= -w2 / (
            16.0 * (2 * n + 1.0) * (2 * n + 2.0) * (2 * n + order + 1.0) * (2 * n + order + 2.0)
        )
        tg *= -w2 / (
            16.0 * (2 * n + 2.0) * (2 * n + 3.0) * (2 * n + order + 2.0) * (2 * n + order + 3.0)
        )
        sf += tf
        sg += tg
        mag = max(abs(tf), abs(tg))
        if mag > max_term:
            max_term = mag
        n += 1
        norm = math.hypot(sf, sg)
        if mag <= policy.rel_tol * norm:
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise TruncationError(
            f"f/g series did not converge within {policy.max_terms} terms "
            f"(omega = {omega:.3g})"
        )
    norm = math.hypot(sf, sg)
    ratio = math.inf if norm == 0.0 else max_term / norm
    return sf, sg, SeriesDiagnostics(n + 1, max_term, ratio)


def fg_series(
    order: float, omega: float, policy: SeriesPolicy = DEFAULT_POLICY
) -> FGPair:
    """The pair ``(f_order(omega), g_order(omega))`` by direct summation.

    ``f + i g`` reproduces ``tricomi_it(order, i*omega)``; the limits at
    ``omega -> 0+`` are ``(1/Gamma(order+1), 0)``.

    Raises CancellationError when the largest term exceeded
    ``policy.cancellation_guard`` times the pair norm; with the default
    guard this happens far above the recommended crossover, so results
    returned without error are trustworthy to roughly
    ``rel_tol * cancellation_guard``.
    """
    order = _require_order(order)
    omega = float(omega)
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    sf, sg, diag = _fg_sums(order, omega, policy)
    if diag.cancel_ratio > policy.cancellation_guard:
        raise CancellationError(
            f"f/g series lost too many digits at omega = {omega:.3g} "
            f"(term/result ratio {diag.cancel_ratio:.3g})",
            ratio=diag.cancel_ratio,
        )
    return FGPair(sf, sg, order, omega)


def _kelvin_series(
    order: float, x: float, policy: SeriesPolicy
) -> tuple[complex, SeriesDiagnostics]:
    """Direct power series for ``ber + i bei`` at small/moderate x.

    Term k carries the phase ``e^{i (3 order / 4 + k / 2) pi}``; the phase
    advances by a factor i per term, which encodes the parity pattern of the
    cos/sin coefficients in the defining series.
    """
    rot = cmath.exp(0.75j * math.pi * order)
    mag = 1.0 / gamma_real(order + 1.0)
    total = mag * rot
    max_term = abs(mag)
    q = 0.25 * x * x
    small_streak = 0
    k = 0
    while k < policy.max_terms:
        mag *= q / ((k + 1.0) * (k + order + 1.0))
        rot *= 1j
        total += mag * rot
        if mag > max_term:
            max_term = mag
        k += 1
        if mag <= policy.rel_tol * abs(total):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise TruncationError(
            f"Kelvin series did not converge within {policy.max_terms} terms "
            f"(x = {x:.3g})"
        )
    prefactor = (0.5 * x) ** order
    denom = abs(total)
    ratio = math.inf if denom == 0.0 else max_term / denom
    return prefactor * total, SeriesDiagnostics(k + 1, max_term, ratio)


def kelvin_scaled(
    order: float,
    x: float,
    policy: SeriesPolicy = DEFAULT_POLICY,
    series_crossover: float = DEFAULT_SERIES_CROSSOVER_X,
) -> tuple[float, float, float, float]:
    """Kelvin pair with the exponential growth factored out.

    Returns ``(ber_s, bei_s, log_scale, est_rel)`` such that
    ``ber = ber_s * exp(log_scale)`` and likewise for bei.  Below
    ``series_crossover`` the direct series is used and ``log_scale`` is 0;
    above it, the scaled large-argument evaluation (``log_scale =
    x/sqrt(2)``).  ``est_rel`` estimates the relative accuracy of the pair.

    The scaled form exists so that ratios of Kelvin-function products (the
    quality-factor formulas) can be formed at arguments where ber/bei
    themselves overflow.
    """
    order = _require_order(order)
    x = float(x)
    if x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x}")
    if x <= series_crossover:
        if x == 0.0:
            if order == 0.0:
                return 1.0, 0.0, 0.0, policy.rel_tol
            if order > 0.0:
                return 0.0, 0.0, 0.0, policy.rel_tol
            raise OverflowRangeError("ber/bei diverge at x = 0 for order < 0")
        pair, diag = _kelvin_series(order, x, policy)
        if diag.cancel_ratio > policy.cancellation_guard:
            raise CancellationError(
                f"Kelvin series lost too many digits at x = {x:.3g} "
                f"(term/result ratio {diag.cancel_ratio:.3g})",
                ratio=diag.cancel_ratio,
            )
        est = max(policy.rel_tol, 2.3e-16 * diag.cancel_ratio)
        return pair.real, pair.imag, 0.0, est
    z = x * cmath.exp(0.25j * math.pi)
    scaled_i, est = modified_i_asymptotic_scaled(order, z, policy.rel_tol)
    pair = cmath.exp(0.5j * math.pi * order) * scaled_i
    return pair.real, pair.imag, z.real, max(est, policy.rel_tol)


def kelvin(
    order: float,
    x: float,
    policy: SeriesPolicy = DEFAULT_POLICY,
    series_crossover: float = DEFAULT_SERIES_CROSSOVER_X,
) -> KelvinPair:
    """Kelvin functions ``(ber_order(x), bei_order(x))`` for ``x >= 0``.

    The pair is the real/imaginary split of ``J_order(x e^{3 pi i/4})``;
    it grows like ``e^{x/sqrt(2)}`` and raises OverflowRangeError once that
    factor leaves the double range (x > ~1003).
    """
    ber_s, bei_s, log_scale, _ = kelvin_scaled(order, x, policy, series_crossover)
    if log_scale == 0.0:
        return KelvinPair(ber_s, bei_s, order, x)
    if x > _KELVIN_OVERFLOW_X:
        raise OverflowRangeError(
            f"ber/bei overflow near x = {x:.3g}; use the scaled evaluation"
        )
    scale = math.exp(log_scale)
    return KelvinPair(ber_s * scale, bei_s * scale, order, x)


def fg_from_kelvin(
    order: float,
    omega: float,
    policy: SeriesPolicy = DEFAULT_POLICY,
    series_crossover: float = DEFAULT_SERIES_CROSSOVER_X,
) -> FGPair:
    """Recover ``(f, g)`` from the Kelvin pair at ``x = sqrt(omega)``.

    Inverts the rotation between the two families:

        f = (2/sqrt(w))^a [ cos(3 pi a/4) ber + sin(3 pi a/4) bei ]
        g = (2/sqrt(w))^a [-sin(3 pi a/4) ber + cos(3 pi a/4) bei ]

    Agrees with ``fg_series`` wherever both are reliable; this is the
    independent route used to cross-check the direct summation.
    """
    order = _require_order(order)
    omega = float(omega)
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    x = math.sqrt(omega)
    pair = kelvin(order, x, policy, series_crossover)
    c = math.cos(0.75 * math.pi * order)
    s = math.sin(0.75 * math.pi * order)
    prefactor = (2.0 / x) ** order
    f = prefactor * (c * pair.ber + s * pair.bei)
    g = prefactor * (-s * pair.ber + c * pair.bei)
    return FGPair(f, g, order, omega)
