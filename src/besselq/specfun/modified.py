"""Modified Bessel functions of the first kind: the one power series, the
one large-argument expansion and the one contiguous-ratio evaluator.

Every power series of the package is the uniform series

    T_a(s) = sum_m (s/4)^m / (m! Gamma(m+a+1)) = (z/2)^(-a) I_a(z),  z = sqrt(s),

summed by ``_tricomi_series`` at a point ``s`` times a prefactor:
``I_a(x)`` is ``(x/2)^a T_a(x^2)``, ``J_a(x)`` is ``(x/2)^a T_a(-x^2)``, the
f/g pair is ``T_a(i omega)`` and ``ber_a + i bei_a`` is
``(x/2)^a e^(3 pi i a/4) T_a(i x^2)``; ``tricomi_it`` is ``T_a`` itself.
The loop owns the overflow test and the cancellation guard; its tolerances
are fixed, and its term cap follows from ``|s|``.  ``_hankel_terms`` is the
one optimally truncated large-argument (Hankel) expansion, shared by
``bessel_j`` (``_j_hankel``) and, with a remainder bound
(``_hankel_sums``), by the Kelvin pair (``modified_i_asymptotic_scaled``)
and the ratio ``I_{a+1}/I_a`` (``_ratio_next_order``), which takes it or a
continued fraction by regime.  Every ``I`` ratio of the package comes from
that evaluator, so the exponential growth cancels exactly, also where the
functions themselves overflow.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from ..errors import (
    CancellationError,
    DomainError,
    NonConvergenceError,
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
#: Stopping tolerance of the continued fraction on ``|delta - 1|``.
_CF_TOL = 1e-15
#: Roundoff of a sum, taken as this many ulps of its largest term.
_ROUNDOFF = 4.0 * sys.float_info.epsilon


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


def _ratio_next_order(order: float, z: complex) -> tuple[complex, float, int]:
    """``I_{order+1}(z) / I_order(z)``, its relative error estimate and the
    continued-fraction (CF) iterations spent.

    Where ``Re z >= 20`` (the reflected ``e^{-2z}`` branch is below 4e-18)
    and both alternating Hankel sums have a remainder bound below 1e-16 and
    roundoff below 1e-14 of their size (``_hankel_sums``), it is their
    quotient, with that bound plus roundoff and 0 iterations.  A tiny last
    term is not enough: at order 88, ``z = 236(1+i)``, the terms first grow
    to 1e4, the sums cancel to 3e-4 and their quotient is off by 1e-8.
    Elsewhere it is the CF ``1/(b1 + 1/(b2 + ...))``, ``b_k = 2(order+k)/z``
    (modified Lentz), with its final residual ``|delta - 1|``.  The CF takes
    at most about ``|z| + 7|z|^(1/3) + 30`` iterations (on the imaginary
    axis, fewer off it), so ``2|z| + 100`` of them mean a fault.
    """
    if z == 0:
        raise DomainError("ratio undefined at z = 0")
    if z.real >= 20.0:
        parts = []
        for a in (order + 1.0, order):
            even, odd, remainder, roundoff = _hankel_sums(a, z)
            size = abs(even - odd)
            if not (remainder < 1e-16 and roundoff < 1e-14 * size):
                break
            parts.append((even - odd, (remainder + roundoff) / size))
        else:
            (numer, e_numer), (denom, e_denom) = parts
            return numer / denom, e_numer + e_denom, 0
    tol = _CF_TOL  # a local: read on every iteration
    tiny = 1e-290
    f = complex(tiny)
    c = f
    d = complex(0.0)
    max_iter = int(2.0 * abs(z)) + 100
    k = 0
    while k < max_iter:
        k += 1
        b = 2.0 * (order + k) / z
        d = b + d
        if d == 0:
            d = complex(tiny)
        c = b + 1.0 / c
        if c == 0:
            c = complex(tiny)
        d = 1.0 / d
        delta = c * d
        f *= delta
        residual = abs(delta - 1.0)
        if residual < tol:
            return f, residual, k
    raise NonConvergenceError(
        f"continued fraction for I-ratio failed after {max_iter} iterations "
        f"(order={order}, |z|={abs(z):.3g})"
    )


def _hankel_terms(order: float, z: complex, rel_tol: float) -> tuple[list, float]:
    """Optimally truncated terms ``t_k = a_k(order) / z^k`` of the
    large-argument expansion, ``a_k = prod_{j<=k} (4 order^2 - (2j-1)^2) /
    (k! 8^k)``, and an estimate of the relative truncation error.

    The series is asymptotic, not convergent: it stops at the first term
    below ``rel_tol`` or, failing that, at the globally smallest term, whose
    magnitude is the returned estimate.  Once ``(2k-1)^2 > 4 order^2`` the
    term ratio ``((2k-1)^2 - 4 order^2) / (8k|z|)`` grows with ``k``, so the
    first term larger than its predecessor there ends the search; so does
    a term above 1e9, past which roundoff in the sum would exceed the
    truncation estimate.  ``I_order(z)`` uses ``sum (-1)^k
    t_k`` and ``sum t_k``; ``J_order(x)`` uses ``sum t_k = P + iQ`` at
    ``z = -ix``.
    """
    mu = 4.0 * order * order
    terms = [1.0]
    t = 1.0
    for k in range(1, 80):
        c = (2.0 * k - 1.0) ** 2
        t = t * ((mu - c) / (8.0 * k)) / z
        terms.append(t)
        mag = abs(t)
        if mag < rel_tol:
            return terms, mag
        if mag > 1e9 or (c > mu and mag > abs(terms[-2])):
            break
    m_star = min(range(1, len(terms)), key=lambda i: abs(terms[i]))
    return terms[: m_star + 1], abs(terms[m_star])


def _j_hankel(order: float, x: float, rel_tol: float) -> tuple[float, float]:
    """``J_order(x) / sqrt(2/(pi x))`` from the large-argument expansion,
    ``Re[(P + iQ) e^(i chi)]`` with ``P + iQ = sum t_k`` at ``z = -ix`` and
    ``chi = x - (order/2 + 1/4) pi``, and its error estimate: the smallest
    term plus ``_ROUNDOFF`` times the largest.

    ``e^(i chi)`` comes from ``e^(ix)`` and the exactly reduced shift:
    ``chi`` itself, rounded to double, is off by ~eps x.
    """
    terms, smallest = _hankel_terms(order, complex(0.0, -x), rel_tol)
    shift = math.pi * math.fmod(0.5 * order + 0.25, 2.0)
    value = (sum(terms) * cmath.rect(1.0, x) * cmath.rect(1.0, -shift)).real
    return value, smallest + _ROUNDOFF * max(map(abs, terms))


def _hankel_sums(order: float, z: complex) -> tuple[complex, complex, float, float]:
    """Even and odd parts of ``sum t_k`` (``I_order(z)`` takes ``even -
    odd``, its reflected branch ``even + odd``), a remainder bound and the
    roundoff (``_ROUNDOFF`` times the largest term).

    The last term from ``_hankel_terms`` is left out as the first omitted
    one, ``t_l``; the bound is ``|t_l| 2 chi(l) exp(|order^2 - 1/4|/|z|)``
    (DLMF 10.40(iv), ``|ph z| <= pi/2``), with ``chi(l) = sqrt(pi)
    Gamma(l/2 + 1)/Gamma(l/2 + 1/2)`` bounded by ``sqrt(pi (l + 1)/2)``.
    """
    growth = math.exp(min(abs(order * order - 0.25) / abs(z), 700.0))
    terms, _ = _hankel_terms(order, z, 1e-18 / growth)
    kept = terms[:-1]
    chi = math.sqrt(0.5 * math.pi * len(terms))
    remainder = 2.0 * chi * growth * abs(terms[-1])
    roundoff = _ROUNDOFF * max(map(abs, kept))
    return sum(kept[0::2]), sum(kept[1::2]), remainder, roundoff

