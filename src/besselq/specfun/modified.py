"""Modified Bessel functions of the first kind: the one large-argument
form of ``I`` and the one contiguous-ratio evaluator, the production half
of the package's special functions.

``_hankel_terms`` is the one optimally truncated large-argument (Hankel)
expansion, shared by ``bessel_j`` (``zeros._j_hankel``) and, with a
remainder bound (``_hankel_sums``), by ``_scaled_i``, both exponential
branches of ``I`` (DLMF 10.40.5), which serves the Kelvin pair and the
ratio ``I_{a+1}/I_a`` (``_ratio_next_order``), its one alternative a
continued fraction.  Every ``I`` ratio of the package comes from that
evaluator, so the exponential growth cancels exactly, also where the
functions themselves overflow.  The power series live in ``series``.
"""

from __future__ import annotations

import cmath
import math

from ..errors import _UNIT, DomainError, NonConvergenceError

#: Stopping tolerance of the continued fraction on ``|delta - 1|``.
_CF_TOL = 1e-15
#: Most iterations the continued fraction may take: about 4 s at ~0.95 us
#: an iteration (2-core Intel Xeon, Python 3.11).
_CF_MAX_ITER = 2**22
#: Smallest ``|z|`` at which the ratio takes the reflected branch of
#: ``_scaled_i`` (so a sine and cosine): below it the continued fraction
#: serves wherever ``|e^(-2z)| >= 1e-17``.  The Talbot nodes of
#: ``model.creep_rate_time`` lie at ``arg s <= 145.93`` degrees, so ``Re z >=
#: 0.29294 |z|`` there, and ``|e^(-2z)| < 1e-17`` from ``|z| = 66.81`` on, at
#: every order and time: no node needs the branch.  ``q_inverse``'s ray
#: ``arg z = 45`` degrees leaves it out from ``|z| = 28``.
_REFLECTION_FROM = 68.0


def _ratio_next_order(order: float, z: complex) -> tuple[complex, float, int]:
    """``I_{order+1}(z) / I_order(z)`` for ``Re z >= 0``, its relative error
    estimate and the continued-fraction (CF) iterations spent.

    Where ``_scaled_i`` trusts both values (the reflected factor formed
    once), it is their quotient, with the sum of their estimates and 0
    iterations: from ``|z| = _REFLECTION_FROM`` (68), on the imaginary axis
    too, and below it where the reflected branch ``|e^(-2z)|`` is below
    1e-17 and is left out, so no sine or cosine is taken.  Below ``|z| =
    68`` otherwise the CF serves: below 28 it costs less (at ``|z| = 16`` 22
    us against 55 us, 2-core host, Python 3.11), and below ``|z|`` of about
    16.7 the expansion reaches its bound only at orders near a
    half-integer; from 28 to 68 it costs more (at order 2, ``arg z`` 73
    and 90 degrees, 35 to 67 us against 30 to 42 us), the price of keeping
    the trigonometry (about 0.17 MB of libm pages on first use) off the
    ``creep_rate_time`` path.  Elsewhere it is the CF ``1/(b1 +
    1/(b2 + ...))``, ``b_k = 2(order+k)/z`` (modified Lentz), with its residual
    ``|delta - 1|`` plus ``2u`` (``u`` the unit ``_UNIT``) for each of its
    ``k`` iterations, and ``3 (|f| + 1/|f|) e^(-2 Re z)`` more for each of
    the ``|z| - order`` with ``|b_k| < 2``: there the recurrence oscillates,
    and a rounding shifts its phase, which moves the ratio ``f`` by ``|f| +
    1/|f|`` times as much.  The CF takes at most about ``|z| + 7|z|^(1/3) +
    30`` iterations at small orders, so ``2|z| + 100`` mean a fault, and
    about ``1.5 order`` at large ones: the work is capped at
    ``_CF_MAX_ITER``, past which NonConvergenceError names the count.
    """
    if z == 0:
        raise DomainError("ratio undefined at z = 0")
    weight = math.exp(-2.0 * abs(z.real))  # |e^(-2z)|, the size of the reflected branch
    if abs(z) >= _REFLECTION_FROM or weight < 1e-17:
        reflected = _reflection(order, z) if weight >= 1e-17 else 0.0
        numer, e_numer, trusted = _scaled_i(order + 1.0, z, -reflected)
        denom, e_denom, trusted = _scaled_i(order, z, reflected) if trusted else (1.0, 0.0, False)
        if trusted:
            return numer / denom, e_numer + e_denom, 0
    tol = _CF_TOL  # a local: read on every iteration
    tiny = 1e-290
    f = complex(tiny)
    c = f
    d = complex(0.0)
    max_iter = min(int(2.0 * abs(z)) + 100, _CF_MAX_ITER)
    for k in range(1, max_iter + 1):
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
            # the iterations with |b_k| < 2, weighted by the reflected branch
            swing = 3.0 * max(0.0, abs(z) - order) * weight
            swing *= (abs(f) + 1.0 / (abs(f) or tiny)) if swing else 0.0
            return f, residual + 2.0 * _UNIT * (k + swing), k
    raise NonConvergenceError(
        f"continued fraction for I-ratio failed after {max_iter} iterations "
        f"(order={order}, |z|={abs(z):.3g})"
    )


def _rotation(order: float, c: float) -> complex:
    """``e^(i pi c order)``, for ``c`` a multiple of 1/4, with ``order``
    reduced modulo 8 first, exactly, so its rounding does not grow with it."""
    return cmath.rect(1.0, math.pi * math.fmod(c * math.fmod(order, 8.0), 2.0))


def _reflection(order: float, z: complex) -> complex:
    """``± i e^(± i order pi) e^(-2z)``, the reflected factor of ``_scaled_i``,
    upper sign for ``Im z > 0``, off the real axis.  Minus it serves ``order
    + 1``."""
    sign = math.copysign(1.0, z.imag)
    return sign * 1j * _rotation(order, sign) * cmath.exp(-2.0 * z)


def _scaled_i(order: float, z: complex, rho: complex) -> tuple[complex, float, bool]:
    """``e^(-z) sqrt(2 pi z) I_order(z) = (even - odd) + rho (even + odd)``
    (DLMF 10.40.5), ``rho`` from ``_reflection``; its relative estimate,
    the bound and roundoff of ``_hankel_sums`` times ``1 + |rho|`` over its
    size; and whether the ratio is to take it over the CF: the bound below
    1e-16 and the roundoff below ``c |rho|`` or ``min(c, 1e-14)`` times the
    size, ``c = 2u |z|`` what the CF's ``|z|`` or so iterations cost on the
    imaginary axis.  So near the axis, where the CF loses as much, the
    branches may cancel; off it the sums must not (at order 88, ``z =
    236(1+i)``, terms of 1e4 cancel to 3e-4, and the ratio was 1e-8 off)."""
    even, odd, remainder, roundoff = _hankel_sums(order, z)
    value = even - odd + rho * (even + odd)
    size = abs(value) / (1.0 + abs(rho))
    c = 2.0 * _UNIT * abs(z)
    trusted = remainder < 1e-16 and (roundoff < min(c, 1e-14) * size or roundoff < c * abs(rho))
    return value, (remainder + roundoff) / size if size else math.inf, trusted


def _hankel_terms(order: float, z: complex, rel_tol: float) -> list:
    """Optimally truncated terms ``t_k = a_k(order) / z^k`` of the
    large-argument expansion, ``a_k = prod_{j<=k} (4 order^2 - (2j-1)^2) /
    (k! 8^k)``.

    The series is asymptotic, not convergent: it stops at the first term
    below ``rel_tol`` or, failing that, at the globally smallest term.
    That last term's magnitude estimates the relative truncation error.
    Once ``(2k-1)^2 > 4 order^2`` the term ratio ``((2k-1)^2 - 4 order^2) /
    (8k|z|)`` grows with ``k``, so the first term larger than its
    predecessor there ends the search; so does a term above 1e9, past which
    roundoff in the sum would exceed the truncation estimate.  ``I_order(z)``
    uses ``sum (-1)^k t_k`` and ``sum t_k``; ``J_order(x)`` uses ``sum t_k =
    P + iQ`` at ``z = -ix``.
    """
    mu = 4.0 * order * order
    terms = [1.0]
    t = 1.0
    for k in range(1, 80):
        c = (2 * k - 1) ** 2  # an exact int: no float power
        t = t * ((mu - c) / (8.0 * k)) / z
        terms.append(t)
        mag = abs(t)
        if mag < rel_tol:
            return terms
        if mag > 1e9 or (c > mu and mag > abs(terms[-2])):
            break
    m_star = min(range(1, len(terms)), key=lambda i: abs(terms[i]))
    return terms[: m_star + 1]

def _hankel_sums(order: float, z: complex) -> tuple[complex, complex, float, float]:
    """Even and odd parts of ``sum t_k``, a remainder bound of both branches
    of ``_scaled_i`` and the roundoff, ``8u`` times the largest term.

    The last term from ``_hankel_terms``, ``t_l``, is the first omitted.
    DLMF 10.40.10-11 bound each branch as an expansion of ``K``: ``even +
    odd`` is ``K``'s at ``z``, ``|ph z| <= pi/2``, within ``|t_l| 2 chi(l)
    exp(|order^2 - 1/4|/|z|)``; ``even - odd`` is ``K``'s at ``-z``, whose
    phase, on the side the sign of ``_reflection`` takes, lies in ``[pi/2,
    pi]``, so its exponent carries ``chi(1) = pi/2``.  The bound returned
    is that larger one, ``chi(l) = sqrt(pi) Gamma(l/2 + 1)/Gamma(l/2 +
    1/2) <= sqrt(pi (l + 1)/2)``.
    """
    growth = math.exp(min(0.5 * math.pi * abs(order * order - 0.25) / abs(z), 700.0))
    terms = _hankel_terms(order, z, 1e-18 / growth)
    kept = terms[:-1]
    remainder = 2.0 * math.sqrt(0.5 * math.pi * len(terms)) * growth * abs(terms[-1])  # chi(l)
    roundoff = 8.0 * _UNIT * max(map(abs, kept))
    return sum(kept[0::2]), sum(kept[1::2]), remainder, roundoff
