"""Modified Bessel functions of the first kind: the one large-argument
expansion and the one contiguous-ratio evaluator, the production half of
the package's special functions.

``_hankel_terms`` is the one optimally truncated large-argument (Hankel)
expansion, shared by ``bessel_j`` (``zeros._j_hankel``) and, with a
remainder bound (``_hankel_sums``), by the Kelvin pair
(``kelvinfg._kelvin_expansion``) and the ratio ``I_{a+1}/I_a``
(``_ratio_next_order``), which takes it or a continued fraction by regime.
Every ``I`` ratio of the package comes from that evaluator, so the
exponential growth cancels exactly, also where the functions themselves
overflow.  ``q_inverse`` and ``creep_rate_time`` need nothing else; the
power series, ``modified_bessel_i`` and ``tricomi_it`` live in ``series``.
"""

from __future__ import annotations

import math

from ..errors import _UNIT, DomainError, NonConvergenceError

#: Stopping tolerance of the continued fraction on ``|delta - 1|``.
_CF_TOL = 1e-15
#: Most iterations the continued fraction may take: about 4 s at ~0.95 us
#: an iteration (2-core Intel Xeon, Python 3.11).
_CF_MAX_ITER = 2**22


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
    (modified Lentz), with its final residual ``|delta - 1|`` plus ``2u``
    (``u`` the unit ``_UNIT``) for the rounding of each of its ``k``
    iterations, which scale the running product ``f``.  The CF takes
    at most about ``|z| + 7|z|^(1/3) + 30`` iterations (on the imaginary
    axis, fewer off it), so ``2|z| + 100`` of them mean a fault.  At large
    orders and ``|z|`` it may need about ``1.5 order`` iterations (1.5e6 at
    order 1e6, ``|z|`` 1e11), and on the imaginary axis about ``|z|``: the
    work is capped at ``_CF_MAX_ITER``, past which NonConvergenceError
    names the count.  The cap is a stopgap that turns a call that would not
    return into a loud one, until those regimes are served at a flat cost.
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
    max_iter = min(int(2.0 * abs(z)) + 100, _CF_MAX_ITER)
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
            return f, residual + 2.0 * _UNIT * k, k
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

def _hankel_sums(order: float, z: complex) -> tuple[complex, complex, float, float]:
    """Even and odd parts of ``sum t_k`` (``I_order(z)`` takes ``even -
    odd``, its reflected branch ``even + odd``), a remainder bound and the
    roundoff, ``8u`` (``u`` the unit ``_UNIT``) times the largest term.

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
    roundoff = 8.0 * _UNIT * max(map(abs, kept))
    return sum(kept[0::2]), sum(kept[1::2]), remainder, roundoff
