"""Bessel function of the first kind (real order > -1) and its positive
zeros.

``bessel_j`` is ``(x/2)^a T_a(-x^2)``, the shared power series of
``series``, for x <= 12, where roundoff in the alternating sum stays near
machine level.  Beyond that the handover the Kelvin pair shares
(``series._series_or_expansion``) takes the series or the optimally
truncated Hankel expansion, ``sum t_k = P + iQ`` at ``z = -ix``, or raises
``TruncationError`` when neither reaches 5e-11 of the amplitude, and where
``x <= order`` (below the first zero, where the value may be far below the
amplitude) of the value.  Zeros come from Newton steps safeguarded with
bisection inside a verified sign-change bracket: the classical bounds
``4(a+1) < j_{a,1}^2 < 2(a+1)(a+3)`` for the first zero, a McMahon
asymptotic guess for the others.

Validated to ~1e-12 absolute for orders up to ~8 and zero index up to 1e4;
beyond that range accuracy degrades gradually (document-of-record: the
Hankel expansion and McMahon guess both lose ground once order ~ argument).
Both zero finders serve one domain of orders, up to 10.79 and near 11.5,
12.5 and 13.5: see ``_require_zero_order``.

The zeros serve the verification suites only (``checks``: 1,000 zeros at
a few orders, those of orders 2 and 3 fourteen times), so
``bessel_j_zeros`` keeps the tables of its last 8 calls; ``creep_rate_time``
needs no zeros.
"""

from __future__ import annotations

import cmath
import functools
import math

from ..errors import DomainError, RootIsolationError, TruncationError, _require_order
from .modified import _ROUNDOFF, _hankel_terms
from .series import _require_argument, _require_index, _series_or_expansion, _tricomi_series

#: ``bessel_j`` sums the series alone up to this argument, and above it
#: hands over within ``_J_MAX_ERROR`` of the amplitude ``sqrt(2/(pi x))``.
_J_SERIES_MAX_X = 12.0
_J_MAX_ERROR = 5e-11

#: Truncation of the Hankel expansion of J.
_J_REL_TOL = 1e-17

#: Terms of the Hankel expansion in ``_hankel_refine``, and the largest first
#: omitted term ``|a_14| / x^14`` that the zero refinement accepts.
_HANKEL_TERMS = 13
_HANKEL_OMITTED_MAX = 1e-10

#: Zeros whose McMahon guess lies at or below this come from the scalar
#: bracket-verified ``bessel_j_zero``; larger ones from the Hankel refinement.
_SMALL_ZERO_MAX = _J_SERIES_MAX_X + 8.0


def bessel_j(order: float, x: float) -> float:
    """Bessel function ``J_order(x)`` for ``order > -1``, ``x >= 0``.

    Above ``x = 12`` the value is within 5e-11 of the amplitude
    ``sqrt(2/(pi x))`` and, where ``x <= order``, within 5e-11 relative;
    otherwise TruncationError.
    """
    order, x = _require_argument(order, x)
    # no cancellation guard: J is evaluated at its own zeros, where the sum
    # cancels by design
    series = functools.partial(_tricomi_series, order, -x * x, x, guard=math.inf)
    if x <= _J_SERIES_MAX_X:
        return series()[0]
    amplitude = math.sqrt(2.0 / (math.pi * x)) or math.sqrt(2.0 / math.pi / x)  # pi x = inf
    value, error = _series_or_expansion(order, x, series, _j_hankel(order, x, amplitude),
                                        _J_MAX_ERROR, amplitude)
    # up to its order J has no zero: there the error must be small beside
    # the value itself, not beside the amplitude
    if x <= order and error * amplitude > _J_MAX_ERROR * abs(value):
        raise TruncationError(
            f"J_{order}({x}) = {value:.3e} below its first zero: the estimate "
            f"{error * amplitude:.2e} exceeds {_J_MAX_ERROR:.0e} of it"
        )
    return value


def _j_hankel(order: float, x: float, amplitude: float) -> tuple[float, float]:
    """``J_order(x)`` from the large-argument expansion, ``amplitude
    Re[(P + iQ) e^(i chi)]`` with ``P + iQ = sum t_k`` at ``z = -ix``, ``chi =
    x - (order/2 + 1/4) pi`` and ``amplitude = sqrt(2/(pi x))``, and its error
    estimate in units of the amplitude: the smallest term plus ``_ROUNDOFF``
    times the largest.

    ``e^(i chi)`` comes from ``e^(ix)`` and the exactly reduced shift:
    ``chi`` itself, rounded to double, is off by ~eps x.
    """
    terms, smallest = _hankel_terms(order, complex(0.0, -x), _J_REL_TOL)
    shift = math.pi * math.fmod(0.5 * order + 0.25, 2.0)
    value = (sum(terms) * cmath.rect(1.0, x) * cmath.rect(1.0, -shift)).real
    return value * amplitude, smallest + _ROUNDOFF * max(map(abs, terms))


def _mcmahon_zero_estimate(order: float, k: float) -> float:
    """McMahon expansion for the k-th positive zero of ``J_order``.

    Four correction terms in ``1/(8 beta)`` with ``beta =
    (k + order/2 - 1/4) pi``; excellent for ``k >= 2`` (and asymptotically
    in k), unreliable for ``k = 1`` near order -1.  Private: it checks no
    argument, and its callers take orders through ``_require_zero_order``.
    """
    mu = 4.0 * order * order
    beta = (k + 0.5 * order - 0.25) * math.pi
    e = 8.0 * beta
    return (
        beta
        - (mu - 1.0) / e
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e**3)
        - 32.0 * (mu - 1.0) * (83.0 * mu**2 - 982.0 * mu + 3779.0) / (15.0 * e**5)
        - 64.0
        * (mu - 1.0)
        * (6949.0 * mu**3 - 153855.0 * mu**2 + 1585743.0 * mu - 6277237.0)
        / (105.0 * e**7)
    )


def bessel_j_zero(order: float, k: int) -> float:
    """k-th positive zero of ``J_order``, bracket-verified.

    A sign change of ``J_order`` across the returned point is established
    before refinement, so the result is guaranteed to be a zero (absolute
    error below 1e-10; typically ~1e-13).

    Raises DomainError, before any work, outside the domain of
    ``_require_zero_order``.  The bracket is the classical bound for
    ``k = 1`` and the McMahon guess ``+- 0.05``, widened while it holds no
    sign change, for the others; RootIsolationError, naming the order and
    the index, if it still holds none, which signals a bug rather than an
    expected failure mode.
    """
    order = _require_zero_order(order)
    k = _require_index(k, "zero index")
    if k == 1:
        # 4(a+1) < j_{a,1}^2 < 2(a+1)(a+3), valid for all a > -1
        lo = 2.0 * math.sqrt(order + 1.0) * (1.0 - 1e-12)
        hi = math.sqrt(2.0 * (order + 1.0) * (order + 3.0)) * (1.0 + 1e-12)
        flo, fhi = bessel_j(order, lo), bessel_j(order, hi)
    else:
        guess = _mcmahon_zero_estimate(order, k)
        h = 0.05
        lo, hi = guess - h, guess + h
        flo, fhi = bessel_j(order, lo), bessel_j(order, hi)
        while flo * fhi > 0.0 and h < 1.6:
            h *= 1.7
            lo, hi = guess - h, guess + h
            flo, fhi = bessel_j(order, lo), bessel_j(order, hi)
    if flo * fhi > 0.0:
        raise RootIsolationError(
            f"could not isolate zero #{k} of J_{order}: no sign change "
            f"on [{lo:.17g}, {hi:.17g}]"
        )
    # Newton safeguarded by the bracket, with J' = (order/x) J - J_{order+1}
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = bessel_j(order, x)
        if f * flo < 0.0:
            hi = x
        else:
            lo, flo = x, f
        d = (order / x) * f - bessel_j(order + 1.0, x)
        step = f / d if d else math.inf
        # converged (f == 0.0 too) before the bracket test: a last step that
        # rounds onto the bracket's end must not fall back to bisection
        if abs(step) < 4e-15 * max(1.0, x):
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x


def _hankel_coefficients(order: float, count: int) -> tuple[float, ...]:
    """``a_1 .. a_count`` of the large-argument expansion of ``J_order``."""
    mu = 4.0 * order * order
    coefficients = []
    a = 1.0
    for k in range(1, count + 1):
        a *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)
        coefficients.append(a)
    return tuple(coefficients)


def _hankel_horner(order: float) -> tuple[tuple[float, float, float, float], ...]:
    """Signed 13-term Hankel coefficients of ``J_order`` and ``J_order+1``,
    rows highest power first for Horner's rule in ``w = 1/x^2``.

    Row ``m`` holds the coefficients of ``w^(6-m)`` in ``P_order``,
    ``x Q_order``, ``P_order+1`` and ``x Q_order+1``, where ``J_a(x) =
    sqrt(2/(pi x)) (P_a cos chi_a - Q_a sin chi_a)``, ``P_a = 1 - a_2/x^2 +
    a_4/x^4 - ...``, ``Q_a = a_1/x - a_3/x^3 + ...``.
    """
    columns = []
    for a in (order, order + 1.0):
        c = (1.0,) + _hankel_coefficients(a, _HANKEL_TERMS)
        signed = [(-1) ** (k // 2) * c[k] for k in range(_HANKEL_TERMS + 1)]
        columns += [signed[0::2][::-1], signed[1::2][::-1]]
    return tuple(zip(*columns))


def _hankel_refine(order: float, x: float, rows: tuple) -> float:
    """At most four Newton steps on the 13-term Hankel ``J_order`` from a
    McMahon guess ``x``, stopping once a step falls below ``4e-15 x``:
    Newton's next step would then move it by rounding only.  ``rows`` are
    ``_hankel_horner(order)``.

    One Horner pass gives ``P``, ``Q`` of both ``J_order`` and
    ``J_order+1``; one ``cos``/``sin`` pair serves both, as ``chi_{a+1} =
    chi_a - pi/2``; the common amplitude ``sqrt(2/(pi x))`` cancels in the
    step ``J_a / J_a' = J_a / ((a/x) J_a - J_{a+1})`` and is left out.
    """
    shift = (0.5 * order + 0.25) * math.pi
    for _ in range(4):
        w = 1.0 / (x * x)
        p0 = q0 = p1 = q1 = 0.0
        for a, b, c, d in rows:
            p0 = p0 * w + a
            q0 = q0 * w + b
            p1 = p1 * w + c
            q1 = q1 * w + d
        chi = x - shift
        cos, sin = math.cos(chi), math.sin(chi)
        f = p0 * cos - q0 / x * sin
        step = f / ((order / x) * f - (p1 * sin + q1 / x * cos))
        x -= step
        if abs(step) < 4e-15 * x:
            break
    return x


def _require_zero_order(order: float) -> float:
    """``order``, or DomainError unless 13 Hankel terms can refine its zeros:
    the one domain of both zero finders, checked before any work and
    whatever the index or count.

    Zeros past the series region are refined with 13 Hankel terms.  The
    first omitted term ``|a_14| / x^14``, at the McMahon guess ``x`` of the
    smallest zero past ``_SMALL_ZERO_MAX`` (the first one ``bessel_j_zeros``
    refines), must not exceed 1e-10: the order must not come too close to
    the argument for the expansion.  The term is about 9e-13 at order 7,
    5e-11 at 10 and 8e-9 at 12.  It exceeds 1e-10 from order 10.792 on,
    except within about 0.01 of 11.5 and 12.5 and at 13.5, where the
    expansion terminates, and at every order above 13.5: there ``a_14``
    grows like ``order^28`` while the zeros grow like ``order``.
    """
    order = _require_order(order)
    if order <= _HANKEL_TERMS + 0.5:
        k = 1
        while (x := _mcmahon_zero_estimate(order, k)) <= _SMALL_ZERO_MAX:
            k += 1
        omitted = abs(_hankel_coefficients(order, _HANKEL_TERMS + 1)[-1])
        if omitted / x ** (_HANKEL_TERMS + 1) <= _HANKEL_OMITTED_MAX:
            return order
    raise DomainError(
        f"zeros of J_{order} need more than {_HANKEL_TERMS} Hankel terms: the "
        "zero finders serve orders up to 10.79 and near 11.5, 12.5 and 13.5"
    )


@functools.lru_cache(maxsize=8)
def bessel_j_zeros(order: float, count: int) -> tuple[float, ...]:
    """First ``count`` positive zeros of ``J_order``, as a tuple.

    Small zeros (McMahon guess at most ``_SMALL_ZERO_MAX``) come from the
    bracket-verified ``bessel_j_zero``, the rest from ``_hankel_refine``,
    and the sequence is checked to be strictly increasing.  The tables of
    the last 8 calls are kept.

    Raises ``DomainError``, before any zero is refined, outside the domain
    of ``_require_zero_order``.
    """
    order = _require_zero_order(order)
    count = _require_index(count, "count")
    guesses = [_mcmahon_zero_estimate(order, float(k)) for k in range(1, count + 1)]
    rows = _hankel_horner(order)
    zeros = tuple(
        bessel_j_zero(order, k) if x <= _SMALL_ZERO_MAX else _hankel_refine(order, x, rows)
        for k, x in enumerate(guesses, start=1)
    )
    if any(b <= a for a, b in zip(zeros, zeros[1:])):
        raise RootIsolationError(
            f"zero sequence of J_{order} not strictly increasing; refinement failed"
        )
    return zeros
