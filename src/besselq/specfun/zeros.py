"""Bessel function of the first kind (real order > -1) and its positive
zeros.

``bessel_j`` is ``(x/2)^a T_a(-x^2)``, the shared power series of
``series``, for x <= 12, where roundoff in the alternating sum stays near
machine level.  Beyond that the handover the Kelvin pair shares
(``series._series_or_expansion``) takes the series or the optimally
truncated Hankel expansion, ``sum t_k = P + iQ`` at ``z = -ix``, or raises
``TruncationError`` when neither reaches 5e-11 of the amplitude, and where
``x <= order`` (below the first zero, where the value may be far below the
amplitude) of the value.

Each positive zero has one rule, ``_zero``, whichever finder asks.  Where
McMahon's asymptotic guess lies at most 20, Newton steps safeguarded with
bisection inside a verified sign-change bracket: the classical bounds
``4(a+1) < j_{a,1}^2 < 2(a+1)(a+3)`` for the first zero, the guess ``+-
0.05`` for the others.  Past 20, Newton's method on the phase of that same
expansion.  ``bessel_j_zero`` returns one zero by that rule and
``bessel_j_zeros`` a table of them, so the two agree bit for bit.

Both zero finders serve the orders ``(-1, 16]`` (see
``_require_zero_order``), the indices up to ``10**15`` and counts up to
``10**6``.  On a grid of orders from -0.999 to 16 by 0.01
the bracketed zeros are within 4e-12 absolute of mpmath but five just past
the handover, at x = 12.01 to 12.06, within 7.5e-12 (``bessel_j``'s
5e-11 of the amplitude limits them); the phase zeros, from the first past
20 to index 1e4, within a few ulps.

The zeros serve the verification suites only (``checks``: 1,000 zeros at
a few orders, those of orders 2, 3 and 4.5 seven times each), so
``bessel_j_zeros`` keeps the tables of its last 8 calls; ``creep_rate_time``
needs no zeros.
"""

from __future__ import annotations

import cmath
import functools
import math

from ..errors import (_UNIT, DomainError, NonConvergenceError, RootIsolationError,
                      TruncationError, _require_index, _require_order)
from .modified import _hankel_terms
from .series import _require_argument, _series_or_expansion, _series_value

#: ``bessel_j`` sums the series alone up to this argument, and above it
#: hands over within ``_J_MAX_ERROR`` of the amplitude ``sqrt(2/(pi x))``.
_J_SERIES_MAX_X = 12.0
_J_MAX_ERROR = 5e-11

#: Truncation of the Hankel expansion of J.
_J_REL_TOL = 1e-17

#: Zeros whose McMahon guess lies at or below this come from Newton inside
#: a verified bracket, larger ones from ``_phase_zero`` (see ``_zero``).
_SMALL_ZERO_MAX = _J_SERIES_MAX_X + 8.0

#: Largest order of the zero finders: see ``_require_zero_order``.
_ZERO_ORDER_MAX = 16.0

#: Largest zero index, the largest power of ten below ``2**53``: there
#: consecutive zeros are distinct doubles, and the phase zeros match
#: McMahon's expansion within 2 ulps.  At 1e16 the spacing of doubles (4)
#: exceeds that of the zeros (pi): indices 1e16 and 1e16 + 1 gave one double
#: at each of 200 orders from -0.999 to 16.
_ZERO_INDEX_MAX = 10**15


def bessel_j(order: float, x: float) -> float:
    """Bessel function ``J_order(x)`` for ``order > -1``, ``x >= 0``.

    Above ``x = 12`` the value is within 5e-11 of the amplitude
    ``sqrt(2/(pi x))`` and, where ``x <= order``, within 5e-11 relative;
    otherwise TruncationError.
    """
    order, x = _require_argument(order, x)
    series = functools.partial(_series_value, order, -x * x, x, "J_%r(%r)", order, x)
    if x <= _J_SERIES_MAX_X:
        return series()[0]
    amplitude = math.sqrt(2.0 / (math.pi * x)) or math.sqrt(2.0 / math.pi / x)  # pi x = inf
    value, error, _ = _series_or_expansion(order, x, series, _j_hankel(order, x, amplitude),
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
    estimate in units of the amplitude: the smallest term plus ``8u`` (``u``
    the unit ``_UNIT``) times the largest.

    ``e^(i chi)`` comes from ``e^(ix)`` and the exactly reduced shift:
    ``chi`` itself, rounded to double, is off by ~eps x.
    """
    terms = _hankel_terms(order, complex(0.0, -x), _J_REL_TOL)
    shift = math.pi * math.fmod(0.5 * order + 0.25, 2.0)
    value = (sum(terms) * cmath.rect(1.0, x) * cmath.rect(1.0, -shift)).real
    return value * amplitude, abs(terms[-1]) + 8.0 * _UNIT * max(map(abs, terms))


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
    """k-th positive zero of ``J_order``: entry ``k`` of ``bessel_j_zeros``,
    bit for bit, by the one rule of ``_zero``.

    Where McMahon's guess lies at most 20 the zero is bracket-verified: a
    sign change of ``J_order`` across the returned point is established
    before refinement, so the result is a zero (absolute error below
    1e-10; typically ~1e-13, at most 7.5e-12 on a 0.01 grid of orders to
    16).  The bracket is the classical bound for ``k = 1`` and the guess
    ``+- 0.05`` for the others, twice McMahon's worst error there (0.024,
    at order 11.305, over the 35,321 such zeros of a 0.001 grid of orders
    from -0.999 to 16).  Past 20 the zero is identified by its phase,
    within a few ulps.

    Raises DomainError, before any work, for an order outside ``(-1,
    16]`` (``_require_zero_order``) or an index above ``10**15``
    (``_ZERO_INDEX_MAX``).  RootIsolationError, naming the order and the
    index, where a bracket holds no sign change, which signals a bug rather
    than an expected failure mode; NonConvergenceError, naming them too,
    where 100 Newton steps in the bracket do not settle; TruncationError,
    naming them too, where the phase expansion does not reach its
    truncation.
    """
    return _zero(_require_zero_order(order), _require_index(k, "zero index", _ZERO_INDEX_MAX))


def _zero(order: float, k: int) -> float:
    """The k-th positive zero of ``J_order`` by the one rule of both zero
    finders: ``_phase_zero`` where McMahon's guess lies past
    ``_SMALL_ZERO_MAX``, else Newton steps safeguarded with bisection inside
    a verified sign-change bracket.  Private: it checks no argument.

    The steps stop at the first that falls below ``4e-15 max(1, x)``,
    returning the point it reaches, or at the first no smaller than the one
    before, returning the mean of ``x`` and that point: there the rounding
    of ``J``, about 1e-12 in ``x`` near ``x = 12``, sets the step, and the
    two points estimate the zero with independent roundings.
    NonConvergenceError if 100 steps reach neither.  On the 0.01 grid of
    orders the 5,114 bracketed zeros take at most 20 calls of ``bessel_j``,
    47,326 in all; with the first stop alone 221 ran all 100 steps (202
    calls each, 91,668 in all) and returned the last iterate."""
    guess = _mcmahon_zero_estimate(order, k)
    if guess > _SMALL_ZERO_MAX:
        return _phase_zero(order, k, guess)
    if k == 1:
        # 4(a+1) < j_{a,1}^2 < 2(a+1)(a+3), valid for all a > -1
        lo = 2.0 * math.sqrt(order + 1.0) * (1.0 - 1e-12)
        hi = math.sqrt(2.0 * (order + 1.0) * (order + 3.0)) * (1.0 + 1e-12)
    else:
        lo, hi = guess - 0.05, guess + 0.05
    flo = bessel_j(order, lo)
    if flo * bessel_j(order, hi) > 0.0:
        raise RootIsolationError(
            f"could not isolate zero #{k} of J_{order}: no sign change "
            f"on [{lo:.17g}, {hi:.17g}]"
        )
    # Newton safeguarded by the bracket, with J' = (order/x) J - J_{order+1}
    x, last = 0.5 * (lo + hi), math.inf
    for _ in range(100):
        f = bessel_j(order, x)
        if f * flo < 0.0:
            hi = x
        else:
            lo, flo = x, f
        d = (order / x) * f - bessel_j(order + 1.0, x)
        step = f / d if d else math.nan  # J' = 0: NaN fails every test below and bisects
        # converged (f == 0.0 too) before the bracket test: a last step that
        # rounds onto the bracket's end must not fall back to bisection
        if abs(step) < 4e-15 * max(1.0, x):
            return x - step
        if abs(step) >= last:  # set by the rounding of J: see the docstring
            return x - 0.5 * step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        last = abs(step)
    raise NonConvergenceError(f"zero #{k} of J_{order}: Newton in the bracket did not settle "
                              f"near x = {x:.17g}")


def _phase_zero(order: float, k: int, x: float) -> float:
    """The k-th zero of ``J_order`` by Newton's method on the phase of the
    large-argument expansion, from a guess ``x`` past ``_SMALL_ZERO_MAX``.

    With ``S = P + iQ`` the sum of ``_j_hankel``, ``J = sqrt(2/(pi x)) |S|
    cos(theta)`` and ``theta = x - (order/2 + 1/4) pi + arg S``; the k-th
    zero is where ``x + arg S = beta_k = (k + order/2 - 1/4) pi``.  The
    modulus-phase identity ``M^2 theta' = 2/(pi x)`` (DLMF 10.18) gives
    ``theta' = 1/|S|^2``, so the step is the residual, reduced modulo
    ``2 pi`` as ``arg S`` wraps, times ``|S|^2``.  The phase needs only
    ``eps x`` absolute accuracy: the expansion is truncated at ``1e-16 x``,
    and TruncationError, naming the order and the index, where its last
    term is not below that (on the orders from -0.99 to 16 by 0.01 every
    phase zero up to index 30 reaches it, so none of them raises).  Stops
    once a step falls below ``4e-15 x``; NonConvergenceError if eight steps
    do not get there.
    """
    beta = (k + 0.5 * order - 0.25) * math.pi
    for _ in range(8):
        terms = _hankel_terms(order, complex(0.0, -x), 1e-16 * abs(x))
        if not abs(terms[-1]) < 1e-16 * abs(x):  # |x|: below 0 the step cap reports
            raise TruncationError(f"zero #{k} of J_{order}: phase expansion short at x = {x:.17g}")
        s = sum(terms)
        step = math.remainder(x - beta + cmath.phase(s), 2.0 * math.pi) * abs(s) ** 2
        x -= step
        if abs(step) < 4e-15 * x:
            return x
    raise NonConvergenceError(f"zero #{k} of J_{order}: Newton on the phase did not settle "
                              f"near x = {x:.17g}")


def _require_zero_order(order: float) -> float:
    """``order``, or DomainError unless ``-1 < order <= _ZERO_ORDER_MAX``:
    the one domain of both zero finders, checked before any work and
    whatever the index or count.

    Past order 14.786 every zero, the first included, has a McMahon guess
    above 20 and comes from ``_phase_zero``.  On a 0.01 grid of orders past
    16 that path returned 10 zeros at every order up to 20.97, the first
    two within 6e-15 relative of mpmath; at 20.98 (and at 23.8, 25 and 30)
    the first zero raised NonConvergenceError: from a guess 0.52 off,
    eight phase steps did not settle.  16 keeps a margin below that.
    """
    order = _require_order(order)
    if order > _ZERO_ORDER_MAX:
        raise DomainError(f"zeros of J_{order}: the zero finders serve orders "
                          f"up to {_ZERO_ORDER_MAX:g}")
    return order


@functools.lru_cache(maxsize=8)
def bessel_j_zeros(order: float, count: int) -> tuple[float, ...]:
    """First ``count`` positive zeros of ``J_order``, as a tuple.

    Each zero comes from the one rule of ``_zero``, as ``bessel_j_zero``
    gives it, and the sequence is checked to be strictly increasing.  The
    tables of the last 8 calls are kept.

    Raises ``DomainError``, before any zero is refined, for an order
    outside ``(-1, 16]`` (``_require_zero_order``) or a count above
    ``10**6`` (``errors._COUNT_MAX``).
    """
    order = _require_zero_order(order)
    zeros = tuple(_zero(order, k) for k in range(1, _require_index(count, "count") + 1))
    if any(b <= a for a, b in zip(zeros, zeros[1:])):
        raise RootIsolationError(
            f"zero sequence of J_{order} not strictly increasing; refinement failed"
        )
    return zeros
