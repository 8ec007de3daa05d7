"""Material functions of the Bessel class of linear viscoelastic media.

A model of order ``nu > -1`` is defined by its rate of creep, the time
derivative of the creep compliance normalized by the glass compliance
(nondimensional units, relaxation time set to one):

    Psi(t; nu) = 4(nu+1)(nu+2) + 4(nu+1) sum_k exp(-j_{nu+2,k}^2 t),

a Dirichlet series over the squared positive zeros of ``J_{nu+2}``.  In the
Laplace domain the same information appears as ratios of modified Bessel
functions of contiguous order,

    Psi~(s; nu)   = 2(nu+1)/sqrt(s) * I_{nu+1}(sqrt(s)) / I_{nu+2}(sqrt(s)),
    s J~(s; nu)   = 1 + Psi~(s; nu) = I_{nu}(sqrt(s)) / I_{nu+2}(sqrt(s)),

which this module evaluates through one contiguous ratio
(``_compliance_split``, a single internal square root shared by numerator
and denominator, so the two expressions above are consistent by
construction of the branch) and the pole term of ``_pole_term``.
``creep_rate_time`` inverts the same ratio by Talbot quadrature; the zeros
serve the verification suites only.

The fractional Maxwell comparison model closes the module: the Bessel class
behaves like a fractional Maxwell element of order 1/2 at high frequency
and like an ordinary Maxwell element at low frequency.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import (EST_REL_ERROR_CEILING, _UNIT, DomainError, PoleError, _in_range,
                     _representable, _require_finite, _require_order, _require_positive)
from .specfun.modified import _ratio_next_order

__all__ = [
    "ModelOrder",
    "TalbotInversion",
    "creep_compliance_asymptotic",
    "creep_compliance_laplace",
    "creep_rate_laplace",
    "creep_rate_time",
    "frac_maxwell_q_inverse",
]

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

#: Talbot inversion: the ``N``-point midpoint rule in ``theta`` on the
#: optimised cot contour of Trefethen, Weideman & Schmelzer (BIT 46, 2006),
#: ``t s(theta) = N (-0.6122 + 0.5017 theta cot(0.6407 theta) + 0.2645 i
#: theta)``, ``-pi < theta < pi``.  It crosses the real axis at ``0.17 N/t``,
#: right of every pole of ``T`` (on the negative real axis), and its error
#: falls like ``e^(-1.358 N)``; at ``N`` = 28 and 32 roundoff already wins.
_TALBOT_N = 24

#: The nodes ``(t s, w)`` of that rule at ``theta_k = (k + 1/2) 2 pi/N``,
#: ``k = 0 .. N/2 - 1``, with ``w = (2/N) e^(t s) d(t s)/d theta``: the
#: doubles the formula gives with ``cot = 1/math.tan(0.6407 theta)`` and
#: ``cmath.exp``, written out so no sine or cosine is taken to build them
#: (``test_model.py`` recomputes them).  Conjugate symmetry turns the rule
#: into ``L^-1[F](t) = (1/t) sum Im(w F(s))`` over these ``N/2`` nodes.
_TALBOT_RULE = (
    (4.056312078191684+0.8309512568745002j, -24.754180406684533+18.2041367426833j),
    (3.7021515030617627+2.492853770623501j, -7.472787665644549-21.243473522172522j),
    (2.985706644555175+4.154756284372502j, 11.897539218702086-0.7167238813789698j),
    (1.8900529388482434+5.816658798121502j, -0.8589609041289281+4.35340260852106j),
    (0.3879973995919297+7.478561311870502j, -1.0209002302182866-0.46374512980105226j),
    (-1.5604376258702102+9.140463825619504j, 0.10930469343268025-0.14770286289183893j),
    (-4.012059602761193+10.802366339368504j, 0.012411359777434126+0.01358065475289322j),
    (-7.046939798899983+12.464268853117504j, -0.0008790459424604411+0.0005527405648393199j),
    (-10.778795683776695+14.126171366866505j, -1.132310875964076e-05-2.726795478497802e-05j),
    (-15.372252770892977+15.788073880615503j, 3.498835492673441e-07-8.37940390588885e-08j),
    (-21.07278026476959+17.44997639436451j, 1.241032509663895e-10+1.4712421557396076e-09j),
    (-28.261516099238296+19.111878908113507j, -1.4006016662126779e-12-8.449978356324418e-14j),
)
#: The largest ``|t s|`` of the rule: below ``t`` = this over 1.8e308
#: (about 2e-307) the contour leaves the double range.
_TALBOT_REACH = 34.117110188670715


class ModelOrder(namedtuple("ModelOrder", "nu")):
    """Order parameter ``nu > -1`` selecting one Bessel medium."""

    __slots__ = ()

    def __new__(cls, nu: float) -> ModelOrder:
        return super().__new__(cls, _require_order(nu))

    # ``_replace`` builds through ``_make``: check there too
    _make = classmethod(lambda cls, fields: cls(*fields))


class TalbotInversion(namedtuple("TalbotInversion", "nodes est_rel_error")):
    """How ``creep_rate_time`` inverted the Laplace transform: the nodes of
    the Talbot rule (0 where no inversion was needed, at ``t = inf``) and
    the estimated relative error of the result."""

    __slots__ = ()


def _check_s(s: complex) -> complex:
    s = _require_finite(s, "Laplace frequency s", complex)
    if s == 0:
        raise DomainError("Laplace frequency s must be nonzero")
    return s


def _pole_term(nu: float, s: complex) -> complex:
    """``4(nu+1)(nu+2)/s``, the pole of ``Psi~`` and ``s J~`` at ``s = 0``,
    or OverflowRangeError where it leaves the double range.  Formed as ``4
    ((nu+1)/s (nu+2))``, so no intermediate overflows before the value does:
    ``nu + 2 > 1``, and the factor 4 scales exactly."""
    return _representable(4.0 * ((nu + 1.0) / s * (nu + 2.0)), "the pole term at s = %s", s)


def creep_rate_laplace(model: ModelOrder, s: complex) -> complex:
    """Laplace transform of the rate of creep, ``Psi~(s; nu)``.

    Equals ``2(nu+1)/z * I_{nu+1}(z)/I_{nu+2}(z)`` at ``z = sqrt(s)``
    (principal branch), evaluated as ``4(nu+1)(nu+2)/s + T`` from
    ``_compliance_split``, the contiguous ratio that also serves
    ``creep_compliance_laplace``, ``creep_rate_time`` and ``q_inverse``.
    Behaves like ``2(nu+1)/sqrt(s)`` as ``s -> inf`` and like
    ``4(nu+1)(nu+2)/s`` as ``s -> 0``.  Raises PoleError (a DomainError)
    where the estimate of ``T`` passes ``EST_REL_ERROR_CEILING``, which
    grows with ``kappa`` (see ``_compliance_split``): near the poles
    ``-j_{nu+2,k}^2`` and on the negative real axis from ``|s|`` of about
    5e18, where the rounding of ``sqrt(s)`` cannot tell them apart;
    OverflowRangeError where the pole term (from ``nu`` of about ``6.7e153
    sqrt|s|``) or the value leaves the double range.
    """
    s = _check_s(s)
    pole = _pole_term(model.nu, s)
    tail, est = _compliance_split(model.nu, s)
    if not est <= EST_REL_ERROR_CEILING:
        raise PoleError(f"Psi~ at s = {s} is within the rounding of sqrt(s) of a pole ({est:.3g})")
    return _representable(pole + tail, "Psi~ at s = %s", s)


def _compliance_split(nu: float, s: complex) -> tuple[complex, float]:
    """``s J~(s; nu)`` with its ``1/s`` pole split off: the remainder ``T``.

    The recurrence ``I_{nu+1}/I_{nu+2} = 2(nu+2)/z + I_{nu+3}/I_{nu+2}``
    (DLMF 10.29.1) turns ``s J~ = 1 + (2(nu+1)/z) I_{nu+1}/I_{nu+2}`` into

        s J~ = 1 + 4(nu+1)(nu+2)/s + T,   T = (2(nu+1)/z) I_{nu+3}/I_{nu+2},

    with ``z = sqrt(s)`` and ``T`` bounded as ``s -> 0``.  The pole term is
    formed from ``s`` itself, never from ``z*z``, so on the imaginary axis it
    is exactly imaginary and ``Re(s J~) = 1 + Re T`` carries no cancellation.

    Returns ``(T, u)``, ``u`` the relative error estimate of ``T``: the
    ratio's own, plus ``16 _UNIT`` for the roundings here, plus ``_UNIT
    kappa`` for the rounding of ``z``, ``kappa = |z T'/T| = |z (r_{nu+3} -
    r_{nu+2})|`` with ``r_a = I_{a+1}/I_a``.  DLMF 10.29.1 gives ``z/r_{nu+2}
    = 2(nu+3) + z r_{nu+3}``, so ``kappa`` is formed from the one ratio ``r =
    r_{nu+2}`` as ``|z/r - z r - (2nu+6)|`` where that reads at most 3, and
    otherwise, where the subtraction may have cancelled to rounding noise
    (``z/r`` near ``2nu`` at huge orders, ``z/r`` and ``z r`` near ``z`` at
    huge ``|z|``), from a second ratio ``r_{nu+3}`` as the difference.
    Where ``r`` lies within a few ulps of 1 (``|z|`` beyond about 1e16 at
    moderate orders), both forms read rounding noise of order ``u |z|``, so
    both are bounded by ``r``'s resolution near 1, ``3 + |1/r - 1|/(u/2)``,
    and where that bound is 3 (``r`` rounds to 1) no second ratio is taken.
    At huge orders ``r`` is far from 1, and the second ratio serves.
    ``kappa`` is at most about 2.1 at the Talbot nodes and 1 on the
    ``q_inverse`` path, so the Talbot nodes take one ratio, and so does
    ``q_inverse`` up to ``omega`` of about 3.2e32 and above about 1e45; in
    between, where ``r`` is not yet 1, it takes two (56 of 2,516 half
    decades of ``omega`` from 1e-6 to 1e308 at orders -0.99, 0, 5 and 300).
    It grows near the poles of ``T`` and like ``|z|`` on the negative real
    axis.  The callers add ``1`` and the pole term (``_pole_term``)
    themselves.
    """
    z = cmath.sqrt(s)
    r, error, _ = _ratio_next_order(nu + 2.0, z)
    tail = (2.0 * (nu + 1.0) / z) * r
    kappa = abs(z / r - z * r - (2.0 * nu + 6.0)) if r else math.inf
    if 3.0 < kappa < math.inf:  # the subtraction may have cancelled (see above)
        near_one = 3.0 + abs(1.0 / r - 1.0) / (0.5 * _UNIT)
        if near_one > 3.0:  # r is not 1: take the difference
            kappa = abs(z * (_ratio_next_order(nu + 3.0, z)[0] - r))
        kappa = min(kappa, near_one)
    return tail, error + _UNIT * (16.0 + kappa)


def creep_compliance_laplace(model: ModelOrder, s: complex) -> complex:
    """Laplace-domain creep compliance combination ``s J~(s; nu)``.

    Equals the contiguous ratio ``I_nu(sqrt(s)) / I_{nu+2}(sqrt(s))``,
    evaluated with its ``1/s`` pole split off (see ``_compliance_split``) so
    the real part keeps full accuracy as ``s -> 0``: ``1 +
    creep_rate_laplace(model, s)``, which it raises as.  For real s > 0
    the value is real and exceeds 1.
    """
    return _representable(1.0 + creep_rate_laplace(model, s), "s J~ at s = %s", s)


def creep_rate_time(model: ModelOrder, t: float) -> tuple[float, TalbotInversion]:
    """Rate of creep ``Psi(t; nu)`` by Talbot inversion of its transform.

    The pole split of ``_compliance_split`` gives ``Psi~(s) = 4(nu+1)(nu+2)/s
    + T(s)``, so ``Psi(t) = 4(nu+1)(nu+2) + L^-1[T](t)``: the constant is
    exact, and only ``T``, whose poles ``-j_{nu+2,k}^2`` lie on the negative
    real axis, is inverted, on the 24-node contour of ``_TALBOT_RULE`` (12
    evaluations of ``T``).  No sine or cosine is taken on the way: the
    nodes are literals, and none needs the reflected branch of ``I`` (see
    ``modified._REFLECTION_FROM``).  The cost does not depend on ``t``: on
    a 2-core AMD EPYC host with Python 3.11, about 0.1 ms a call.

    Returns the value with its ``TalbotInversion``, whose estimate is the
    quadrature error ``e^(-1.358 N)`` plus the errors of the nodes, each
    the error estimate of ``T`` there times its node's term, over
    ``|Psi|``.  ``Psi`` behaves like ``2(nu+1)/sqrt(pi t)`` as ``t -> 0+``
    and tends to the constant ``4(nu+1)(nu+2)``, returned exactly at
    ``t = inf``.  Raises DomainError unless ``t > 0``, and below ``t`` of
    about 2e-307, where the contour leaves the double range;
    OverflowRangeError where the constant (from ``nu`` of about 6.7e153) or
    the value leaves the double range.
    """
    if t != math.inf:
        t = _require_positive(t, "time")
    nu = model.nu
    const = _representable(4.0 * (nu + 1.0) * (nu + 2.0), "the creep constant 4(nu+1)(nu+2)")
    if t == math.inf:
        return const, TalbotInversion(0, 0.0)
    if not _TALBOT_REACH / t < math.inf:
        raise DomainError(f"time {t} is below the reach of the Talbot contour")
    inverse = spread = 0.0
    for ts, weight in _TALBOT_RULE:
        tail, u = _compliance_split(nu, ts / t)
        term = weight * tail
        inverse += term.imag
        spread += abs(term) * u
    value = _representable(const + inverse / t, "Psi at t = %s", t)
    est = math.exp(-1.358 * _TALBOT_N) + spread / (t * value)
    return value, TalbotInversion(_TALBOT_N, est)


def creep_compliance_asymptotic(
    model: ModelOrder, s: complex, regime: Literal["high", "low"]
) -> complex:
    """Two-term expansions of ``s J~(s; nu)`` at the ends of the s-range.

    ``high`` (s -> inf):  1 + 2(nu+1) s^{-1/2}   (principal branch);
    ``low``  (s -> 0):    2(nu+2)/(nu+3) + 4(nu+1)(nu+2)/s.

    Raises OverflowRangeError where the form leaves the double range: the
    ``high`` one at large ``nu`` or small ``|s|``, the ``low`` one where
    its pole term does.
    """
    s = _check_s(s)
    nu = model.nu
    if regime == "high":
        value = 1.0 + 2.0 * (nu + 1.0) / cmath.sqrt(s)
    elif regime == "low":
        value = 2.0 * (nu + 2.0) / (nu + 3.0) + _pole_term(nu, s)
    else:
        raise DomainError(f"regime must be 'high' or 'low', got {regime!r}")
    return _representable(value, "the %s-frequency form at s = %s", regime, s)


def frac_maxwell_q_inverse(beta: float, omega_tau: float) -> float:
    """Specific dissipation of the fractional Maxwell model of order beta.

        Q^-1_beta(omega tau) = sin(pi beta/2) / ((omega tau)^beta + cos(pi beta/2))

    for ``0 < beta <= 1``; beta = 1 is the ordinary Maxwell element with
    ``Q^-1 = 1/(omega tau)``.  The cosine is formed as ``sin(pi (1 -
    beta)/2)``, exactly 0 at ``beta = 1`` (``cos(pi/2)`` rounds to 6.1e-17)
    and with ``1 - beta`` exact from ``beta = 1/2``, so the value is within
    a few ulps at every ``beta`` and ``omega tau``.  Raises
    OverflowRangeError where it leaves the normal double range: above it
    (``omega tau`` below about 5.6e-309 at ``beta = 1``), or below it, where
    it would lose digits (``beta`` below about 2.8e-308, ``omega tau``
    above about 4.5e307 at ``beta = 1``).
    """
    beta = _require_finite(beta, "beta")
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    omega_tau = _require_positive(omega_tau, "omega*tau")
    value = math.sin(0.5 * math.pi * beta) / (
        omega_tau**beta + math.sin(0.5 * math.pi * (1.0 - beta)))
    return _in_range(value, "Q^-1_beta at omega*tau = %s", omega_tau)
