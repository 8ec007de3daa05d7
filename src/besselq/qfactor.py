"""Quality factor of Bessel viscoelastic media.

The specific attenuation factor of a medium with Laplace-domain creep
response ``s J~(s)`` under harmonic excitation at frequency ``omega`` is

    Q^-1(omega) = -Im{ s J~(s) | s = i omega } / Re{ s J~(s) | s = i omega }.

``q_inverse`` is the production route: the contiguous modified-Bessel ratio
with its ``1/s`` pole split off (``model._compliance_split``), for every
order up to where its pole term leaves the double range (see ``q_inverse``
for the measured reach).  Two independent closed forms stay as
verification routes, used by the checks and tests; each imports its
special functions (``specfun.kelvinfg``) when called, so ``q_inverse``
never loads them:

* ``q_inverse_fg``     -- the oscillatory-pair form
  ``(f_n f_{n+2} + g_n g_{n+2}) / (g_n f_{n+2} - f_n g_{n+2})`` built from
  the alternating series (returning up to ``omega`` of a few 1e3);
* ``q_inverse_kelvin`` -- the Kelvin-function form
  ``(bei_{n+2} ber_n - bei_n ber_{n+2}) / (bei_n bei_{n+2} + ber_n ber_{n+2})``
  at argument ``sqrt(omega)`` (scaled internally, returning up to ``omega``
  of about 1e9; its roundoff floor grows like ``eps/omega`` at low
  frequency).

Every route and both asymptotes take ``Q^-1`` from that one definition,
in one place (``_attenuation``): each hands it a positive multiple of its
``s J~``, which must have a positive real part (the storage response;
InconsistencyError otherwise), and gets ``-Im/Re`` of it.  The two pair
forms hand it ``-i p1 conj(p2)`` of two pairs scaled to unit modulus
(``_pair_quotient``), so neither keeps a range rule of its own: the
series' range test and the ``QEvaluation`` ceiling on the carried running
bounds decide where they stop.
Below the crossover ``omega = 324`` the two are one: both sum ``T_a(i omega)``
(the Kelvin form at ``i x^2``), whose prefactor and phase cancel in the quotient.

Every route returns a ``QEvaluation`` whose error estimate stays at or
below ``EST_REL_ERROR_CEILING`` (1e-6, the package's one ceiling, defined in
``errors``); a route whose own estimate is worse raises: one definition and one
judge for all three.
Both asymptotic regimes come from the two-term forms of ``s J~``
(``model.creep_compliance_asymptotic``):
``2(nu+1)(nu+3)/omega`` as ``omega -> 0`` (an ordinary Maxwell element) and
``sqrt(2)(nu+1)/(sqrt(omega) + sqrt(2)(nu+1))`` as ``omega -> inf`` (a
fractional Maxwell element of order 1/2 with time scale
``tau = 1/(4 (nu+1)^2)``).

All functions are pure and deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import EST_REL_ERROR_CEILING, InconsistencyError, _representable, _require_positive
from .model import ModelOrder, _compliance_split, _pole_term, creep_compliance_asymptotic

__all__ = [
    "QEvaluation",
    "q_inverse",
    "q_inverse_asymptotic",
    "q_inverse_fg",
    "q_inverse_kelvin",
]

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

    Route = Literal["fg_series", "kelvin", "direct_ratio"]


class QEvaluation(namedtuple("QEvaluation", "omega q_inverse route est_rel_error")):
    """One quality-factor sample with provenance and an error estimate."""

    __slots__ = ()

    def __new__(
        cls, omega: float, q_inverse: float, route: Route, est_rel_error: float
    ) -> QEvaluation:
        omega = _require_positive(omega, "omega")
        if not q_inverse > 0.0:
            raise InconsistencyError(
                f"dissipativity violated: Q^-1 = {q_inverse} at "
                f"omega = {omega} (route {route})"
            )
        _representable(q_inverse, "Q^-1 at omega = %s (route %s)", omega, route)
        if not 0.0 <= est_rel_error <= EST_REL_ERROR_CEILING:  # NaN fails it too
            raise InconsistencyError(
                f"error estimate {est_rel_error:.3g} lies outside [0, "
                f"{EST_REL_ERROR_CEILING:.0e}] at omega = {omega} (route {route})"
            )
        return super().__new__(cls, omega, q_inverse, route, est_rel_error)

    # ``_replace`` builds through ``_make``: check there too
    _make = classmethod(lambda cls, fields: cls(*fields))


def _attenuation(
    omega: float, route: str, response: complex, scale: float, weight_im: float,
    weight_re: float,
) -> QEvaluation:
    """``Q^-1 = -Im r / Re r``, the one definition every route and asymptote
    takes, from ``r = response``, a positive multiple of ``s J~`` at ``s = i
    omega``.  The estimate is ``scale (weight_im/|Im r| + weight_re/Re r)``:
    a relative error ``scale`` carried through each part by the weight of
    the sizes it is relative to.  Raises InconsistencyError, naming the
    route and ``omega``, unless ``Re r > 0``: the storage response is
    positive, and a violation is surfaced, never clamped."""
    if not response.real > 0.0:
        raise InconsistencyError(
            f"storage response lost positivity at omega = {omega} "
            f"(route {route}: Re(s J~) = {response.real:.3g})"
        )
    est = scale * (weight_im / abs(response.imag) + weight_re / response.real)
    return QEvaluation(omega, -response.imag / response.real, route, est)


def _pair_quotient(
    omega: float, route: Route, p1: complex, p2: complex, unit: float
) -> QEvaluation:
    """Q^-1 from the pairs ``p1 = f1 + i g1`` and ``p2 = f2 + i g2`` at orders
    ``nu`` and ``nu+2``, each with relative error ``unit`` (relative to its
    modulus): ``s J~ = -(4i/omega) p1/p2``, so ``-i p1 conj(p2)`` over their
    moduli is a positive multiple of it, and the quotient is ``(f1 f2 + g1
    g2) / (g1 f2 - f1 g2)``.  Scaling both pairs to unit modulus keeps every
    product in range.  The estimate ``unit (1/|f1 f2 + g1 g2| + 1/(g1 f2 -
    f1 g2))``, on the unit pairs, grows without bound as either part
    vanishes, and the ``QEvaluation`` ceiling then raises
    InconsistencyError."""
    response = -1j * ((p1 / abs(p1)) * (p2 / abs(p2)).conjugate())
    return _attenuation(omega, route, response, unit, 1.0, 1.0)


def q_inverse_fg(model: ModelOrder, omega: float) -> QEvaluation:
    """Q^-1 from the oscillatory pair (f, g) at orders nu and nu+2.

    Each pair component is taken to carry the sum of the two series'
    ``rel_error``, their running error bounds.  The alternating series
    cancel ever more strongly as ``omega`` grows: the route returns up to
    ``omega`` of about 1.6e3 near ``nu = -1``, 2.8e3 at ``nu = 0`` and 1.3e4
    at ``nu = 150``, then raises, by the series' running bound through the
    estimate ceiling (InconsistencyError) or its range test
    (OverflowRangeError, also from ``nu`` about 168.6, where
    ``1/Gamma(nu+3)`` leaves the normal range).
    """
    from .specfun.series import _tricomi_series

    omega = _require_positive(omega, "omega")
    s = complex(0.0, omega)  # f + i g = T_a(i omega), as in ``fg_series``
    (p1, d1), (p2, d2) = _tricomi_series(model.nu, s), _tricomi_series(model.nu + 2.0, s)
    return _pair_quotient(omega, "fg_series", p1, p2, d1.rel_error + d2.rel_error)


def q_inverse_kelvin(model: ModelOrder, omega: float) -> QEvaluation:
    """Q^-1 from Kelvin functions of orders nu and nu+2 at ``sqrt(omega)``.

    Works with exponentially scaled ber/bei: the order-dependent power
    prefactors and the common ``e^{x/sqrt(2)}`` growth both cancel between
    numerator and denominator, so the route needs no range of its own.  It
    returns up to ``omega`` of about 1.6e9 at ``nu = 0`` (1.6e7 near ``nu =
    -1``, 2e11 at ``nu = 150``); above, the Kelvin expansion's estimate
    passes the ceiling (InconsistencyError, at 1e12 for ``nu = 0``) and then
    its own cap (TruncationError from 1e20).  At low frequency its roundoff
    floor grows like ``eps/omega``, and the series' range test raises
    OverflowRangeError where ``(x/2)^nu`` leaves the double range.
    """
    from .specfun.kelvinfg import kelvin_scaled

    omega = _require_positive(omega, "omega")
    nu = model.nu
    x = math.sqrt(omega)
    nu2 = nu + 2.0
    ber1, bei1, _, e1 = kelvin_scaled(nu, x)
    ber2, bei2, _, e2 = kelvin_scaled(nu2, x)
    # the rounding of nu + 2 turns the second pair by 3 pi/4 times it, its
    # phase e^(3 pi i nu2/4): an error of that pair that the quotient does
    # not cancel
    turn = 0.75 * math.pi * abs(math.fsum((nu2, -nu, -2.0)))
    # the f/g quotient of (ber1 + i bei1, -bei2 + i ber2) is the Kelvin
    # form with numerator and denominator both negated
    return _pair_quotient(omega, "kelvin", complex(ber1, bei1), complex(-bei2, ber2),
                          e1 + e2 + turn)


def q_inverse(model: ModelOrder, omega: float) -> QEvaluation:
    """Q^-1 from the contiguous ratio with its ``1/s`` pole split off.

    At ``s = i omega`` the pole term of ``s J~ = 1 + 4(nu+1)(nu+2)/s + T``
    is purely imaginary, so with ``P = 4(nu+1)(nu+2)/omega``

        Q^-1 = (P - Im T) / (1 + Re T),

    where ``T = (2(nu+1)/z) I_{nu+3}/I_{nu+2}`` at ``z = sqrt(i omega)``
    comes from the one ratio evaluator (Hankel sums at large ``|z|``, a
    continued fraction elsewhere), at a cost that stays flat as ``omega``
    grows.  ``Re T > 0`` and ``-Im T >= 0``, so neither part cancels.  The
    error estimate is that of ``T``, carried through both parts.

    Measured reach: for ``omega`` from 1e-3 to 1e6 it returns at every order
    up to where ``P`` leaves the double range, and there raises
    OverflowRangeError, before any work on ``T``: from ``nu`` of about
    ``6.7e153 sqrt(omega)`` (by quarter decades of ``nu``, the last to
    return is 1.8e152 at 1e-3, 5.6e153 at 1 and 5.6e156 at 1e6).  Where
    ``omega`` is large beside a large order the continued fraction of the
    ratio reaches its cap and raises NonConvergenceError, after a few
    seconds (at ``(nu, omega)`` = (1e8, 1e30) and (1e100, 1e300)).
    """
    omega = _require_positive(omega, "omega")
    s = complex(0.0, omega)
    pole = _pole_term(model.nu, s)  # -i P
    tail, u = _compliance_split(model.nu, s)
    return _attenuation(omega, "direct_ratio", 1.0 + pole + tail, u,
                        abs(pole) + abs(tail), 1.0 + abs(tail))


def q_inverse_asymptotic(
    model: ModelOrder, omega: float, regime: Literal["high", "low"]
) -> float:
    """Asymptotic Q^-1 in the requested regime: ``-Im/Re`` of
    ``creep_compliance_asymptotic`` at ``s = i omega``, so both closed
    forms are those of ``s J~``.

    ``low``:  2(nu+1)(nu+3)/omega        (omega -> 0, Maxwell-like);
    ``high``: sqrt(2)(nu+1)/(sqrt(omega) + sqrt(2)(nu+1))  (omega -> inf).

    The ``high`` form is leading order only: its relative error is
    (2nu+3)/sqrt(2 omega) * (1 + O(omega^-1/2)), from the second coefficient
    (nu+1)(2nu+3) of the large-argument expansion of I_nu/I_{nu+2}
    (DLMF 10.40.1).  At omega = 1e5 that is 2.9e-2 for nu = 5.

    Raises DomainError for another ``regime``, and OverflowRangeError where
    the form of ``s J~`` leaves the double range: the ``low`` one where its
    pole term ``4(nu+1)(nu+2)/omega`` does (from ``nu`` of about ``6.7e153
    sqrt(omega)``), as ``q_inverse`` does; the ``high`` one where
    ``2(nu+1)/sqrt(i omega)`` does, from ``nu`` of about ``min(9e307,
    1.27e308 sqrt(omega))``.
    """
    omega = _require_positive(omega, "omega")
    response = creep_compliance_asymptotic(model, complex(0.0, omega), regime)
    # a closed form: no rounding estimate to carry
    return _attenuation(omega, regime, response, 0.0, 0.0, 0.0).q_inverse
