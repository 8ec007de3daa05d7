"""Real Euler gamma function via a Lanczos rational approximation, and the
argument checks every special function shares."""

from __future__ import annotations

import math

from ..errors import DomainError, OverflowRangeError, PoleError

# Lanczos approximation, g = 607/128, 15 coefficients.  Verified against a
# 50-digit reference to relative error < 4e-15 on [-0.99, 50].
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# Gamma(x) first exceeds the double range slightly above this point.
_OVERFLOW_X = 171.62


def _require_finite(value, name: str = "argument"):
    """``value`` (a float or complex) unchanged, or DomainError if it has
    an infinite or NaN part."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _require_order(order: float) -> float:
    order = _require_finite(float(order), "order")
    if not order > -1.0:
        raise DomainError(f"order must exceed -1, got {order}")
    return order


def _require_index(value, name: str) -> int:
    """``value`` as an int, or DomainError unless it is a whole number >= 1."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # infinite or NaN
        whole = 0
    if not (whole >= 1 and whole == value):
        raise DomainError(f"{name} must be a whole number >= 1, got {value}")
    return whole


def gamma_real(x: float) -> float:
    """Gamma function for real ``x`` away from the poles.

    Parameters
    ----------
    x : float
        Any real number that is not a nonpositive integer.

    Returns
    -------
    float
        ``Gamma(x)``, relative error below 1e-13 on ``[-0.99, 50]``.

    Raises
    ------
    DomainError
        If ``x`` is infinite or NaN.
    PoleError
        If ``x`` is zero or a negative integer.
    OverflowRangeError
        If the result exceeds the double-precision range (x > ~171.6, or
        reflection underflow for large negative x).
    """
    x = _require_finite(float(x))
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at nonpositive integer x = {x}")
    if x > _OVERFLOW_X:
        raise OverflowRangeError(f"gamma({x}) exceeds double-precision range")
    if x < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        s = math.sin(math.pi * x)
        if s == 0.0:
            raise PoleError(f"gamma pole at x = {x}")
        return math.pi / (s * gamma_real(1.0 - x))
    a = _LANCZOS_C[0]
    for k in range(1, 15):
        a += _LANCZOS_C[k] / (x - 1.0 + k)
    t = x + _LANCZOS_G - 0.5
    # t**(x-0.5) * exp(-t) evaluated jointly to avoid intermediate overflow
    return math.sqrt(2.0 * math.pi) * math.exp((x - 0.5) * math.log(t) - t) * a
