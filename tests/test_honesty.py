"""Honesty sweep: fixed-seed random draws over each function's documented
domain.  A value that comes back must lie within its own error estimate
(or, for ``bessel_j``, its documented bound) against mpmath; a draw that
fails must raise a typed ``BesselQError``.

The seeds, domains and draw counts are fixed.  Never re-seed or shrink
them to make a failure go away: a draw that fails is a defect to mend in
the function, or a domain to narrow with ``DomainError``.
"""

import math
import random

import mpmath as mp
import pytest

from besselq import (
    BesselQError,
    ModelOrder,
    bessel_j,
    kelvin_scaled,
    q_inverse,
    q_inverse_fg,
    q_inverse_kelvin,
)


def _draws(seed: int, count: int, orders: tuple, arguments: tuple) -> list:
    """``count`` points ``(-1 + 10^U(*orders), 10^U(*arguments))``."""
    rng = random.Random(seed)
    return [(-1.0 + 10.0 ** rng.uniform(*orders), 10.0 ** rng.uniform(*arguments))
            for _ in range(count)]


#: The Kelvin pair's probe: orders -0.999 to 198.5, x from 0.01 to 990, on
#: both sides of the series/expansion handover at x = 18.
KELVIN_DRAWS = _draws(3, 500, (-3.0, 2.3), (-2.0, math.log10(990.0)))
#: The Kelvin and production routes of Q^-1: orders -0.999 to 99, omega from
#: 1e-3 to 1e6, where ber/bei stay representable.
Q_DRAWS = _draws(7, 120, (-3.0, 2.0), (-3.0, 6.0))
#: The f/g route, which serves omega up to the crossover 324 only.
FG_DRAWS = _draws(13, 120, (-3.0, 2.0), (-3.0, math.log10(324.0)))
#: J beyond its series region, x from 12.01 to 1,000, orders up to 198.5.
J_DRAWS = _draws(17, 300, (-3.0, 2.3), (math.log10(12.01), 3.0))


def _sweep(draws, evaluate, error_of):
    """The draws whose value lies over its bound, and the count returned.
    ``evaluate(point)`` may raise a BesselQError; any other exception fails
    the sweep.  ``error_of(point, value)`` is ``(error, bound)``."""
    over, returned = [], 0
    for point in draws:
        try:
            value = evaluate(*point)
        except BesselQError:
            continue
        returned += 1
        error, bound = error_of(point, value)
        if not error <= bound:
            over.append((point, float(error), bound))
    return over, returned


def _kelvin_error(point, value):
    order, x = point
    ber_s, bei_s, log_scale, est = value
    with mp.workdps(40):
        ber, bei = mp.ber(order, x), mp.bei(order, x)
        scale = mp.exp(log_scale)
        error = mp.hypot(ber_s * scale - ber, bei_s * scale - bei) / mp.hypot(ber, bei)
    return error, est


def _q_reference(nu, omega):
    """``Q^-1`` from mpmath's Kelvin functions at orders ``nu`` and exactly
    ``nu + 2``; the denominator cancels by ``omega`` at low frequency, so the
    precision grows with ``log10(1/omega)``."""
    with mp.workdps(40 + max(0, int(-math.log10(omega))) + 10):
        x = mp.sqrt(omega)
        nu2 = mp.mpf(nu) + 2
        ber1, bei1, ber2, bei2 = mp.ber(nu, x), mp.bei(nu, x), mp.ber(nu2, x), mp.bei(nu2, x)
        return (bei2 * ber1 - bei1 * ber2) / (bei1 * bei2 + ber1 * ber2)


def _q_error(point, evaluation):
    reference = _q_reference(*point)
    return abs(evaluation.q_inverse - reference) / abs(reference), evaluation.est_rel_error


def _j_error(point, value):
    # within 5e-11 of the amplitude sqrt(2/(pi x)), and where x <= order,
    # below the first zero, within 5e-11 of the value
    order, x = point
    with mp.workdps(40):
        error = abs(value - mp.besselj(order, x))
    amplitude = math.sqrt(2.0 / (math.pi * x))
    if x <= order:
        return error / min(amplitude, abs(value)), 5e-11
    return error / amplitude, 5e-11


@pytest.mark.parametrize(
    "draws, evaluate, error_of",
    [
        (KELVIN_DRAWS, kelvin_scaled, _kelvin_error),
        (Q_DRAWS, lambda nu, w: q_inverse_kelvin(ModelOrder(nu), w), _q_error),
        (Q_DRAWS, lambda nu, w: q_inverse(ModelOrder(nu), w), _q_error),
        (FG_DRAWS, lambda nu, w: q_inverse_fg(ModelOrder(nu), w), _q_error),
        (J_DRAWS, bessel_j, _j_error),
    ],
    ids=["kelvin_scaled", "q_inverse_kelvin", "q_inverse", "q_inverse_fg", "bessel_j"],
)
def test_returned_values_lie_within_their_estimate(draws, evaluate, error_of):
    over, returned = _sweep(draws, evaluate, error_of)
    assert not over, (len(over), over[:5])
    # a sweep in which most draws raise shows nothing
    assert returned >= len(draws) // 2
