"""Honesty sweep: fixed-seed random draws over each function's documented
domain.  A value that comes back must lie within its own error estimate
(or, for ``bessel_j``, its documented bound) against mpmath; a draw that
fails must raise a typed ``BesselQError``.  The edge-of-domain sweep draws
over the whole advertised domain, out to the ends of the double range, and
asks only that: a finite value or a typed raise.

The seeds, domains and draw counts are fixed.  Never re-seed or shrink
them to make a failure go away: a draw that fails is a defect to mend in
the function, or a domain to narrow with ``DomainError``.
"""

import ast
import cmath
import math
import random
import signal
import sys
from pathlib import Path

import mpmath as mp
import pytest

import besselq
import oracle
from besselq import (
    BesselQError,
    ModelOrder,
    OverflowRangeError,
    bessel_j,
    creep_compliance_laplace,
    creep_rate_laplace,
    kelvin_scaled,
    q_inverse,
    q_inverse_fg,
    q_inverse_kelvin,
)
from besselq.model import _compliance_split, _pole_term
from besselq.specfun import series
from besselq.specfun import zeros as zeros_module
from besselq.specfun.series import _tricomi_series


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
#: creep_rate_time: orders -0.999 to 500, t from 1e-12 to 100.
CREEP_DRAWS = _draws(19, 16, (-3.0, 2.7), (-12.0, 2.0))
#: modified_bessel_i over its documented sample: orders -0.9 to 170, x from
#: 1e-3 to 700.
I_DRAWS = _draws(23, 300, (-1.0, math.log10(171.0)), (-3.0, math.log10(700.0)))
#: modified_bessel_i above order 170, where its first term is duplicated:
#: orders 171 to 7,000, x from 0.35 to 1.2 times the order, around where
#: I enters the double range.
I_LARGE_DRAWS = [(order, order * rng.uniform(0.35, 1.2)) for rng in [random.Random(3)]
                 for order in (10.0 ** rng.uniform(math.log10(171.0), math.log10(7000.0))
                               for _ in range(200))]
#: The uniform series: orders -0.999 to 170, |s| from 1e-3 to 2e5 at a phase
#: drawn after each point; the f/g pair: omega from 1e-3 to 1e4.
T_DRAWS = [(order, cmath.rect(size, phase)) for (order, size), phase in zip(
    _draws(29, 150, (-3.0, math.log10(171.0)), (-3.0, 5.3)),
    (random.Random(31).uniform(-math.pi, math.pi) for _ in range(150)))]
FG_PAIR_DRAWS = _draws(37, 150, (-3.0, math.log10(171.0)), (-3.0, 4.0))
#: The Laplace functions: orders -0.999 to 198.5, |s| from 1e-6 to 1e12,
#: every phase, each draw taken as order, modulus, phase.
LAPLACE_DRAWS = [(-1.0 + 10.0 ** rng.uniform(-3.0, 2.3),
                  cmath.rect(10.0 ** rng.uniform(-6.0, 12.0), rng.uniform(-math.pi, math.pi)))
                 for rng in [random.Random(43)] for _ in range(300)]


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
    ber_s, bei_s, scale, est = value
    with mp.workdps(40):
        ber, bei = mp.ber(order, x), mp.bei(order, x)
        ber_s, bei_s = mp.ldexp(ber_s, scale), mp.ldexp(bei_s, scale)
        error = mp.hypot(ber_s - ber, bei_s - bei) / mp.hypot(ber, bei)
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


def _creep_error(point, value):
    # mpmath's own Talbot inversion of the whole transform; 25 digits agree
    # with 40 to the last bit of a double and cost a third of the time
    psi, inversion = value
    reference = oracle.creep_rate_time_talbot(*point, dps=25)
    return abs(psi - reference) / abs(reference), inversion.est_rel_error


def _i_error(point, value):
    # modified_bessel_i documents 3.3e-14 over 2,000 points (2.7e-14 on
    # 1,000): these draws hold to the smaller
    with mp.workdps(40):
        reference = mp.besseli(*point)
        return abs(value - reference) / reference, 2.7e-14


def _i_series_error(point, value):
    # the series' own running estimate, from the x*x that I passes in
    value, diagnostics = value
    with mp.workdps(40):
        reference = mp.besseli(*point)
        value = mp.ldexp(value, diagnostics.scale)
        return abs(value - reference) / reference, diagnostics.rel_error


def _laplace_error(compliance):
    """``error_of`` for ``creep_rate_laplace`` (with ``compliance``,
    ``creep_compliance_laplace``): mpmath at the exact ``sqrt(s)``, against
    the estimate of ``T`` and the roundings around it
    (``oracle.laplace_allowance``)."""
    def error_of(point, value):
        nu, s = point
        tail, est = _compliance_split(nu, s)
        reference = complex(compliance + oracle.creep_rate_laplace_besseli(nu, s))
        return abs(value - reference), oracle.laplace_allowance(nu, s, tail, est, compliance)
    return error_of


def _series_bound(order, s, value):
    """The error of ``T_order(s)`` relative to ``|T|`` against the smaller
    of the two bounds ``tricomi_it`` documents: ``1e-13 + 2 eps (1 + R)
    max(1, |s|^(1/4))``, with ``R``, the largest term over ``|T|``, from the
    oracle's own sum, and the series' running bound, which decides whether
    it returns."""
    s = complex(s)
    dps = oracle._dps_for(abs(s) ** 0.5)
    with mp.workdps(dps):
        s_mp, order_mp = mp.mpc(s), mp.mpf(order)
        term = total = 1 / mp.gamma(order_mp + 1)
        largest, m = abs(term), 0
        while not (m >= 30 and abs(term) < mp.mpf(10) ** -dps * abs(total)):
            term *= (s_mp / 4) / ((m + 1) * (m + order_mp + 1))
            total += term
            largest, m = max(largest, abs(term)), m + 1
        ratio = float(largest / abs(total))
        error = abs(value - total) / abs(total)
    formula = 1e-13 + 2.0 * sys.float_info.epsilon * (1.0 + ratio) * max(1.0, abs(s) ** 0.25)
    return error, min(formula, _tricomi_series(order, s)[1].rel_error)


@pytest.mark.parametrize(
    "draws, evaluate, error_of",
    [
        (KELVIN_DRAWS, kelvin_scaled, _kelvin_error),
        (Q_DRAWS, lambda nu, w: q_inverse_kelvin(ModelOrder(nu), w), _q_error),
        (Q_DRAWS, lambda nu, w: q_inverse(ModelOrder(nu), w), _q_error),
        (FG_DRAWS, lambda nu, w: q_inverse_fg(ModelOrder(nu), w), _q_error),
        (J_DRAWS, bessel_j, _j_error),
        (CREEP_DRAWS, lambda nu, t: besselq.creep_rate_time(ModelOrder(nu), t), _creep_error),
        (I_DRAWS, besselq.modified_bessel_i, _i_error),
        (I_DRAWS, lambda a, x: _tricomi_series(a, x * x, x), _i_series_error),
        (I_LARGE_DRAWS, lambda a, x: _tricomi_series(a, x * x, x), _i_series_error),
        (T_DRAWS, besselq.tricomi_it, lambda p, v: _series_bound(*p, v)),
        (FG_PAIR_DRAWS, besselq.fg_series,
         lambda p, v: _series_bound(p[0], complex(0.0, p[1]), complex(v.f, v.g))),
        (LAPLACE_DRAWS, lambda nu, s: besselq.creep_rate_laplace(ModelOrder(nu), s),
         _laplace_error(False)),
        (LAPLACE_DRAWS, lambda nu, s: besselq.creep_compliance_laplace(ModelOrder(nu), s),
         _laplace_error(True)),
    ],
    ids=["kelvin_scaled", "q_inverse_kelvin", "q_inverse", "q_inverse_fg", "bessel_j",
         "creep_rate_time", "modified_bessel_i", "series_estimate", "series_estimate_large_orders",
         "tricomi_it", "fg_series", "creep_rate_laplace", "creep_compliance_laplace"],
)
def test_returned_values_lie_within_their_estimate(draws, evaluate, error_of):
    over, returned = _sweep(draws, evaluate, error_of)
    assert not over, (len(over), over[:5])
    # a sweep in which most draws raise shows nothing
    assert returned >= len(draws) // 2


# ------------------------------------------------- edge-of-domain sweep

#: Orders from -1 + 1e-15 to 1.7e308, and omega, t, |s| and x from 1e-320
#: to 1e308, both log-uniform, drawn as ``(nu, magnitude, phase)``: the
#: phase of ``s``, which also sets the sign of gamma's argument, the ``beta``
#: of ``frac_maxwell_q_inverse`` and the index of ``bessel_j_zero``.
_NU_DECADES = (-15.0, math.log10(1.7e308))
_ARG_DECADES = (-320.0, 308.0)
#: Ints beyond the double range, and in it, as order and argument.
_INT_POINTS = [(10**400, 1.0), (1.0, 10**400), (-(10**400), 1.0), (1.0, -(10**400)),
               (2**1024, 2**1024), (3, 2), (0, 10**300)]


def _edge_draws(name: str, count: int = 500) -> list:
    rng = random.Random(f"edge/{name}")
    return [(-1.0 + 10.0 ** rng.uniform(*_NU_DECADES), 10.0 ** rng.uniform(*_ARG_DECADES),
             rng.uniform(-math.pi, math.pi)) for _ in range(count)]


def _cf_is_long(nu, z_size) -> bool:
    """Whether the continued fraction at order ``a = nu + 2`` and ``|z|``
    lies in the band where its cost grows with the order, ``a/10 < |z| <
    10 a^2`` from ``|z| = 1000`` (up to ``2^22`` iterations, the cap, about
    4 s a call).  That band is the cost of large orders, which the cap test
    of ``test_specfun.py`` pins; these draws are left out of the sweep."""
    a = nu + 2.0
    return z_size > 1e3 and a / 10.0 < z_size < 10.0 * a * a


def _signed(x, phase):
    """``x`` at ``phase`` (complex) for a float, an int as it is."""
    return cmath.rect(x, phase) if isinstance(x, float) else x


def _finite(value) -> bool:
    if isinstance(value, tuple):  # records and (value, diagnostics) pairs
        return all(_finite(v) for v in value if isinstance(v, (int, float, complex)))
    return isinstance(value, (int, float, complex)) and cmath.isfinite(value)


#: name: (call(nu, magnitude, phase), |z| of the ratio for ``_cf_is_long``,
#: or None where the function does not run the continued fraction).
_EDGE_CALLS = {
    "ModelOrder": (lambda nu, x, ph: ModelOrder(nu), None),
    "q_inverse": (lambda nu, x, ph: q_inverse(ModelOrder(nu), x), math.sqrt),
    "q_inverse_fg": (lambda nu, x, ph: q_inverse_fg(ModelOrder(nu), x), None),
    "q_inverse_kelvin": (lambda nu, x, ph: q_inverse_kelvin(ModelOrder(nu), x), None),
    "q_inverse_asymptotic low": (
        lambda nu, x, ph: besselq.q_inverse_asymptotic(ModelOrder(nu), x, "low"), None),
    "q_inverse_asymptotic high": (
        lambda nu, x, ph: besselq.q_inverse_asymptotic(ModelOrder(nu), x, "high"), None),
    "creep_rate_laplace": (
        lambda nu, x, ph: besselq.creep_rate_laplace(ModelOrder(nu), _signed(x, ph)),
        math.sqrt),
    "creep_compliance_laplace": (
        lambda nu, x, ph: besselq.creep_compliance_laplace(ModelOrder(nu), _signed(x, ph)),
        math.sqrt),
    "creep_compliance_asymptotic high": (
        lambda nu, x, ph: besselq.creep_compliance_asymptotic(
            ModelOrder(nu), _signed(x, ph), "high"), None),
    "creep_compliance_asymptotic low": (
        lambda nu, x, ph: besselq.creep_compliance_asymptotic(
            ModelOrder(nu), _signed(x, ph), "low"), None),
    # the Talbot nodes put |z| between 2/sqrt(t) and 6/sqrt(t)
    "creep_rate_time": (lambda nu, t, ph: besselq.creep_rate_time(ModelOrder(nu), t),
                        lambda t: 1.0 / math.sqrt(t)),
    "frac_maxwell_q_inverse": (
        lambda nu, x, ph: besselq.frac_maxwell_q_inverse(0.5 + ph / (2.0 * math.pi), x), None),
    "fg_series": (lambda nu, x, ph: besselq.fg_series(nu, x), None),
    "fg_from_kelvin": (lambda nu, x, ph: besselq.fg_from_kelvin(nu, x), None),
    "kelvin": (lambda nu, x, ph: besselq.kelvin(nu, x), None),
    "kelvin_scaled": (lambda nu, x, ph: kelvin_scaled(nu, x), None),
    "modified_bessel_i": (lambda nu, x, ph: besselq.modified_bessel_i(nu, x), None),
    "bessel_j": (lambda nu, x, ph: bessel_j(nu, x), None),
    "tricomi_it": (lambda nu, x, ph: besselq.tricomi_it(nu, _signed(x, ph)), None),
    "bessel_j_zero": (lambda nu, x, ph: besselq.bessel_j_zero(nu, 1 + int(ph > 0)), None),
    "bessel_j_zeros": (lambda nu, x, ph: besselq.bessel_j_zeros(nu, 2), None),
    "gamma_real": (lambda nu, x, ph: besselq.gamma_real(_signed(x, ph).real), None),
}


class _NoReturn(Exception):
    """A call that did not return within ``_CALL_SECONDS``."""


#: Longest a call may take: past the continued fraction's cap (about 4 s),
#: so a call that would never return fails the sweep instead of hanging it.
_CALL_SECONDS = 10.0


def _no_return(signum, frame):
    raise _NoReturn(f"no return within {_CALL_SECONDS} s")


@pytest.fixture
def call_timer():
    """``setitimer(ITIMER_REAL, seconds)`` raises ``_NoReturn`` in the call."""
    previous = signal.signal(signal.SIGALRM, _no_return)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", list(_EDGE_CALLS))
def test_edge_of_domain_returns_finite_or_raises_typed(name, call_timer):
    call, z_size = _EDGE_CALLS[name]
    points = _edge_draws(name) + [(nu, x, 1.0) for nu, x in _INT_POINTS]
    bad, returned = [], 0
    for nu, x, phase in points:
        if z_size is not None and isinstance(nu, float) and isinstance(x, float) \
                and _cf_is_long(nu, z_size(x)):
            continue
        signal.setitimer(signal.ITIMER_REAL, _CALL_SECONDS)
        try:
            value = call(nu, x, phase)
        except BesselQError:
            continue
        except Exception as exc:  # noqa: BLE001 -- an untyped raise is the failure
            bad.append((nu, x, phase, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        returned += 1
        if not _finite(value):
            bad.append((nu, x, phase, value))
    assert not bad, (len(bad), bad[:5])
    assert returned, "every draw raised: the sweep shows nothing"


#: Orders by quarter decades from 1e15 to 1e157, past where the pole term
#: leaves the range at ``omega`` = 1e6 (about 6.7e156).
HUGE_ORDERS = [10.0 ** (15 + k / 4) for k in range(569)]


def test_huge_orders_return_unless_the_pole_term_overflows():
    # kappa, formed as |z/r - z r - (2nu+6)| with z/r near 2nu, was rounding
    # noise here: up to nu = 5.6e153, 830 of the 1,668 q_inverse calls raised
    # InconsistencyError (from nu = 3.16e25) and 2,222 of the 5,004 calls of
    # each Laplace function raised PoleError.  Now each returns, or raises
    # OverflowRangeError where 4(nu+1)(nu+2)/s leaves the range
    for nu in HUGE_ORDERS:
        model = ModelOrder(nu)
        for omega in (1e-3, 1.0, 1e6):
            calls = [(q_inverse, omega, 1j * omega)]
            calls += [(laplace, s, s) for s in (omega, -0.5 * omega, 1j * omega)
                      for laplace in (creep_rate_laplace, creep_compliance_laplace)]
            for call, argument, s in calls:
                try:
                    call(model, argument)
                except OverflowRangeError:
                    with pytest.raises(OverflowRangeError):
                        _pole_term(nu, complex(s))


@pytest.mark.parametrize("call, error", [
    (lambda: besselq.creep_rate_time(ModelOrder(1e154), 1.0), besselq.OverflowRangeError),
    (lambda: besselq.creep_compliance_asymptotic(ModelOrder(1e308), 1.0, "high"),
     besselq.OverflowRangeError),
    (lambda: besselq.creep_compliance_asymptotic(ModelOrder(1), 1e-310, "low"),
     besselq.OverflowRangeError),
    (lambda: besselq.q_inverse_asymptotic(ModelOrder(1), 1e-310, "low"),
     besselq.OverflowRangeError),
    (lambda: q_inverse(ModelOrder(1e154), 1.0), besselq.OverflowRangeError),
    (lambda: ModelOrder(10**400), besselq.DomainError),
    (lambda: q_inverse(ModelOrder(1), 10**400), besselq.DomainError),
    (lambda: besselq.creep_rate_laplace(ModelOrder(1), 10**400), besselq.DomainError),
    (lambda: besselq.kelvin(1.0, 10**400), besselq.DomainError),
], ids=["creep_rate_time", "compliance_high", "compliance_low", "q_low", "q_inverse",
        "ModelOrder-int", "q_inverse-int", "creep_rate_laplace-int", "kelvin-int"])
def test_range_and_domain_leaks_are_typed(call, error):
    # these returned inf, inf+nanj or (inf, estimate 7e-15), raised a NaN
    # InconsistencyError, or a bare OverflowError on an int past 1e308
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda: besselq.bessel_j_zero(0.0, 10**400),
    lambda: besselq.bessel_j_zero(0.0, 10**20),
    lambda: besselq.bessel_j_zeros(0.0, 10**12),
    lambda: besselq.bessel_j_zeros(0.0, 10**6 + 1),
], ids=["index-int", "index-1e20", "count-1e12", "count-past-1e6"])
def test_zero_index_and_count_are_bounded(call, call_timer, monkeypatch):
    # these raised a bare OverflowError, the RootIsolationError kept for
    # bugs, and began a 1e12-entry list: each is refused before any zero is
    # sought, and the timer stops a call that would build the list
    def no_work(*args):
        raise AssertionError("work done for an index or count past the limit")

    monkeypatch.setattr(zeros_module, "_mcmahon_zero_estimate", no_work)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(besselq.DomainError):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def test_every_estimate_counts_in_one_unit():
    # every estimate counts its roundings in errors._UNIT: a module that
    # keeps a unit of its own, or reads eps itself, splits the error model
    package = Path(besselq.__file__).parent
    foreign = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "errors.py" and path.parent == package:
            continue
        text = path.read_text(encoding="utf-8")
        if "float_info.epsilon" in text:
            foreign.append((path.name, "float_info.epsilon"))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.ImportFrom) and not (node.module or "").endswith("errors"):
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            foreign += [(path.name, name) for name in bound
                        if name in ("_EPS", "_ROUNDOFF", "_UNIT")]
    assert not foreign
    assert series._UNIT is besselq.errors._UNIT == 0.5 * sys.float_info.epsilon
