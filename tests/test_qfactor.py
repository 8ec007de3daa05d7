"""Quality-factor routes: golden values, route equivalence, asymptotics,
the single production route against the oracle over the whole domain, and
the product identity linking the two closed forms."""

import math
import random
import time
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from besselq import (
    DEFAULT_CROSSOVER_OMEGA,
    BesselQError,
    DomainError,
    InconsistencyError,
    ModelOrder,
    OverflowRangeError,
    QEvaluation,
    creep_compliance_asymptotic,
    fg_series,
    frac_maxwell_q_inverse,
    kelvin_scaled,
    q_inverse,
    q_inverse_asymptotic,
    q_inverse_fg,
    q_inverse_kelvin,
)
from besselq.specfun.series import _tricomi_series

# oracle: Theorem-style combination of naive extended-precision series,
# cross-validated against the ratio form inside the oracle itself
Q_1_0 = 6.006243342891924626984
Q_100_1 = 0.311653810173022234662

NUS = (-0.5, 0.0, 1.0, 3.5, 10.0)


def rel(a, b):
    return abs(a - b) / abs(b)


def log_grid(lo, hi, count):
    return [10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * i / (count - 1)) for i in range(count)]


# ------------------------------------------------------- golden values


def test_three_routes_reproduce_golden_value():
    model = ModelOrder(0.0)
    for fn in (q_inverse_fg, q_inverse_kelvin, q_inverse):
        assert rel(fn(model, 1.0).q_inverse, Q_1_0) < 1e-10


def test_golden_value_nu1_omega100():
    model = ModelOrder(1.0)
    assert rel(q_inverse_kelvin(model, 100.0).q_inverse, Q_100_1) < 1e-10


# ----------------------------------------------------- route behaviors


def test_fg_route_low_frequency():
    # Q^-1 -> 2(nu+1)(nu+3)/omega = 6/omega for nu = 0
    ev = q_inverse_fg(ModelOrder(0.0), 1e-3)
    assert abs(ev.q_inverse * 1e-3 / 6.0 - 1.0) < 1e-6


def test_fg_route_returns_at_400_and_raises_at_1e5():
    # the route keeps no crossover of its own: at 400 its series still
    # serve, within their estimate; far above, they cancel and it raises
    ev = q_inverse_fg(ModelOrder(0.0), 400.0)
    assert rel(ev.q_inverse, float(oracle.q_inverse(0.0, 400.0))) <= ev.est_rel_error
    with pytest.raises(BesselQError):
        q_inverse_fg(ModelOrder(0.0), 1e5)


def test_fg_kelvin_consistency_nu2_omega10():
    a = q_inverse_fg(ModelOrder(2.0), 10.0).q_inverse
    b = q_inverse_kelvin(ModelOrder(2.0), 10.0).q_inverse
    assert rel(a, b) < 1e-9


def test_kelvin_route_low_frequency_negative_order():
    # 2(0.5)(2.5)/0.01 = 250 at nu = -1/2
    ev = q_inverse_kelvin(ModelOrder(-0.5), 0.01)
    assert abs(ev.q_inverse / 250.0 - 1.0) < 0.02


def test_kelvin_direct_consistency_nu1_omega100():
    a = q_inverse_kelvin(ModelOrder(1.0), 100.0).q_inverse
    b = q_inverse(ModelOrder(1.0), 100.0).q_inverse
    assert rel(a, b) < 1e-9


def test_kelvin_route_returns_at_2_5e6_and_raises_at_1e12():
    # the scaled pair does not overflow where ber/bei do: 2.5e6 returns
    # within its estimate, and far above the expansion's estimate passes
    # the ceiling
    ev = q_inverse_kelvin(ModelOrder(0.0), 2.5e6)
    assert rel(ev.q_inverse, float(oracle.q_inverse(0.0, 2.5e6))) <= ev.est_rel_error
    with pytest.raises(InconsistencyError):
        q_inverse_kelvin(ModelOrder(0.0), 1e12)


def _within_production(nu, omega):
    """Whether ``q_inverse_kelvin`` lies within its estimate plus that of
    ``q_inverse`` of the production value."""
    kelvin_ev, direct = q_inverse_kelvin(ModelOrder(nu), omega), q_inverse(ModelOrder(nu), omega)
    allowed = (kelvin_ev.est_rel_error * kelvin_ev.q_inverse
               + direct.est_rel_error * direct.q_inverse)
    return abs(kelvin_ev.q_inverse - direct.q_inverse) <= allowed


def test_kelvin_route_at_large_orders_is_right_or_loud():
    # above the crossover each pair keeps the scale it was computed in; the
    # series' pair, rescaled to the expansion's, once underflowed with a
    # small estimate: 4 of these 810 points lay outside the production
    # value (27.007 for 120.913 at nu = 400, omega = 2673.13) and 5 raised
    # a bare ZeroDivisionError
    returned = 0
    for nu in (30, 50, 100, 150, 200, 300, 400, 500, 700, 1000):
        for omega in log_grid(324.5, 1e6, 81):
            try:
                assert _within_production(nu, omega), (nu, omega)
            except BesselQError:
                continue
            returned += 1
    assert returned >= 810 // 3


@pytest.mark.parametrize("nu, omega", [(679.9566016547091, 42065.78303447008),
                                       (381.3444810703265, 2069.48457863803)])
def test_kelvin_route_where_the_scaled_series_pair_underflowed(nu, omega):
    # these raised ZeroDivisionError and returned 140.76 for 142.02
    assert _within_production(nu, omega)


def test_direct_route_high_frequency_asymptote_gap():
    # the gap |Q/asym - 1| follows (2nu+3)/sqrt(2 omega) to relative order
    # omega^-1/2 (DLMF 10.40.1, second coefficient (nu+1)(2nu+3)); measured
    # deviations from that law at nu=3.5 are 6.8e-3 (1e5) and 2.1e-3 (1e6)
    nu = 3.5
    model = ModelOrder(nu)
    gaps = []
    for omega in (1e5, 1e6):
        gap = abs(
            q_inverse(model, omega).q_inverse / q_inverse_asymptotic(model, omega, "high") - 1.0
        )
        assert abs(gap / ((2.0 * nu + 3.0) / math.sqrt(2.0 * omega)) - 1.0) <= 2e-2
        gaps.append(gap)
    assert gaps[1] < gaps[0] / 2.0


def test_direct_route_storage_modulus_positive_across_sweep():
    for nu in NUS:
        model = ModelOrder(nu)
        for omega in log_grid(1e-4, 1e7, 45):
            ev = q_inverse(model, omega)  # raises if Re(sJ~) <= 0
            assert ev.q_inverse > 0.0


# ------------------------------------------------- production route

ORACLE_NUS = (-0.99, -0.9, 0.0, 5.0, 50.0, 169.0, 300.0)


def test_production_route_matches_oracle_across_domain():
    # one route for every order and frequency: each point lies within 1e-12
    # of the oracle and within its own error estimate (measured worst
    # error 2.1e-15, worst error/estimate 0.06).  The grid holds nu = 50,
    # omega = 1e-3 (Q^-1 = 5.406e6), where the Kelvin form's estimate was NaN.
    for nu in ORACLE_NUS:
        model = ModelOrder(nu)
        for k in range(-6, 5):
            omega = 10.0**k
            ev = q_inverse(model, omega)
            assert ev.route == "direct_ratio"
            err = rel(ev.q_inverse, float(oracle.q_inverse(nu, omega)))
            assert err <= 1e-12, (nu, omega, err)
            assert err <= ev.est_rel_error, (nu, omega, err, ev.est_rel_error)


@pytest.mark.parametrize("omega", [1e20, 1e50, 1e300])
def test_production_route_matches_mpmath_at_high_frequency(omega):
    # the continued fraction needed ~7 omega^(1/4) iterations: 3.7 s at
    # 1e24, no return at 1e30.  The Hankel sums now serve these points
    # (measured worst error 3.2e-16, error/estimate 0.04)
    with mp.workdps(40):
        z = mp.sqrt(mp.mpc(0, omega))
        for nu in (-0.99, -0.5, 0.0, 5.0, 50.0, 169.0, 300.0):
            ev = q_inverse(ModelOrder(nu), omega)
            tail = 2 * (nu + 1) / z * mp.besseli(nu + 3, z) / mp.besseli(nu + 2, z)
            ref = (4 * (mp.mpf(nu) + 1) * (nu + 2) / omega - tail.imag) / (1 + tail.real)
            err = float(abs(ev.q_inverse - ref) / ref)
            assert err <= ev.est_rel_error < 1e-13, (nu, err, ev.est_rel_error)


@pytest.mark.parametrize("nu", [3.2e25, 1e30, 1e50, 1e100, 1e150])
def test_production_route_matches_tricomi_oracle_at_huge_orders(nu):
    # kappa, formed as |z/r - z r - (2nu+6)| with z/r near 2nu, was rounding
    # noise from nu = 3.16e25 on, and the estimate passed the ceiling
    # (InconsistencyError; 1.05e19 at nu = 1e50, omega = 1).  The besseli
    # and f/g oracles fail their own self-checks there; the Tricomi
    # quotient serves (measured worst error/estimate 0.036)
    for omega in (1e-3, 1.0, 1e6):
        ev = q_inverse(ModelOrder(nu), omega)
        err = rel(ev.q_inverse, float(oracle.q_inverse_tricomi(nu, omega)))
        assert err <= ev.est_rel_error, (omega, err, ev.est_rel_error)


def test_production_route_returns_at_huge_orders_and_frequencies():
    # where r = I_{nu+3}/I_{nu+2} lies within a few ulps of 1, both forms of
    # kappa read rounding noise of order u |z| (up to 1e13; mpmath gives
    # kappa = 1.0), and 508 of these points raised InconsistencyError
    # (estimate 2.98e-6 at (1e10, 1e52)).  Each now lies within the leading
    # high-frequency law and its estimate (measured worst 0.22 of that)
    points = [(10.0 ** (8 + i / 4), 10.0 ** (50 + j / 2)) for i in range(36) for j in range(64)]
    points = [(nu, omega) for nu, omega in points if omega >= 100.0 * nu**4]
    assert len(points) == 1916
    for nu, omega in points + [(1e20, 1e100)]:
        model = ModelOrder(nu)
        ev = q_inverse(model, omega)
        gap = rel(ev.q_inverse, q_inverse_asymptotic(model, omega, "high"))
        assert gap <= 1.01 * (2.0 * nu + 3.0) / math.sqrt(2.0 * omega) + ev.est_rel_error, (
            nu, omega, gap, ev.est_rel_error)


@pytest.mark.parametrize("nu, omega", [(1e155, 1e6), (5e156, 1e6), (1e157, 1e10),
                                       (5e307, 1e308)])
def test_production_route_returns_where_the_pole_term_fits(nu, omega):
    # 4(nu+1)(nu+2), formed before the division by omega, overflowed from
    # nu = 6.7e153 (4(nu+1) alone from 4.5e307) though P = 4(nu+1)(nu+2)/omega
    # is 2e304 to 1e308 here
    ev = q_inverse(ModelOrder(nu), omega)
    err = rel(ev.q_inverse, float(oracle.q_inverse_tricomi(nu, omega)))
    assert err <= ev.est_rel_error, (err, ev.est_rel_error)


def test_production_route_raises_where_the_pole_term_overflows():
    # P = 4e308
    with pytest.raises(OverflowRangeError, match="the pole term"):
        q_inverse(ModelOrder(1e157), 1e6)


def test_production_route_cost_is_flat_in_frequency():
    start = time.perf_counter()
    q_inverse(ModelOrder(0.0), 1e30)
    assert time.perf_counter() - start < 0.05


def test_production_route_reaches_low_asymptote():
    # far below omega ~ 1 the next term is O(omega^2) relative, so the
    # value must equal 2(nu+1)(nu+3)/omega to roundoff (measured 2.2e-16).
    # At nu = 0, omega = 1e-30 (truth 6e30) the Kelvin form gave 5.44e15.
    for nu in ORACLE_NUS:
        model = ModelOrder(nu)
        for omega in (1e-200, 1e-100, 1e-30):
            q = q_inverse(model, omega).q_inverse
            assert rel(q, q_inverse_asymptotic(model, omega, "low")) <= 1e-14


def test_estimate_ceiling_rejects_kelvin_noise_floor():
    # the Kelvin form's own estimate is ~10 at omega = 1e-30: it must raise
    # rather than return a value its estimate disowns
    with pytest.raises(BesselQError):
        q_inverse_kelvin(ModelOrder(0.0), 1e-30)


def test_result_beyond_double_range_is_overflow():
    with pytest.raises(OverflowRangeError):
        q_inverse(ModelOrder(1e4), 1e-300)


def test_subnormal_q_inverse_is_refused():
    # the low form 2(nu+1)(nu+3)/omega is 4e-322 here, a subnormal that once
    # returned 1.1% off; q_inverse returns, as its Q^-1 = 4.5e-169 is normal
    # though its pole term is subnormal
    model = ModelOrder(-1.0 + 1e-15)
    with pytest.raises(OverflowRangeError):
        q_inverse_asymptotic(model, 1e307, "low")
    with pytest.raises(OverflowRangeError):
        QEvaluation(1.0, 1e-310, "direct_ratio", 0.0)
    ev = q_inverse(model, 1e307)
    # (2nu+3)/sqrt(2 omega) = 2e-154: the high form is exact here
    assert rel(ev.q_inverse, q_inverse_asymptotic(model, 1e307, "high")) <= ev.est_rel_error


@pytest.mark.parametrize(
    "route, nu, omega",
    [(q_inverse_kelvin, 50.0, 1e-100), (q_inverse_kelvin, 10.0, 1e-300)],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_verification_routes_raise_where_pair_products_underflow(route, nu, omega):
    # these once raised ZeroDivisionError, or an InconsistencyError about a
    # nan estimate or a zero denominator, and then OverflowRangeError where
    # (x/2)^nu left the double range in the series; the pairs now keep the
    # series' power of two, and the quotient meets its eps/omega rounding
    # floor: Re(s J~), about 1/Q^-1 of the unit pairs, is below their rounding
    with pytest.raises(InconsistencyError):
        route(ModelOrder(nu), omega)


@pytest.mark.parametrize(
    "route, nu, omega",
    [
        (q_inverse_kelvin, 100.0, 1.0),
        (q_inverse_kelvin, 130.0, 1.0),
        (q_inverse_kelvin, 50.0, 1e-3),
        # the pairs' power of two once reached the estimate as the rounding
        # of k ln 2, which passed the ceiling here (InconsistencyError)
        (q_inverse_kelvin, 1000.0, 1.0),
        (q_inverse_kelvin, 100.0, 1e-3),
        (q_inverse_fg, 100.0, 1.0),
        (q_inverse_fg, 130.0, 1.0),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_unit_pairs_return_where_products_underflowed(route, nu, omega):
    # the products of the pair values underflow here, and the routes raised
    # OverflowRangeError; the pairs scaled to unit modulus do not
    ev = route(ModelOrder(nu), omega)
    assert rel(ev.q_inverse, float(oracle.q_inverse(nu, omega))) <= ev.est_rel_error


#: The scan of the two pair routes at large orders and low frequency: the
#: grid, and the points that raised OverflowRangeError once (170, 1e-3 is
#: on the grid too).
ROUTE_SCAN_POINTS = ([(float(nu), omega) for nu in (30, 50, 90, 100, 130, 150, 170, 200, 250, 300)
                      for omega in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 300.0)]
                     + [(50.0, 1e-100), (10.0, 1e-300), (170.0, 1e-3)])


def test_pair_routes_keep_no_range_limit_of_their_own():
    # the series range-tested a value that _pair_quotient scales to unit
    # modulus anyway: 63 of these 146 raised OverflowRangeError, the Kelvin
    # route from order 90 at omega = 1e-3 and the f/g route from order 170;
    # now each returns within its estimate, or raises at its rounding floor
    returned = 0
    for nu, omega in ROUTE_SCAN_POINTS:
        reference = None
        for route in (q_inverse_kelvin, q_inverse_fg):
            try:
                ev = route(ModelOrder(nu), omega)
            except BesselQError as exc:
                assert not isinstance(exc, OverflowRangeError), (route.__name__, nu, omega)
                continue
            reference = reference or float(oracle.q_inverse(nu, omega))
            assert rel(ev.q_inverse, reference) <= ev.est_rel_error, (route.__name__, nu, omega)
            returned += 1
    # 137 of the 146 return, 9 raise InconsistencyError (the eps/omega floor)
    assert returned >= 137


def test_kelvin_route_where_the_series_pair_is_subnormal():
    # (x/2)^150 / Gamma(151) = 7.0e-46 x 1.75e-263 is below the normal range:
    # formed as that product, the pair lost digits and the route returned
    # 8.2e-7 off under an estimate of 5.7e-10
    ev = q_inverse_kelvin(ModelOrder(150.0), 1.0)
    assert rel(ev.q_inverse, float(oracle.q_inverse(150.0, 1.0))) <= ev.est_rel_error


#: Kelvin-route draws of the probe below that lay over their estimate, by
#: up to 1.06x, until it counted the rounding of nu + 2.
KELVIN_ORDER_ROUNDING_POINTS = ((30.831847562081823, 0.29138570909544803),
                                (30.488583764676743, 0.004805073738959944))


def test_verification_routes_within_their_estimates():
    # the f/g estimate once took a flat 2.3e-16 per pair component and
    # missed the cancellation of the two series: 61 of 700 draws of this
    # distribution lay over it, by up to 18x at nu = -0.997, omega = 296
    rng = random.Random(7)
    points = [(-1.0 + 10.0 ** rng.uniform(-3.0, math.log10(51.0)),
               10.0 ** rng.uniform(-3.0, math.log10(DEFAULT_CROSSOVER_OMEGA)))
              for _ in range(200)]
    for nu, omega in points + list(KELVIN_ORDER_ROUNDING_POINTS):
        ref = float(oracle.q_inverse(nu, omega))
        for route in (q_inverse_fg, q_inverse_kelvin):
            try:
                ev = route(ModelOrder(nu), omega)
            except BesselQError:
                continue
            assert rel(ev.q_inverse, ref) <= ev.est_rel_error, (
                route.__name__, nu, omega, ev.est_rel_error)


def _unit_pair_quotient(f1, g1, f2, g2, unit):
    """``(f1 f2 + g1 g2) / (g1 f2 - f1 g2)`` of the pairs scaled to unit
    modulus (by ``abs`` of a complex, whose rounding may differ from
    ``math.hypot``'s), and its estimate ``unit (1/|numer| + 1/|denom|)``."""
    norm1, norm2 = abs(complex(f1, g1)), abs(complex(f2, g2))
    f1, g1, f2, g2 = f1 / norm1, g1 / norm1, f2 / norm2, g2 / norm2
    numer = f1 * f2 - (-g1) * g2
    denom = -(f1 * g2 + (-g1) * f2)
    return numer / denom, unit * (1.0 / abs(numer) + 1.0 / denom)


def test_verification_routes_keep_their_own_arithmetic():
    # the two routes share one pair quotient; on the check grids each value
    # and estimate is bit for bit the route's own closed form
    for nu in NUS:
        model = ModelOrder(nu)
        below = log_grid(1e-3, DEFAULT_CROSSOVER_OMEGA, 40)
        for omega in below + log_grid(DEFAULT_CROSSOVER_OMEGA, 1e6, 40):
            ber1, bei1, _, e1 = kelvin_scaled(nu, math.sqrt(omega))
            ber2, bei2, _, e2 = kelvin_scaled(nu + 2.0, math.sqrt(omega))
            ev = q_inverse_kelvin(model, omega)
            expected = _unit_pair_quotient(ber1, bei1, -bei2, ber2, e1 + e2)
            assert (ev.q_inverse, ev.est_rel_error) == expected, (nu, omega)
        for omega in below:
            f1, g1, _, _ = fg_series(nu, omega)
            f2, g2, _, _ = fg_series(nu + 2.0, omega)
            errors = [_tricomi_series(a, complex(0.0, omega))[1].rel_error for a in (nu, nu + 2.0)]
            ev = q_inverse_fg(model, omega)
            expected = _unit_pair_quotient(f1, g1, f2, g2, errors[0] + errors[1])
            assert (ev.q_inverse, ev.est_rel_error) == expected, (nu, omega)


def test_every_route_judges_positivity_in_one_place(monkeypatch):
    # a response whose real part is not positive raises, naming its route
    # and omega, from the one test all three routes share
    import besselq.qfactor
    import besselq.specfun.kelvinfg
    import besselq.specfun.series

    monkeypatch.setattr(besselq.qfactor, "_compliance_split",
                        lambda nu, s: (complex(-2.0, -1.0), 1e-16))
    monkeypatch.setattr(besselq.specfun.kelvinfg, "kelvin_scaled",
                        lambda nu, x: (1.0, 0.0, 0.0, 1e-16))
    monkeypatch.setattr(besselq.specfun.series, "_tricomi_series",
                        lambda nu, s: (1.0 + 0.0j, SimpleNamespace(rel_error=1e-16)))
    for route, name in ((q_inverse, "direct_ratio"), (q_inverse_kelvin, "kelvin"),
                        (q_inverse_fg, "fg_series")):
        with pytest.raises(InconsistencyError, match=rf"omega = 2\.5 \(route {name}: Re"):
            route(ModelOrder(0.0), 2.5)


def test_asymptotes_are_the_quotient_of_the_asymptotic_s_j():
    # -Im/Re of creep_compliance_asymptotic at s = i omega, bit for bit, and
    # within 1e-15 of the closed forms 2(nu+1)(nu+3)/omega and
    # sqrt(2)(nu+1)/(sqrt(omega) + sqrt(2)(nu+1))
    rng = random.Random(27)
    for _ in range(500):
        nu, omega = -1.0 + 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-6.0, 12.0)
        model = ModelOrder(nu)
        c = math.sqrt(2.0) * (nu + 1.0)
        for regime, closed in (("low", 2.0 * (nu + 1.0) * (nu + 3.0) / omega),
                               ("high", c / (math.sqrt(omega) + c))):
            r = creep_compliance_asymptotic(model, complex(0.0, omega), regime)
            q = q_inverse_asymptotic(model, omega, regime)
            assert q == -r.imag / r.real, (nu, omega, regime)
            assert rel(q, closed) <= 1e-15, (nu, omega, regime)
    # the range ends: the high form from nu of about 9e307 (2(nu+1)), or
    # 1.27e308 sqrt(omega) below; the low one where its pole term leaves the
    # range, as q_inverse does
    for nu, omega, regime in ((9e307, 1.0, "high"), (1e300, 1e-20, "high"),
                              (6.8e158, 1e10, "low"), (1.0, 1e-308, "low")):
        with pytest.raises(OverflowRangeError):
            q_inverse_asymptotic(ModelOrder(nu), omega, regime)
    assert rel(q_inverse_asymptotic(ModelOrder(8.9e307), 1.0, "high"), 1.0) <= 1e-15
    # where 4(nu+1)(nu+2) overflows but the pole term, 1.8e298 here, does not
    assert rel(q_inverse_asymptotic(ModelOrder(6.8e153), 1e10, "low"), 9.248e297) <= 1e-15
    with pytest.raises(OverflowRangeError):
        q_inverse(ModelOrder(1.0), 1e-308)


# ------------------------------------------------- invariant structure


def test_three_route_agreement_grids():
    for nu in NUS:
        model = ModelOrder(nu)
        for omega in log_grid(1e-3, DEFAULT_CROSSOVER_OMEGA, 40):
            a = q_inverse_fg(model, omega).q_inverse
            b = q_inverse_kelvin(model, omega).q_inverse
            c = q_inverse(model, omega).q_inverse
            assert max(abs(a - b), abs(a - c), abs(b - c)) / abs(c) <= 1e-9
        for omega in log_grid(DEFAULT_CROSSOVER_OMEGA, 1e6, 40):
            b = q_inverse_kelvin(model, omega).q_inverse
            c = q_inverse(model, omega).q_inverse
            assert abs(b - c) / abs(c) <= 1e-8


def test_monotonic_decrease_along_log_grid():
    for nu in NUS:
        model = ModelOrder(nu)
        values = [q_inverse(model, omega).q_inverse for omega in log_grid(1e-4, 1e5, 181)]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_nu_ordering_at_fixed_omega():
    for omega in (0.1, 1.0, 10.0, 100.0):
        values = [q_inverse_kelvin(ModelOrder(nu), omega).q_inverse for nu in NUS]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_asymptote_convergence_direction():
    # low side measured through the f/g route, whose roundoff floor stays
    # far below the omega^2 gap decay (the Kelvin form loses ~eps/omega
    # to product cancellation at small omega and would mask the trend)
    for nu in (0.0, 1.0):
        model = ModelOrder(nu)
        low_gaps = [
            abs(
                q_inverse_fg(model, 10.0**-k).q_inverse
                / q_inverse_asymptotic(model, 10.0**-k, "low")
                - 1.0
            )
            for k in range(2, 6)
        ]
        high_gaps = [
            abs(
                q_inverse(model, 10.0**k).q_inverse
                / q_inverse_asymptotic(model, 10.0**k, "high")
                - 1.0
            )
            for k in range(2, 6)
        ]
        assert all(a > b for a, b in zip(low_gaps, low_gaps[1:]))
        assert all(a > b for a, b in zip(high_gaps, high_gaps[1:]))


def test_product_identity_between_closed_forms():
    # the oscillatory-pair numerator/denominator collapse onto the
    # Kelvin-form ones up to the common factor -(2/sqrt(omega))^(2 nu + 2)
    for nu in (-0.5, 0.0, 1.3, 3.5):
        for omega in (0.5, 4.0, 40.0, 250.0):
            f1, g1, _, _ = fg_series(nu, omega)
            f2, g2, _, _ = fg_series(nu + 2.0, omega)
            x = math.sqrt(omega)
            ber1, bei1, _, _ = kelvin_scaled(nu, x)
            ber2, bei2, _, _ = kelvin_scaled(nu + 2.0, x)
            prefactor = (2.0 / x) ** (2.0 * nu + 2.0)
            numer_fg = f1 * f2 + g1 * g2
            numer_kelvin = -prefactor * (bei2 * ber1 - bei1 * ber2)
            denom_fg = g1 * f2 - f1 * g2
            denom_kelvin = -prefactor * (bei1 * bei2 + ber1 * ber2)
            assert abs(numer_fg - numer_kelvin) <= 1e-10 * abs(numer_fg)
            assert abs(denom_fg - denom_kelvin) <= 1e-10 * abs(denom_fg)


@settings(max_examples=30, deadline=None)
@given(
    nu=st.floats(min_value=-0.9, max_value=10.0),
    omega=st.floats(min_value=1e-3, max_value=320.0),
)
def test_three_route_agreement_property(nu, omega):
    model = ModelOrder(nu)
    a = q_inverse_fg(model, omega).q_inverse
    b = q_inverse_kelvin(model, omega).q_inverse
    c = q_inverse(model, omega).q_inverse
    assert a > 0.0
    assert max(abs(a - b), abs(a - c), abs(b - c)) / abs(c) <= 1e-9


# ------------------------------------------------- asymptotic formulas


def test_asymptotic_low_formula():
    assert rel(q_inverse_asymptotic(ModelOrder(0.0), 1e-3, "low"), 6000.0) < 1e-15


def test_asymptotic_high_leading_order():
    model = ModelOrder(0.0)
    omega = 1e10
    expected = math.sqrt(2.0) / math.sqrt(omega)
    assert abs(q_inverse_asymptotic(model, omega, "high") / expected - 1.0) < 1e-4


def test_asymptotic_regime_validation():
    with pytest.raises(DomainError):
        q_inverse_asymptotic(ModelOrder(0.0), 1.0, "mid")


def test_high_asymptote_is_half_order_fractional_maxwell():
    # the high-frequency form equals the half-order fractional Maxwell
    # dissipation with time scale tau = 1/(4 (nu+1)^2)
    for nu in (0.0, 1.0, 2.5):
        model = ModelOrder(nu)
        tau = 1.0 / (4.0 * (nu + 1.0) ** 2)
        for omega in (10.0, 1e4, 1e8):
            a = q_inverse_asymptotic(model, omega, "high")
            b = frac_maxwell_q_inverse(0.5, omega * tau)
            assert rel(a, b) < 1e-14


def test_oracle_agreement_spot_check():
    model = ModelOrder(3.5)
    ref = float(oracle.q_inverse(3.5, 7.0))
    assert rel(q_inverse(model, 7.0).q_inverse, ref) < 1e-11
