"""Special-function unit tests against frozen oracle values and identities.

Golden constants tagged "oracle" were produced by tests/oracle.py (naive
extended-precision summation) and frozen here; the acceptance suite
re-derives them live.
"""

import cmath
import math
import random
import struct
import time

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from besselq import (
    BesselQError,
    CancellationError,
    DomainError,
    ModelOrder,
    NonConvergenceError,
    OverflowRangeError,
    PoleError,
    TruncationError,
    bessel_j,
    creep_compliance_laplace,
    creep_rate_laplace,
    creep_rate_time,
    fg_from_kelvin,
    fg_series,
    gamma_real,
    kelvin,
    kelvin_scaled,
    modified_bessel_i,
    q_inverse,
    tricomi_it,
)
from besselq.errors import EST_REL_ERROR_CEILING, _UNIT
from besselq.specfun import modified, series
from besselq.specfun.kelvinfg import _kelvin_series

# oracle: naive series at >= 40 digits
I0_2 = 2.279585302336067267437
RATIO_0_10 = 1.234141231476452401465
TRICOMI_1_I = complex(0.9947930229361946537142, 0.1248915043580619204717)
FG_0_1 = (0.9843817812130868839656, 0.2495660400366597214194)
FG_05_16 = (-1.078071389488113959132, 2.121389597658043780588)
KELVIN_0_1 = (0.9843817812130868839656, 0.2495660400366597214194)
GAMMA_7_5 = 1871.254305797788346476


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- gamma


def test_gamma_at_one():
    assert gamma_real(1.0) == 1.0


def test_gamma_half_is_sqrt_pi():
    assert rel(gamma_real(0.5), math.sqrt(math.pi)) < 1e-14


def test_gamma_7_5_by_product_recursion():
    # independent oracle: Gamma(7.5) = 6.5 * 5.5 * ... * 0.5 * Gamma(0.5)
    expected = math.sqrt(math.pi)
    x = 0.5
    while x < 7.0:
        expected *= x
        x += 1.0
    assert rel(gamma_real(7.5), expected) < 1e-13
    assert rel(gamma_real(7.5), GAMMA_7_5) < 1e-13


def test_gamma_accuracy_across_range():
    worst = 0.0
    for i in range(400):
        x = -0.99 + 50.99 * i / 399.0
        if abs(x - round(x)) < 1e-9 and x <= 0.0:
            continue
        worst = max(worst, rel(gamma_real(x), float(mp.gamma(x))))
    assert worst < 1e-13


def test_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma_real(x)


def test_gamma_overflow():
    with pytest.raises(OverflowRangeError):
        gamma_real(200.0)


def test_gamma_outside_normal_range_is_typed():
    # math.gamma returns -0.0 at -180.5 and a subnormal at -171.5, and
    # overflows at 1e-320: no digits, or not all of them, survive
    for x in (-180.5, -171.5, -170.7, 1e-320, -1e-320, 171.7):
        with pytest.raises(OverflowRangeError):
            gamma_real(x)
    assert rel(gamma_real(-170.5), float(mp.gamma(-170.5))) < 2e-15


def test_bessel_i_at_large_order_against_mpmath():
    # 1/Gamma(order+1) is the series' first term: a 15-term Lanczos fit
    # left 7.8e-14 and 6.6e-14 at the first two points, and Gamma of the
    # rounded order + 1 3.0e-14 at the third
    with mp.workdps(40):
        for order, x in ((120.7, 30.0), (150.2, 3.0), (63.78524121417147, 1.05e-3)):
            ref = mp.besseli(order, x)
            assert float(abs(modified_bessel_i(order, x) - ref) / ref) < 2e-15


# ------------------------------------------------- modified Bessel series


def test_bessel_i_at_zero():
    assert modified_bessel_i(0.0, 0.0) == 1.0
    assert modified_bessel_i(1.0, 0.0) == 0.0


def test_bessel_i_golden():
    assert rel(modified_bessel_i(0.0, 2.0), I0_2) < 1e-13


def test_bessel_i_accuracy_to_30():
    for x in (0.25, 1.0, 5.0, 12.0, 19.0, 30.0):
        for order in (-0.5, 0.0, 1.0, 3.5):
            ref = float(oracle.bessel_i(order, x))
            assert rel(modified_bessel_i(order, x), ref) < 1e-12


def test_bessel_i_domain_and_overflow():
    with pytest.raises(DomainError):
        modified_bessel_i(-1.5, 1.0)
    with pytest.raises(DomainError):
        modified_bessel_i(0.0, -1.0)
    with pytest.raises(OverflowRangeError):
        modified_bessel_i(-0.5, 0.0)


def test_bessel_i_up_to_double_range():
    # the term cap follows from x, so I_0 returns until it leaves the range
    for x in (650.0, 700.0, 713.0):
        ref = mp.besseli(0, x)
        assert float(abs(modified_bessel_i(0.0, x) - ref) / ref) < 1e-12
    for x in (714.0, 800.0):
        with pytest.raises(OverflowRangeError):
            modified_bessel_i(0.0, x)


def test_bessel_i_where_one_factor_leaves_double_range():
    # (x/2)^order or Gamma(order+1) alone overflows here, the value does
    # not; both once raised OverflowRangeError.  The first term comes from
    # Legendre's duplication, within the bounds modified_bessel_i documents
    # (3.3e-14 up to order 170, 8e-14 above): its logarithmic form was
    # 5.8e-14 to 2.3e-13 off at these points
    for order, x in ((200.0, 147.0), (171.0, 200.0), (150.0, 400.0), (300.0, 700.0),
                     (1000.0, 500.0)):
        ref = mp.besseli(order, x)
        bound = 3.3e-14 if order <= 170.0 else 8e-14
        assert float(abs(modified_bessel_i(order, x) - ref) / ref) < bound, (order, x)
    assert modified_bessel_i(200.0, 0.0) == 0.0
    with pytest.raises(OverflowRangeError):
        modified_bessel_i(200.0, 1000.0)


def test_series_bound_stays_finite_near_the_sums_overflow():
    # the running bound is carried at a power of two near the top of the
    # range: here it overflowed to inf before the sum did, and the value
    # returned with an infinite estimate
    value, diagnostics = series._tricomi_series(7000.0, 4560.0**2, 4560.0)
    with mp.workdps(40):
        error = float(abs(value / mp.besseli(7000, 4560) - 1))
    assert error <= diagnostics.rel_error < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda: modified_bessel_i(150.0, 1e-3),
        lambda: modified_bessel_i(200.0, 1.0),
        lambda: modified_bessel_i(3.0, 1e-200),
        lambda: bessel_j(150.0, 1e-3),
        lambda: kelvin(170.0, 0.68),
        lambda: fg_series(170.6, 1.0),
    ],
    ids=["i-150-1e-3", "i-200-1", "i-3-1e-200", "j-150-1e-3", "kelvin-170-0.68", "fg-170.6"],
)
def test_underflow_is_typed(call):
    # the value lies below the normal double range: these returned 0.0,
    # (0.0, -0.0) or a subnormal, with no error
    with pytest.raises(OverflowRangeError):
        call()


def test_exact_zeros_at_zero_argument_stay():
    for order in (1.0, 150.0):
        assert modified_bessel_i(order, 0.0) == 0.0
        assert bessel_j(order, 0.0) == 0.0
        assert tuple(kelvin(order, 0.0))[:2] == (0.0, 0.0)
    assert modified_bessel_i(0.0, 0.0) == bessel_j(0.0, 0.0) == kelvin(0.0, 0.0).ber == 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: bessel_j(400.0, 12.0),
        lambda: bessel_j(500.0, 13.0),
        lambda: kelvin_scaled(1000.0, 5.0),
        lambda: modified_bessel_i(1000.0, 500.0),
        lambda: tricomi_it(19.056616588080566, complex(937227.8620308988, 176193.06832100725)),
        lambda: modified_bessel_i(10000.0, 6600.0),
    ],
    ids=["j-400-12", "j-500-13", "kelvin-1000-5", "i-1000-500", "t-complex", "i-10000-6600"],
)
def test_overflow_is_typed(call):
    # (x/2)^order, or |term| of a complex series, leaves the double range
    # here; that may raise OverflowRangeError, never a bare OverflowError
    try:
        call()
    except OverflowRangeError:
        pass


def test_j_beyond_both_expansions_raises_truncation():
    # J_200(147) = 5.3e-15 is in range, but neither expansion reaches 5e-11
    # of the amplitude (the series' estimate is 2.7e-6): it once raised
    # OverflowRangeError from Gamma(201) before either was tried
    with pytest.raises(TruncationError):
        bessel_j(200.0, 147.0)


def test_j_and_kelvin_beyond_order_170_against_mpmath():
    # 1/Gamma(order+1) leaves the double range from order 170.6 on; these
    # values are in range and once raised OverflowRangeError
    with mp.workdps(40):
        for order, x in ((188.97, 4.24), (171.0, 12.0), (250.0, 11.5), (300.0, 30.0),
                         (400.0, 60.0)):
            ref = mp.besselj(order, x)
            assert float(abs(bessel_j(order, x) - ref) / abs(ref)) < 5e-13, (order, x)
        for order, x in ((171.0, 18.0), (172.0, 5.0), (200.0, 10.0), (250.0, 17.0)):
            pair = kelvin(order, x)
            for value, ref in ((pair.ber, mp.ber(order, x)), (pair.bei, mp.bei(order, x))):
                assert float(abs(value - ref) / abs(ref)) < 5e-13, (order, x)


def test_first_term_carries_one_error_model():
    # a first term formed directly carries exactly 7u + _GAMMA_ERROR; a
    # duplicated one lies within the sum of its Gammas' and duplications'
    # errors
    direct = 7.0 * _UNIT + series._GAMMA_ERROR
    for order, x in ((0.0, 1.0), (-0.5, 3.0), (5.0, 30.0), (170.0, 2.0), (150.0, 1.0)):
        power, _, scale, error = series._leading_factors(order, x)
        assert (power, scale, error) == (pow(0.5 * x, order), 0, direct)
    # Gamma(order) ~ 1/order overflows below 2^-1024, and 1/Gamma(order+1) is 1;
    # above it 1/(order Gamma(order)) stays, bit for bit
    assert series._leading_factors(2.2250738585e-313, 2.0) == (1.0, 1.0, 0, direct)
    assert series._leading_factors(1e-308, 2.0)[1] == 1.0 / (1e-308 * math.gamma(1e-308))
    with mp.workdps(40):
        for order, x in ((171.0, 2.0), (200.0, 147.0), (1000.0, 500.0), (7000.0, 4400.0),
                         (300.0, 1e-100)):
            power, first, scale, error = series._leading_factors(order, x)
            assert first == 1.0 and 0.5 <= power < 1.0 and error > direct
            ref = (mp.mpf(x) / 2) ** order / mp.gamma(order + 1)
            assert float(abs(mp.ldexp(power, scale) / ref - 1)) <= error, (order, x)


def test_orders_past_the_reach_raise_before_any_gamma(monkeypatch):
    # I_10000(6600) = 9.19e-25 is in range, but its sum overflows first; from
    # order 7,849 no x returns, and past the reach no Gamma is taken
    calls = []
    monkeypatch.setattr(series, "gamma_real", lambda x: calls.append(x))
    for call in (lambda: modified_bessel_i(10000.0, 6600.0), lambda: bessel_j(8000.5, 12.0),
                 lambda: kelvin(1e6, 18.0), lambda: tricomi_it(1e300, 1.0)):
        with pytest.raises(OverflowRangeError):
            call()
    assert not calls
    assert modified_bessel_i(1e300, 0.0) == 0.0


def test_exact_zero_at_zero_argument_beyond_order_170():
    # the value is exactly 0; Gamma(201) once made J and ber/bei raise
    assert bessel_j(200.0, 0.0) == 0.0
    assert tuple(kelvin(200.0, 0.0))[:2] == (0.0, 0.0)
    assert modified_bessel_i(200.0, 0.0) == 0.0


@pytest.mark.parametrize("order", [-0.9, -0.5, 0.5])
def test_subnormal_argument(order):
    # x/2 rounds to 0 at x = 5e-324: (x/2)^order once raised a bare
    # ZeroDivisionError (order < 0) or ValueError, or OverflowRangeError
    x = 5e-324
    with mp.workdps(40):
        pair = kelvin(order, x)
        for value, ref in ((modified_bessel_i(order, x), mp.besseli(order, x)),
                           (bessel_j(order, x), mp.besselj(order, x)),
                           (pair.ber, mp.ber(order, x)),
                           (pair.bei, mp.bei(order, x))):
            assert float(abs(value - ref) / abs(ref)) < 2e-13


@pytest.mark.parametrize("order, x", [(-0.999, 1e-310), (-0.96, 7.4e-322),
                                      (-1.0 + 1e-9, 5.5e-311), (0.9999, 4.1456907631656324e-308)])
def test_subnormal_argument_where_one_factor_alone_leaves_the_range(order, x):
    # (x/2)^order overflows (or, at 0.9999, falls below the normal range)
    # where (x/2)^order/Gamma(order+1) does not: the sum is its first term
    # there, so the two fold into one
    with mp.workdps(40):
        for value, ref in ((modified_bessel_i(order, x), mp.besseli(order, x)),
                           (bessel_j(order, x), mp.besselj(order, x))):
            assert float(abs(value - ref) / abs(ref)) < 1e-15, (value, ref)
        estimate = series._tricomi_series(order, x * x, x)[1].rel_error
        assert float(abs(modified_bessel_i(order, x) / mp.besseli(order, x) - 1)) <= estimate


def test_one_error_at_zero_argument_below_order_zero():
    # I_a(0), J_a(0) and ber/bei_a(0) all diverge for a < 0; J once raised
    # DomainError where the other two raised OverflowRangeError
    for fn in (modified_bessel_i, bessel_j, kelvin, kelvin_scaled):
        with pytest.raises(OverflowRangeError):
            fn(-0.5, 0.0)


# ------------------------------------------------------------- tricomi


def test_tricomi_at_zero_is_reciprocal_gamma():
    for order in (-0.5, 0.0, 1.5, 7.0):
        assert rel(tricomi_it(order, 0j), 1.0 / gamma_real(order + 1.0)) < 1e-14


def test_tricomi_s4_reduces_to_i0_2():
    assert rel(tricomi_it(0.0, 4.0 + 0j), modified_bessel_i(0.0, 2.0)) < 1e-14


def test_tricomi_golden_complex():
    assert rel(tricomi_it(1.0, 1j), TRICOMI_1_I) < 1e-13


def test_tricomi_is_singlevalued_and_bitwise_deterministic():
    omega = 2.5
    variants = [complex(0.0, omega), 1j * omega, complex(0, 1) * omega]
    results = [tricomi_it(0.7, s) for s in variants]
    packed = {struct.pack("<dd", r.real, r.imag) for r in results}
    assert len(packed) == 1


def test_tricomi_cancellation_flag():
    with pytest.raises(CancellationError) as info:
        tricomi_it(0.0, complex(0.0, 4.0e4))
    assert info.value.ratio > 1e12


@pytest.mark.parametrize("s", [5.2e5, 1e6])
def test_tricomi_overflow_is_loud(s):
    # T_0(s) = I_0(sqrt(s)) leaves the double range near s = 5.1e5
    with pytest.raises(OverflowRangeError):
        tricomi_it(0.0, s)


def test_tricomi_truncation_error(monkeypatch):
    # the cap sqrt|s| + slack never binds; without the slack it does
    monkeypatch.setattr(series, "_SERIES_SLACK", 0)
    with pytest.raises(TruncationError):
        tricomi_it(0.0, complex(0.0, 400.0))


# ------------------------------------------------------ contiguous ratio


def i_ratio(order, z):
    """``I_order(z) / I_{order+2}(z)`` for ``Re z >= 0``: the compliance
    combination ``s J~(s)`` at ``s = z^2``."""
    return creep_compliance_laplace(ModelOrder(order), z * z)


def test_ratio_small_z_leading_term():
    z = 1e-3
    ratio = i_ratio(0.0, complex(z, 0.0))
    # I_0/I_2 ~ 8/z^2 (1 + o(1)) for z -> 0
    assert abs(ratio * z * z / 8.0 - 1.0) < 1e-5


def test_ratio_golden_real_10():
    assert rel(i_ratio(0.0, 10.0 + 0j), RATIO_0_10) < 1e-11


def test_ratio_matches_tricomi_reassembly():
    # I_a/I_{a+2} = (4/s) T_a(s) / T_{a+2}(s) with s = z^2
    for order in (0.0, 0.5, 2.0):
        for omega in (0.5, 5.0, 40.0):
            s = complex(0.0, omega)
            z = cmath.sqrt(s)
            lhs = i_ratio(order, z)
            rhs = (4.0 / s) * tricomi_it(order, s) / tricomi_it(order + 2.0, s)
            assert rel(lhs, rhs) < 1e-10


@pytest.mark.parametrize("magnitude", [1e-3, 0.1, 3.0, 60.0, 500.0])
@pytest.mark.parametrize("arg", [0.0, math.pi / 4])
def test_ratio_accuracy_sweep(magnitude, arg):
    z = magnitude * cmath.exp(1j * arg)
    ref = complex(oracle.i_ratio(1.3, mp.mpc(z.real, z.imag)))
    assert rel(i_ratio(1.3, z), ref) < 1e-11


def test_ratio_regimes_agree_in_overlap_band(monkeypatch):
    # where the Hankel sums are taken (0 iterations), the continued
    # fraction agrees within the two estimates (measured worst 0.09 of them)
    points = [
        (order, cmath.rect(r, phi))
        for order in (-0.9, 0.0, 2.0, 5.5, 20.0)
        for r in (70.0, 120.0, 400.0, 2000.0)
        for phi in (0.0, math.pi / 4, 1.2, math.pi / 2, -1.2)
    ]
    expansion = {}
    for order, z in points:
        value, err, iterations = modified._ratio_next_order(order, z)
        if iterations == 0:
            expansion[order, z] = value, err
    assert len(expansion) >= 90  # 95 of the 100
    assert sum(cmath.phase(z) > 1.5 for _, z in expansion) >= 15  # the imaginary axis: 20
    monkeypatch.setattr(modified, "_hankel_sums", lambda order, z: (0j, 0j, math.inf, 0.0))
    for (order, z), (value, err) in expansion.items():
        cf, residual, iterations = modified._ratio_next_order(order, z)
        assert iterations > 0
        bound = err + residual + 16 * _UNIT
        assert abs(cf - value) <= bound * abs(value), (order, z)


def test_ratio_near_the_axis_below_the_crossover_takes_the_cf():
    # below |z| = 68 the reflected branch is never formed: where it is not
    # negligible the continued fraction serves, within its estimate
    # (measured worst 0.12 of it)
    for order in (-0.9, 0.0, 2.0, 5.5, 20.0):
        for phi in (1.2, math.pi / 2, -1.2):
            z = cmath.rect(30.0, phi)
            value, err, iterations = modified._ratio_next_order(order, z)
            assert iterations > 0, (order, z)
            ref = complex(oracle.i_ratio_next(order, z))
            assert abs(value - ref) <= err * abs(ref), (order, z)


@pytest.mark.parametrize("order, z", [(1.0, 1e6j), (3.0, 1e12j)])
def test_ratio_on_the_imaginary_axis_takes_no_cf_iteration(order, z):
    # the CF would need about |z| iterations: 1,000,670 at z = 1e6 i
    value, err, iterations = modified._ratio_next_order(order, z)
    assert iterations == 0
    ref = complex(oracle.i_ratio_next(order, z))
    assert abs(value - ref) <= err * abs(ref)


def test_ratio_sweep_lies_within_its_estimate():
    # orders -0.99 to 300, |z| 1e1 to 1e8 and phases -pi/2 to pi/2, fixed
    # seed: every returned ratio, from the expansion (270 of the 320) or the
    # CF, lies within its estimate of mpmath (measured worst 0.30 of it)
    rng = random.Random("ratio/sweep")
    worst, served = 0.0, 0
    for _ in range(160):
        order = -0.99 + 10.0 ** rng.uniform(-2.0, math.log10(300.99))
        z = cmath.rect(10.0 ** rng.uniform(1.0, 8.0), rng.uniform(0.0, math.pi / 2))
        for z in (z, z.conjugate()):
            value, err, iterations = modified._ratio_next_order(order, z)
            served += iterations == 0
            ref = complex(oracle.i_ratio_next(order, z))
            worst = max(worst, abs(value - ref) / (err * abs(ref)))
    assert worst <= 1.0, worst
    assert served >= 250, served


def test_ratio_takes_expansion_only_under_its_bound():
    # at order 88, z = 236(1+i), the Hankel terms first grow to 1e4, and
    # the quotient of the sums is off by 1.2e-8; their roundoff, 4e-8 of
    # their size, sends the point to the continued fraction
    z = complex(236.0, 236.0)
    ref = complex(mp.besseli(89, mp.mpc(z.real, z.imag)) / mp.besseli(88, mp.mpc(z.real, z.imag)))
    (e1, o1, _, _), (e0, o0, _, roundoff) = (modified._hankel_sums(a, z) for a in (89.0, 88.0))
    assert rel((e1 - o1) / (e0 - o0), ref) > 1e-9 and roundoff > 1e-14 * abs(e0 - o0)
    value, _, iterations = modified._ratio_next_order(88.0, z)
    assert iterations > 0 and rel(value, ref) < 1e-14


def test_ratio_cf_cap_is_reachable(monkeypatch):
    # the cap 2|z| + 100 follows from the argument, so a fault raises fast;
    # at order 300 the expansion does not serve |z| = 1000, the CF does
    monkeypatch.setattr(modified, "_CF_TOL", 0.0)
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError, match="after 2100 iterations"):
        modified._ratio_next_order(300.0, complex(0.0, 1000.0))
    assert time.perf_counter() - start < 0.5


def test_ratio_cf_work_is_bounded(monkeypatch):
    # at |z| = 1e150 the argument's own cap is 2e150 iterations, at order
    # 1e4, |z| = 3e4 (20,213 iterations) 60,100; the work cap _CF_MAX_ITER
    # bounds both, and its count is in the message
    monkeypatch.setattr(modified, "_CF_MAX_ITER", 5000)
    start = time.perf_counter()
    for order, z in ((1e100, 1e150 * cmath.exp(0.25j * math.pi)), (1e4, 3e4j)):
        with pytest.raises(NonConvergenceError, match="after 5000 iterations"):
            modified._ratio_next_order(order, z)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("call", [
    lambda: q_inverse(ModelOrder(1e100), 1e308),
    lambda: creep_rate_time(ModelOrder(1e100), 1e-300),
], ids=["q_inverse", "creep_rate_time"])
def test_calls_that_never_returned_raise_at_the_cf_cap(call, monkeypatch):
    # each once ran toward a cap of about 2e150 iterations; at 2^22 each
    # raises in about 4 s, here at a smaller cap
    monkeypatch.setattr(modified, "_CF_MAX_ITER", 5000)
    with pytest.raises(NonConvergenceError, match="after 5000 iterations"):
        call()


def test_ratio_cf_needs_no_seed():
    # the CF once ran from a seed 1e-290, which is not negligible beside
    # 1/b_1 = z/(2(order+1)) above |b_1| of about 1e274: here it returned
    # 1.5e-290.  It now runs on 1/f from b_1 itself
    order, z = 1e150, 1e-140
    value, err, iterations = modified._ratio_next_order(order, complex(z))
    ref = mp.mpf(z) / (2 * (mp.mpf(order) + 1))
    assert iterations > 0 and abs(value - ref) <= err * ref, value


@pytest.mark.parametrize("call", [
    lambda: q_inverse(ModelOrder(5.593906960748503e37), 4.832945036144135e112),
    lambda: creep_rate_laplace(ModelOrder(5.593906960748503e37), 4.832945036144135e112j),
], ids=["q_inverse", "creep_rate_laplace"])
def test_cf_with_a_tiny_first_coefficient_raises_typed(call, monkeypatch):
    # |b_1| = 5.1e-19: the seeded first step 1e290/b_1 overflowed, and the
    # call raised a bare OverflowError.  At 2^22 it raises at the cap in
    # about 2 s, here at a smaller cap
    monkeypatch.setattr(modified, "_CF_MAX_ITER", 5000)
    with pytest.raises(BesselQError):
        call()


def test_negative_axis_far_out_raises_without_the_cf(monkeypatch):
    # creep_rate_laplace(1, -1e300) once ran the CF to its cap; the
    # expansion now serves z = 1e150 i, and the rounding of z = sqrt(s)
    # leaves no digit of T: PoleError, a DomainError, with no CF iteration
    monkeypatch.setattr(modified, "_CF_MAX_ITER", 0)
    assert modified._ratio_next_order(3.0, cmath.sqrt(-1e300))[2] == 0
    with pytest.raises(DomainError, match="rounding of sqrt"):
        creep_rate_laplace(ModelOrder(1), -1e300)


def test_slowest_returning_call_stays_under_the_cf_cap():
    # 2,282,655 iterations, about 2 s: the cap must not cut it.  The
    # high-frequency asymptote is off by (2nu+3)/sqrt(2 omega) = 1.4e-5.
    nu, omega = 1e7, 1e24
    value = q_inverse(ModelOrder(nu), omega).q_inverse
    c = math.sqrt(2.0) * (nu + 1.0)
    assert rel(value, c / (math.sqrt(omega) + c)) < 2.0 * (2.0 * nu + 3.0) / math.sqrt(2.0 * omega)


def test_ratio_rejects_zero():
    with pytest.raises(DomainError):
        i_ratio(0.0, 0j)


# ------------------------------------------------------------- f/g pair


def test_fg_small_omega_limits():
    for order in (-0.5, 0.0, 2.5):
        pair = fg_series(order, 1e-12)
        assert rel(pair.f, 1.0 / gamma_real(order + 1.0)) < 1e-12
        assert abs(pair.g) < 1e-11


def test_fg_golden():
    pair = fg_series(0.0, 1.0)
    assert rel(pair.f, FG_0_1[0]) < 1e-13
    assert rel(pair.g, FG_0_1[1]) < 1e-13


def test_fg_matches_tricomi_on_imaginary_axis():
    pair = fg_series(0.5, 4.0)
    t = tricomi_it(0.5, 4.0j)
    assert abs(complex(pair.f, pair.g) - t) < 1e-12 * abs(t)


def test_fg_guard_honesty():
    # whenever the pair returns, it matches the oracle within its running
    # bound, which is at most EST_REL_ERROR_CEILING of the pair norm; where
    # that bound passes the ceiling the pair raises (the 1e12 term/result
    # guard once let fg_series(0, 1e4) return 4.2e-5 off, its bound 8.6e-3)
    for order in (0.0, 3.5):
        for omega in (1.0, 30.0, 324.0, 2000.0, 3000.0, 5000.0, 8000.0, 1e4):
            rel_error = series._tricomi_series(order, complex(0.0, omega))[1].rel_error
            try:
                pair = fg_series(order, omega)
            except CancellationError as exc:
                assert rel_error > EST_REL_ERROR_CEILING and exc.ratio > 1.0
                continue
            assert rel_error <= EST_REL_ERROR_CEILING
            f_ref, g_ref = (float(v) for v in oracle.fg_pair(order, omega))
            norm = math.hypot(f_ref, g_ref)
            assert math.hypot(pair.f - f_ref, pair.g - g_ref) <= rel_error * norm
    # the ceiling falls between 3e3 (bound 1.1e-8) and 5e3 (1.4e-6) at order 0
    fg_series(0.0, 3000.0)
    for omega in (5000.0, 1e4):
        with pytest.raises(CancellationError):
            fg_series(0.0, omega)


# ------------------------------------------------------ Kelvin functions


def test_kelvin_at_zero():
    pair = kelvin(0.0, 0.0)
    assert (pair.ber, pair.bei) == (1.0, 0.0)


def test_kelvin_golden():
    pair = kelvin(0.0, 1.0)
    assert rel(pair.ber, KELVIN_0_1[0]) < 1e-13
    assert rel(pair.bei, KELVIN_0_1[1]) < 1e-13


def test_kelvin_rotation_reproduces_fg():
    # recombining ber/bei of order 2 at x=3 gives (f, g) at omega = 9
    direct = fg_series(2.0, 9.0)
    via_kelvin = fg_from_kelvin(2.0, 9.0)
    assert rel(via_kelvin.f, direct.f) < 1e-10
    assert rel(via_kelvin.g, direct.g) < 1e-10


def test_kelvin_large_argument_route():
    # both sides of the series/asymptotic handover at x = 18
    for order in (-0.5, 0.0, 2.0, 5.5):
        for x in (0.5, 3.0, 9.0, 17.9, 18.5, 30.0, 60.0):
            pair = kelvin(order, x)
            ber_ref, bei_ref = (float(v) for v in oracle.kelvin_pair(order, x))
            norm = math.hypot(ber_ref, bei_ref)
            assert abs(pair.ber - ber_ref) < 1e-10 * norm
            assert abs(pair.bei - bei_ref) < 1e-10 * norm


def test_kelvin_series_asymptotic_handover_consistency():
    # same point past the handover evaluated by the power series directly
    # and by the large-argument expansion
    for order in (0.0, 1.0, 3.5):
        series_pair, _ = _kelvin_series(order, 20.0)
        z = 20.0 * cmath.exp(0.25j * math.pi)
        scaled, _, _ = modified._scaled_i(order, z, modified._reflection(order, z))
        asym_pair = modified._rotation(order, 0.5) * scaled * cmath.exp(z) / cmath.sqrt(
            2.0 * math.pi * z)
        norm = abs(series_pair)
        assert abs(series_pair.real - asym_pair.real) < 2e-11 * norm
        assert abs(series_pair.imag - asym_pair.imag) < 2e-11 * norm


def test_kelvin_large_argument_raises_beyond_its_bound():
    # the smallest Hankel term alone once passed these off as accurate
    # (errors 2.8e-5, 4.9e-5 and 3.2 of the pair norm); the remainder bound
    # is 23, 3e5 and 3e14 there, and the series, whose estimate is the
    # smaller, now serves them
    for order, x in ((30.0, 25.0), (25.0, 18.5), (30.0, 18.5)):
        ber_s, bei_s, log_scale, est = kelvin_scaled(order, x)
        ber_ref, bei_ref = (float(v) for v in oracle.kelvin_pair(order, x))
        scale = math.exp(log_scale)
        error = math.hypot(ber_s * scale - ber_ref, bei_s * scale - bei_ref)
        assert error <= est * math.hypot(ber_ref, bei_ref), (order, x)
    # where both fail, loudly: the series cancels past its guard, and the
    # expansion's sums cancel to 5e-7 of its first term, a relative
    # estimate of 4.4e-2 (the estimate in units of that term once read
    # 2.4e-8, against an error of 1.4e-2)
    with pytest.raises(TruncationError):
        kelvin(71.63, 128.6)
    # the check suite's orders (at most 12) keep returning from x = 18 on
    for order in (10.0, 12.0):
        for x in (18.0, 18.5, 25.0):
            pair = kelvin(order, x)
            ber_ref, bei_ref = (float(v) for v in oracle.kelvin_pair(order, x))
            norm = math.hypot(ber_ref, bei_ref)
            assert abs(pair.ber - ber_ref) < 1e-12 * norm
            assert abs(pair.bei - bei_ref) < 1e-12 * norm
            assert kelvin_scaled(order, x)[3] < 1e-10


def test_kelvin_large_argument_within_its_estimate():
    # e^(i Im z) comes from the rounded Im z = x/sqrt(2): before the estimate
    # carried 2 eps x, 195 of these 200 points lay over it, by up to 110x
    # (x = 844, error 1.1e-13 against the 1e-15 floor); now at most 0.33 of
    # it on 1,500 points of this draw
    rng = random.Random(3)
    for _ in range(200):
        order = -1.0 + 10.0 ** rng.uniform(-3.0, math.log10(12.0))
        x = 10.0 ** rng.uniform(math.log10(18.01), math.log10(990.0))
        ber_s, bei_s, log_scale, est = kelvin_scaled(order, x)
        with mp.workdps(40):
            ber, bei = mp.ber(order, x), mp.bei(order, x)
            scale = mp.exp(log_scale)
            error = mp.hypot(ber_s * scale - ber, bei_s * scale - bei) / mp.hypot(ber, bei)
        assert error <= est, (order, x, float(error), est)


#: Log-path draws of the series-side probe (orders above 170.6, where the
#: prefactor is formed in logarithms): errors 1.8e-13 and 1.1e-13 once lay
#: against a flat estimate of 1e-15.
KELVIN_LOG_PATH_POINTS = ((175.02759120283238, 6.497040789239172),
                          (177.9555695460039, 3.0519632619034835))


def test_kelvin_series_within_its_estimate():
    # the series-side estimate once counted only the cancellation, not the
    # rounding of (x/2)^a, 1/Gamma(a+1) and the phase: 6 of these 300 draws
    # lay over it, by up to 1.8x, and the log-path points by 181x and 111x;
    # a draw may also raise, typed
    rng = random.Random(3)
    points = [(-1.0 + 10.0 ** rng.uniform(-3.0, 2.3),
               10.0 ** rng.uniform(-2.0, math.log10(18.0))) for _ in range(300)]
    for order, x in points + list(KELVIN_LOG_PATH_POINTS):
        try:
            ber_s, bei_s, log_scale, est = kelvin_scaled(order, x)
        except BesselQError:
            continue
        assert log_scale == 0.0
        with mp.workdps(40):
            ber, bei = mp.ber(order, x), mp.bei(order, x)
            error = mp.hypot(ber_s - ber, bei_s - bei) / mp.hypot(ber, bei)
        assert error <= est, (order, x, float(error), est)


def test_kelvin_overflow():
    with pytest.raises(OverflowRangeError):
        kelvin(0.0, 1100.0)


def test_kelvin_returns_while_the_pair_is_representable():
    # the scale e^(x/sqrt 2) alone overflows from x = 709 sqrt(2) = 1002.7,
    # where kelvin() once refused, but ber_0(1009) = -9.0e307 is a double
    for x in (1003.0, 1009.0):
        pair = kelvin(0.0, x)
        est = kelvin_scaled(0.0, x)[3]
        ber_ref, bei_ref = (float(v) for v in oracle.kelvin_pair(0.0, x))
        error = math.hypot(pair.ber - ber_ref, pair.bei - bei_ref)
        assert error <= est * math.hypot(ber_ref, bei_ref), x
    with pytest.raises(OverflowRangeError):
        kelvin(0.0, 1011.0)


def test_kelvin_at_large_orders_keeps_the_series_scale():
    # the series serves these pairs above x = 18; rescaled by e^(-x/sqrt 2)
    # to the expansion's scale, they once underflowed with the series'
    # small estimate: kelvin returned (0.0, 0.0) for ber/bei = (8.8e-293,
    # -3.3e-292), and kelvin_scaled(402, 51.70) a subnormal pair
    for order, x in ((681.9155359007333, 188.63854096474807), (402.0, 51.70)):
        pair = kelvin(order, x)
        ber_s, bei_s, log_scale, est = kelvin_scaled(order, x)
        assert (ber_s, bei_s, log_scale) == (pair.ber, pair.bei, 0.0)
        ber_ref, bei_ref = (float(v) for v in oracle.kelvin_pair(order, x))
        error = math.hypot(pair.ber - ber_ref, pair.bei - bei_ref)
        assert error <= est * math.hypot(ber_ref, bei_ref), (order, x)


def test_kelvin_scaled_matches_unscaled():
    ber_s, bei_s, log_scale, _ = kelvin_scaled(1.0, 40.0)
    pair = kelvin(1.0, 40.0)
    scale = math.exp(log_scale)
    assert rel(ber_s * scale, pair.ber) < 1e-14
    assert rel(bei_s * scale, pair.bei) < 1e-14


@pytest.mark.parametrize("x", [1.0, 5.0])
@pytest.mark.parametrize("order", [50.0, 100.0, 130.0])
def test_kelvin_scaled_within_its_estimate_at_large_orders(order, x):
    # the phase e^(3 pi i order/4) was once rounded at its argument, near
    # 2.4 order: at x = 1 the pair was off by 6.4e-15 (order 50) to 2.8e-14
    # (order 130) of its norm, against an estimate of 1e-15
    ber_s, bei_s, log_scale, est = kelvin_scaled(order, x)
    ber_ref, bei_ref = (float(v) for v in oracle.kelvin_pair(order, x))
    assert log_scale == 0.0
    error = math.hypot(ber_s - ber_ref, bei_s - bei_ref)
    assert error <= est * math.hypot(ber_ref, bei_ref)


def test_fg_from_kelvin_golden_and_limits():
    pair = fg_from_kelvin(0.5, 16.0)
    assert rel(pair.f, FG_05_16[0]) < 1e-11
    assert rel(pair.g, FG_05_16[1]) < 1e-11
    small = fg_from_kelvin(0.0, 1e-8)
    assert rel(small.f, 1.0) < 1e-8
    assert abs(small.g) < 1e-7


def test_fg_from_kelvin_matches_fg_series():
    pair_a = fg_from_kelvin(1.0, 1.0)
    pair_b = fg_series(1.0, 1.0)
    assert rel(pair_a.f, pair_b.f) < 1e-10
    assert rel(pair_a.g, pair_b.g) < 1e-10


def test_fg_from_kelvin_prefactor_overflow_is_typed():
    # (2/sqrt(omega))^order once raised a bare OverflowError
    with pytest.raises(OverflowRangeError):
        fg_from_kelvin(50.0, 1e-300)


def test_fg_from_kelvin_returns_where_ber_bei_overflow():
    # the prefactor applies to the scaled pair: f/g is 1.7e59 here, where
    # ber/bei (about e^775) leave the range and f/g once raised with them
    omega = 1.2e6
    pair = fg_from_kelvin(100.0, omega)
    est = kelvin_scaled(100.0, math.sqrt(omega))[3]
    with mp.workdps(40):
        z = mp.sqrt(mp.mpc(0.0, omega))
        ref = mp.besseli(100, z) / (z / 2) ** 100  # f + i g = T_a(i omega)
        assert abs(complex(pair.f, pair.g) - ref) <= est * abs(ref)
    with pytest.raises(OverflowRangeError):
        kelvin(100.0, math.sqrt(omega))


@pytest.mark.parametrize("order, omega", [(175.9674388015034, 1002.2981291563985),
                                          (-0.9892085664144407, 1016072.5195722193)])
def test_fg_from_kelvin_outside_the_normal_range_raises(order, omega):
    # f/g below the normal range and beyond the double range: these returned
    # (9.3e-322, 5.9e-321) and (-inf, -inf), where fg_series raises
    with pytest.raises(OverflowRangeError):
        fg_from_kelvin(order, omega)
    with pytest.raises(OverflowRangeError):
        fg_series(order, omega)


# ------------------------------------------------- non-finite arguments

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "fn, args",
    [
        (bessel_j, (0.0, NAN)),
        (bessel_j, (0.0, INF)),
        (bessel_j, (INF, 1.0)),
        (kelvin, (0.0, NAN)),
        (kelvin, (0.0, INF)),
        (kelvin_scaled, (0.0, INF)),
        (fg_from_kelvin, (0.0, INF)),
        (fg_series, (0.0, INF)),
        (gamma_real, (NAN,)),
        (gamma_real, (-INF,)),
        (modified_bessel_i, (0.0, NAN)),
        (tricomi_it, (0.0, complex(NAN, 0.0))),
        (creep_compliance_laplace, (ModelOrder(0.0), complex(INF, 0.0))),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_non_finite_arguments_raise_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


# ------------------------------------------------------ property checks


@settings(max_examples=40, deadline=None)
@given(
    order=st.floats(min_value=-0.99, max_value=12.0),
    omega=st.floats(min_value=1e-3, max_value=320.0),
)
def test_decomposition_identity_property(order, omega):
    pair = fg_series(order, omega)
    t = tricomi_it(order, complex(0.0, omega))
    assert abs(complex(pair.f, pair.g) - t) <= 1e-11 * abs(t)


@settings(max_examples=40, deadline=None)
@given(
    order=st.floats(min_value=-0.99, max_value=12.0),
    omega=st.floats(min_value=1e-3, max_value=320.0),
)
def test_kelvin_fg_rotation_property(order, omega):
    a = fg_series(order, omega)
    b = fg_from_kelvin(order, omega)
    norm = math.hypot(a.f, a.g)
    assert abs(a.f - b.f) <= 1e-9 * norm
    assert abs(a.g - b.g) <= 1e-9 * norm


def test_invariant_grids_decomposition_and_rotation():
    # frozen grid form of the two identities above
    omegas = [10.0 ** (-3 + 5 * i / 39) for i in range(40)]
    for order in (-0.5, 0.0, 1.0, 3.5, 10.0):
        for omega in omegas:
            pair = fg_series(order, omega)
            t = tricomi_it(order, complex(0.0, omega))
            assert abs(complex(pair.f, pair.g) - t) <= 1e-11 * abs(t)
            rot = fg_from_kelvin(order, omega)
            norm = math.hypot(pair.f, pair.g)
            assert abs(pair.f - rot.f) <= 1e-9 * norm
            assert abs(pair.g - rot.g) <= 1e-9 * norm
