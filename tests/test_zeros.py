"""Bessel-J evaluation and zero finding."""

import math
import random
import re

import mpmath as mp
import pytest

import oracle
from besselq import (
    BesselQError,
    DomainError,
    NonConvergenceError,
    RootIsolationError,
    TruncationError,
    bessel_j,
    bessel_j_zero,
    bessel_j_zeros,
)
from besselq.checks import rayleigh_sneddon_sum
from besselq.specfun import zeros as zeros_module

# first zero of J_0, from bisection on the naive series oracle
J0_ZERO1 = 2.404825557695772768622


def test_first_zero_of_j0():
    assert abs(bessel_j_zero(0.0, 1) - 2.404825557695773) < 1e-10
    assert abs(bessel_j_zero(0.0, 1) - J0_ZERO1) < 1e-12
    assert abs(float(oracle.first_zero_j0()) - J0_ZERO1) < 1e-12


def test_half_order_zeros_are_multiples_of_pi():
    # J_{1/2}(x) is proportional to sin(x)/sqrt(x)
    for k in range(1, 21):
        assert abs(bessel_j_zero(0.5, k) - k * math.pi) < 1e-10


def test_interlacing():
    for order in (0.0, 0.5, 2.0):
        a = [bessel_j_zero(order, k) for k in range(1, 22)]
        b = [bessel_j_zero(order + 1.0, k) for k in range(1, 22)]
        for k in range(20):
            assert a[k] < b[k] < a[k + 1]


def test_zero_has_verified_sign_change():
    for order in (-0.9, -0.5, 0.0, 1.0, 4.5):
        for k in (1, 2, 7):
            z = bessel_j_zero(order, k)
            delta = 1e-7 * max(1.0, z)
            assert bessel_j(order, z - delta) * bessel_j(order, z + delta) < 0.0


#: Orders across the domain of the zero finders, for the bracket tests.
BRACKET_ORDERS = [-0.99] + [-0.75 + 0.25 * i for i in range(47)] + [11.5, 12.5, 13.5]


def test_one_bracket_rule_isolates_every_zero_up_to_k_40():
    # the k = 1 bound and the McMahon guess +- 0.05 bracket every zero up
    # to a guess of 20, and the phase places the rest: a skipped zero
    # would leave a gap of about 2 pi, a repeated one a gap of 0
    for order in BRACKET_ORDERS:
        table = [bessel_j_zero(order, k) for k in range(1, 41)]
        assert 4.0 * (order + 1.0) < table[0] ** 2 < 2.0 * (order + 1.0) * (order + 3.0)
        for a, b in zip(table, table[1:]):
            assert 0.5 * math.pi < b - a < 1.5 * math.pi, (order, a, b)
        for z in table:
            delta = 1e-7 * z
            assert bessel_j(order, z - delta) * bessel_j(order, z + delta) < 0.0, (order, z)


@pytest.mark.parametrize("k", [1, 5])
def test_bracket_without_a_sign_change_raises(monkeypatch, k):
    monkeypatch.setattr(zeros_module, "bessel_j", lambda order, x: 1.0)
    with pytest.raises(RootIsolationError, match=re.escape(f"zero #{k} of J_2.5")):
        bessel_j_zero(2.5, k)


def test_scalar_zero_accuracy_against_mpmath():
    for order in (-0.9, -0.5, 0.0, 1.0, 2.5, 4.5, 6.0):
        for k in (1, 2, 3, 5, 10, 100):
            if order >= 0:
                ref = float(mp.besseljzero(order, k))
            else:
                ref = float(
                    mp.findroot(lambda t: mp.besselj(order, t), bessel_j_zero(order, k))
                )
            assert abs(bessel_j_zero(order, k) - ref) < 1e-10


def test_both_zero_finders_give_the_same_zero_bit_for_bit():
    # one rule per zero: bessel_j_zero(15, 1) once came from the bracket,
    # 19.99443062981638, and the table's entry from the phase,
    # 19.994430629816385 (3,021 of 8,000 points on 40 orders to k = 200
    # differed, by up to 6 ulps)
    for order in (-0.999, 0.0, 2.0, 7.3, 15.0, 16.0):
        zeros = bessel_j_zeros(order, 2000)
        assert isinstance(zeros, tuple) and len(zeros) == 2000
        assert all(a < b for a, b in zip(zeros, zeros[1:]))
        for k in (1, 2, 5, 17, 200, 2000):
            assert bessel_j_zero(order, k) == zeros[k - 1], (order, k)


def test_zero_hit_exactly_by_newton_is_kept():
    # Newton lands on J_8(x) == 0.0 exactly; the bracket used to walk off it
    ref = float(mp.besseljzero(8, 1))
    assert abs(bessel_j_zero(8.0, 1) - ref) < 1e-10
    assert abs(bessel_j_zeros(8.0, 8)[0] - ref) < 1e-10


@pytest.fixture
def j_points(monkeypatch):
    """The points at which the zero finders call ``bessel_j``, in order."""
    points = []

    def recorded(order, x):
        points.append(x)
        return bessel_j(order, x)

    monkeypatch.setattr(zeros_module, "bessel_j", recorded)
    return points


def test_zero_search_stops_once_newton_has_converged(j_points):
    # a converged Newton step that rounded onto the bracket's end once sent
    # the search for j_{10,2} back to bisection: 86 calls of bessel_j.  Near
    # x = 12 the rounding of J's series moves the other zeros, which the
    # check suites sum, by about 1e-12, so their steps never fell below
    # 4e-15 x: each once ran all 100 steps, 202 calls, and returned its
    # last iterate without a word
    for order, k in ((10.0, 2), (0.0, 4), (1.0, 3), (2.0, 3), (4.5, 2)):
        j_points.clear()
        zero = bessel_j_zero(order, k)
        assert len(j_points) <= 12, (order, k)
        assert abs(zero - _zero_on_its_bracket(order, k)) < 4e-12, (order, k)


def test_vectorized_zeros_raise_outside_the_order_16_domain():
    # 13 Hankel terms once limited the refinement (their first omitted term
    # was 8e-9 at order 12); bessel_j_zeros(22, 8) was once off by 0.80
    # without a word, and order 22 lies beyond the zero finders' domain
    for order in (10.0, 12.0, 12.5):
        zeros = bessel_j_zeros(order, 8)
        for k in (1, 8):
            assert abs(zeros[k - 1] - float(mp.besseljzero(order, k))) < 1e-10
    with pytest.raises(BesselQError, match="J_22.0"):
        bessel_j_zeros(22.0, 8)


def test_zero_domain_ends_at_order_16(monkeypatch):
    # up to order 16 both finders return, where 13 Hankel terms once
    # confined them to 10.79 and near 11.5, 12.5 and 13.5; above it both
    # refuse the order before any work, whatever the index or count (once
    # bessel_j_zeros(10.8, 50) raised RootIsolationError after refining,
    # and bessel_j_zeros(10.8, 1) returned)
    for order in (10.79, 10.8, 11.0, 11.5, 12.0, 12.5, 13.5, 13.6, 16.0):
        table = bessel_j_zeros(order, 60)
        for k in (1, 2, 3, 8, 60):
            ref = float(mp.besseljzero(order, k))
            assert abs(table[k - 1] - ref) < 1e-10, (order, k)
            assert abs(bessel_j_zero(order, k) - ref) < 1e-10, (order, k)

    def no_work(*args):
        raise AssertionError("work done for an order outside the domain")

    for name in ("bessel_j", "_hankel_terms", "_mcmahon_zero_estimate"):
        monkeypatch.setattr(zeros_module, name, no_work)
    for order in (16.01, 30.0, 1e6, 1e300):
        for n in (1, 2, 50, 10**6):
            for call in (lambda: bessel_j_zero(order, n), lambda: bessel_j_zeros(order, n)):
                with pytest.raises(DomainError, match=re.escape(f"J_{order}")):
                    call()


def _bracketed_zero(order, lo, hi):
    """The zero of ``J_order`` that mpmath finds on ``[lo, hi]``, a bracket
    built here, with its sign change and the root's place in it checked."""
    f = lambda t: mp.besselj(order, t)  # noqa: E731
    assert f(lo) * f(hi) < 0, (order, lo, hi)
    root = mp.findroot(f, (lo, hi), solver="anderson")
    assert lo < root < hi, (order, lo, hi)
    return float(root)


def _zero_on_its_bracket(order, k):
    """The k-th zero of ``J_order`` that mpmath finds on the bracket of
    ``zeros._zero``: the classical bound for ``k = 1``, else McMahon's
    guess ``+- 0.05``."""
    if k == 1:
        a = mp.mpf(order)
        return _bracketed_zero(order, 2 * mp.sqrt(a + 1), mp.sqrt(2 * (a + 1) * (a + 3)))
    guess = mp.mpf(zeros_module._mcmahon_zero_estimate(order, k))
    return _bracketed_zero(order, guess - 0.05, guess + 0.05)


#: Every order from -0.999 to 16 by 0.01.
DENSE_ORDERS = [round(-0.999 + 0.01 * i, 3) for i in range(1700)] + [16.0]


def test_zero_finders_match_mpmath_on_a_dense_grid_of_orders():
    # every order from -0.999 to 16 by 0.01: the first zero, from the
    # bracket, and the first one past x = 20, from Newton on the phase.
    # The references are mpmath's, never seeded with the zero under test:
    # the first zero on the classical bracket 4(a+1) < j^2 < 2(a+1)(a+3), a
    # theorem for every a > -1; the other on a bracket 0.5 either side of
    # McMahon's guess, at most 0.061 off on this grid for k >= 2 (at order
    # 14.781, k = 2), where zeros lie ~pi apart, so the bracket holds that
    # zero alone (besseljzero fixes the index independently in the tests
    # against the zero table and at fixed orders)
    for order in DENSE_ORDERS:
        k_phase = 1
        while zeros_module._mcmahon_zero_estimate(order, k_phase) <= zeros_module._SMALL_ZERO_MAX:
            k_phase += 1
        table = bessel_j_zeros(order, k_phase)
        assert all(a < b for a, b in zip(table, table[1:])), order
        for k in {1, k_phase}:
            if k == 1:
                ref = _zero_on_its_bracket(order, 1)
            else:
                guess = mp.mpf(zeros_module._mcmahon_zero_estimate(order, k))
                ref = _bracketed_zero(order, guess - 0.5, guess + 0.5)
            assert abs(table[k - 1] - ref) < 1e-10, (order, k)
            assert abs(bessel_j_zero(order, k) - ref) < 1e-10, (order, k)


def test_zeros_set_by_the_rounding_of_j_match_mpmath(j_points):
    # on the dense grid no bracketed zero takes more than 20 calls of
    # bessel_j (221 of the 5,114 once ran to the 100-step cap, 202 calls
    # each).  A zero that stops on a step below 4e-15 x lies that step from
    # the last point J was called at, one that stops where the steps stop
    # shrinking half a step of at least 4e-15 x: the zeros 2e-15 x or more
    # from that point hold all of the latter, and are judged
    judged = 0
    for order in DENSE_ORDERS:
        k = 1
        while zeros_module._mcmahon_zero_estimate(order, k) <= zeros_module._SMALL_ZERO_MAX:
            j_points.clear()
            zero = bessel_j_zero(order, k)
            assert len(j_points) <= 20, (order, k)
            if abs(zero - j_points[-1]) >= 2e-15 * max(1.0, zero):
                judged += 1
                assert abs(zero - _zero_on_its_bracket(order, k)) < 4e-12, (order, k)
            k += 1
    assert judged >= 500


def test_bracket_newton_that_does_not_settle_raises(monkeypatch):
    # a slope ten times too steep makes each step a tenth of Newton's: the
    # steps keep shrinking, by a factor 0.9 each, but 100 of them never
    # reach 4e-15 x, and the cap turns that into an error, not a returned
    # iterate
    monkeypatch.setattr(zeros_module, "bessel_j",
                        lambda order, x: bessel_j(order, x) * (10.0 if order == 1.0 else 1.0))
    with pytest.raises(NonConvergenceError, match=re.escape("zero #1 of J_0.0")):
        bessel_j_zero(0.0, 1)


def test_largest_zero_index_matches_mcmahon():
    # at 1e15 both finders give McMahon's value within 2 ulps (the zero,
    # its error there far below an ulp); at 1e16, past 2**53, the spacing of
    # doubles (4) exceeds that of the zeros (pi), and consecutive indices
    # gave one double at every order tried
    top = zeros_module._ZERO_INDEX_MAX
    assert top == 10**15
    for order in (-0.999, -0.5, 0.0, 1.0, 7.7, 16.0):
        guess = zeros_module._mcmahon_zero_estimate(order, top)
        assert abs(bessel_j_zero(order, top) - guess) <= 2.0 * math.ulp(guess), order
        assert abs(zeros_module._phase_zero(order, top, guess) - guess) <= 2.0 * math.ulp(guess)
        with pytest.raises(DomainError, match="zero index"):
            bessel_j_zero(order, top + 1)


def test_phase_newton_that_does_not_settle_raises(monkeypatch):
    # a slope ten thousand times too small makes each step overshoot; the
    # step cap turns that into an error, not a returned guess
    monkeypatch.setattr(zeros_module, "_hankel_terms", lambda order, z, tol: [100.0, 0.0])
    with pytest.raises(NonConvergenceError, match=re.escape("zero #7 of J_0.0")):
        bessel_j_zeros(0.0, 7)


def test_phase_expansion_that_stops_short_raises(monkeypatch):
    # the expansion cut after its first correction, far above 1e-16 x: Newton
    # settled on the zero of the cut sum, which came back without an error
    terms = zeros_module._hankel_terms
    monkeypatch.setattr(zeros_module, "_hankel_terms",
                        lambda order, z, tol: terms(order, z, tol)[:2])
    with pytest.raises(TruncationError, match=re.escape("zero #7 of J_0.0")):
        bessel_j_zero(0.0, 7)


def test_zero_table_matches_mpmath():
    # from k = 8 on every zero is good to a few ulps; below that, 1e-13 (at
    # orders 8 to 10 once 1.5e-12, from 13 Hankel terms; now at most 2e-14)
    ks = (1, 2, 3, 4, 5, 8, 13, 21, 50, 200, 1000, 2345, 5000)
    for order in (-0.5, 0.0, 1.0, 2.0, 2.5, 4.5, 7.0, 8.0, 10.0):
        table = bessel_j_zeros(order, 5000)
        for k in ks:
            tol = 1e-15 if k >= 8 else 1e-13
            if order == -0.5:  # J_{-1/2}(x) is proportional to cos(x)/sqrt(x)
                ref = float((k - mp.mpf(0.5)) * mp.pi)
            else:
                ref = float(mp.besseljzero(order, k))
            assert abs(table[k - 1] - ref) <= tol * ref, (order, k)


def test_zero_table_is_immutable_and_bounded():
    table = bessel_j_zeros(0.0, 8)
    with pytest.raises(TypeError):
        table[0] = 1.0
    for order in range(1, 10):
        bessel_j_zeros(float(order), 8)
    info = bessel_j_zeros.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8
    assert bessel_j_zeros(0.0, 8) == table


def test_zero_table_leaves_nothing_for_an_order_that_raises():
    # each call raises afresh: nothing of the failed order is kept
    for _ in range(2):
        misses = bessel_j_zeros.cache_info().misses
        with pytest.raises(DomainError, match="J_22.0"):
            bessel_j_zeros(22.0, 8)
        assert bessel_j_zeros.cache_info().misses == misses + 1


def test_bessel_j_matches_mpmath_across_handover():
    for order in (-0.5, 0.0, 1.0, 2.5, 4.5):
        for x in (0.5, 5.0, 11.9, 12.1, 25.0, 300.0):
            ref = float(mp.besselj(order, x))
            amplitude = math.sqrt(2.0 / (math.pi * x))
            assert abs(bessel_j(order, x) - ref) < 5e-11 * amplitude + 1e-14


J_GRID_ORDERS = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 10.0, 12.5, 15.0, 20.0,
                 30.0, 45.0, 70.0, 100.0)
J_GRID_XS = (12.01, 12.13, 12.5, 13.0, 14.0, 15.0, 17.0, 20.0, 25.0, 30.0, 40.0, 50.0,
             60.0, 75.0, 90.0, 120.0, 150.0)


def test_bessel_j_beyond_series_region_is_right_or_raises():
    # the Hankel expansion alone once returned J_30(13) = -2.846 and
    # J_20(13) off by 1.3e-7 of the amplitude; either route must now meet
    # 5e-11 of the amplitude, or the call raises, and never at order <= 20
    raised = []
    for order in J_GRID_ORDERS:
        for x in J_GRID_XS:
            amplitude = math.sqrt(2.0 / (math.pi * x))
            try:
                value = bessel_j(order, x)
            except TruncationError:
                raised.append((order, x))
                continue
            assert abs(value - float(mp.besselj(order, x))) < 5e-11 * amplitude, (order, x)
    assert all(order >= 30.0 for order, _ in raised)
    assert (30.0, 13.0) not in raised and (30.0, 25.0) not in raised
    # the zero search steps on such points: it once returned 11.57 for
    # j_{30,1}, then raised TruncationError on the way; order 30 is now
    # outside the zeros' domain, refused before any work
    with pytest.raises(DomainError):
        bessel_j_zero(30.0, 1)


def test_bessel_j_below_its_first_zero_is_relative_or_raises():
    # where 12 < x <= order J has no zero, so an error bounded by 5e-11 of
    # the amplitude may exceed the value: J_350(200) once came back
    # -3.50e-46 (mpmath +9.34e-54) and J_160(100) 3.5e-4 off; a returned
    # value must be within 5e-11 of it
    rng = random.Random(5)
    points = [(350.0, 200.0), (160.0, 100.0)]
    for _ in range(200):
        order = 10.0 ** rng.uniform(math.log10(12.0), math.log10(400.0))
        points.append((order, rng.uniform(12.01, order)))
    for order, x in points:
        try:
            value = bessel_j(order, x)
        except BesselQError:
            continue
        with mp.workdps(40):
            ref = mp.besselj(order, x)
            assert float(abs(value - ref)) <= 5e-11 * float(abs(ref)), (order, x, value)


def test_bessel_j_phase_at_large_argument():
    # chi = x - (a/2 + 1/4) pi rounded to double is off by ~eps x: that
    # once cost 6.8e-10 of the amplitude at (2.5, 1e7) and 4.7e-2 at (20, 1e15)
    with mp.workdps(40):
        for order in (-0.5, 0.0, 2.5, 20.0):
            for x in (1e6, 1e7, 1e8, 1e12, 1e15):
                amplitude = math.sqrt(2.0 / (math.pi * x))
                ref = float(mp.besselj(order, x))
                assert abs(bessel_j(order, x) - ref) < 5e-11 * amplitude, (order, x)


def test_bessel_j_near_order_minus_one():
    # the series' first term alone, which shrinks for order < 0, once sent
    # every x > 12 to the series there: TruncationError from x ~ 500 and
    # OverflowRangeError from x ~ 720
    with mp.workdps(30):
        for order in (-0.99, -0.9):
            for x in (50.0, 500.0, 600.0, 710.0, 720.0, 1e3, 1e4):
                amplitude = math.sqrt(2.0 / (math.pi * x))
                ref = float(mp.besselj(order, x))
                assert abs(bessel_j(order, x) - ref) < 5e-11 * amplitude, (order, x)


def test_rayleigh_sneddon_partial_sums_converge():
    # sum_k j_{nu,k}^(-2) = 1/(4(nu+1)); bare 1e4-term partial sum is close,
    # the tail-corrected version is used by the check suite
    zeros = bessel_j_zeros(0.0, 10_000)
    bare = math.fsum(1.0 / (j * j) for j in zeros)
    # dropped tail is ~1/(pi^2 K) = 1.01e-5 absolute at K = 1e4
    assert abs(bare - 0.25) / 0.25 < 5e-5
    corrected = rayleigh_sneddon_sum(0.0)
    assert abs(corrected - 0.25) / 0.25 < 1e-9


@pytest.mark.parametrize("fn", [bessel_j_zero, bessel_j_zeros], ids=lambda f: f.__name__)
@pytest.mark.parametrize("index", [math.nan, math.inf, -math.inf, 2.5, 0, -3])
def test_zero_index_and_count_must_be_whole_and_positive(fn, index):
    with pytest.raises(DomainError):
        fn(0.0, index)


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_j_zero(-1.5, 1)
    with pytest.raises(DomainError):
        bessel_j_zero(0.0, 0)
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j_zeros(0.0, 0)
