"""Material-function tests: Laplace/time-domain creep quantities,
asymptotic regimes, and the fractional Maxwell comparison model."""

import cmath
import json
import math
import time
from pathlib import Path

import mpmath as mp
import pytest

import oracle
from besselq import (
    DomainError,
    ModelOrder,
    OverflowRangeError,
    PoleError,
    creep_compliance_asymptotic,
    creep_compliance_laplace,
    creep_rate_laplace,
    creep_rate_time,
    frac_maxwell_q_inverse,
    q_inverse,
)
from besselq import model as model_module
from besselq import qfactor
from besselq.checks import creep_rate_laplace_by_zeros
from besselq.errors import _UNIT
from besselq.model import _TALBOT_N, _TALBOT_REACH, _TALBOT_RULE, _compliance_split

# oracle: naive series quotients at >= 40 digits
PSI_LAPLACE_0_1 = 8.326612235221068270685
PSI_LAPLACE_0_2I = complex(0.3324124308824724654178, -4.013821752587091935883)
SJ_1_4 = 7.476906831800099700832
PSI_TIME_0_1 = 8.000000000014051077031


def rel(a, b):
    return abs(a - b) / abs(b)


def test_model_order_validation():
    ModelOrder(-0.999)
    with pytest.raises(DomainError):
        ModelOrder(-1.0)
    with pytest.raises(DomainError):
        ModelOrder(float("nan"))


# ----------------------------------------------------- Laplace domain


def test_creep_rate_high_frequency_trend():
    for nu in (0.0, 1.0):
        model = ModelOrder(nu)
        s = 1e8
        value = creep_rate_laplace(model, complex(s, 0.0))
        leading = 2.0 * (nu + 1.0) / math.sqrt(s)
        assert abs(value.real / leading - 1.0) < 1e-3


#: The oracle points of ``creep_rate_laplace``: seven orders, ``|s|`` from
#: 1e-8 to 1e4 at five phases.
LAPLACE_ORACLE_POINTS = [(nu, r * cmath.exp(1j * math.pi * turn))
                         for nu in (-0.99, -0.5, 0.0, 1.0, 5.0, 20.0, 50.0)
                         for r in (1e-8, 1e-5, 1e-2, 1.0, 30.0, 1e3, 1e4)
                         for turn in (0.0, 0.25, 0.5, 0.75, 0.9)]


def test_creep_rate_laplace_matches_oracle():
    # one continued fraction, at order nu+2, serves creep_rate_laplace too
    for nu, s in LAPLACE_ORACLE_POINTS:
        ref = complex(oracle.creep_rate_laplace(nu, s))
        assert abs(creep_rate_laplace(ModelOrder(nu), s) - ref) <= 2e-14 * abs(ref), (nu, s)


def _within_estimate(nu, s, function=creep_rate_laplace,
                     reference=oracle.creep_rate_laplace_besseli):
    """Whether ``function`` at ``s``, ``creep_rate_laplace`` or
    ``creep_compliance_laplace`` (which adds 1 to it), lies within the
    estimate of ``T`` from ``_compliance_split`` and the roundings of the
    pole term and the sums (``oracle.laplace_allowance``) of ``reference``,
    an oracle of ``Psi~`` at the exact ``sqrt(s)``: mpmath's ``besseli``,
    or, at huge orders, the Tricomi quotient."""
    compliance = function is creep_compliance_laplace
    value = function(ModelOrder(nu), s)
    tail, est = _compliance_split(nu, s)
    ref = complex(compliance + reference(nu, s))
    return abs(value - ref) <= oracle.laplace_allowance(nu, s, tail, est, compliance)


@pytest.mark.parametrize("s", [1.0, -0.5])
def test_laplace_functions_at_a_huge_order_within_their_estimate(s):
    # kappa, formed as |z/r - z r - (2nu+6)| with z/r near 2nu, was rounding
    # noise here and raised PoleError, though the nearest pole lies below
    # -1e60
    for function in (creep_rate_laplace, creep_compliance_laplace):
        assert _within_estimate(1e30, s, function, oracle.creep_rate_laplace_tricomi)


@pytest.mark.parametrize("s", [-2e4, -3.3e8, -1.2345e12, -7.7e16])
def test_creep_rate_laplace_far_on_the_negative_axis(s):
    # the two-branch expansion serves these without the CF (which took
    # |z| iterations); at -1.2345e12 the value was 1e-10 off, silently
    assert _within_estimate(1.0, s)


@pytest.mark.parametrize("s", [-2e20, -3e24, "pole"])
def test_creep_rate_laplace_raises_where_sqrt_s_cannot_tell(s):
    if s == "pole":  # the nearest double to -j_{3,1}^2
        s = -float(mp.besseljzero(3, 1) ** 2)
    for function in (creep_rate_laplace, creep_compliance_laplace):
        with pytest.raises(PoleError):
            function(ModelOrder(1.0), s)


#: Relative distances from a pole, and the (nu, k, distance) cases: the
#: first three poles -j_{nu+2,k}^2 at three orders.  The first pole of
#: nu = 1 keeps its bare distance as its id.
POLE_DISTANCES = [1e-9, 1e-6, 1e-3, -1e-9, -1e-6, -1e-3, 1e-12, -1e-12]
POLE_CASES = [(nu, k, d) for nu in (1.0, -0.5, 20.0) for k in (1, 2, 3) for d in POLE_DISTANCES]
POLE_IDS = [str(d) if (nu, k) == (1.0, 1) else f"nu{nu:g}-k{k}-{d}" for nu, k, d in POLE_CASES]


@pytest.mark.parametrize("nu, k, distance", POLE_CASES, ids=POLE_IDS)
def test_creep_rate_laplace_near_a_pole_within_its_estimate(nu, k, distance):
    # once 5.6e-8 off at 1e-9 and 1.2e-10 at 1e-6, with no estimate; both
    # Laplace functions return within their estimate or raise PoleError,
    # and the first pole of nu = 1 returns from a distance of 1e-9
    s = -float(mp.besseljzero(nu + 2.0, k) ** 2) * (1.0 + distance)
    must_return = (nu, k) == (1.0, 1) and abs(distance) >= 1e-9
    for function in (creep_rate_laplace, creep_compliance_laplace):
        try:
            assert _within_estimate(nu, s, function), function.__name__
        except PoleError:
            assert not must_return, function.__name__


def test_creep_rate_low_frequency_trend():
    for nu in (0.0, 2.5):
        model = ModelOrder(nu)
        s = 1e-10
        value = creep_rate_laplace(model, complex(s, 0.0))
        assert abs((s * value).real / (4.0 * (nu + 1.0) * (nu + 2.0)) - 1.0) < 1e-4


def test_creep_rate_golden():
    value = creep_rate_laplace(ModelOrder(0.0), 1.0 + 0j)
    assert rel(value.real, PSI_LAPLACE_0_1) < 1e-12
    assert value.imag == 0.0
    complex_value = creep_rate_laplace(ModelOrder(0.0), 2j)
    assert rel(complex_value, PSI_LAPLACE_0_2I) < 1e-12


def test_creep_compliance_golden_and_reality():
    value = creep_compliance_laplace(ModelOrder(1.0), 4.0 + 0j)
    assert value.imag == 0.0
    assert rel(value.real, SJ_1_4) < 1e-12


def test_creep_compliance_low_frequency_expansion():
    nu = 0.0
    model = ModelOrder(nu)
    s = 1e-8
    value = creep_compliance_laplace(model, complex(s, 0.0)).real
    expected = 4.0 * (nu + 1.0) * (nu + 2.0) / s + 2.0 * (nu + 2.0) / (nu + 3.0)
    assert abs(value / expected - 1.0) < 1e-8


def test_compliance_equals_one_plus_rate_identity():
    # s J~ = 1 + Psi~ compared across two independent continued fractions
    model_a = ModelOrder(0.0)
    model_b = ModelOrder(1.0)
    args = [0.0, math.pi / 4.0, math.pi / 2.0]
    for model in (model_a, model_b):
        for i in range(34):
            magnitude = 10.0 ** (-2 + 6 * i / 33)
            for arg in args:
                s = magnitude * cmath.exp(1j * arg)
                lhs = creep_compliance_laplace(model, s)
                rhs = 1.0 + creep_rate_laplace(model, s)
                assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_compliance_positive_and_decreasing_on_real_axis():
    for nu in (-0.5, 0.0, 3.5):
        model = ModelOrder(nu)
        previous = math.inf
        for i in range(40):
            s = 10.0 ** (-2 + 5 * i / 39)
            value = creep_compliance_laplace(model, complex(s, 0.0))
            assert value.imag == 0.0
            assert value.real > 1.0
            assert value.real < previous
            previous = value.real


def test_laplace_domain_errors():
    with pytest.raises(DomainError):
        creep_rate_laplace(ModelOrder(0.0), 0j)
    with pytest.raises(DomainError):
        creep_compliance_laplace(ModelOrder(0.0), complex(float("inf"), 0.0))


def test_laplace_pole_term_beyond_double_range_is_overflow():
    # 4(nu+1)(nu+2)/s overflows: these once returned (inf+0j)
    for fn in (creep_rate_laplace, creep_compliance_laplace):
        for s in (1e-308, complex(1e-308, 1e-308)):
            with pytest.raises(OverflowRangeError):
                fn(ModelOrder(1.0), s)


def test_dirichlet_inverts_only_the_bounded_part():
    # at t = 1e305 every contour node has |s| near 1e-305, where the pole
    # term overflows; the inversion uses T alone and returns the constant
    assert creep_rate_time(ModelOrder(1e4), 1e305)[0] == 400120008.0


# -------------------------------------------------------- time domain
# The test_dirichlet_* tests exercise creep_rate_time's Talbot inversion;
# they keep the names of the Dirichlet route it replaced.


def test_dirichlet_long_time_constant():
    for nu in (0.0, 1.0):
        value, _ = creep_rate_time(ModelOrder(nu), 50.0)
        assert rel(value, 4.0 * (nu + 1.0) * (nu + 2.0)) < 1e-14
        # no inversion at t = inf: the constant itself, exactly
        assert creep_rate_time(ModelOrder(nu), math.inf) == (
            4.0 * (nu + 1.0) * (nu + 2.0),
            (0, 0.0),
        )


def test_dirichlet_golden():
    value, inversion = creep_rate_time(ModelOrder(0.0), 1.0)
    assert rel(value, PSI_TIME_0_1) < 1e-13
    assert inversion.nodes == 24
    assert rel(value, PSI_TIME_0_1) <= inversion.est_rel_error < 1e-13


def test_dirichlet_tail_bound_is_honest():
    # the Talbot estimate against a Dirichlet sum over mpmath's zeros
    model = ModelOrder(0.5)
    for t in (0.05, 0.3, 2.0):
        value, inversion = creep_rate_time(model, t)
        reference = float(oracle.creep_rate_time(0.5, t, n_zeros=80))
        assert abs(value - reference) <= inversion.est_rel_error * reference


def test_creep_matches_every_benchmark_reference():
    # 860 points, orders 0 to 200 and t from 1e-4 to 10, from Dirichlet sums
    # over mpmath's zeros: measured worst error 4.4e-14, estimate/error at
    # least 5.3.  The orders from 20 up once raised RootIsolationError.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "creep.json"
    for point in json.loads(path.read_text(encoding="ascii"))["points"]:
        value, inversion = creep_rate_time(ModelOrder(point["nu"]), point["x"])
        err = rel(value, point["ref"])
        assert err <= min(inversion.est_rel_error, 2e-13), point


def test_dirichlet_small_time_growth():
    # Psi(t) ~ 2(nu+1)/sqrt(pi t) as t -> 0
    nu = 0.0
    value, _ = creep_rate_time(ModelOrder(nu), 1e-6)
    expected = 2.0 * (nu + 1.0) / math.sqrt(math.pi * 1e-6)
    assert abs(value / expected - 1.0) < 5e-3


def test_dirichlet_domain_error():
    for t in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(DomainError):
            creep_rate_time(ModelOrder(0.0), t)


def test_creep_at_large_order_and_small_time_matches_talbot_oracle():
    # mpmath's own Talbot inversion of the whole transform, at 40 digits.
    # J_22 lies beyond the orders (up to 16) whose zeros are served: the
    # Dirichlet route once returned 1848.0300 at (20, 0.01057), then
    # raised there, and raised TruncationError at (1, 1e-12).
    for nu, t in ((1.0, 1e-12), (1.0, 1e-20), (0.0, 1e-300), (-0.99, 1e-14), (20.0, 0.01057),
                  (20.0, 1e-9), (50.0, 1e-5), (100.0, 1e-3), (200.0, 1e-12), (200.0, 1e-4)):
        value, inversion = creep_rate_time(ModelOrder(nu), t)
        reference = float(oracle.creep_rate_time_talbot(nu, t))
        assert rel(value, reference) <= inversion.est_rel_error < 2e-12, (nu, t)


def test_talbot_table_is_the_contour():
    # the literal nodes against the formula of Trefethen, Weideman &
    # Schmelzer (BIT 46, 2006): t s(theta) = N (-0.6122 + 0.5017 theta
    # cot(0.6407 theta) + 0.2645 i theta), w = (2/N) e^(t s) d(t s)/d theta
    n = _TALBOT_N
    assert len(_TALBOT_RULE) == n // 2
    for k, (ts, weight) in enumerate(_TALBOT_RULE):
        theta = (k + 0.5) * 2.0 * math.pi / n
        cot = 1.0 / math.tan(0.6407 * theta)
        ts_formula = n * complex(-0.6122 + 0.5017 * theta * cot, 0.2645 * theta)
        dts = n * complex(0.5017 * (cot - 0.6407 * theta * (1.0 + cot * cot)), 0.2645)
        weight_formula = (2.0 / n) * cmath.exp(ts_formula) * dts
        assert abs(ts - ts_formula) <= 4 * _UNIT * abs(ts_formula), k
        assert abs(weight - weight_formula) <= 4 * _UNIT * abs(weight_formula), k
    assert _TALBOT_REACH == max(abs(ts) for ts, _ in _TALBOT_RULE)


def test_dirichlet_result_does_not_depend_on_call_history():
    # the Talbot rule is a table of literals; nothing is kept between calls
    model = ModelOrder(1.0)
    times = (1e-4, 3e-3, 0.1, 2.0)
    cold = [creep_rate_time(model, t) for t in times]
    creep_rate_time(ModelOrder(200.0), 1e-6)
    creep_rate_time(model, 1e-300)
    assert [creep_rate_time(model, t) for t in times] == cold


def test_dirichlet_small_times_return_quickly():
    # the cost does not grow as t falls; the Dirichlet route needed some
    # 570,000 zeros at t = 1e-11 and raised
    for t in (1e-11, 1e-20):
        start = time.perf_counter()
        value, _ = creep_rate_time(ModelOrder(1.0), t)
        assert time.perf_counter() - start < 0.05
        assert rel(value, 4.0 / math.sqrt(math.pi * t)) < 1e-4
    # below t ~ 2e-307 the contour leaves the double range: loud and quick
    for t in (1e-307, 5e-324):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="Talbot"):
            creep_rate_time(ModelOrder(1.0), t)
        assert time.perf_counter() - start < 0.05
    assert creep_rate_time(ModelOrder(1.0), 3e-307)[0] < math.inf


@pytest.fixture
def ratios_per_split(monkeypatch):
    """The ``_ratio_next_order`` calls of each ``_compliance_split`` call, a
    list that grows by one entry a split, through counting wrappers on the
    bindings the production callers use."""
    counts = []
    ratio, split = model_module._ratio_next_order, model_module._compliance_split

    def counted_ratio(order, z):
        counts[-1] += 1
        return ratio(order, z)

    def counted_split(nu, s):
        counts.append(0)
        return split(nu, s)

    monkeypatch.setattr(model_module, "_ratio_next_order", counted_ratio)
    for module in (model_module, qfactor):
        monkeypatch.setattr(module, "_compliance_split", counted_split)
    return counts


def test_common_paths_take_one_ratio(ratios_per_split):
    # kappa's recurrence form reads at most 3 on these paths, so the second
    # ratio, which kappa takes above that, costs them nothing
    for nu in (0.0, 1.0, 2.5, 5.0):  # the creep benchmark's orders, t from 1e-4 to 10
        for k in range(20):
            creep_rate_time(ModelOrder(nu), 10.0 ** (-4.0 + 5.0 * k / 19))
    assert len(ratios_per_split) == 4 * 20 * len(_TALBOT_RULE)
    assert set(ratios_per_split) == {1}
    ratios_per_split.clear()
    # q_inverse on half decades of omega to 1e308: up to about 3.2e32 the
    # same; beyond, z/r and z r agree to rounding, r lies within a few ulps
    # of 1, and kappa is bounded by r's resolution there.  The second ratio
    # is taken only until r rounds to 1, by 1e45 (it was taken at 2,205 of
    # these 2,516 calls, to 1e308)
    points = [(nu, 10.0 ** (k / 2)) for nu in (-0.99, 0.0, 5.0, 300.0) for k in range(-12, 617)]
    for nu, omega in points:
        q_inverse(ModelOrder(nu), omega)
    assert len(ratios_per_split) == len(points) == 2516
    twice = [omega for (_, omega), n in zip(points, ratios_per_split) if n != 1]
    assert set(ratios_per_split) == {1, 2}
    assert len(twice) == 56 and max(twice) <= 1e45, twice
    ratios_per_split.clear()
    for nu, s in LAPLACE_ORACLE_POINTS:
        creep_rate_laplace(ModelOrder(nu), s)
    # but at |s| = 30, 0.9 pi, by the first pole of nu <= 0, where kappa is
    # 3.3 to 5.5 in truth (both forms agree to 14 digits)
    twice = [(nu, round(abs(s))) for (nu, s), n in zip(LAPLACE_ORACLE_POINTS, ratios_per_split)
             if n != 1]
    assert len(ratios_per_split) == len(LAPLACE_ORACLE_POINTS)
    assert twice == [(-0.99, 30), (-0.5, 30), (0.0, 30)]
    assert set(ratios_per_split) == {1, 2}
    ratios_per_split.clear()
    q_inverse(ModelOrder(1e30), 1.0)  # where the recurrence form cancels
    assert ratios_per_split == [2]


def test_laplace_consistency_single_point():
    model = ModelOrder(0.0)
    direct = creep_rate_laplace(model, 2.0 + 0j).real
    by_zeros = creep_rate_laplace_by_zeros(model, 2.0)
    assert rel(by_zeros, direct) < 1e-12


# -------------------------------------------------------- asymptotics


def test_compliance_asymptotic_forms():
    model = ModelOrder(0.0)
    high = creep_compliance_asymptotic(model, 1e8 + 0j, "high")
    assert rel(high, 1.0 + 2.0 / math.sqrt(1e8)) < 1e-14
    low = creep_compliance_asymptotic(model, 0.5 + 0j, "low")
    assert rel(low, 4.0 / 3.0 + 8.0 / 0.5) < 1e-14
    with pytest.raises(DomainError):
        creep_compliance_asymptotic(model, 1.0 + 0j, "mid")


def test_compliance_asymptotic_convergence_direction():
    model = ModelOrder(1.5)
    high_gaps = []
    low_gaps = []
    for k in range(2, 7):
        s_high = complex(10.0**k, 0.0)
        full = creep_compliance_laplace(model, s_high)
        approx = creep_compliance_asymptotic(model, s_high, "high")
        high_gaps.append(abs(full / approx - 1.0))
        s_low = complex(10.0**-k, 0.0)
        full = creep_compliance_laplace(model, s_low)
        approx = creep_compliance_asymptotic(model, s_low, "low")
        low_gaps.append(abs(full / approx - 1.0))
    assert all(a > b for a, b in zip(high_gaps, high_gaps[1:]))
    assert all(a > b for a, b in zip(low_gaps, low_gaps[1:]))


# -------------------------------------------- fractional Maxwell model


def test_frac_maxwell_ordinary_limit():
    for x in (0.5, 1.0, 7.0):
        assert rel(frac_maxwell_q_inverse(1.0, x), 1.0 / x) < 1e-15


def test_frac_maxwell_half_order_value():
    assert rel(frac_maxwell_q_inverse(0.5, 1.0), 1.0 / (1.0 + math.sqrt(2.0))) < 1e-15


def test_frac_maxwell_half_order_decay():
    x = 1e8
    expected = math.sqrt(0.5) / math.sqrt(x)
    assert abs(frac_maxwell_q_inverse(0.5, x) / expected - 1.0) < 1e-3


def test_frac_maxwell_domain():
    with pytest.raises(DomainError):
        frac_maxwell_q_inverse(0.0, 1.0)
    with pytest.raises(DomainError):
        frac_maxwell_q_inverse(1.1, 1.0)
    with pytest.raises(DomainError):
        frac_maxwell_q_inverse(0.5, 0.0)


def test_frac_maxwell_matches_mpmath_up_to_beta_one():
    # cos(pi beta/2) is formed as sin(pi (1 - beta)/2): cos(pi/2) rounds to
    # 6.1e-17, which made (1, 1e-16) 38% low and (1, 1e-300) return 1.6e16
    def reference(beta, x):
        beta = mp.mpf(beta)
        return mp.sin(mp.pi * beta / 2) / (mp.mpf(x) ** beta + mp.sin(mp.pi * (1 - beta) / 2))

    with mp.workprec(200):
        for beta in (1.0, 1.0 - 2.0**-40, 0.75, 0.5):
            for x in (1e-300, 1e-16, 1e-10, 1.0, 1e10):
                value = frac_maxwell_q_inverse(beta, x)
                assert abs(value / reference(beta, x) - 1) < 1e-14, (beta, x)
    # 1/(omega tau) leaves the double range: typed, not inf
    with pytest.raises(OverflowRangeError):
        frac_maxwell_q_inverse(1.0, 1e-320)
