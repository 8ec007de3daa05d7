"""The verification suites themselves: the tail-corrected zero sum they
share, their domain guards, and that a wrong ingredient makes them fail."""

import math

import mpmath as mp
import pytest

import oracle
from besselq import DomainError, ModelOrder, TruncationError, checks
from besselq.checks import (
    check_creep_time,
    check_kelvin_agreement,
    check_laplace_consistency,
    check_monotonicity,
    check_route_agreement,
    creep_rate_laplace_by_zeros,
    rayleigh_sneddon_sum,
)
from besselq.cli import main
from besselq.tables import FrequencyGrid


def _assert_zero_sum_matches_closed_forms():
    # s = 0: the Rayleigh-Sneddon value 1/(4(nu+1))
    for nu in (-0.5, 0.0, 1.0, 2.5):
        target = 1.0 / (4.0 * (nu + 1.0))
        assert abs(rayleigh_sneddon_sum(nu) - target) <= 1e-13 * target
    # s > 0: Psi~(s; nu) = 4(nu+1)(nu+2)/s + 4(nu+1) sum_k 1/(s + j_{nu+2,k}^2)
    for nu in (-0.5, 0.0, 1.0, 3.5):
        for s in (0.5, 1.0, 5.0, 20.0, 100.0):
            psi = complex(oracle.creep_rate_laplace(nu, s)).real
            target = (psi - 4.0 * (nu + 1.0) * (nu + 2.0) / s) / (4.0 * (nu + 1.0))
            value = rayleigh_sneddon_sum(nu + 2.0, s=s)
            assert abs(value - target) <= 1e-13 * target, (nu, s)


def test_zero_sum_matches_closed_forms():
    _assert_zero_sum_matches_closed_forms()


@pytest.mark.parametrize("terms", [300, 1_000, 3_000])
def test_zero_sum_tail_holds_from_300_zeros(monkeypatch, terms):
    # the beta^-6 tail term keeps the sum at roundoff (measured 1.3e-14);
    # the two-term tail was 1.6e-9 off at 300 zeros and 1.3e-11 at 1,000
    monkeypatch.setattr(checks, "_ZERO_SUM_TERMS", terms)
    _assert_zero_sum_matches_closed_forms()


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("x", [100.0, 1000.75, 1e4])
def test_hurwitz_zeta_matches_mpmath(n, x):
    # 30 digits: at 15, mpmath's own zeta(6, 1000.75) is 1.9e-12 off
    with mp.workdps(30):
        ref = float(mp.zeta(n, x))
    assert abs(checks._hurwitz_zeta(n, x) - ref) <= 1e-11 * ref


def test_laplace_by_zeros_needs_finite_positive_s():
    for s in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            creep_rate_laplace_by_zeros(ModelOrder(0.0), s)


def test_rayleigh_sneddon_sum_needs_finite_nonnegative_s():
    # -j_{0,1}^2 once raised a bare ZeroDivisionError, NaN and inf returned
    # NaN, and -1e300 returned inf
    for s in (-5.783185962946785, math.nan, math.inf, -1e300):
        with pytest.raises(DomainError):
            rayleigh_sneddon_sum(0.0, s=s)


def test_laplace_check_fails_on_a_wrong_closed_form(monkeypatch):
    assert check_laplace_consistency().passed
    closed_form = checks.creep_rate_laplace
    monkeypatch.setattr(
        checks, "creep_rate_laplace", lambda *args: closed_form(*args) * (1.0 + 1e-5)
    )
    assert not check_laplace_consistency().passed


def test_laplace_check_fails_on_shifted_zeros(monkeypatch):
    zeros = checks.bessel_j_zeros
    monkeypatch.setattr(
        checks, "bessel_j_zeros", lambda *args: tuple(j + 1e-6 for j in zeros(*args))
    )
    result = check_laplace_consistency()
    assert not result.passed and result.max_discrepancy > 1e-9


def test_creep_time_check_fails_on_a_wrong_inversion(monkeypatch):
    # measured discrepancy 2.7e-14; the Talbot estimates there reach 2.7e-13,
    # under the 1e-12 bound, and an error of 1e-11 must fail
    result = check_creep_time()
    assert result.passed and result.max_discrepancy < 1e-13
    inversion = checks.creep_rate_time
    monkeypatch.setattr(
        checks, "creep_rate_time", lambda m, t: (inversion(m, t)[0] * (1.0 + 1e-11), None)
    )
    assert not check_creep_time().passed


def test_creep_time_check_fails_on_shifted_zeros(monkeypatch):
    zeros = checks.bessel_j_zeros
    monkeypatch.setattr(
        checks, "bessel_j_zeros", lambda *args: tuple(j + 1e-9 for j in zeros(*args))
    )
    result = check_creep_time()
    assert not result.passed and result.max_discrepancy > 1e-12


def test_check_names_the_route_and_point_that_raised(capsys):
    # the series of order 100 leaves the double range at omega = 1e-3; the
    # route line once read only the exception's message
    assert main(["check", "--nu", "100"]) == 1
    below, above = capsys.readouterr().out.splitlines()[:2]
    where = "q_inverse_fg/q_inverse_kelvin/q_inverse, nu=100.0, omega=0.001"
    assert below.startswith("FAIL route agreement: max discrepancy inf (bound 1.0e-09) -- "
                            f"{where}: OverflowRangeError: ")
    assert above.startswith("FAIL Kelvin agreement above crossover: max discrepancy inf "
                            "(bound 1.0e-08) -- q_inverse_kelvin/q_inverse, nu=100.0, omega=")
    # at order 50 the band below the crossover passes on a line of its own,
    # with its own figure; above it neither the Kelvin series nor its
    # expansion reaches 3e-8
    assert main(["check", "--nu", "50"]) == 1
    below, above = capsys.readouterr().out.splitlines()[:2]
    assert below.startswith("PASS route agreement: max discrepancy ")
    assert float(below.split()[5]) <= checks.ROUTE_AGREEMENT_BOUND_BELOW
    assert below.endswith("(bound 1.0e-09) -- worst at q_inverse_fg/q_inverse_kelvin/q_inverse, "
                          "nu=50.0, omega=0.001")
    assert above.startswith("FAIL Kelvin agreement above crossover: max discrepancy inf "
                            "(bound 1.0e-08) -- q_inverse_kelvin/q_inverse, nu=50.0, omega=")
    assert ": TruncationError: " in above


def test_each_result_holds_one_bound(monkeypatch, capsys):
    # a Kelvin route 5e-8 off above the crossover, within an estimate of
    # 1e-7 that _judged accepts, fails the suite whose bound is 1e-8: the
    # two bands once shared one result, which read FAIL with the lower
    # band's 1.751e-11 under its bound 1e-9
    kelvin = checks.q_inverse_kelvin

    def q_inverse_kelvin(model, w):
        ev = kelvin(model, w)
        if w <= checks.DEFAULT_CROSSOVER_OMEGA:
            return ev
        return ev._replace(q_inverse=ev.q_inverse * (1.0 + 5e-8), est_rel_error=1e-7)

    monkeypatch.setattr(checks, "q_inverse_kelvin", q_inverse_kelvin)
    results = checks.run_all_checks()
    for result in results:
        if result.name != "monotonicity":  # a strict step, not a spread
            assert result.passed == (result.max_discrepancy <= result.bound), result
    assert len(results) == 6
    assert main(["check"]) == 1
    failing = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].startswith("FAIL Kelvin agreement above crossover: max discrepancy 5.000e-08 "
                                 "(bound 1.0e-08) -- worst at q_inverse_kelvin/q_inverse, nu=")


def test_route_agreement_judges_the_estimates(monkeypatch):
    # a Kelvin route that claims a millionth of its estimate lies outside
    # the estimates, though its value is as close as before
    kelvin = checks.q_inverse_kelvin

    def q_inverse_kelvin(model, w):
        ev = kelvin(model, w)
        return ev._replace(est_rel_error=ev.est_rel_error * 1e-6)

    monkeypatch.setattr(checks, "q_inverse_kelvin", q_inverse_kelvin)
    result = check_route_agreement((0.0, 1.0))
    assert not result.passed and result.max_discrepancy == math.inf
    assert ": InconsistencyError: q_inverse_kelvin gives " in result.detail


@pytest.mark.parametrize("nu", ["25", "30"])
def test_check_passes_where_the_kelvin_series_takes_over(nu, capsys):
    # the Kelvin pair's large-argument expansion cannot serve these orders
    # near x = 18; the series, whose estimate is the smaller, does: the
    # check once failed with TruncationError at omega = 398.1
    assert main(["check", "--nu", nu]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_route_agreement_reports_the_point_where_a_route_raised(monkeypatch):
    omega = FrequencyGrid("log", 1e-3, 324.0, 40).points()[17]
    fg = checks.q_inverse_fg

    def q_inverse_fg(model, w):
        if w == omega and model.nu == 1.0:
            raise TruncationError("injected")
        return fg(model, w)

    monkeypatch.setattr(checks, "q_inverse_fg", q_inverse_fg)
    result = check_route_agreement((0.0, 1.0))
    assert not result.passed and result.max_discrepancy == math.inf
    where = f"q_inverse_fg/q_inverse_kelvin/q_inverse, nu=1.0, omega={omega:.4g}"
    assert result.detail == f"{where}: TruncationError: injected"
    # the band above the crossover, which the f/g route does not enter, is
    # a suite of its own, and passes
    assert check_kelvin_agreement((0.0, 1.0)).passed


def test_monotonicity_reports_the_point_where_q_inverse_raised(monkeypatch):
    omega = FrequencyGrid("log", 1e-4, 1e5, 181).points()[90]
    q_inverse = checks.q_inverse

    def raising(model, w):
        if w == omega and model.nu == 1.0:
            raise TruncationError("injected")
        return q_inverse(model, w)

    monkeypatch.setattr(checks, "q_inverse", raising)
    result = check_monotonicity((0.0, 1.0))
    assert not result.passed and result.max_discrepancy == math.inf
    assert result.detail == f"nu=1.0, omega={omega:.4g}: TruncationError: injected"
