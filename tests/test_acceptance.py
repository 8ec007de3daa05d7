"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 3 asserts the leading law of the gap between Q^-1 and its
high-frequency asymptote: |Q^-1/asym - 1| = (2nu+3)/sqrt(2 omega) to
relative order omega^-1/2.  The law follows from the large-argument
expansion (DLMF 10.40.1) I_nu(z)/I_{nu+2}(z) = 1 + 2(nu+1)/z +
(nu+1)(2nu+3)/z^2 + O(z^-3) at z = sqrt(i omega): the first coefficient
gives the asymptote, the second coefficient (nu+1)(2nu+3) gives the gap.
"""

import math

import numpy as np
import pytest

import oracle
from besselq import (
    ModelOrder,
    bessel_j_zero,
    creep_compliance_laplace,
    creep_rate_laplace,
    creep_rate_time,
    fg_from_kelvin,
    fg_series,
    gamma_real,
    kelvin,
    modified_bessel_i,
    q_inverse,
    q_inverse_asymptotic,
    q_inverse_fg,
    q_inverse_kelvin,
    tricomi_it,
)
from besselq.checks import (
    LAPLACE_CONSISTENCY_BOUND,
    RAYLEIGH_SNEDDON_BOUND,
    ROUTE_AGREEMENT_BOUND_ABOVE,
    ROUTE_AGREEMENT_BOUND_BELOW,
    check_kelvin_agreement,
    check_laplace_consistency,
    check_rayleigh_sneddon,
    check_route_agreement,
)
from besselq.cli import emit_figures

NUS_ROUTE = (-0.5, 0.0, 1.0, 3.5, 10.0)
NUS_ASYMPTOTE = (0.0, 1.0, 5.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def log_grid(lo, hi, count):
    return np.logspace(math.log10(lo), math.log10(hi), count)


def test_criterion_1_three_route_agreement():
    below = check_route_agreement(NUS_ROUTE)
    above = check_kelvin_agreement(NUS_ROUTE)
    report(
        "1 (three-route agreement)",
        below.passed and above.passed,
        f"max pairwise below crossover {below.max_discrepancy:.3e} "
        f"(bound {ROUTE_AGREEMENT_BOUND_BELOW:.0e}), {below.detail}; above crossover "
        f"{above.max_discrepancy:.3e} (bound {ROUTE_AGREEMENT_BOUND_ABOVE:.0e}), {above.detail}",
    )
    assert below.passed and above.passed


def test_criterion_2_low_frequency_asymptote():
    # measured through the f/g route: it is the small-omega specialist, and
    # its roundoff floor (~1e-15) sits far below the omega^2 gap decay that
    # this criterion asserts; the Kelvin form's noise floor (~eps/omega)
    # would mask the decrease below omega ~ 1e-4
    worst = 0.0
    ok = True
    for nu in NUS_ASYMPTOTE:
        model = ModelOrder(nu)
        gaps = []
        for omega in (1e-3, 1e-4, 1e-5):
            q = q_inverse_fg(model, omega).q_inverse
            gaps.append(abs(q * omega / (2.0 * (nu + 1.0) * (nu + 3.0)) - 1.0))
        worst = max(worst, gaps[0])
        ok = ok and gaps[0] <= 1e-2 and gaps[0] > gaps[1] > gaps[2]
    report("2 (low-frequency asymptote)", ok, f"worst gap at omega=1e-3: {worst:.3e} (bound 1e-2)")
    assert ok


@pytest.mark.parametrize("nu", NUS_ASYMPTOTE)
def test_criterion_3_high_frequency_asymptote(nu):
    # the gap must follow its leading law (2nu+3)/sqrt(2 omega) (see the
    # module docstring); measured deviations from the law are <= 8.6e-3
    # (nu=5, omega=1e5) and shrink like omega^-1/2
    model = ModelOrder(nu)
    gaps = []
    deviations = []
    for omega in (1e5, 1e6, 1e7):
        q = q_inverse(model, omega).q_inverse
        gap = abs(q / q_inverse_asymptotic(model, omega, "high") - 1.0)
        gaps.append(gap)
        deviations.append(abs(gap / ((2.0 * nu + 3.0) / math.sqrt(2.0 * omega)) - 1.0))
    decreasing = gaps[0] > gaps[1] > gaps[2]
    ok = max(deviations) <= 2e-2 and decreasing
    report(
        f"3 (high-frequency asymptote, nu={nu:g})",
        ok,
        f"worst deviation from gap law (2nu+3)/sqrt(2 omega): {max(deviations):.3e} "
        f"(bound 2e-2), decreasing={decreasing}",
    )
    assert ok


def test_criterion_4_identity_suite():
    worst_split = 0.0
    worst_rotation = 0.0
    for nu in NUS_ROUTE:
        for omega in log_grid(1e-3, 1e2, 40):
            pair = fg_series(nu, omega)
            t = tricomi_it(nu, complex(0.0, omega))
            worst_split = max(worst_split, abs(complex(pair.f, pair.g) - t) / abs(t))
            rot = fg_from_kelvin(nu, omega)
            norm = math.hypot(pair.f, pair.g)
            worst_rotation = max(
                worst_rotation,
                abs(pair.f - rot.f) / norm,
                abs(pair.g - rot.g) / norm,
            )
    worst_compliance = 0.0
    for nu in (0.0, 1.0):
        model = ModelOrder(nu)
        for magnitude in log_grid(1e-2, 1e4, 34):
            for arg in (0.0, math.pi / 4.0, math.pi / 2.0):
                s = magnitude * complex(math.cos(arg), math.sin(arg))
                lhs = creep_compliance_laplace(model, s)
                rhs = 1.0 + creep_rate_laplace(model, s)
                worst_compliance = max(worst_compliance, abs(lhs - rhs) / abs(lhs))
    ok = worst_split <= 1e-11 and worst_rotation <= 1e-9 and worst_compliance <= 1e-11
    report(
        "4 (identity suite)",
        ok,
        f"split {worst_split:.3e} (1e-11), kelvin-rotation {worst_rotation:.3e} (1e-9), "
        f"compliance {worst_compliance:.3e} (1e-11)",
    )
    assert ok


def test_criterion_5_dirichlet_laplace_consistency():
    result = check_laplace_consistency()
    report(
        "5 (Dirichlet/Laplace consistency)",
        result.passed,
        f"max relative error {result.max_discrepancy:.3e} "
        f"(bound {LAPLACE_CONSISTENCY_BOUND:.0e}); {result.detail}",
    )
    assert result.passed


def test_criterion_6_rayleigh_sneddon():
    result = check_rayleigh_sneddon()
    report(
        "6 (Rayleigh-Sneddon sum)",
        result.passed,
        f"max relative error {result.max_discrepancy:.3e} "
        f"(bound {RAYLEIGH_SNEDDON_BOUND:.0e}); {result.detail}",
    )
    assert result.passed


def test_criterion_7_oracle_equivalence():
    """Every frozen golden value re-derived live from the naive
    extended-precision oracle and reproduced to <= 1e-10 relative."""
    model0 = ModelOrder(0.0)
    checks: list[tuple[str, float, float]] = []

    expected = math.sqrt(math.pi)
    x = 0.5
    while x < 7.0:
        expected *= x
        x += 1.0
    checks.append(("gamma(7.5)", gamma_real(7.5), expected))
    checks.append(("I_0(2)", modified_bessel_i(0.0, 2.0), float(oracle.bessel_i(0.0, 2.0))))
    ratio = creep_compliance_laplace(model0, 100.0 + 0j)  # I_0/I_2 at z = sqrt(s) = 10
    checks.append(("I_0/I_2 at 10", ratio.real, float(oracle.i_ratio(0.0, 10.0).real)))
    t_mine = tricomi_it(1.0, 1j)
    t_ref = complex(oracle.tricomi(1.0, complex(0.0, 1.0)))
    checks.append(("uniform-I(1, i) re", t_mine.real, t_ref.real))
    checks.append(("uniform-I(1, i) im", t_mine.imag, t_ref.imag))
    f_ref, g_ref = (float(v) for v in oracle.fg_pair(0.0, 1.0))
    pair = fg_series(0.0, 1.0)
    checks.append(("f_0(1)", pair.f, f_ref))
    checks.append(("g_0(1)", pair.g, g_ref))
    ber_ref, bei_ref = (float(v) for v in oracle.kelvin_pair(0.0, 1.0))
    kp = kelvin(0.0, 1.0)
    checks.append(("ber_0(1)", kp.ber, ber_ref))
    checks.append(("bei_0(1)", kp.bei, bei_ref))
    f_ref, g_ref = (float(v) for v in oracle.fg_pair(0.5, 16.0))
    pair = fg_from_kelvin(0.5, 16.0)
    checks.append(("f_0.5(16) via kelvin", pair.f, f_ref))
    checks.append(("g_0.5(16) via kelvin", pair.g, g_ref))
    checks.append(("j_{0,1}", bessel_j_zero(0.0, 1), float(oracle.first_zero_j0())))
    checks.append(
        (
            "creep rate laplace (0, 1)",
            creep_rate_laplace(model0, 1.0 + 0j).real,
            float(oracle.creep_rate_laplace(0.0, 1.0).real),
        )
    )
    checks.append(
        (
            "creep compliance laplace (1, 4)",
            creep_compliance_laplace(ModelOrder(1.0), 4.0 + 0j).real,
            float(oracle.creep_compliance_laplace(1.0, 4.0).real),
        )
    )
    checks.append(
        (
            "creep rate time (0, 1)",
            creep_rate_time(model0, 1.0)[0],
            float(oracle.creep_rate_time(0.0, 1.0)),
        )
    )
    q_ref = float(oracle.q_inverse(0.0, 1.0))
    checks.append(("Q^-1(1;0) fg route", q_inverse_fg(model0, 1.0).q_inverse, q_ref))
    checks.append(("Q^-1(1;0) kelvin route", q_inverse_kelvin(model0, 1.0).q_inverse, q_ref))
    checks.append(("Q^-1(1;0) q_inverse", q_inverse(model0, 1.0).q_inverse, q_ref))

    worst = 0.0
    worst_name = ""
    for name, mine, ref in checks:
        err = abs(mine - ref) / abs(ref)
        if err > worst:
            worst, worst_name = err, name
    ok = worst <= 1e-10
    report(
        "7 (oracle equivalence)",
        ok,
        f"{len(checks)} golden values, worst {worst:.3e} at '{worst_name}' (bound 1e-10)",
    )
    assert ok


def test_criterion_8_figure_reproduction(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    nus = [-0.5, 0.0, 1.0, 2.0, 5.0]
    emit_figures(out_a, nus)
    emit_figures(out_b, nus)

    def load(path):
        lines = path.read_text().strip().split("\n")
        return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    deterministic = all(
        (out_a / p.name).read_bytes() == (out_b / p.name).read_bytes()
        for p in out_a.iterdir()
    )
    monotone = True
    for tag in ("fig1_linear", "fig2_loglog"):
        data = load(out_a / f"{tag}.csv")
        for col in range(1, data.shape[1]):
            monotone = monotone and bool(np.all(np.diff(data[:, col]) < 0.0))
    fig3 = load(out_a / "fig3_high_asymptote.csv")
    fig4 = load(out_a / "fig4_low_asymptote.csv")
    direction = True
    for base in (1, 3):  # (data, asymptote) column pairs per order
        gap3 = np.abs(fig3[:, base] / fig3[:, base + 1] - 1.0)
        direction = direction and gap3[-1] < gap3[0] and gap3[-1] < 2e-2
        gap4 = np.abs(fig4[:, base] / fig4[:, base + 1] - 1.0)
        direction = direction and gap4[0] < gap4[-1] and gap4[0] < 1e-6
    ok = deterministic and monotone and direction
    report(
        "8 (figure reproduction)",
        ok,
        f"deterministic={deterministic}, monotone={monotone}, "
        f"asymptote direction={direction}",
    )
    assert ok
