"""Cross-method verification suites.

Each check compares quantities that the library computes along genuinely
different paths (series vs continued fraction vs closed form) and reports
the worst observed discrepancy against a frozen bound.  The CLI ``check``
subcommand runs them all; the test suite reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BesselQError, DomainError
from .model import ModelOrder, creep_rate_laplace
from .policy import DEFAULT_CROSSOVER_OMEGA, DEFAULT_POLICY, SeriesPolicy
from .qfactor import q_inverse, q_inverse_fg, q_inverse_kelvin
from .specfun.zeros import bessel_j_zeros

#: Frozen bounds, measured during development with generous margin.
ROUTE_AGREEMENT_BOUND_BELOW = 1e-9
ROUTE_AGREEMENT_BOUND_ABOVE = 1e-8
RAYLEIGH_SNEDDON_BOUND = 1e-6
LAPLACE_CONSISTENCY_BOUND = 1e-6

DEFAULT_CHECK_NUS = (-0.5, 0.0, 1.0, 3.5, 10.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_discrepancy: float
    bound: float
    passed: bool
    detail: str = ""

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} {self.name}: max discrepancy {self.max_discrepancy:.3e} "
            f"(bound {self.bound:.1e})"
        )
        return line + (f" -- {self.detail}" if self.detail else "")


def _log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    return np.logspace(math.log10(lo), math.log10(hi), count)


def check_route_agreement(
    nus: Sequence[float] = DEFAULT_CHECK_NUS,
    policy: SeriesPolicy = DEFAULT_POLICY,
    points_per_regime: int = 40,
) -> CheckResult:
    """Pairwise agreement of ``q_inverse`` with the two verification routes.

    Below the crossover all three routes must agree to 1e-9 relative;
    above it (up to omega = 1e6, where ber/bei remain representable) the
    Kelvin route and ``q_inverse`` must agree to 1e-8.
    """
    worst_below = 0.0
    worst_above = 0.0
    detail = ""
    try:
        for nu in nus:
            model = ModelOrder(nu)
            for omega in _log_grid(1e-3, DEFAULT_CROSSOVER_OMEGA, points_per_regime):
                a = q_inverse_fg(model, omega, policy).q_inverse
                b = q_inverse_kelvin(model, omega, policy).q_inverse
                c = q_inverse(model, omega, policy).q_inverse
                disc = max(abs(a - b), abs(a - c), abs(b - c)) / abs(c)
                if disc > worst_below:
                    worst_below = disc
                    detail = f"worst three-route point: nu={nu}, omega={omega:.4g}"
            for omega in _log_grid(DEFAULT_CROSSOVER_OMEGA, 1e6, points_per_regime):
                b = q_inverse_kelvin(model, omega, policy).q_inverse
                c = q_inverse(model, omega, policy).q_inverse
                worst_above = max(worst_above, abs(b - c) / abs(c))
    except BesselQError as exc:
        return CheckResult(
            "route agreement", math.inf, ROUTE_AGREEMENT_BOUND_BELOW, False, str(exc)
        )
    passed = (
        worst_below <= ROUTE_AGREEMENT_BOUND_BELOW
        and worst_above <= ROUTE_AGREEMENT_BOUND_ABOVE
    )
    detail += (
        f"; above crossover kelvin-vs-q_inverse {worst_above:.3e} "
        f"(bound {ROUTE_AGREEMENT_BOUND_ABOVE:.1e})"
    )
    return CheckResult(
        "route agreement",
        worst_below,
        ROUTE_AGREEMENT_BOUND_BELOW,
        passed,
        detail,
    )


def check_monotonicity(
    nus: Sequence[float] = DEFAULT_CHECK_NUS,
    policy: SeriesPolicy = DEFAULT_POLICY,
    grid: Iterable[float] | None = None,
) -> CheckResult:
    """Q^-1 must decrease strictly along a log grid for every order."""
    omegas = np.asarray(list(grid)) if grid is not None else _log_grid(1e-4, 1e5, 181)
    worst = -math.inf
    detail = ""
    try:
        for nu in nus:
            model = ModelOrder(nu)
            values = [q_inverse(model, w, policy).q_inverse for w in omegas]
            steps = np.diff(values) / np.abs(values[:-1])
            i = int(np.argmax(steps))
            if steps[i] > worst:
                worst = float(steps[i])
                detail = f"largest upward step at nu={nu}, omega={omegas[i]:.4g}"
    except BesselQError as exc:
        return CheckResult("monotonicity", math.inf, 0.0, False, str(exc))
    return CheckResult("monotonicity", worst, 0.0, worst < 0.0, detail)


def trigamma_tail(x: float) -> float:
    """Asymptotic trigamma ``psi'(x)`` for large x (here x >= ~100)."""
    ix = 1.0 / x
    return ix + 0.5 * ix * ix + ix**3 / 6.0 - ix**5 / 30.0 + ix**7 / 42.0


def rayleigh_sneddon_sum(nu: float, n_zeros: int = 10_000) -> float:
    """Tail-corrected evaluation of ``sum_k j_{nu,k}^{-2}``.

    The computed zeros cover k <= n_zeros; the remainder is summed through
    the McMahon leading term ``j_{nu,k} ~ (k + nu/2 - 1/4) pi``, whose
    inverse squares telescope into a trigamma value.  The closed form of
    the full sum is ``1/(4(nu+1))``.
    """
    zeros = bessel_j_zeros(nu, n_zeros)
    head = float(np.sum(1.0 / zeros**2))
    a = 0.5 * nu - 0.25
    tail = trigamma_tail(n_zeros + 1.0 + a) / math.pi**2
    return head + tail


def check_rayleigh_sneddon(
    nus: Sequence[float] = (0.0, 1.0, 2.5), n_zeros: int = 10_000
) -> CheckResult:
    worst = 0.0
    detail = ""
    try:
        for nu in nus:
            total = rayleigh_sneddon_sum(nu, n_zeros)
            target = 1.0 / (4.0 * (nu + 1.0))
            rel = abs(total - target) / target
            if rel > worst:
                worst = rel
                detail = f"worst at nu={nu}"
    except BesselQError as exc:
        return CheckResult(
            "Rayleigh-Sneddon sum", math.inf, RAYLEIGH_SNEDDON_BOUND, False, str(exc)
        )
    return CheckResult(
        "Rayleigh-Sneddon sum",
        worst,
        RAYLEIGH_SNEDDON_BOUND,
        worst <= RAYLEIGH_SNEDDON_BOUND,
        detail,
    )


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    max_depth: int = 16,
) -> float:
    """Adaptive panel-splitting Gauss-Legendre quadrature (vectorized f)."""
    nodes, weights = np.polynomial.legendre.leggauss(48)

    def panel(lo: float, hi: float) -> float:
        x = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
        return 0.5 * (hi - lo) * float(np.dot(weights, f(x)))

    def recurse(lo: float, hi: float, whole: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if depth >= max_depth or abs(left + right - whole) <= rel_tol * abs(whole) + 1e-300:
            return left + right
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    return recurse(a, b, panel(a, b), 0)


#: ``exp(-x)`` is exactly 0.0 in double precision for ``x >= 746``.
_EXP_UNDERFLOW_ARG = 746.0


def _dirichlet_sums(t: np.ndarray, jj2: np.ndarray) -> np.ndarray:
    """``sum_k exp(-jj2[k] t_i)`` for each node ``t_i > 0``; ``jj2`` ascending.

    The terms that do not underflow, ``jj2 t < 746``, are a prefix of
    ``jj2``, found by bisection; the rest add exactly 0.0 and are skipped.
    """
    ends = np.searchsorted(jj2, _EXP_UNDERFLOW_ARG / t)
    return np.array([np.exp(-ti * jj2[:end]).sum() for ti, end in zip(t, ends)])


def creep_rate_laplace_by_quadrature(
    model: ModelOrder,
    s: float,
    policy: SeriesPolicy = DEFAULT_POLICY,
    rel_tol: float = 1e-10,
) -> float:
    """Numerical Laplace transform of the time-domain rate of creep.

    Integrates ``e^{-s t} Psi(t)`` over ``(0, T]`` with ``T = 40/s`` (the
    truncated tails are below 1e-15 relative): the constant part of Psi is
    integrated analytically, the Dirichlet part numerically after the
    substitution ``t = u**2``, which removes the ``t^{-1/2}`` endpoint
    singularity.  At each node the Dirichlet sum keeps only the zeros with
    ``j^2 t < 746`` (see ``_dirichlet_sums``); every dropped term is below
    the smallest subnormal double, so memory stays linear in the number of
    zeros.  Independent of the continued-fraction route, so the two
    transforms cross-validate each other.
    """
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"quadrature route needs real s > 0, got {s}")
    nu = model.nu
    horizon = 40.0 / s
    u_max = math.sqrt(horizon)
    # enough zeros that the series tail at the smallest sampled t is negligible
    t_floor = (u_max * 2.0 ** -float(16)) ** 2
    j_needed = math.sqrt(40.0 / t_floor)
    count = max(64, int(j_needed / math.pi) + 16)
    zeros = bessel_j_zeros(nu + 2.0, count)
    jj2 = zeros * zeros

    def integrand(u: np.ndarray) -> np.ndarray:
        t = u * u
        dirichlet = _dirichlet_sums(t, jj2)
        return np.exp(-s * t) * dirichlet * 2.0 * u

    quad = adaptive_gauss_legendre(integrand, 0.0, u_max, rel_tol)
    const = 4.0 * (nu + 1.0) * (nu + 2.0) * (1.0 - math.exp(-s * horizon)) / s
    return const + 4.0 * (nu + 1.0) * quad


def check_laplace_consistency(
    nus: Sequence[float] = (0.0, 1.0),
    s_values: Sequence[float] = (1.0, 2.0, 5.0),
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> CheckResult:
    """Quadrature of the Dirichlet series vs the closed Laplace form."""
    worst = 0.0
    detail = ""
    try:
        for nu in nus:
            model = ModelOrder(nu)
            for s in s_values:
                direct = creep_rate_laplace(model, complex(s, 0.0), policy).real
                quad = creep_rate_laplace_by_quadrature(model, s, policy)
                rel = abs(quad - direct) / abs(direct)
                if rel > worst:
                    worst = rel
                    detail = f"worst at nu={nu}, s={s}"
    except BesselQError as exc:
        return CheckResult(
            "Dirichlet/Laplace consistency",
            math.inf,
            LAPLACE_CONSISTENCY_BOUND,
            False,
            str(exc),
        )
    return CheckResult(
        "Dirichlet/Laplace consistency",
        worst,
        LAPLACE_CONSISTENCY_BOUND,
        worst <= LAPLACE_CONSISTENCY_BOUND,
        detail,
    )


def run_all_checks(
    nus: Sequence[float] = DEFAULT_CHECK_NUS,
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> list[CheckResult]:
    return [
        check_route_agreement(nus, policy),
        check_monotonicity(nus, policy),
        check_rayleigh_sneddon(),
        check_laplace_consistency(policy=policy),
    ]
