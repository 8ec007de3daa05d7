"""Cross-method verification suites.

Each check compares quantities that the library computes along genuinely
different paths (series vs continued fraction vs closed form) and reports
the worst observed discrepancy against a frozen bound.  A suite is a
stream of cases ``(where, evaluate)``: ``evaluate()`` returns the values
compared, the reference last, and ``_worst_case`` takes the largest spread
``(max - min) / |reference|``.  A case that raises a BesselQError fails its
suite, and the detail names ``where``, the exception class and its message.
Monotonicity keeps its own rule, a signed, strict step is not a spread, and
reports a raise the same way.  Every suite has one bound, so the two bands
of route agreement, below and above the crossover, are two suites.
The CLI ``check`` subcommand runs them all; the test suite reuses them.
Their grids come from ``besselq.tables``, so the suites do not import the
CLI.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BesselQError, InconsistencyError, _require_positive
from .model import ModelOrder, creep_rate_laplace, creep_rate_time
from .qfactor import q_inverse, q_inverse_fg, q_inverse_kelvin
from .specfun.kelvinfg import DEFAULT_CROSSOVER_OMEGA
from .specfun.zeros import bessel_j_zeros
from .tables import DEFAULT_CHECK_NUS, FrequencyGrid

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence

#: Frozen bounds, measured during development with generous margin.
ROUTE_AGREEMENT_BOUND_BELOW = 1e-9
ROUTE_AGREEMENT_BOUND_ABOVE = 1e-8
RAYLEIGH_SNEDDON_BOUND = 1e-12
LAPLACE_CONSISTENCY_BOUND = 1e-12
CREEP_TIME_BOUND = 1e-12

#: Zeros that ``rayleigh_sneddon_sum`` sums; McMahon's expansion covers the
#: rest.
_ZERO_SUM_TERMS = 1_000

#: The orders of the three zero suites (Rayleigh-Sneddon, Dirichlet/Laplace
#: and creep time); ``besselq check --nu`` does not change them.
ZERO_SUITE_NUS = (0.0, 1.0, 2.5)


class CheckResult(
    namedtuple(
        "CheckResult", "name max_discrepancy bound passed detail", defaults=("",)
    )
):
    """One suite's worst discrepancy against its bound."""

    __slots__ = ()

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} {self.name}: max discrepancy {self.max_discrepancy:.3e} "
            f"(bound {self.bound:.1e})"
        )
        return line + (f" -- {self.detail}" if self.detail else "")


def _worst_case(name: str, bound: float, cases: Iterable[tuple]) -> CheckResult:
    """The largest spread over ``cases``, each ``(where, evaluate)``,
    against ``bound``: the one loop that turns cases into a verdict."""
    worst, detail = 0.0, ""
    for where, evaluate in cases:
        try:
            values = evaluate()
        except BesselQError as exc:
            detail = f"{where}: {type(exc).__name__}: {exc}"
            return CheckResult(name, math.inf, bound, False, detail)
        spread = (max(values) - min(values)) / abs(values[-1])
        if spread > worst:
            worst = spread
            detail = f"worst at {where}"
    return CheckResult(name, worst, bound, worst <= bound, detail)


def _judged(routes: tuple, nu: float, omega: float) -> list[float]:
    """``Q^-1`` at ``(nu, omega)`` by each of ``routes`` (``q_inverse``
    last), or InconsistencyError naming the route whose value lies further
    from ``q_inverse``'s than the two estimates allow,
    ``est_r q_r + est q``."""
    evaluations = [route(ModelOrder(nu), omega) for route in routes]
    q, est = evaluations[-1].q_inverse, evaluations[-1].est_rel_error
    for route, ev in zip(routes, evaluations):
        if abs(ev.q_inverse - q) > ev.est_rel_error * ev.q_inverse + est * q:
            raise InconsistencyError(
                f"{route.__name__} gives {ev.q_inverse!r} (estimate "
                f"{ev.est_rel_error:.3g}), outside the estimates of q_inverse's "
                f"{q!r} (estimate {est:.3g})"
            )
    return [ev.q_inverse for ev in evaluations]


def _route_band(
    name: str, nus: Sequence[float], lo: float, hi: float, bound: float, routes: tuple
) -> CheckResult:
    """The suite ``name``: ``Q^-1`` by each of ``routes`` (``q_inverse``
    last, each judged by ``_judged``) at each order and 40 log-spaced
    ``omega`` in [lo, hi], against ``bound``."""
    label = "/".join(r.__name__ for r in routes)
    cases = (
        (f"{label}, nu={nu}, omega={omega:.4g}",
         lambda nu=nu, omega=omega: _judged(routes, nu, omega))
        for nu in nus
        for omega in FrequencyGrid("log", lo, hi, 40).points()
    )
    return _worst_case(name, bound, cases)


def check_route_agreement(nus: Sequence[float] = DEFAULT_CHECK_NUS) -> CheckResult:
    """Agreement of ``q_inverse`` with the two verification routes to 1e-9
    relative on 40 log-spaced frequencies from 1e-3 up to the crossover,
    each route within the estimates (``_judged``).  The three are two
    here, as the f/g and Kelvin routes sum the same series (``qfactor``):
    the suite compares the series with the continued fraction of
    ``q_inverse``."""
    return _route_band("route agreement", nus, 1e-3, DEFAULT_CROSSOVER_OMEGA,
                       ROUTE_AGREEMENT_BOUND_BELOW, (q_inverse_fg, q_inverse_kelvin, q_inverse))


def check_kelvin_agreement(nus: Sequence[float] = DEFAULT_CHECK_NUS) -> CheckResult:
    """Agreement of ``q_inverse`` with the Kelvin route to 1e-8 relative on
    40 log-spaced frequencies from the crossover up to 1e6, within the
    estimates (``_judged``): the band the f/g series does not serve."""
    return _route_band("Kelvin agreement above crossover", nus, DEFAULT_CROSSOVER_OMEGA, 1e6,
                       ROUTE_AGREEMENT_BOUND_ABOVE, (q_inverse_kelvin, q_inverse))


def check_monotonicity(nus: Sequence[float] = DEFAULT_CHECK_NUS) -> CheckResult:
    """Q^-1 must decrease strictly along 181 log-spaced frequencies in
    ``[1e-4, 1e5]`` for every order."""
    omegas = FrequencyGrid("log", 1e-4, 1e5, 181).points()
    worst, detail = -math.inf, ""
    for nu in nus:
        values = []
        for omega in omegas:
            try:
                values.append(q_inverse(ModelOrder(nu), omega).q_inverse)
            except BesselQError as exc:
                detail = f"nu={nu}, omega={omega:.4g}: {type(exc).__name__}: {exc}"
                return CheckResult("monotonicity", math.inf, 0.0, False, detail)
        steps = [(b - a) / abs(a) for a, b in zip(values, values[1:])]
        i = max(range(len(steps)), key=steps.__getitem__)
        if steps[i] > worst:
            worst = steps[i]
            detail = f"largest upward step at nu={nu}, omega={omegas[i]:.4g}"
    return CheckResult("monotonicity", worst, 0.0, worst < 0.0, detail)


def _hurwitz_zeta(n: int, x: float) -> float:
    """Hurwitz ``zeta(n, x) = sum_{k>=0} (x+k)^-n`` for integer ``n >= 2``
    and large x (here x >= ~100), by Euler-Maclaurin up to the ``B_8`` term:
    ``x^(1-n)/(n-1) + x^-n/2 + sum_k B_2k/(2k)! (n)_(2k-1) x^(1-n-2k)``,
    ``(n)_m`` the rising factorial."""
    total = x ** (1 - n) / (n - 1) + 0.5 * x**-n
    rising, power = n, x ** (-n - 1)
    for k, coefficient in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600), start=1):
        total += coefficient * rising * power
        rising *= (n + 2 * k - 1) * (n + 2 * k)
        power /= x * x
    return total


def rayleigh_sneddon_sum(nu: float, *, s: float = 0.0) -> float:
    """Tail-corrected evaluation of ``sum_k 1/(s + j_{nu,k}^2)``, ``s >= 0``.

    The computed zeros cover k <= K = 1,000.  Past them McMahon's expansion
    ``j = beta - a/beta - b/beta^3``, with ``beta = (k + nu/2 - 1/4) pi``,
    ``mu = 4nu^2``, ``a = (mu - 1)/8`` and ``b = (mu - 1)(7mu - 31)/384``,
    gives ``1/(s + j^2) = beta^-2 - c beta^-4 + (c^2 - a^2 + 2b) beta^-6 +
    O(beta^-8)`` with ``c = s - 2a``; each sum of ``beta^-n`` over ``k > K``
    is the Hurwitz value ``zeta(n, x)/pi^n``, ``x = K + 1 + nu/2 - 1/4``.
    The closed form of the full sum is ``I_{nu+1}(sqrt s) / (2 sqrt(s)
    I_nu(sqrt s))``, which at ``s = 0`` is the Rayleigh-Sneddon value
    ``1/(4(nu+1))``.  DomainError unless ``s`` is finite and ``>= 0``.
    """
    if s:  # 0 is the Rayleigh-Sneddon sum itself; any other s must be positive
        s = _require_positive(s, "s")
    zeros = bessel_j_zeros(nu, _ZERO_SUM_TERMS)
    head = math.fsum(1.0 / (s + j * j) for j in zeros)
    mu = 4.0 * nu * nu
    a = (mu - 1.0) / 8.0
    b = (mu - 1.0) * (7.0 * mu - 31.0) / 384.0
    c = s - 2.0 * a
    x = _ZERO_SUM_TERMS + 1.0 + 0.5 * nu - 0.25
    tail = (
        _hurwitz_zeta(2, x) / math.pi**2
        - c * _hurwitz_zeta(4, x) / math.pi**4
        + (c * c - a * a + 2.0 * b) * _hurwitz_zeta(6, x) / math.pi**6
    )
    return head + tail


def check_rayleigh_sneddon() -> CheckResult:
    cases = ((f"nu={nu}", lambda nu=nu: (rayleigh_sneddon_sum(nu), 1.0 / (4.0 * (nu + 1.0))))
             for nu in ZERO_SUITE_NUS)
    return _worst_case("Rayleigh-Sneddon sum", RAYLEIGH_SNEDDON_BOUND, cases)


def creep_rate_laplace_by_zeros(model: ModelOrder, s: float) -> float:
    """Laplace transform of the rate of creep, from the zeros of ``J_{nu+2}``.

    Transforms the Dirichlet series ``Psi(t) = 4(nu+1)(nu+2) + 4(nu+1)
    sum_k exp(-j_k^2 t)`` term by term: each exponential integrates exactly
    to ``1/(s + j_k^2)``, so

        Psi~(s) = 4(nu+1)(nu+2)/s + 4(nu+1) sum_k 1/(s + j_{nu+2,k}^2),

    with the sum from ``rayleigh_sneddon_sum`` over 1,000 zeros.  It
    shares no step with the continued fraction of ``creep_rate_laplace``,
    so the two transforms cross-validate each other.  Real ``s`` only;
    raises ``DomainError`` unless ``s`` is finite and positive.
    """
    s = _require_positive(s, "s")
    nu = model.nu
    total = rayleigh_sneddon_sum(nu + 2.0, s=s)
    return 4.0 * (nu + 1.0) * (nu + 2.0) / s + 4.0 * (nu + 1.0) * total


def check_laplace_consistency() -> CheckResult:
    """Term-by-term transform of the Dirichlet series vs the closed
    Laplace form, at ``s`` = 1, 2 and 5."""
    cases = (
        (f"nu={nu}, s={s}",
         lambda nu=nu, s=s: (creep_rate_laplace_by_zeros(ModelOrder(nu), s),
                             creep_rate_laplace(ModelOrder(nu), complex(s, 0.0)).real))
        for nu in ZERO_SUITE_NUS
        for s in (1.0, 2.0, 5.0)
    )
    return _worst_case("Dirichlet/Laplace consistency", LAPLACE_CONSISTENCY_BOUND, cases)


def _creep_by_zeros(nu: float, t: float) -> float:
    """``4(nu+1)(nu+2) + 4(nu+1) sum_k exp(-j_{nu+2,k}^2 t)`` over the first
    1,000 zeros; the terms past ``j^2 t = 745.14`` underflow to 0.0."""
    zeros = bessel_j_zeros(nu + 2.0, _ZERO_SUM_TERMS)
    return 4.0 * (nu + 1.0) * (nu + 2.0 + math.fsum(math.exp(-j * j * t) for j in zeros))


def check_creep_time() -> CheckResult:
    """``creep_rate_time`` (Talbot inversion of the Laplace transform)
    against its Dirichlet series over 1,000 zeros (``_creep_by_zeros``) at
    ``t`` = 1e-3, 1e-2, 0.1 and 1, where the omitted tail, below
    ``exp(-j_1001^2 t) < exp(-9.9e3)``, underflows."""
    cases = (
        (f"nu={nu}, t={t}",
         lambda nu=nu, t=t: (creep_rate_time(ModelOrder(nu), t)[0], _creep_by_zeros(nu, t)))
        for nu in ZERO_SUITE_NUS
        for t in (1e-3, 1e-2, 0.1, 1.0)
    )
    return _worst_case("creep time/Dirichlet", CREEP_TIME_BOUND, cases)


def run_all_checks(nus: Sequence[float] = DEFAULT_CHECK_NUS) -> list[CheckResult]:
    """Every suite: the two route suites and monotonicity at the orders
    ``nus``, the three zero suites at ``ZERO_SUITE_NUS``."""
    return [
        check_route_agreement(nus),
        check_kelvin_agreement(nus),
        check_monotonicity(nus),
        check_rayleigh_sneddon(),
        check_laplace_consistency(),
        check_creep_time(),
    ]
