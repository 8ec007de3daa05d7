"""Extended-precision reference oracle (test tree only).

Every function here evaluates the defining series by naive term-by-term
summation in mpmath arbitrary-precision arithmetic (>= 40 significant
digits, raised adaptively where alternating series cancel).  No code is
shared with the package under test: the summation loops are independent,
double-free, and deliberately unsophisticated.  Bessel-function zeros used
as *inputs* to the Dirichlet series come from mpmath's root finder; past
the reach of the naive sums, ``mpmath.besseli`` serves, and at huge
orders, where it fails, the quotient of two naive sums in ``s``, each at
two precisions that must agree.  ``laplace_allowance`` counts the
roundings that the package's Laplace functions add to the estimate of
their ratio.
"""

from __future__ import annotations

import mpmath as mp


def _dps_for(magnitude: float, base: int = 40) -> int:
    # digits lost to cancellation grow linearly with sqrt(|s|) ~ |z|
    return base + int(0.5 * magnitude) + 10


def bessel_i(alpha, x, dps: int | None = None):
    """I_alpha(x) by naive summation of the defining power series."""
    dps = dps or _dps_for(float(abs(x)))
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        x = mp.mpf(x)
        half = x / 2
        term = half**alpha / mp.gamma(alpha + 1)
        total = term
        m = 0
        while True:
            term *= (half * half) / ((m + 1) * (m + alpha + 1))
            total += term
            m += 1
            if abs(term) < mp.mpf(10) ** (-dps) * abs(total) and m >= 50:
                return +total


def tricomi(alpha, s, dps: int | None = None):
    """(z/2)^(-alpha) I_alpha(z) at z = sqrt(s), summed in s directly."""
    s = mp.mpc(s)
    dps = dps or _dps_for(float(mp.sqrt(abs(s))))
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        term = mp.mpc(1) / mp.gamma(alpha + 1)
        total = term
        m = 0
        while True:
            term *= (s / 4) / ((m + 1) * (m + alpha + 1))
            total += term
            m += 1
            if abs(term) < mp.mpf(10) ** (-dps) * abs(total) and m >= 30:
                return +total


def fg_pair(alpha, omega, dps: int | None = None):
    """(f_alpha(omega), g_alpha(omega)) by naive alternating summation."""
    omega_f = float(omega)
    dps = dps or _dps_for(omega_f**0.5)
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        omega = mp.mpf(omega)
        tf = 1 / mp.gamma(alpha + 1)
        tg = omega / (4 * mp.gamma(alpha + 2))
        sf, sg = tf, tg
        w2 = omega * omega
        n = 0
        while True:
            tf *= -w2 / (16 * (2 * n + 1) * (2 * n + 2) * (2 * n + alpha + 1) * (2 * n + alpha + 2))
            tg *= -w2 / (16 * (2 * n + 2) * (2 * n + 3) * (2 * n + alpha + 2) * (2 * n + alpha + 3))
            sf += tf
            sg += tg
            n += 1
            bound = mp.mpf(10) ** (-dps) * (abs(sf) + abs(sg))
            if abs(tf) < bound and abs(tg) < bound and n >= 20:
                return +sf, +sg


def kelvin_pair(alpha, x, dps: int | None = None):
    """(ber_alpha(x), bei_alpha(x)) from the defining series with the
    cos/sin phase coefficients written out."""
    x_f = float(x)
    dps = dps or _dps_for(x_f)
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        x = mp.mpf(x)
        ber = mp.mpf(0)
        bei = mp.mpf(0)
        mag = 1 / mp.gamma(alpha + 1)
        q = x * x / 4
        k = 0
        while True:
            phase = (3 * alpha / 4 + mp.mpf(k) / 2) * mp.pi
            ber += mp.cos(phase) * mag
            bei += mp.sin(phase) * mag
            mag *= q / ((k + 1) * (k + alpha + 1))
            k += 1
            # relative to the running sums: an absolute floor ends the sum
            # early where 1/Gamma(alpha + 1) is tiny
            if mag <= mp.mpf(10) ** (-dps) * (abs(ber) + abs(bei)) and k >= 20:
                break
        prefactor = (x / 2) ** alpha
        return +(prefactor * ber), +(prefactor * bei)


def i_ratio(alpha, z, dps: int | None = None):
    """I_alpha(z) / I_{alpha+2}(z) as a quotient of two naive sums."""
    z = mp.mpc(z)
    dps = dps or _dps_for(float(abs(z)))
    with mp.workdps(dps):
        num = _i_series_complex(alpha, z, dps)
        den = _i_series_complex(mp.mpf(alpha) + 2, z, dps)
        return +(num / den)


def _i_series_complex(alpha, z, dps):
    alpha = mp.mpf(alpha)
    half = z / 2
    term = half**alpha / mp.gamma(alpha + 1)
    total = term
    m = 0
    while True:
        term *= (half * half) / ((m + 1) * (m + alpha + 1))
        total += term
        m += 1
        if abs(term) < mp.mpf(10) ** (-dps) * abs(total) and m >= 30:
            return total


def _twice(evaluate, dps: int, digits: int | None = None):
    """``evaluate()`` at ``dps`` and at ``dps + 20`` digits, which must agree
    to ``digits`` (``dps - 10`` by default).  Past the reach of the naive
    sums (``|z|`` beyond a few hundred), mpmath's own hypergeometric and
    asymptotic paths serve ``besseli``, and the second run checks their
    precision; the Tricomi quotients check their cancellation so."""
    digits = dps - 10 if digits is None else digits
    with mp.workdps(dps):
        first = evaluate()
    with mp.workdps(dps + 20):
        second = evaluate()
        assert abs(first - second) <= mp.mpf(10) ** -digits * abs(second), "oracle self-check"
        return +second


def i_ratio_next(alpha, z, dps: int = 30):
    """I_{alpha+1}(z) / I_alpha(z) by ``mpmath.besseli``, for any ``|z|``."""
    z = mp.mpc(z)
    return _twice(lambda: mp.besseli(mp.mpf(alpha) + 1, z) / mp.besseli(alpha, z), dps)


def creep_rate_laplace_besseli(nu, s, dps: int = 30):
    """2(nu+1)/sqrt(s) * I_{nu+1}/I_{nu+2} at the exact sqrt(s), by
    ``mpmath.besseli``, for any ``|s|``."""
    s = mp.mpc(s)

    def evaluate():
        z = mp.sqrt(s)
        return 2 * (mp.mpf(nu) + 1) / z * mp.besseli(mp.mpf(nu) + 1, z) / mp.besseli(
            mp.mpf(nu) + 2, z)

    return _twice(evaluate, dps)


def _tricomi_dps(nu) -> int:
    # 2 log10(nu) + 40 digits: nu + 1 and nu + 2 exact, and the 4 nu^2/|s|
    # of the pole term resolved down to the O(1) remainder beside it
    return 40 + 2 * int(mp.log10(abs(mp.mpf(nu)) + 2))


def _psi_tricomi(nu, s):
    """4(nu+1)/s * T_{nu+1}(s)/T_{nu+2}(s) at the working precision."""
    nu = mp.mpf(nu)
    dps = mp.mp.dps
    return 4 * (nu + 1) / s * tricomi(nu + 1, s, dps) / tricomi(nu + 2, s, dps)


def creep_rate_laplace_tricomi(nu, s):
    """Psi~(s; nu) as the quotient ``4(nu+1)/s * T_{nu+1}(s)/T_{nu+2}(s)`` of
    two naive sums in ``s`` (``tricomi``, ``T_a(s) = (z/2)^(-a) I_a(z)``),
    at ``2 log10(nu) + 40`` digits and 20 more, which must agree.

    Reach: the huge orders, where ``creep_rate_laplace_besseli`` fails its
    self-check (off the real axis from ``nu`` of about 1e20, everywhere at
    1e50): there the terms fall like ``|s|/(4 m nu)`` and nothing cancels.  Where ``|s|`` is large beside
    ``nu`` the terms grow to ``e^|z|`` before they fall, and the sums cancel
    (the ``q_inverse_tricomi`` self-check fails at ``nu = 5``, ``omega =
    1e6``): use it only where it self-checks."""
    s = mp.mpc(s)
    return _twice(lambda: _psi_tricomi(nu, s), _tricomi_dps(nu))


def q_inverse_tricomi(nu, omega):
    """Q^-1(omega; nu) as ``-Im/Re`` of ``1 + Psi~`` at ``s = i omega``, with
    ``Psi~`` the Tricomi quotient of ``creep_rate_laplace_tricomi``, at
    ``2 log10(nu) + 40`` digits and 20 more, which must agree to 25.

    Reach: it self-checks at ``nu`` 1e20, 3.2e25, 1e30, 1e50, 1e100 and
    1e150 and ``omega`` 1e-3, 1 and 1e6, where ``q_inverse`` (even at 3
    log10(nu) + 40 digits, and at 1e19 already) fails its own.  The real part
    is ``O(1)`` beside an imaginary part of about ``4 nu^2/omega``: the
    digits beyond ``2 log10(nu)`` resolve it.  It fails its self-check
    where ``|s|`` is large beside ``nu`` (at ``nu = 5``, ``omega = 1e6``):
    use it only where it self-checks."""

    def evaluate():
        response = 1 + _psi_tricomi(nu, mp.mpc(0, omega))
        return -response.imag / response.real

    return _twice(evaluate, _tricomi_dps(nu), 25)


def creep_rate_laplace(nu, s, dps: int | None = None):
    """2(nu+1)/sqrt(s) * I_{nu+1}/I_{nu+2} at sqrt(s), naive quotient."""
    s = mp.mpc(s)
    dps = dps or _dps_for(float(mp.sqrt(abs(s))))
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        z = mp.sqrt(s)
        num = _i_series_complex(nu + 1, z, dps)
        den = _i_series_complex(nu + 2, z, dps)
        return +(2 * (nu + 1) / z * num / den)


def creep_compliance_laplace(nu, s, dps: int | None = None):
    s = mp.mpc(s)
    dps = dps or _dps_for(float(mp.sqrt(abs(s))))
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        z = mp.sqrt(s)
        return +(_i_series_complex(nu, z, dps) / _i_series_complex(nu + 2, z, dps))


def q_inverse(nu, omega, dps: int | None = None):
    """Q^-1(omega; nu), cross-validated along two independent oracle paths."""
    omega_f = float(omega)
    dps = dps or _dps_for(omega_f**0.5)
    with mp.workdps(dps):
        f1, g1 = fg_pair(nu, omega, dps)
        f2, g2 = fg_pair(mp.mpf(nu) + 2, omega, dps)
        via_fg = (f1 * f2 + g1 * g2) / (g1 * f2 - f1 * g2)
        s_j = creep_compliance_laplace(nu, mp.mpc(0, omega), dps)
        via_ratio = -mp.im(s_j) / mp.re(s_j)
        assert abs(via_fg - via_ratio) < mp.mpf(10) ** (-(dps // 2)) * abs(via_ratio), (
            "oracle self-check failed"
        )
        return +via_fg


def creep_rate_time(nu, t, n_zeros: int = 200, dps: int = 40):
    """Dirichlet series for Psi(t; nu) with n_zeros exact zeros.

    With t >= 0.5 and 200 zeros the dropped tail is below 1e-5000; zeros of
    J_{nu+2} are supplied by mpmath's zero finder (order nu+2 >= 1 here).
    """
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        total = 4 * (nu + 1) * (nu + 2)
        acc = mp.mpf(0)
        for k in range(1, n_zeros + 1):
            j = mp.besseljzero(nu + 2, k)
            acc += mp.exp(-j * j * t)
        return +(total + 4 * (nu + 1) * acc)


def first_zero_j0(dps: int = 30):
    """First positive zero of J_0 by bisection on the naive series."""
    with mp.workdps(dps):

        def j0(x):
            term = mp.mpf(1)
            total = term
            m = 0
            while True:
                term *= -(x * x / 4) / ((m + 1) * (m + 1))
                total += term
                m += 1
                if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                    return total

        lo, hi = mp.mpf(2), mp.mpf(3)
        assert j0(lo) > 0 > j0(hi)
        for _ in range(dps * 4):
            mid = (lo + hi) / 2
            if j0(mid) > 0:
                lo = mid
            else:
                hi = mid
        return +((lo + hi) / 2)


def creep_rate_time_talbot(nu, t, dps: int = 40):
    """Psi(t; nu) by mpmath's own Talbot inversion of the whole transform
    ``2(nu+1)/sqrt(s) I_{nu+1}(sqrt s)/I_{nu+2}(sqrt s)`` (``mpmath.besseli``),
    independent of the zeros and of the package's pole split."""
    with mp.workdps(dps):
        nu = mp.mpf(nu)

        def transform(s):
            z = mp.sqrt(s)
            return 2 * (nu + 1) / z * mp.besseli(nu + 1, z) / mp.besseli(nu + 2, z)

        return mp.invertlaplace(transform, t, method="talbot")


#: The unit roundoff of binary64, ``2^-53``.
UNIT = 2.0**-53


def laplace_allowance(nu, s, tail, est, compliance=False):
    """The error allowed ``creep_rate_laplace`` at ``s`` (with
    ``compliance``, ``creep_compliance_laplace``), given ``T`` and its
    relative estimate ``est`` from ``model._compliance_split``: ``est |T|``
    plus every rounding of the pole term and of the sums, to first order in
    the unit ``u = 2^-53``.

    The pole term ``4(nu+1)(nu+2)/s`` rounds ``nu + 1``, ``nu + 2`` and
    their product once each (``4x`` is exact), ``3u``, and then divides a
    real ``p`` by ``s = c + id``.  CPython divides by Smith's algorithm
    (Smith, CACM 5 (1962) 435): for ``|c| >= |d|`` (else ``c`` and ``d``
    swap roles) ``r = d/c``, ``den = c + d r``, ``Re = p/den`` and ``Im =
    -(p r)/den``.  The roundings of ``r`` and of ``d r`` move ``den`` by at
    most ``r^2/(1 + r^2) <= 1/2`` of ``2u``, and its sum by ``u``; so ``Re`` lies
    within ``3u`` and ``Im`` within ``5u``, and the quotient within ``5u``
    of its modulus: ``8u |pole|`` in all.  (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed. (2002), Lemma 3.5, bounds the textbook
    formula by ``sqrt(2) gamma_4``, about ``5.7u``.)  Each complex sum,
    ``pole + T`` and then ``1 + ...``, rounds each part once: ``u`` of its
    modulus.
    """
    pole = 4.0 * abs(nu + 1.0) * abs(nu + 2.0) / abs(s)
    value = complex(4.0 * (nu + 1.0) * (nu + 2.0) / s + tail)
    allowance = est * abs(tail) + 8.0 * UNIT * pole + UNIT * abs(value)
    return allowance + UNIT * abs(1.0 + value) if compliance else allowance
