"""Call every public function, the zeros and the ``sweep``, ``figures`` and
``check`` commands in a process where any import of numpy raises:

    python tests/no_numpy_smoke.py OUTDIR

``OUTDIR`` (an existing directory) receives the sweep CSV and the figures.
The run exits nonzero if a call fails or if numpy or ``dataclasses`` was
loaded.  ``tests/test_imports.py`` runs it in a subprocess; CI runs it with
the Python of a virtual environment that has besselq and nothing else.
"""

import cmath
import sys
from pathlib import Path

sys.modules["numpy"] = None  # any `import numpy` now raises ImportError

import besselq as b  # noqa: E402
from besselq import cli  # noqa: E402

m = b.ModelOrder(1.0)
b.q_inverse(m, 10.0)
b.q_inverse_kelvin(m, 10.0)
b.q_inverse_fg(m, 10.0)
b.q_inverse_asymptotic(m, 10.0, "high")
b.creep_rate_laplace(m, 2.0)
b.creep_rate_laplace(m, -1.2345e12)  # far on the negative axis, by the two-branch expansion
try:
    b.creep_rate_laplace(m, -1e300)
except b.DomainError:  # the rounding of sqrt(s) leaves no digit
    pass
else:
    raise AssertionError("creep_rate_laplace(m, -1e300) did not raise DomainError")
b.creep_compliance_laplace(m, 2j)
huge = b.ModelOrder(1e30)  # where kappa's recurrence form cancels: a second ratio serves
for value in (b.q_inverse(huge, 1.0).q_inverse, b.creep_rate_laplace(huge, 1.0),
              b.creep_compliance_laplace(huge, 1.0)):
    assert cmath.isfinite(value), value
# 4(nu+1)(nu+2) overflows, P = 4(nu+1)(nu+2)/omega = 4e304 does not
assert b.q_inverse(b.ModelOrder(1e155), 1e6).q_inverse > 1e304
b.creep_compliance_asymptotic(m, 2.0, "low")
b.creep_rate_time(m, 0.5)
b.creep_rate_time(m, 1e-4)
b.creep_rate_time(m, 1e-12)
b.creep_rate_time(b.ModelOrder(200.0), 1e-4)
b.q_inverse(m, 1e300)
b.frac_maxwell_q_inverse(0.5, 2.0)
b.gamma_real(2.5)
b.modified_bessel_i(0.0, 2.0)
b.tricomi_it(0.5, 2j)
# past the running bound's 1e-6 ceiling the cancelling sums raise, typed
for call, args in ((b.tricomi_it, (0.0, 4e4j)), (b.fg_series, (0.0, 1e4))):
    try:
        call(*args)
    except b.CancellationError:
        pass
    else:
        raise AssertionError(f"{call.__name__}{args} did not raise CancellationError")
b.kelvin(0.5, 3.0)
b.kelvin(0.5, 30.0)
b.fg_series(0.5, 2.0)
b.fg_from_kelvin(0.5, 2.0)
b.bessel_j(2.0, 5.0)
b.bessel_j(2.0, 50.0)
try:
    b.bessel_j(0.0, float("nan"))
except b.DomainError:
    pass
else:
    raise AssertionError("bessel_j(0, nan) did not raise DomainError")
b.bessel_j_zero(2.0, 3)
zeros = b.bessel_j_zeros(2.0, 5)
assert isinstance(zeros, tuple) and len(zeros) == 5
zeros = b.bessel_j_zeros(16.0, 40)  # Newton on the Hankel phase, at the domain's edge
assert len(zeros) == 40 and all(a < b for a, b in zip(zeros, zeros[1:]))
try:
    b.bessel_j_zeros(16.01, 1)
except b.DomainError:
    pass
else:
    raise AssertionError("bessel_j_zeros(16.01, 1) did not raise DomainError")
out = Path(sys.argv[1])
assert cli.main(["sweep", "--nu", "0", "--log", "1e-2", "1e2", "--count", "5",
                 "--out", str(out / "sweep.csv")]) == 0
assert cli.main(["figures", "--nu", "1", "--out", str(out / "figures")]) == 0
assert cli.main(["check"]) == 0
assert sys.modules.get("numpy") is None, "numpy was imported"
assert "dataclasses" not in sys.modules, "dataclasses was imported"
