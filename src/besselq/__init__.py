"""besselq: quality factor and material functions of Bessel-type
viscoelastic media.

The package evaluates the specific attenuation factor Q^-1(omega; nu) of
the Bessel class of linear viscoelastic models along one production route
(``q_inverse``: the contiguous modified-Bessel ratio with its 1/s pole split
off), checked against two independent verification routes (oscillatory-pair
series, Kelvin functions), together with the special functions those routes
require and the time/Laplace-domain material functions of the class.

All public functions are pure and deterministic for fixed inputs; they
are safe to call concurrently.  None takes a tolerance or a term cap: the
series, expansions, continued fractions and the Talbot quadrature run at
fixed precision targets, and a call either meets its stated accuracy or
raises a typed ``BesselQError``.

``import besselq`` loads the production path only: ``errors``, ``model``,
``qfactor`` and the ratio evaluator of ``specfun.modified``.  The special
functions of the verification routes (Kelvin and f/g pairs, gamma, the
power series, ``J`` and its zeros) are served from ``specfun`` on first
use (PEP 562), ``q_inverse_fg`` and ``q_inverse_kelvin`` import them when
called, and ``besselq.checks`` and ``besselq.cli`` load when imported.
"""

from .errors import (
    BesselQError,
    CancellationError,
    DomainError,
    InconsistencyError,
    NonConvergenceError,
    OverflowRangeError,
    PoleError,
    RootIsolationError,
    TruncationError,
)
from .model import (
    ModelOrder,
    TalbotInversion,
    creep_compliance_asymptotic,
    creep_compliance_laplace,
    creep_rate_laplace,
    creep_rate_time,
    frac_maxwell_q_inverse,
)
from .qfactor import (
    QEvaluation,
    q_inverse,
    q_inverse_asymptotic,
    q_inverse_fg,
    q_inverse_kelvin,
)
from . import specfun  # loaded already, by model's import of specfun.modified

__version__ = "0.1.0"

__all__ = [
    "BesselQError",
    "CancellationError",
    "DomainError",
    "InconsistencyError",
    "ModelOrder",
    "NonConvergenceError",
    "OverflowRangeError",
    "PoleError",
    "QEvaluation",
    "RootIsolationError",
    "TalbotInversion",
    "TruncationError",
    "creep_compliance_asymptotic",
    "creep_compliance_laplace",
    "creep_rate_laplace",
    "creep_rate_time",
    "frac_maxwell_q_inverse",
    "q_inverse",
    "q_inverse_asymptotic",
    "q_inverse_fg",
    "q_inverse_kelvin",
]
__all__ += specfun.__all__
__all__.sort()


def __getattr__(name: str):
    # called only for names not bound above: the public ones come from specfun
    if name in specfun.__all__:
        value = globals()[name] = getattr(specfun, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
