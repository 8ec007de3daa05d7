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

Each module declares its public names once, in its ``__all__``; this
package re-exports them and keeps no list of its own.
"""

from .errors import *
from .model import *
from .qfactor import *
# all four loaded already: specfun by model's import of specfun.modified
from . import errors, model, qfactor, specfun

__version__ = "0.1.0"

__all__ = sorted(errors.__all__ + model.__all__ + qfactor.__all__ + specfun.__all__)


def __getattr__(name: str):
    # called only for names not bound above: the public ones come from specfun
    if name in specfun.__all__:
        value = globals()[name] = getattr(specfun, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
