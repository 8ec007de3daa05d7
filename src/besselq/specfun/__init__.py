"""Special functions underpinning the Bessel-media material models.

``bessel_j`` and the zero finders live in ``zeros``, which only the
verification suites need: it is imported on first use of one of them
(PEP 562), not with the package.
"""

from .gammafn import gamma_real
from .kelvinfg import (
    DEFAULT_CROSSOVER_OMEGA,
    FGPair,
    KelvinPair,
    fg_from_kelvin,
    fg_series,
    kelvin,
    kelvin_scaled,
    modified_i_asymptotic_scaled,
)
from .modified import modified_bessel_i, tricomi_it

#: The names served from ``zeros``, imported on first use.
_ZEROS_NAMES = ("bessel_j", "bessel_j_zero", "bessel_j_zeros", "mcmahon_zero_estimate")

__all__ = [
    "DEFAULT_CROSSOVER_OMEGA",
    "FGPair",
    "KelvinPair",
    "bessel_j",
    "bessel_j_zero",
    "bessel_j_zeros",
    "fg_from_kelvin",
    "fg_series",
    "gamma_real",
    "kelvin",
    "kelvin_scaled",
    "mcmahon_zero_estimate",
    "modified_bessel_i",
    "modified_i_asymptotic_scaled",
    "tricomi_it",
]


def __getattr__(name: str):
    if name in _ZEROS_NAMES:
        from . import zeros

        value = globals()[name] = getattr(zeros, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ZEROS_NAMES))
