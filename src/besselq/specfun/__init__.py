"""Special functions underpinning the Bessel-media material models."""

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
from .modified import bessel_ratio_contiguous, modified_bessel_i, tricomi_it
from .zeros import bessel_j, bessel_j_zero, bessel_j_zeros, mcmahon_zero_estimate

__all__ = [
    "DEFAULT_CROSSOVER_OMEGA",
    "FGPair",
    "KelvinPair",
    "bessel_j",
    "bessel_j_zero",
    "bessel_j_zeros",
    "bessel_ratio_contiguous",
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
