"""Special functions underpinning the Bessel-media material models.

The production path (``q_inverse``, ``creep_rate_time``) needs only the
contiguous-ratio evaluator of ``modified``, which it imports itself.  Every
public name here belongs to the verification routes and lives in one of
``kelvinfg`` (Kelvin and f/g pairs), ``series`` (gamma and the power
series, ``I`` and ``T``) and ``zeros`` (``J`` and its zeros): each
module is imported on first use of one of its names (PEP 562), not with
the package.
"""

#: The module each public name lives in.
_MODULE_OF = {
    "DEFAULT_CROSSOVER_OMEGA": "kelvinfg",
    "FGPair": "kelvinfg",
    "KelvinPair": "kelvinfg",
    "fg_from_kelvin": "kelvinfg",
    "fg_series": "kelvinfg",
    "kelvin": "kelvinfg",
    "kelvin_scaled": "kelvinfg",
    "gamma_real": "series",
    "modified_bessel_i": "series",
    "tricomi_it": "series",
    "bessel_j": "zeros",
    "bessel_j_zero": "zeros",
    "bessel_j_zeros": "zeros",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the relative import of the submodule; importlib would be one more module to load
    module = __import__(_MODULE_OF[name], globals(), None, (name,), 1)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
