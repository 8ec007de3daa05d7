"""Frequency grids, the sweep table, the default orders of ``check`` and
the one CSV writer of the ``sweep``, ``figures`` and ``check`` commands.

``evaluate_sweep`` evaluates every ``Q^-1`` dataset the commands write:
``sweep`` writes its rows, ``figures`` lays them out one column an order.
It imports ``model`` and ``qfactor``, which every command loads anyway, so
``cli`` and the modules it runs (``figures``, ``checks``) share this module
without importing each other.

Every numeric CSV field uses 17-significant-digit scientific notation with
a decimal point (``_fmt``, locale independent); a non-finite value raises
``OverflowRangeError``.  Outputs are overwritten in place and then cut to length
(``_write_ascii``), so an interrupted write can leave old and new bytes
mixed; a rerun repairs it.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .errors import (_COUNT_MAX, DomainError, _representable, _require_finite, _require_index,
                     _require_positive)
from .model import ModelOrder
from .qfactor import q_inverse, q_inverse_asymptotic

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Iterable, Sequence

#: The orders ``besselq check`` and the suites of ``checks`` run at by default.
DEFAULT_CHECK_NUS = (-0.5, 0.0, 1.0, 3.5, 10.0)

#: Most points a ``FrequencyGrid`` may hold, the package's one count
#: ceiling (``errors._COUNT_MAX``): a larger count raises DomainError before
#: any point is made.
MAX_GRID_COUNT = _COUNT_MAX


class FrequencyGrid(namedtuple("FrequencyGrid", "scale min max count")):
    """Linear or logarithmic frequency sweep specification: ``scale`` is
    'linear' or 'log', and ``count`` a whole number from 2 to
    ``MAX_GRID_COUNT``."""

    __slots__ = ()

    def __new__(cls, scale: str, min: float, max: float, count: int) -> FrequencyGrid:
        if scale not in ("linear", "log"):
            raise DomainError(f"scale must be 'linear' or 'log', got {scale!r}")
        min, max = _require_positive(min, "min"), _require_finite(max, "max")
        if not max > min:
            raise DomainError(f"need min < max, got min={min}, max={max}")
        count = _require_index(count, "count")
        if count < 2:
            raise DomainError(f"count must be at least 2, got {count}")
        return super().__new__(cls, scale, min, max, count)

    # ``_replace`` builds through ``_make``: check there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def points(self) -> list[float]:
        """The grid, by the arithmetic of ``np.linspace`` / ``np.logspace``,
        with ``min`` and ``max`` themselves as its end points: ``10**y`` of
        a rounded ``log10(max)`` may overshoot ``max`` or leave the range.
        So does an inner point that rounds onto that end, on a band a few
        ulps wide; it is ``max`` too."""
        if self.scale == "linear":
            return _linspace(self.min, self.max, self.count)
        *exponents, top = _linspace(math.log10(self.min), math.log10(self.max), self.count)
        return [self.min] + [10.0**y if y < top else self.max for y in exponents[1:]] + [self.max]


class SweepRecord(
    namedtuple(
        "SweepRecord",
        "omega nu q_inverse route est_rel_error q_asymp_low q_asymp_high",
    )
):
    """One CSV row of a frequency sweep."""

    __slots__ = ()


def evaluate_sweep(nus: Sequence[float], grid: FrequencyGrid) -> list[SweepRecord]:
    """``q_inverse`` and both asymptotes at every point of ``grid``, order
    by order: ``grid.count`` rows for each of ``nus``, in that order."""
    records: list[SweepRecord] = []
    for nu in nus:
        model = ModelOrder(nu)
        for omega in grid.points():
            ev = q_inverse(model, omega)
            records.append(SweepRecord(
                ev.omega, nu, ev.q_inverse, ev.route, ev.est_rel_error,
                q_inverse_asymptotic(model, ev.omega, "low"),
                q_inverse_asymptotic(model, ev.omega, "high"),
            ))
    return records


def _linspace(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def _fmt(value: float) -> str:
    return format(_representable(value, "the CSV value %s", value), ".16e")


def _write_ascii(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII, overwriting in place: no
    ``O_TRUNC`` on open, a truncate to the new length after the write.
    Truncating a recently written file to zero makes the opener wait on
    writeback (ext4); an overwrite in place does not."""
    data = text.encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.truncate()


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV: numbers through
    ``_fmt``, strings as they are."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    _write_ascii(path, "\n".join(lines) + "\n")
