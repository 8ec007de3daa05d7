"""Evaluation policy shared by all series-based routines, and the
frequency at which the alternating series give way."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

#: Frequency above which the alternating small-argument series of the
#: verification routes (the f/g pair and the ber/bei power series) are
#: abandoned: the f/g route refuses it and ber/bei switch to their
#: large-argument form at sqrt(324) = 18, which keeps the largest-term/result
#: ratio of those series well below 1e12 in 64-bit arithmetic.
DEFAULT_CROSSOVER_OMEGA = 324.0


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation and reliability policy for power-series evaluation.

    Attributes
    ----------
    rel_tol : float
        Relative stopping tolerance: a series terminates once the next term
        stays below ``rel_tol * |partial sum|`` for two consecutive terms.
    max_terms : int
        Hard cap on the number of terms; hitting it raises TruncationError.
    cancellation_guard : float
        Largest-term/result ratio above which an alternating-series result is
        rejected as unreliable (CancellationError).
    """

    rel_tol: float = 1e-15
    max_terms: int = 400
    cancellation_guard: float = 1e12

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 8:
            raise DomainError(f"max_terms must be >= 8, got {self.max_terms}")
        if self.cancellation_guard < 1.0:
            raise DomainError(
                f"cancellation_guard must be >= 1, got {self.cancellation_guard}"
            )


DEFAULT_POLICY = SeriesPolicy()
