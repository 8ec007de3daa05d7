"""The benchmark's own arithmetic: percentiles, run-to-run spread, correct
digits, failure classes, and span self times.  Imports nothing from
besselq, so the tests in ``test_benchlib.py`` check it without the package
under test.
"""

from __future__ import annotations

import math
import statistics
from array import array
from time import perf_counter
from typing import Callable, Iterable, Sequence

#: Correct significant digits are clamped to [0, MAX_DIGITS].
MAX_DIGITS = 16.0

#: A returned value is wrong when its relative error exceeds both this
#: tolerance (the loosest accuracy the package documents for Q^-1, the
#: route agreement bound above the crossover) and the value's own error
#: estimate.
ACCURACY_TOL = 1e-8

#: Fewest samples for which a p99 is reported as resolved: ten beyond it.
P99_MIN_SAMPLES = 1000

#: Distinct wrong outputs a summary keeps for the report.
WRONG_KEPT = 5


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def pass_summary(done: int, busy_s: float, latencies_s: Sequence[float]) -> tuple:
    """One pass over the working set: (completed ops, seconds spent on all
    attempted ops, p50 and p99 latency in seconds of the completed ones).
    The percentiles are None when no op completed."""
    if not latencies_s:
        return done, busy_s, None, None
    return done, busy_s, percentile(latencies_s, 50.0), percentile(latencies_s, 99.0)


def run_summary(passes: Sequence[tuple]) -> dict:
    """Throughput, pass time and latency of a run from its ``pass_summary``
    tuples, each the median over the passes, so a slow spell of a shared
    machine that covers less than half of the run moves none of them.

    ``ops_per_s`` is the median of completed ops per second spent on all
    attempted ops in a pass; ``pass_s`` the median pass time;
    ``latency`` holds the medians of the passes' p50 and p99 in microseconds,
    with the completed ops they rest on (``samples``) and the fewest in one
    pass (``pass_samples``).  The p99 is resolved when the run completed at
    least P99_MIN_SAMPLES ops and every pass at least 100, so that ops lie
    beyond each pass's p99; otherwise it is about the slowest op of a pass.
    """
    busy = [p for p in passes if p[1] > 0.0]
    done = [p for p in passes if p[0]]
    latency = None
    if done:
        samples = sum(p[0] for p in done)
        fewest = min(p[0] for p in done)
        latency = {
            "p50_us": statistics.median(p[2] for p in done) * 1e6,
            "p99_us": statistics.median(p[3] for p in done) * 1e6,
            "samples": samples,
            "pass_samples": fewest,
            "p99_resolved": samples >= P99_MIN_SAMPLES and fewest >= 100,
        }
    return {
        "passes": len(passes),
        "ops_per_s": statistics.median(p[0] / p[1] for p in busy) if busy else 0.0,
        "pass_s": statistics.median(p[1] for p in passes),
        "latency": latency,
    }


def spread_summary(values: Sequence[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(values, n=4)``) and spread,
    the distance between the quartiles as a share of the median.  Quartiles
    and spread are None for fewer than two values."""
    mid = statistics.median(values)
    if len(values) < 2:
        return {"values": list(values), "median": mid, "q1": None, "q3": None,
                "spread": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": list(values), "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else None}


def worse_share(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``
    (negative when it is better); ``better`` is ``"lower"`` or ``"higher"``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def relative_error(value: float, ref: float) -> float:
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref)


def correct_digits(rel_error: float) -> float:
    """Correct significant digits of a value with this relative error."""
    if rel_error == 0.0:
        return MAX_DIGITS
    if not rel_error < 1.0:  # also NaN
        return 0.0
    return min(MAX_DIGITS, max(0.0, -math.log10(rel_error)))


def is_wrong(rel_error: float, est_rel_error: float | None) -> bool:
    """True when a returned value is outside both the tolerance and its own
    error estimate, i.e. it is wrong without saying so."""
    bound = ACCURACY_TOL if est_rel_error is None else max(ACCURACY_TOL, est_rel_error)
    return not rel_error <= bound


def classify_failure(exc: BaseException, typed_base: type) -> str:
    """``"typed"`` for the package's own error class, else ``"untyped"``."""
    return "typed" if isinstance(exc, typed_base) else "untyped"


class Outcomes:
    """Per-op accounting: failures by class, wrong outputs, accuracy, and
    whether returned error estimates hold."""

    def __init__(self, typed_base: type):
        self.typed_base = typed_base
        self.attempted = 0
        self.typed = 0
        self.untyped = 0
        self.wrong = 0
        self.wrong_ops = 0
        self.unchecked = 0
        self.checked = 0
        self.est_checked = 0
        self.est_violations = 0
        self.min_digits = MAX_DIGITS
        self.failures_by_class: dict[str, list] = {}  # class -> [count, first input]
        self.first_wrong: list[str] = []

    def failure(self, exc: BaseException, where: str) -> None:
        """An attempted op that raised."""
        self.attempted += 1
        if classify_failure(exc, self.typed_base) == "typed":
            self.typed += 1
        else:
            self.untyped += 1
        entry = self.failures_by_class.setdefault(type(exc).__name__, [0, where])
        entry[0] += 1

    def completed(self, values: Iterable[tuple[float, float | None, float | None, str]]) -> None:
        """An attempted op that returned: check each of its (value, reference,
        error estimate, where) outputs; the op is wrong if any output is."""
        self.attempted += 1
        wrong = False
        for value, ref, est, where in values:
            wrong |= self._check(value, ref, est, where)
        self.wrong_ops += wrong

    def _check(self, value: float, ref: float | None, est: float | None, where: str) -> bool:
        if ref is None:
            self.unchecked += 1
            return False
        rel = relative_error(value, ref)
        self.checked += 1
        self.min_digits = min(self.min_digits, correct_digits(rel))
        if est is not None:
            self.est_checked += 1
            self.est_violations += not rel <= est
        if not is_wrong(rel, est):
            return False
        self.wrong += 1
        line = f"{where}: {value!r} vs {ref!r} (est {est!r})"
        if len(self.first_wrong) < WRONG_KEPT and line not in self.first_wrong:
            self.first_wrong.append(line)
        return True

    def summary(self) -> dict:
        return _with_ratios({
            "attempted": self.attempted,
            "typed_failures": self.typed,
            "untyped_failures": self.untyped,
            "wrong_outputs": self.wrong,
            "wrong_ops": self.wrong_ops,
            "unchecked_outputs": self.unchecked,
            "checked_outputs": self.checked,
            "est_checked": self.est_checked,
            "est_violations": self.est_violations,
            "accuracy_digits": self.min_digits if self.checked else None,
            "failures_by_class": self.failures_by_class,
            "first_wrong": self.first_wrong,
        })


_COUNTS = ("attempted", "typed_failures", "untyped_failures", "wrong_outputs", "wrong_ops",
           "unchecked_outputs", "checked_outputs", "est_checked", "est_violations")


def _with_ratios(summary: dict) -> dict:
    attempted = max(summary["attempted"], 1)
    failed = summary["typed_failures"] + summary["untyped_failures"]
    est_checked = summary["est_checked"]
    summary.update(
        fail_ratio=failed / attempted,
        untyped_fail_ratio=summary["untyped_failures"] / attempted,
        wrong_op_ratio=summary["wrong_ops"] / attempted,
        est_violation_ratio=summary["est_violations"] / est_checked if est_checked else None,
    )
    return summary


def merge_outcomes(parts: Sequence[dict]) -> dict:
    """Combine ``Outcomes.summary()`` dicts of runs of one workload."""
    merged = {key: sum(p[key] for p in parts) for key in _COUNTS}
    digits = [p["accuracy_digits"] for p in parts if p["accuracy_digits"] is not None]
    merged.update(
        accuracy_digits=min(digits) if digits else None,
        failures_by_class=_merge_failure_classes(parts),
        first_wrong=list(dict.fromkeys(f for p in parts for f in p["first_wrong"]))[:WRONG_KEPT],
    )
    return _with_ratios(merged)


def _merge_failure_classes(parts: Sequence[dict]) -> dict:
    merged: dict[str, list] = {}
    for part in parts:
        for name, (count, where) in part["failures_by_class"].items():
            merged.setdefault(name, [0, where])[0] += count
    return merged


class Tracer:
    """In-memory span recorder for one thread.

    A span is (name id, parent index, start, end, tag); ``tag`` lets a count
    hook bucket a span (the CF's |z| decade).  Spans stay in flat arrays
    until ``aggregate`` runs at the end of the traced run.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.tag.append(-1)
        self.end.append(0.0)
        self.current = index
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self.current = self.parent[index]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children of one span run one after another inside it (one thread),
        so their durations cover disjoint parts of its interval.
        """
        selfs = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                selfs[p] -= self.end[i] - self.start[i]
        return selfs

    def aggregate(self) -> dict:
        """Per span name: count, total and self seconds; per (name, tag):
        total seconds and count.  Mergeable with ``merge_aggregates``."""
        selfs = self.self_times()
        spans: dict[str, dict] = {}
        tags: dict[str, dict] = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            row = spans.setdefault(name, {"n": 0, "total": 0.0, "self": 0.0})
            parent = self.parent[i]
            row["n"] += 1
            if parent < 0 or self.name[parent] != nid:  # count recursion once
                row["total"] += dur
            row["self"] += selfs[i]
            if self.tag[i] >= 0:
                cell = tags.setdefault(name, {}).setdefault(str(self.tag[i]), [0, 0.0])
                cell[0] += 1
                cell[1] += dur
        return {"spans": spans, "tags": tags}


def merge_aggregates(parts: Sequence[dict]) -> dict:
    """Sum span tables and counters; keep the maximum of ``max.*`` counters
    and the union of the installed and unreadable name lists."""
    out: dict = {"spans": {}, "tags": {}, "counters": {}}
    for key in ("installed", "unreadable"):
        out[key] = sorted({name for part in parts for name in part.get(key, ())})
    for part in parts:
        for name, row in part.get("spans", {}).items():
            acc = out["spans"].setdefault(name, {"n": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, cells in part.get("tags", {}).items():
            dst = out["tags"].setdefault(name, {})
            for tag, (n, total) in cells.items():
                cell = dst.setdefault(tag, [0, 0.0])
                cell[0] += n
                cell[1] += total
        for key, value in part.get("counters", {}).items():
            if key.startswith("max."):
                out["counters"][key] = max(out["counters"].get(key, value), value)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + value
    return out
