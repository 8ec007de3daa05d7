"""Span recorders on the calls into each besselq layer, for the traced run.

Each target names a function and the modules whose binding of it is
replaced: a module calls what its own namespace binds, so wrapping
``besselq.qfactor.kelvin_scaled`` records the dispatcher's Kelvin calls and
nothing else.  The benchmark's own calls go through the wrapped public
bindings ``besselq.q_inverse`` and ``besselq.creep_rate_time``.  A target whose module or name no longer exists is reported
as absent instead of failing the run, and a count hook that cannot read a
changed return value marks its counter unreadable.

Counts come from values the wrapped functions already return: the CF
iteration count, ``SeriesDiagnostics``, ``DirichletTruncation.n_zeros`` and
zero-array lengths.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import defaultdict
from typing import Callable, NamedTuple

from benchlib import Tracer

#: |z| decades reported for the CF: bucket N holds 10^N <= |z| < 10^(N+1),
#: except that bucket 0 also holds |z| < 1 and bucket 6 everything above.
CF_DECADES = range(7)


class Target(NamedTuple):
    span: str  # "<layer>.<what>"; names the counter group of a COUNT_TARGET
    modules: tuple[str, ...]
    attr: str
    hook: str | None = None


SPAN_TARGETS = (
    Target("gammafn.gamma_real",
           ("besselq.specfun.modified", "besselq.specfun.kelvinfg", "besselq.specfun.zeros"),
           "gamma_real"),
    Target("modified.cf", ("besselq.qfactor", "besselq.model", "besselq.specfun.modified"),
           "_ratio_next_order", "cf"),
    Target("modified.asym", ("besselq.specfun.kelvinfg",), "modified_i_asymptotic_scaled"),
    Target("kelvinfg.kelvin", ("besselq.qfactor",), "kelvin_scaled"),
    Target("kelvinfg.fg", ("besselq.qfactor",), "fg_series"),
    Target("qfactor.dispatch", ("besselq", "besselq.cli", "besselq.checks"), "q_inverse"),
    Target("qfactor.route_kelvin", ("besselq.qfactor", "besselq.checks"), "q_inverse_kelvin"),
    Target("qfactor.route_direct", ("besselq.qfactor", "besselq.checks"), "q_inverse_direct"),
    Target("qfactor.route_fg", ("besselq.checks",), "q_inverse_fg"),
    Target("zeros.bessel_j_zeros", ("besselq.model", "besselq.checks"), "bessel_j_zeros",
           "zeros"),
    Target("model.creep_rate_time", ("besselq",), "creep_rate_time", "creep"),
    Target("checks.route_agreement", ("besselq.checks",), "check_route_agreement"),
    Target("checks.monotonicity", ("besselq.checks",), "check_monotonicity"),
    Target("checks.rayleigh_sneddon", ("besselq.checks",), "check_rayleigh_sneddon"),
    Target("checks.laplace_consistency", ("besselq.checks",), "check_laplace_consistency"),
    Target("cli.sweep.compute", ("besselq.cli",), "evaluate_sweep"),
    Target("cli.sweep.write", ("besselq.cli",), "write_sweep_csv"),
    Target("cli.figures", ("besselq.cli",), "emit_figures"),
    Target("cli.figures.write", ("besselq.cli",), "_write_table"),
    Target("cli.check.compute", ("besselq.cli",), "run_all_checks"),
)

#: Wrapped without a span: they only feed counters.
COUNT_TARGETS = (
    Target("kelvinfg.series", ("besselq.specfun.kelvinfg",), "_kelvin_series", "kelvin_series"),
    Target("checks.quadrature", ("besselq.checks",), "adaptive_gauss_legendre", "quadrature"),
)


def cf_decade(z: complex) -> int:
    mag = abs(z)
    if not mag > 0.0:
        return 0
    return min(max(math.floor(math.log10(mag)), 0), CF_DECADES[-1])


class Layers:
    """Installs the recorders and keeps the counters their hooks fill."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.unreadable: set[str] = set()
        self.last_zeros = 0

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for target in SPAN_TARGETS + COUNT_TARGETS:
            for module_name in target.modules:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, target.attr, None)
                if not callable(fn):
                    continue
                if target in COUNT_TARGETS:
                    wrapper = self._counting(fn, target.hook, module_name)
                else:
                    wrapper = self._span(fn, target.span, target.hook, module_name)
                setattr(module, target.attr, wrapper)
                self.installed.add(target.span)

    def _span(self, fn: Callable, name: str, hook: str | None, module_name: str) -> Callable:
        """``fn`` wrapped in a span named ``name``, then the count hook."""
        tracer = self.tracer
        name_id = tracer.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                self._run_hook(hook, index, module_name, args, result)
            return result

        return wrapper

    def _counting(self, fn: Callable, hook: str, module_name: str) -> Callable:
        if hook == "quadrature":
            return self._counting_quadrature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._run_hook(hook, -1, module_name, args, result)
            return result

        return wrapper

    def _counting_quadrature(self, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(u):
                counters["quad_panels"] += 1
                counters["quad_exp_evals"] += len(u) * self.last_zeros
                return f(u)

            return fn(counted, *args, **kwargs)

        return wrapper

    # -- count hooks ------------------------------------------------------
    def _run_hook(self, hook: str, index: int, module_name: str, args, result) -> None:
        try:
            getattr(self, "_hook_" + hook)(index, module_name, args, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.unreadable.add(hook)

    def _hook_cf(self, index, module_name, args, result) -> None:
        iters = int(result[2])
        decade = cf_decade(args[1])
        self.tracer.tag[index] = decade
        self.counters["cf_iters"] += iters
        self.counters[f"cf_iters.zdec{decade}"] += iters

    def _hook_zeros(self, index, module_name, args, result) -> None:
        # zeros_computed counts the zeros each call returns: a cache inside
        # bessel_j_zeros that returns stored zeros still counts them, and
        # moves only the layer's self time
        n = len(result)
        self.last_zeros = n
        self.counters["zeros_computed"] += n
        if module_name == "besselq.checks":  # assumed: the check sums use every zero
            self.counters["zeros_useful"] += n

    def _hook_creep(self, index, module_name, args, result) -> None:
        n = int(result[1].n_zeros)
        self.counters["dirichlet_terms"] += n
        self.counters["zeros_useful"] += n

    def _hook_kelvin_series(self, index, module_name, args, result) -> None:
        diag = result[1]
        self.counters["kelvin_series_terms"] += int(diag.terms_used)
        key = "max.kelvin_cancel_ratio"
        self.counters[key] = max(self.counters[key], float(diag.cancel_ratio))

    # -- results ----------------------------------------------------------
    def aggregate(self) -> dict:
        """Span table, tag table and counters of this process (mergeable)."""
        tracer = self.tracer
        agg = tracer.aggregate()
        dispatch = tracer.name_id("qfactor.dispatch")
        routes = {tracer.name_id(n): bit for n, bit in
                  (("qfactor.route_kelvin", 1), ("qfactor.route_direct", 2))}
        seen: dict[int, int] = {}
        for i, nid in enumerate(tracer.name):
            parent = tracer.parent[i]
            if nid in routes and parent >= 0 and tracer.name[parent] == dispatch:
                seen[parent] = seen.get(parent, 0) | routes[nid]
        counters = dict(self.counters)
        counters["dispatch_both_routes"] = sum(1 for bits in seen.values() if bits == 3)
        agg["counters"] = counters
        agg["installed"] = sorted(self.installed)
        agg["unreadable"] = sorted(self.unreadable)
        return agg


def per_layer_metrics(agg: dict, trace: dict) -> tuple[dict, list[str]]:
    """Metrics from a merged aggregate; returns (metrics, absent names).

    ``trace`` holds ``overhead_ratio``, ``wall_s``, ``ops`` and ``passes``
    of the traced phase.  Layer times and counts are means per pass over the
    working set (for cli, per round of three commands), so they do not grow
    with the number of passes a faster build fits in; ``cli.start_s`` and
    ``cli.import_s`` are means per CLI process, the ``*_per_call`` and
    ``*_ratio`` metrics are ratios, and ``trace.*`` are totals.
    """
    spans = agg["spans"]
    tags = agg["tags"]
    installed = set(agg.get("installed", ()))
    unreadable = set(agg.get("unreadable", ()))
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name: str, value: float, unit: str, needs: tuple[str, ...] = (),
            hook: str | None = None) -> None:
        missing = [s for s in needs if s not in installed]
        if missing or (hook is not None and hook in unreadable):
            absent.append(name)
            value = 0.0
        metrics[name] = (float(value), unit)

    def ratio(a, b): return a / b if b else 0.0
    passes = trace["passes"]
    c = defaultdict(float, {k: v if k.startswith("max.") else v / passes
                            for k, v in agg["counters"].items()})
    def n(span): return spans.get(span, {}).get("n", 0) / passes
    def self_s(span): return spans.get(span, {}).get("self", 0.0) / passes
    def total(span): return spans.get(span, {}).get("total", 0.0) / passes

    g, cf = "gammafn.gamma_real", "modified.cf"
    put("gammafn.calls", n(g), "count", (g,))
    put("gammafn.self_s", self_s(g), "s", (g,))
    put("modified.cf_calls", n(cf), "count", (cf,))
    put("modified.cf_iters", c["cf_iters"], "count", (cf,), "cf")
    put("modified.cf_self_s", self_s(cf), "s", (cf,))
    cf_tags = tags.get(cf, {})
    for d in CF_DECADES:
        calls, secs = cf_tags.get(str(d), (0, 0.0))
        calls /= passes
        put(f"modified.cf_iters_per_call.zdec{d}", ratio(c[f"cf_iters.zdec{d}"], calls),
            "count", (cf,), "cf")
        put(f"modified.cf_us_per_call.zdec{d}", ratio(secs * 1e6 / passes, calls), "us",
            (cf,), "cf")
    a = "modified.asym"
    put("modified.asym_calls", n(a), "count", (a,))
    put("modified.asym_self_s", self_s(a), "s", (a,))
    k, fg, ks = "kelvinfg.kelvin", "kelvinfg.fg", "kelvinfg.series"
    put("kelvinfg.kelvin_calls", n(k), "count", (k,))
    put("kelvinfg.kelvin_self_s", self_s(k), "s", (k,))
    put("kelvinfg.series_terms", c["kelvin_series_terms"], "count", (ks,), "kelvin_series")
    put("kelvinfg.worst_cancel_ratio", c["max.kelvin_cancel_ratio"], "ratio", (ks,),
        "kelvin_series")
    put("kelvinfg.fg_calls", n(fg), "count", (fg,))
    put("kelvinfg.fg_self_s", self_s(fg), "s", (fg,))
    d, rk, rd, rf = ("qfactor.dispatch", "qfactor.route_kelvin", "qfactor.route_direct",
                     "qfactor.route_fg")
    put("qfactor.kelvin_route_calls", n(rk), "count", (rk,))
    put("qfactor.direct_route_calls", n(rd), "count", (rd,))
    put("qfactor.both_routes_ratio", ratio(c["dispatch_both_routes"], n(d)), "ratio",
        (d, rk, rd))
    put("qfactor.dispatch_self_s", self_s(d), "s", (d,))
    put("qfactor.routes_self_s", self_s(rk) + self_s(rd) + self_s(rf), "s", (rk, rd))
    z = "zeros.bessel_j_zeros"
    put("zeros.calls", n(z), "count", (z,))
    put("zeros.computed", c["zeros_computed"], "count", (z,), "zeros")
    put("zeros.self_s", self_s(z), "s", (z,))
    put("zeros.useful_ratio", ratio(c["zeros_useful"], c["zeros_computed"]), "ratio", (z,),
        "zeros")
    m = "model.creep_rate_time"
    put("model.creep_calls", n(m), "count", (m,))
    put("model.creep_self_s", self_s(m), "s", (m,))
    put("model.dirichlet_terms", c["dirichlet_terms"], "count", (m,), "creep")
    for check in ("route_agreement", "monotonicity", "rayleigh_sneddon", "laplace_consistency"):
        span = f"checks.{check}"
        put(f"{span}_s", total(span), "s", (span,))
    q = "checks.quadrature"
    put("checks.quad_panels", c["quad_panels"], "count", (q,))
    put("checks.quad_exp_evals", c["quad_exp_evals"], "count", (q, z), "zeros")
    processes = c["cli.processes"]
    put("cli.start_s", ratio(c["cli.start_s"], processes), "s")
    put("cli.import_s", ratio(c["cli.import_s"], processes), "s")
    fw = total("cli.figures.write")
    for name, value, needs in (
        ("cli.sweep.compute_s", total("cli.sweep.compute"), ("cli.sweep.compute",)),
        ("cli.sweep.write_s", total("cli.sweep.write"), ("cli.sweep.write",)),
        ("cli.figures.compute_s", total("cli.figures") - fw, ("cli.figures", "cli.figures.write")),
        ("cli.figures.write_s", fw, ("cli.figures.write",)),
        ("cli.check.compute_s", total("cli.check.compute"), ("cli.check.compute",)),
    ):
        put(name, value, "s", needs)
    put("trace.overhead_ratio", trace["overhead_ratio"], "ratio")
    put("trace.wall_s", trace["wall_s"], "s")
    put("trace.self_sum_s", sum(row["self"] for row in spans.values()), "s")
    put("trace.ops", trace["ops"], "count")
    put("trace.passes", passes, "count")
    return metrics, absent
