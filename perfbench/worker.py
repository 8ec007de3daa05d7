"""One measured phase of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --tmp DIR

``run.py`` starts it with ``src`` on PYTHONPATH and one BLAS thread.  The
phase is a closed loop from one thread: the next op starts when the previous
one returns, in passes over the seeded working set, as many as fit in
``--seconds``.  Before it, the workload's edge set (inputs at
the domain edges, see ``workloads.py``) is evaluated once, untimed.  Every
op's outputs are checked against the frozen references outside its timed
interval.  Prints one JSON line.

With ``--trace 0`` it touches only public names (``besselq.__all__`` and the
``besselq.cli`` command line).  With ``--trace 1`` it installs the span
recorders of ``layers.py`` first.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from benchlib import Outcomes, Tracer, merge_aggregates, pass_summary, run_summary
from workloads import CLI_COMMANDS, CLI_SWEEP_ARGS, cli_key, load_table, working_set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Longest a single CLI command may run before it counts as failed.
CLI_TIMEOUT_S = 150.0


def versions() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def run_scalar(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import besselq

    if workload == "creep":
        call, x_name = besselq.creep_rate_time, "t"

        def read(out):
            return out[0], None
    else:
        call, x_name = besselq.q_inverse, "omega"

        def read(out):
            return out.q_inverse, out.est_rel_error

    def model(nu: float):
        """The model, or the error a narrowed ``ModelOrder`` domain raises."""
        try:
            return besselq.ModelOrder(nu)
        except besselq.BesselQError as exc:
            return exc

    def prepare(rows: list[dict]) -> list[tuple]:
        return [(model(r["nu"]), r["x"], r["ref"], f"nu={r['nu']!r}, {x_name}={r['x']!r}")
                for r in rows]

    # the edge set: once, untimed and untraced, before the measured phase
    edges = Outcomes(besselq.BesselQError)
    for order, x, ref, where in prepare(working_set(workload, seed, edge=True)):
        if isinstance(order, Exception):
            edges.failure(order, where)
            continue
        try:
            out = call(order, x)
        except Exception as exc:  # every failure is counted, typed or not
            edges.failure(exc, where)
            continue
        value, est = read(out)
        edges.completed([(value, ref, est, where)])

    layers = None
    if trace:
        from layers import Layers

        layers = Layers(Tracer())
        layers.install()
    inputs = prepare(working_set(workload, seed))
    outcomes = Outcomes(besselq.BesselQError)
    passes: list[tuple] = []
    clock = time.perf_counter
    begin = clock()
    while True:
        done, busy, latencies = 0, 0.0, []
        for order, x, ref, where in inputs:
            if isinstance(order, Exception):
                outcomes.failure(order, where)
                continue
            t0 = clock()
            try:
                out = call(order, x)
            except Exception as exc:  # every failure is counted, typed or not
                busy += clock() - t0
                outcomes.failure(exc, where)
                continue
            t1 = clock()
            busy += t1 - t0
            done += 1
            latencies.append(t1 - t0)
            value, est = read(out)
            outcomes.completed([(value, ref, est, where)])
        passes.append(pass_summary(done, busy, latencies))
        # start another pass only if a typical one still fits in the time
        if clock() - begin + statistics.median(p[1] for p in passes) > seconds:
            break
    wall = clock() - begin
    result = {
        "workload": workload,
        "seed": seed,
        "pass_ops": len(inputs),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes.summary(),
        "edge_outcomes": edges.summary() if edges.attempted else None,
        **run_summary(passes),
    }
    if layers is not None:
        result["trace"] = layers.aggregate()
    return result


class CliFailure(Exception):
    """A CLI command that exited nonzero after reporting a besselq error."""


class CliCrash(Exception):
    """A CLI command that died on an uncaught exception or timed out."""


def _cli_failure(proc: subprocess.CompletedProcess) -> Exception:
    err = proc.stderr.strip().splitlines()
    if any(line.startswith("Traceback") for line in err):
        return CliCrash(err[-1] if err else "traceback")
    return CliFailure(err[-1] if err else f"exit code {proc.returncode}")


def _csv_outputs(path: Path, refs: dict) -> list[tuple]:
    """(value, reference, estimate, where) of every Q^-1 in one CLI CSV: the
    sweep's long format (omega, nu, q_inverse[, est_rel_error]) or a
    figure's wide format (omega, q_nu_<nu>...)."""
    out = []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        wide = [(i, float(name[5:])) for i, name in enumerate(header) if name.startswith("q_nu_")]
        for row in reader:
            omega = float(row[col["omega"]])
            if wide:
                cells = [(i, nu, None) for i, nu in wide]
            else:
                est = float(row[col["est_rel_error"]]) if "est_rel_error" in col else None
                cells = [(col["q_inverse"], float(row[col["nu"]]), est)]
            for i, nu, est in cells:
                out.append((float(row[i]), refs.get(cli_key(nu, omega)), est,
                            f"{path.name} nu={nu:g} omega={omega!r}"))
    return out


def run_cli(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    refs = {cli_key(p["nu"], p["x"]): p["ref"] for p in load_table("cli")["points"]}
    sweep_csv, figs, agg_path = tmp / "sweep.csv", tmp / "figs", tmp / "trace.json"
    argv = {
        "sweep": [*CLI_SWEEP_ARGS, "--out", str(sweep_csv)],
        "figures": ["figures", "--out", str(figs)],
        "check": ["check"],
    }
    outcomes = Outcomes(CliFailure)
    passes: list[tuple] = []
    aggregates: list[dict] = []
    begin = time.perf_counter()
    while True:
        done, busy, latencies = 0, 0.0, []
        for command in CLI_COMMANDS:
            sweep_csv.unlink(missing_ok=True)
            shutil.rmtree(figs, ignore_errors=True)
            t0 = time.perf_counter()
            if trace:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(agg_path), repr(t0),
                       *argv[command]]
            else:
                cmd = [sys.executable, "-m", "besselq.cli", *argv[command]]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                busy += time.perf_counter() - t0
                outcomes.failure(CliCrash("timeout"), f"{command}: timeout")
                continue
            elapsed = time.perf_counter() - t0
            busy += elapsed
            if proc.returncode != 0:
                exc = _cli_failure(proc)
                outcomes.failure(exc, f"{command}: {exc}")
                continue
            done += 1
            latencies.append(elapsed)
            if trace:
                aggregates.append(json.loads(agg_path.read_text(encoding="ascii")))
            produced = {"sweep": [sweep_csv], "figures": sorted(figs.glob("*.csv")),
                        "check": []}[command]
            values = [o for path in produced if path.exists() for o in _csv_outputs(path, refs)]
            if command != "check" and not values:  # an output to check went missing
                values = [(math.nan, None, None, f"{command}: no output")]
            outcomes.completed(values)
        passes.append(pass_summary(done, busy, latencies))
        # start another round only if a typical one still fits in the time
        if time.perf_counter() - begin + statistics.median(p[1] for p in passes) > seconds:
            break
    result = {
        "workload": "cli",
        "seed": seed,
        "pass_ops": len(CLI_COMMANDS),
        "wall_s": time.perf_counter() - begin,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "outcomes": outcomes.summary(),
        "edge_outcomes": None,
        **run_summary(passes),
    }
    if trace:
        result["trace"] = merge_aggregates(aggregates)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "highfreq", "creep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()
    if args.workload == "cli":
        result = run_cli(args.seed, args.seconds, bool(args.trace), args.tmp)
    else:
        result = run_scalar(args.workload, args.seed, args.seconds, bool(args.trace))
    result["versions"] = versions()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
