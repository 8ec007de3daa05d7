"""besselq benchmark: one run of one workload.

    python3 perfbench/run.py --workload {sweep,highfreq,creep,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports besselq from ``src/`` and
exits with code 2 when that is missing.  It writes only a scratch directory
``.perfbench-*`` in the checkout, removed at exit.

With ``--trace 0`` it runs the workload for S seconds in a fresh
interpreter (``worker.py``) and times ``setup_s``: the median of
SETUP_PROBES fresh interpreters that import besselq and make the workload's
first call, half of them before the measured phase and half after it, so a
slow spell of a shared machine moves the median less.  With ``--trace 1`` it
runs the workload twice for S/2 seconds each, untraced and traced, each in a
fresh interpreter, and reports the per-layer metrics of the traced run and
the overhead of tracing.

It prints a report naming every metric with its unit, the failures by
exception class, and the accuracy against the frozen references, for the
timed ops and, apart, for the workload's edge set (inputs at the domain edges
where the package is known to fail, evaluated once per worker, untimed); the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` of the timed ops.  ``failed`` counts the ops that raised and the
ops that returned a value wrong beyond both the accuracy tolerance and its
own error estimate, so every op is either checked right or counted failed.
``correct`` is false when some output could not be checked (no reference,
unreadable file) or none was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchlib import ACCURACY_TOL, merge_outcomes  # noqa: E402
from workloads import working_set  # noqa: E402

#: Set-up probes per run: half before the measured phase, half after it.
SETUP_PROBES = 12

#: Slack on top of the measured seconds before a worker counts as hung.
WORKER_SLACK_S = 150.0

#: The end-to-end metrics of BENCHMARK.json, on the result line.
GATED_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}

#: End-to-end metrics in the report only.  ``record.py`` records their
#: spread (quartile distance over median, ten seeds) next to the gated ones
#: in ``results/``; see NOTES.md for why they are not gated.
REPORTED_UNITS = {"ops_per_s": "1/s", "latency_p50_us": "us", "latency_p99_us": "us",
                  "wall_s": "s"}

#: The first call made by each set-up probe (after ``import besselq``).
SETUP_CALL = {"sweep": "q_inverse", "highfreq": "q_inverse", "creep": "creep_rate_time"}
CLI_SETUP_ARGS = ("sweep", "--nu", "0", "--log", "1", "10", "--count", "2")


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def timed_run(cmd: list[str], env: dict, timeout: float) -> float:
    """Wall seconds from spawning ``cmd`` until it exits; it must succeed."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {' '.join(cmd)}\n{proc.stderr}")
    return elapsed


def measure_setup(workload: str, seed: int, env: dict, tmp: Path, probes: int) -> list[float]:
    if workload == "cli":
        cmd = [sys.executable, "-m", "besselq.cli", *CLI_SETUP_ARGS, "--out",
               str(tmp / "setup.csv")]
    else:
        first = working_set(workload, seed)[0]
        code = (
            "import besselq\n"
            "try:\n"
            f"    besselq.{SETUP_CALL[workload]}(besselq.ModelOrder({first['nu']!r}), "
            f"{first['x']!r})\n"
            "except Exception:\n"
            "    pass\n"
        )
        cmd = [sys.executable, "-c", code]
    return [timed_run(cmd, env, 60.0) for _ in range(probes)]


def run_worker(workload: str, seed: int, seconds: float, trace: bool, env: dict,
               tmp: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)), "--tmp", str(tmp)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=seconds + WORKER_SLACK_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def e2e_metrics(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """(gated, reported) end-to-end metrics as name -> (value, unit)."""
    lat = res["latency"] or {"p50_us": 0.0, "p99_us": 0.0}
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        "latency_p50_us": lat["p50_us"],
        "latency_p99_us": lat["p99_us"],
        "wall_s": res["pass_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return tuple({name: (values[name], unit) for name, unit in units.items()}
                 for units in (GATED_UNITS, REPORTED_UNITS))


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(args, run: dict) -> None:
    metrics, absent, outcomes, notes = run["metrics"], run["absent"], run["outcomes"], run["notes"]
    v = run["versions"]
    print(f"besselq benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}  nproc={v['nproc']} "
          f"python={v['python']} numpy={v['numpy']}")
    for name, (value, unit) in metrics.items():
        mark = "absent" if name in absent else _fmt(value)
        print(f"  {name:40s} {mark:>14s} {unit:6s} {notes.get(name, '')}")
    for name, (value, unit) in run["reported"].items():
        print(f"  {name:40s} {_fmt(value):>14s} {unit:6s} {notes.get(name, '')} (not gated)")
    print_outcomes(outcomes)
    if run["edge_outcomes"] is not None:
        edge = run["edge_outcomes"]
        print(f"edge set: {edge['attempted']} ops at the domain edges, once per worker, "
              f"untimed and not in attempted/failed")
        print_outcomes(edge)


def print_outcomes(outcomes: dict) -> None:
    att = outcomes["attempted"]
    lines = [
        ("fail_ratio", outcomes["fail_ratio"], "ratio",
         f"{outcomes['typed_failures'] + outcomes['untyped_failures']} of {att} ops attempted"),
        ("untyped_fail_ratio", outcomes["untyped_fail_ratio"], "ratio",
         f"{outcomes['untyped_failures']} not a BesselQError"),
        ("wrong_op_ratio", outcomes["wrong_op_ratio"], "ratio",
         f"{outcomes['wrong_ops']} ops returned a value wrong beyond both "
         f"{ACCURACY_TOL:g} and its own error estimate"),
        ("accuracy_digits", outcomes["accuracy_digits"], "digits",
         f"fewest over {outcomes['checked_outputs']} checked outputs, clamped to [0, 16]"),
        ("est_violation_ratio", outcomes["est_violation_ratio"], "ratio",
         f"over {outcomes['est_checked']} values returned with an error estimate"),
    ]
    for name, value, unit, note in lines:
        print(f"  {name:40s} {_fmt(value):>14s} {unit:6s} {note}")
    for name, (count, where) in sorted(outcomes["failures_by_class"].items()):
        print(f"  failure {name}: {count} ops, first at {where}")
    for line in outcomes["first_wrong"]:
        print(f"  wrong output {line}")
    if outcomes["unchecked_outputs"]:
        print(f"  {outcomes['unchecked_outputs']} outputs had no reference value")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run.  Returns the result line (``line``) and what the report
    prints: ``metrics`` as name -> (value, unit), ``absent`` names, merged
    ``outcomes``, per-metric ``notes`` and the workers' ``versions``.
    Raises BenchError when a worker or set-up probe fails."""
    env = child_env()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if trace:
            from layers import per_layer_metrics

            plain = run_worker(workload, seed, seconds / 2.0, False, env, tmp)
            traced = run_worker(workload, seed, seconds / 2.0, True, env, tmp)
            results = [plain, traced]
            metrics, absent = per_layer_metrics(traced["trace"], {
                "overhead_ratio": plain["ops_per_s"] / traced["ops_per_s"],
                "wall_s": traced["wall_s"],
                "ops": traced["outcomes"]["attempted"],
                "passes": traced["passes"],
            })
            reported, notes = {}, {}
        else:
            half = SETUP_PROBES // 2
            setups = measure_setup(workload, seed, env, tmp, half)
            res = run_worker(workload, seed, seconds, False, env, tmp)
            setups += measure_setup(workload, seed, env, tmp, SETUP_PROBES - half)
            results = [res]
            metrics, reported = e2e_metrics(res, setups)
            absent = []
            lat = res["latency"] or {"samples": 0, "p99_resolved": False}
            per_pass = (f"median over {res['passes']} passes of {res['pass_ops']} ops, "
                        f"{lat['samples']} completed")
            notes = {
                "setup_s": f"median of {len(setups)} fresh interpreters, half after the run",
                "ops_per_s": per_pass,
                "latency_p50_us": per_pass,
                "latency_p99_us": per_pass
                + ("" if lat["p99_resolved"]
                   else " (fewer than 100 a pass: unresolved, about a pass's slowest op)"),
                "wall_s": f"median pass of {res['pass_ops']} ops",
            }
    except (subprocess.TimeoutExpired, ValueError, OSError) as exc:
        raise BenchError(str(exc)) from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    outcomes = merge_outcomes([r["outcomes"] for r in results])
    edges = [r["edge_outcomes"] for r in results if r["edge_outcomes"] is not None]
    line = {
        "correct": outcomes["unchecked_outputs"] == 0 and outcomes["checked_outputs"] > 0,
        "attempted": outcomes["attempted"],
        "failed": outcomes["typed_failures"] + outcomes["untyped_failures"]
        + outcomes["wrong_ops"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"line": line, "metrics": metrics, "reported": reported, "absent": absent,
            "outcomes": outcomes, "edge_outcomes": merge_outcomes(edges) if edges else None,
            "notes": notes, "versions": results[0]["versions"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="besselq benchmark, one run")
    parser.add_argument("--workload", required=True, choices=("sweep", "highfreq", "creep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "besselq" / "__init__.py").is_file():
        print(f"run.py: no besselq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report(args, run)
    print(json.dumps(run["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
