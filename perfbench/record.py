"""Record the benchmark numbers of the current tree as one trajectory entry.

    python3 perfbench/record.py --label TEXT --out perfbench/results/BENCH_<n>.json \
        [--seeds 1-10]

Runs every workload of BENCHMARK.json untraced once per seed, in two sets:
``--seeds`` and as many seeds after them, then traced once on the first
seed, for ``run_seconds`` each.
Within a set the seeds are the outer loop, so slow spells of a shared
machine spread over all workloads.  For every end-to-end metric and set it
writes the values, their median, quartiles and spread (the distance between
the quartiles as a share of the median) and flags a spread that is not
below a third of the metric's bound (NOT STEADY) or exceeds it (OVER
BOUND).  It compares the median of every later set with the first set's and
flags one worse by more than the bound (DISAGREE), and flags a set in which
a timed op failed (FAILED OPS).  The metrics the report prints but
BENCHMARK.json does not gate are recorded the same way, and so are the
outcome ratios of the timed ops and of the edge sets.  Takes
about 50 minutes with 10 seeds a set; ``--seeds 1`` prints every end-to-end
metric of every workload in about 6 minutes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import run
from benchlib import spread_summary, worse_share

#: Sets of runs recorded; two sets of the same code must agree within the
#: bounds, as they must when the benchmark is accepted.
SETS = 2

OUTCOME_UNITS = {"fail_ratio": "ratio", "untyped_fail_ratio": "ratio", "wrong_op_ratio": "ratio",
                 "accuracy_digits": "digits", "est_violation_ratio": "ratio"}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def judge(stats: dict, bound: float) -> str:
    spread = stats["spread"]
    if spread is None:
        return ""
    if spread > bound:
        return "  OVER BOUND"
    return "" if spread < bound / 3 else "  NOT STEADY"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10", help="seeds of the first set, as LO-HI")
    args = parser.parse_args()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    first = parse_seeds(args.seeds)
    sets = [[seed + k * len(first) for seed in first] for k in range(SETS)]
    # gated metrics with their bound and direction; reported ones are judged
    # against the largest bound a gated metric may have
    metrics = {m["name"]: (m["unit"], m["bound"], m["better"], "metrics")
               for m in bench["end_to_end"]}
    metrics.update({name: (unit, 0.25, "higher" if name == "ops_per_s" else "lower",
                           "reported") for name, unit in run.REPORTED_UNITS.items()})
    runs: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for k, seeds in enumerate(sets):
        for workload in workloads:
            runs[workload].append([])
        for seed in seeds:
            for workload in workloads:
                result = run.measure(workload, seed, seconds, trace=False)
                runs[workload][k].append(result)
                outcomes = result["outcomes"]
                shown = {**result["metrics"], **result["reported"]}
                edge = result["edge_outcomes"]
                print(f"set {k + 1} {workload} seed {seed}: " + ", ".join(
                    [f"{n}={v[0]:.6g} {v[1]}" for n, v in shown.items()]
                    + [f"{n}={outcomes[n]} {u}" for n, u in OUTCOME_UNITS.items()]
                    + ([f"edge {n}={edge[n]} {u}" for n, u in OUTCOME_UNITS.items()]
                       if edge else [])), flush=True)
    entry = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "versions": runs[workloads[0]][0][0]["versions"],
        "run_seconds": seconds,
        "sets": sets,
        "workloads": {},
    }
    flagged = False
    for workload in workloads:
        recorded = []
        for k, set_runs in enumerate(runs[workload]):
            stats = {}
            for name, (unit, bound, better, source) in metrics.items():
                s = spread_summary([r[source][name][0] for r in set_runs])
                s.update(unit=unit, gated=source == "metrics")
                if k:
                    s["worse_than_set_1"] = worse_share(recorded[0]["end_to_end"][name]["median"],
                                                        s["median"], better)
                verdict = judge(s, bound)
                if s.get("worse_than_set_1", 0.0) > bound:
                    verdict += "  DISAGREE"
                flagged |= bool(verdict) and source == "metrics"
                stats[name] = s
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"{workload:9s} set {k + 1} {name:16s} median {s['median']:.6g} {unit:4s} "
                      f"spread {spread} ({'bound' if s['gated'] else 'not gated, judged at'} "
                      f"{bound})" + (f" vs set 1 {s['worse_than_set_1']:+.4f} worse" if k else "")
                      + verdict)
            failed = [r["line"]["failed"] for r in set_runs]
            if any(failed):  # every timed op must succeed
                flagged = True
                print(f"{workload:9s} set {k + 1} FAILED OPS {failed}")
            recorded.append({
                "seeds": sets[k],
                "end_to_end": stats,
                "outcomes": {n: [r["outcomes"][n] for r in set_runs] for n in OUTCOME_UNITS},
                "edge_outcomes": {n: [r["edge_outcomes"][n] for r in set_runs]
                                  for n in OUTCOME_UNITS} if set_runs[0]["edge_outcomes"] else None,
                "failed": failed,
                "correct": [r["line"]["correct"] for r in set_runs],
            })
        traced = run.measure(workload, sets[0][0], seconds, trace=True)
        entry["workloads"][workload] = {
            "sets": recorded,
            "failures_by_class": runs[workload][0][0]["outcomes"]["failures_by_class"],
            "edge_failures_by_class": (runs[workload][0][0]["edge_outcomes"] or {}).get(
                "failures_by_class"),
            "per_layer": {n: v[0] for n, v in traced["metrics"].items()},
            "absent": traced["absent"],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1) + "\n", encoding="ascii")
    print(f"wrote {args.out}; no timed op failed and every gated metric steady, within "
          f"its bound and agreeing across sets: {not flagged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
