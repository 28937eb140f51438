#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, aggregated into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N \\
        --workloads signal_numeric,noise_ensemble,analysis \\
        --seeds 601,602,603,604,605 [--seconds 30] [--out BENCH_N.json]

``--parent`` and ``--change`` are two source checkouts.  For every workload
and seed the script runs ``python3 perfbench/run.py --trace 0`` once in each
tree, alternating which tree goes first, and keeps the run's JSON result (the
last stdout line) and its ``env`` header line.  It writes, per workload and
end-to-end metric of the change tree's ``BENCHMARK.json``:

  parent, change   median and quartiles (q1, q3) over the runs
  change_wins      pairs in which the change was better than the parent
  previous         the change median recorded for that metric by the newest
                   ``BENCH_<n>.json`` (n < N) beside the output, if any
  verdict          "better", "worse" or "unresolved" by the acceptance rule
                   (``verdict``), or "invalid" for every metric of a
                   workload whose change tree failed a larger share of its
                   requests than the parent tree; also printed to stdout,
                   one line each after a line of both trees' failed and
                   attempted request counts

plus each tree's ``correct``/``failed`` totals, the raw runs and the distinct
``env`` lines.  Runs are serial: a pair is only comparable when nothing else
runs beside it.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# headroom beyond --seconds for run.py's probes and its own margin
RUN_MARGIN_S = 400


def parse_run(stdout: str, returncode: int = 0) -> dict:
    """One run.py invocation: its JSON result and its ``env`` header line."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    env = next((l for l in lines if l.startswith("env ")), None)
    try:
        result = json.loads(lines[-1]) if lines and returncode == 0 else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return {"correct": False, "failed": None, "attempted": None,
                "metrics": {}, "env": env, "returncode": returncode}
    return {"correct": result.get("correct") is True,
            "failed": result.get("failed"), "attempted": result.get("attempted"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            "env": env, "returncode": returncode}


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=seconds + RUN_MARGIN_S)
    return parse_run(proc.stdout, proc.returncode)


def summary(values) -> dict | None:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if not values:
        return None
    if len(values) == 1:
        v = float(values[0])
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _better(direction: str, change: float, parent: float) -> bool:
    return change < parent if direction == "lower" else change > parent


def verdict(entry: dict, bound: float | None) -> str:
    """The acceptance rule's reading of one aggregated metric entry.

    "worse": the change median is worse than the parent's by more than
    ``bound``, a fraction of the parent median.  "better": over at least
    10 pairs the change won at least 9 in 10, and its median is better
    than the parent's by more than the parent's interquartile range.
    Anything else is "unresolved".
    """
    parent, change = entry["parent"], entry["change"]
    if parent is None or change is None:
        return "unresolved"
    gain = parent["median"] - change["median"]
    if entry["better"] == "higher":
        gain = -gain
    if bound is not None and -gain > bound * abs(parent["median"]):
        return "worse"
    pairs = parent["n"]
    if (pairs >= 10 and 10 * entry["change_wins"] >= 9 * pairs
            and gain > parent["q3"] - parent["q1"]):
        return "better"
    return "unresolved"


def _failed_share(side: dict) -> float:
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def aggregate(pairs, directions: dict, previous: dict | None = None,
              bounds: dict | None = None) -> dict:
    """Summarise one workload's (parent_run, change_run) pairs.

    ``directions`` maps metric name to "lower" or "higher"; ``previous`` is
    the same workload's entry of an earlier BENCH file, or None; ``bounds``
    maps metric name to its relative bound, for the verdict.
    """
    out = {"pairs": len(pairs), "metrics": {}}
    for i, side in enumerate(SIDES):
        runs = [p[i] for p in pairs]
        out[side] = {"correct": all(r["correct"] for r in runs),
                     "failed": sum(r["failed"] or 0 for r in runs),
                     "attempted": sum(r["attempted"] or 0 for r in runs),
                     "runs": runs}
    # a request that raises returns early, so its run reads fast: no metric
    # of a change that fails more often than the parent can be compared
    invalid = _failed_share(out["change"]) > _failed_share(out["parent"])
    for name, direction in directions.items():
        both = [(p, c) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        entry = {"better": direction}
        for i, side in enumerate(SIDES):
            entry[side] = summary([r[i]["metrics"][name] for r in both])
        entry["change_wins"] = sum(
            _better(direction, c["metrics"][name], p["metrics"][name])
            for p, c in both)
        prev = (previous or {}).get("metrics", {}).get(name, {}).get("change")
        entry["previous"] = prev["median"] if prev else None
        entry["verdict"] = ("invalid" if invalid
                            else verdict(entry, (bounds or {}).get(name)))
        out["metrics"][name] = entry
    return out


def previous_bench(out_path: str, pr: int):
    """(file name, contents) of the newest BENCH_<n>.json with n < pr."""
    folder = os.path.dirname(os.path.abspath(out_path))
    found = []
    for name in os.listdir(folder):
        m = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if m and int(m.group(1)) < pr:
            found.append((int(m.group(1)), name))
    if not found:
        return None, None
    name = max(found)[1]
    with open(os.path.join(folder, name), encoding="utf-8") as fh:
        return name, json.load(fh)


def build_report(runs: dict, directions: dict, pr: int, seconds: int, seeds,
                 previous_name=None, previous=None, bounds=None) -> dict:
    """``runs`` maps workload -> list of (parent_run, change_run) pairs."""
    prev_workloads = (previous or {}).get("workloads", {})
    envs = sorted({r["env"] for pairs in runs.values() for p in pairs
                   for r in p if r["env"]})
    return {
        "pr": pr,
        "command": f"perfbench/run.py --trace 0 --seconds {seconds}",
        "seeds": list(seeds),
        "order": "pair i runs the parent first when i is even",
        "environment": envs,
        "previous_file": previous_name,
        "workloads": {w: aggregate(pairs, directions, prev_workloads.get(w),
                                   bounds)
                      for w, pairs in runs.items()},
    }


def verdict_lines(report: dict) -> list:
    """Per workload, one line of both trees' failed/attempted request
    counts, then one line per metric: its verdict, medians and wins."""
    lines = []
    for w, agg in report["workloads"].items():
        lines.append(f"{w} requests failed: " + ", ".join(
            f"{side} {agg[side]['failed']}/{agg[side]['attempted']}"
            for side in SIDES))
        for name, m in agg["metrics"].items():
            med = [f"{m[side]['median']:.6g}" if m[side] else "-"
                   for side in SIDES]
            lines.append(f"{w} {name}: {m['verdict']} (parent {med[0]}, "
                         f"change {med[1]}, change won {m['change_wins']} of "
                         f"{m['parent']['n'] if m['parent'] else 0})")
    return lines


def _end_to_end(tree: str):
    """(directions, bounds) of the end-to-end metrics in BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["better"] for m in spec["end_to_end"]},
            {m["name"]: m["bound"] for m in spec["end_to_end"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    out = args.out or f"BENCH_{args.pr}.json"
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = (args.parent, args.change)
    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for i, seed in enumerate(seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                pair[side] = run_once(trees[side], w, seed, args.seconds)
                print(f"{w} seed {seed} {SIDES[side]}: correct "
                      f"{pair[side]['correct']} {pair[side]['metrics']}",
                      file=sys.stderr, flush=True)
            runs[w].append(tuple(pair))
    name, previous = previous_bench(out, args.pr)
    directions, bounds = _end_to_end(args.change)
    report = build_report(runs, directions, args.pr, args.seconds, seeds,
                          name, previous, bounds)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("\n".join(verdict_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
