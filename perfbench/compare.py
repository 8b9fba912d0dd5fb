#!/usr/bin/env python3
"""Compare two sets of MPCX benchmark runs, or summarize one set.

    python3 perfbench/compare.py BASE [NEW] [--benchmark BENCHMARK.json]

BASE and NEW are result files saved by perfbench/run.py (perfbench/out/runs/),
or directories of them. Runs are grouped by workload and trace mode.

One set: per workload and metric, the median, the quartiles and the spread
(interquartile range / median) next to the metric's bound.

Two sets: per workload and metric, each side's median and quartiles, the share
of paired runs each side wins (pairs share a seed; without common seeds, runs
pair in order), and a verdict:
  gain         NEW wins at least 9 in 10 pairs (ties count for neither) and the
               medians differ by more than BASE's own interquartile range;
  REGRESSION   NEW's median is worse than BASE's by more than the bound;
  unresolved   BASE's own spread exceeds the bound and NEW does not beat (or
               lose to) every BASE run;
  ok           none of the above.
Per-layer metrics have no bound, so they never read REGRESSION or unresolved.
Exits 1 when any end-to-end metric reads REGRESSION.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, trace): [(seed, {metric: value})]} from files under `path`."""
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs = {}
    for file in files:
        data = json.loads(file.read_text())
        stamp = data.get("stamp", {})
        if "workload" not in stamp:
            continue
        metrics = {name: m["value"] for name, m in data["metrics"].items()}
        runs.setdefault((stamp["workload"], stamp["trace"]), []).append((stamp["seed"], metrics))
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def pairs(base, new):
    """Value pairs of one metric: by seed where the seeds overlap, else in order."""
    base_by_seed, new_by_seed = dict(base), dict(new)
    common = sorted(set(base_by_seed) & set(new_by_seed))
    if common:
        return [(base_by_seed[s], new_by_seed[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in new]))


def describe(meta):
    return {m["name"]: m for m in meta.get("end_to_end", []) + meta.get("per_layer", [])}


def show_one(runs, metrics):
    for (workload, trace), entries in sorted(runs.items()):
        print(f"\n{workload} (trace {trace}), {len(entries)} runs")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        names = sorted({n for _, m in entries for n in m})
        for name in names:
            values = [m[name] for _, m in entries if name in m]
            med, q1, q3 = summary(values)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = metrics.get(name, {}).get("bound")
            print(f"  {name:44s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
                  f"{bound if bound is not None else '':>6}")


def verdict(meta, base_vals, new_vals, paired):
    lower = meta.get("better", "lower") == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    base_med, base_q1, base_q3 = summary(base_vals)
    new_med, _, _ = summary(new_vals)
    new_wins = sum(better(n, b) for b, n in paired)
    base_wins = sum(better(b, n) for b, n in paired)
    share_new = new_wins / len(paired) if paired else 0.0
    share_base = base_wins / len(paired) if paired else 0.0
    worse_by = ((new_med - base_med) if lower else (base_med - new_med)) / abs(base_med) \
        if base_med else 0.0
    bound = meta.get("bound")
    if share_new >= 0.9 and abs(new_med - base_med) > base_q3 - base_q1:
        label = "gain"
    elif bound is None:
        label = "ok"
    elif worse_by > bound:
        label = "REGRESSION"
    elif base_med and (base_q3 - base_q1) / abs(base_med) > bound and not (
            all(better(n, b) for n in new_vals for b in base_vals)
            or all(better(b, n) for n in new_vals for b in base_vals)):
        label = "unresolved"
    else:
        label = "ok"
    return share_new, share_base, worse_by, label


def show_two(base_runs, new_runs, metrics):
    regressions = 0
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        base, new = base_runs[key], new_runs[key]
        print(f"\n{workload} (trace {trace}): base {len(base)} runs, new {len(new)} runs")
        print(f"  {'metric':44s} {'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
              f"{'worse':>7s} {'new wins':>8s} {'base wins':>9s}  verdict")
        names = sorted({n for _, m in base for n in m} & {n for _, m in new for n in m})
        for name in names:
            base_series = [(s, m[name]) for s, m in base if name in m]
            new_series = [(s, m[name]) for s, m in new if name in m]
            base_vals = [v for _, v in base_series]
            new_vals = [v for _, v in new_series]
            meta = metrics.get(name, {})
            share_new, share_base, worse_by, label = verdict(
                meta, base_vals, new_vals, pairs(base_series, new_series))
            if label == "REGRESSION":
                regressions += 1
            bm, bq1, bq3 = summary(base_vals)
            nm, nq1, nq3 = summary(new_vals)
            print(f"  {name:44s} {bm:11.5g} [{bq1:9.5g}, {bq3:9.5g}] "
                  f"{nm:11.5g} [{nq1:9.5g}, {nq3:9.5g}] {worse_by:+7.1%} "
                  f"{share_new:8.0%} {share_base:9.0%}  {label}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    metrics = describe(json.loads(Path(args.benchmark).read_text()))
    base = load(args.base)
    if args.new is None:
        show_one(base, metrics)
        return 0
    return 1 if show_two(base, load(args.new), metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
