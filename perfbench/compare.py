#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories (or single files) of result records written
by run.py to perfbench/out/. For every workload, trace mode and metric, it
prints each side's median and quartiles, the fraction of paired runs the
change wins (runs are paired by seed when both sides share seeds, otherwise
in seed order), and a verdict:

- gain: the change wins at least 9 in 10 pairs (ties count for neither) and
  the medians differ by more than the base's interquartile distance;
- regression: the change's median is worse than the base's by more than the
  metric's bound from BENCHMARK.json;
- unresolved: the base's own spread exceeds the bound, so no regression can
  be ruled out, unless every change run is better than every base run;
- same: none of the above.

Per-layer metrics have no bound; they get gain, loss or same.
Comparing two sets of runs of the same code shows whether the benchmark is
steady: every end-to-end metric should read "same" with spreads below its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from result records."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    runs: dict = defaultdict(dict)
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if "result" not in record or record.get("tiny"):
            continue
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs[(record["workload"], record["trace"])][record["seed"]] = metrics
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float | None) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    moved = abs(c_med - b_med) > b_q3 - b_q1
    if wins >= GAIN_WIN_SHARE * len(pairs) and moved and sign * (c_med - b_med) > 0:
        word = "gain"
    elif bound is None:
        lost = losses >= GAIN_WIN_SHARE * len(pairs) and moved
        word = "loss" if lost else "same"
    else:
        scale = abs(b_med) or 1.0
        worse = -sign * (c_med - b_med) / scale
        all_better = all(sign * (c - b) > 0 for c in change for b in base)
        if (b_q3 - b_q1) / scale > bound and not all_better:
            word = "unresolved"
        elif worse > bound:
            word = "REGRESSION"
        else:
            word = "same"
    return wins, len(pairs), word


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    regressions = 0
    for key in sorted(set(base) & set(change)):
        b_runs, c_runs = base[key], change[key]
        shared = sorted(set(b_runs) & set(c_runs))
        b_seeds = shared or sorted(b_runs)
        c_seeds = shared or sorted(c_runs)
        print(f"\n{key[0]} (trace {key[1]}): {len(b_seeds)} base runs, {len(c_seeds)} change runs"
              + (" paired by seed" if shared else " paired in seed order"))
        print(f"  {'metric':<30} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'spread b/c':>13} {'bound':>6} {'wins':>6}  verdict")
        for name, info in metric_spec.items():
            if name not in b_runs[b_seeds[0]] or name not in c_runs[c_seeds[0]]:
                continue
            b_vals = [b_runs[s][name] for s in b_seeds]
            c_vals = [c_runs[s][name] for s in c_seeds]
            bound = info.get("bound")
            wins, pairs, word = verdict(b_vals, c_vals, info["better"], bound)
            regressions += word == "REGRESSION"
            cells = []
            spreads = []
            for vals in (b_vals, c_vals):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
                spreads.append(f"{100 * (q3 - q1) / abs(med):.1f}%" if med else "-")
            bound_text = f"{100 * bound:.0f}%" if bound is not None else "-"
            print(f"  {name:<30} {cells[0]:>34} {cells[1]:>34} {'/'.join(spreads):>13}"
                  f" {bound_text:>6} {wins:>3}/{pairs:<2}  {word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
