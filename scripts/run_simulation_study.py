#!/usr/bin/env python3
"""Region widths and coverage on simulated smoothing models, many seeds.

For each scenario (smoothing model x sample size) and seed: simulate, tune (p, k)
on the training block, backtest coverage over the held-out block, and build
the final region for the next n values. Prints mean region widths per step
against the exact theoretical widths, plus mean backtest coverage.
"""

from __future__ import annotations

import argparse

import numpy as np

import cpwnn as cw

SCENARIOS = [
    ("ana T=300", cw.ana_params(0.5, 0.2), 300),
    ("ana T=400", cw.ana_params(0.8, 0.4), 400),
    ("aada T=300", cw.aada_params(0.7, 0.3, 0.2, 0.82), 300),
    ("aada T=400", cw.aada_params(0.8, 0.2, 0.1, 0.9), 400),
]


def run_scenario(params, T, n, delta, seeds, weighting):
    theoretical = np.array(
        [cw.theoretical_width(params, h, 1.0 - delta) for h in range(1, n + 1)]
    )
    widths, coverages = [], []
    for seed in seeds:
        series = cw.simulate_ets(params, T, seed)
        split, config, _ = cw.split_and_tune(series, n, delta, weighting=weighting)
        report = cw.check_cp(series, config, split, weighting)
        region = cw.conformal_region(series, config, split.i1 + split.i2, delta, weighting)
        widths.append(2.0 * region.half_widths)
        coverages.append(report.overall_coverage)
    return theoretical, np.mean(widths, axis=0), float(np.mean(coverages))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="seeds per scenario")
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--confidence", type=float, default=0.95)
    parser.add_argument("--weighting", default="inverse-distance",
                        choices=[w.value for w in cw.Weighting])
    args = parser.parse_args()

    delta = 1.0 - args.confidence
    print(f"n={args.n}, confidence={args.confidence}, seeds per scenario={args.seeds}, "
          f"weighting={args.weighting}")
    print(f"{'scenario':<12} {'h':>2} {'theoretical':>12} {'mean empirical':>15} {'ratio':>7}")
    for name, params, T in SCENARIOS:
        theoretical, empirical, coverage = run_scenario(
            params, T, args.n, delta, range(args.seeds), args.weighting
        )
        for h, (tw, ew) in enumerate(zip(theoretical, empirical), start=1):
            print(f"{name:<12} {h:>2} {tw:>12.3f} {ew:>15.3f} {ew / tw:>7.3f}")
        print(f"{name:<12}    mean backtest coverage {coverage:.2f}%")


if __name__ == "__main__":
    main()
