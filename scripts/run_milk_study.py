#!/usr/bin/env python3
"""Benchmark tables on the bundled monthly dairy-production series.

For each horizon n: tune (p, k) on the training block, report the tuned
optimum, test-block MAPE for the nearest-neighbor forecaster and the
seasonal-naive baseline, then backtest region coverage and width at several
confidence levels, overall and per component.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import cpwnn as cw
from cpwnn.cli import load_csv

DEFAULT_CSV = Path(__file__).resolve().parent.parent / "data" / "milk_uk_monthly.csv"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", type=Path, default=DEFAULT_CSV)
    parser.add_argument("--horizons", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--confidences", type=float, nargs="+", default=[0.90, 0.92, 0.95])
    parser.add_argument("--weighting", default="inverse-distance",
                        choices=[w.value for w in cw.Weighting])
    args = parser.parse_args()

    series = load_csv(args.input, "value", 12)
    print(f"series: {len(series)} monthly observations from {args.input.name}")

    for n in args.horizons:
        base_split = cw.split_sizes(len(series), n, 1.0 - args.confidences[0])
        train = cw.TimeSeries(series.values[: len(series) - n * base_split.i2], period=12)
        tuned = cw.fpto_tune(train, n, base_split.i1, weighting=args.weighting)
        config = cw.HorizonConfig(n, tuned.p_star, tuned.k_star)
        specs = [
            cw.ForecasterSpec.wnn(config, args.weighting),
            cw.ForecasterSpec.seasonal_naive(series.period),
        ]
        print(f"\nn={n}: tuned (p*, k*) = ({tuned.p_star}, {tuned.k_star}), "
              f"i1={base_split.i1}, i2={base_split.i2}")
        print(f"{'method':<32} {'MAPE':>7} " +
              " ".join(f"{f'cov@{c:.0%}':>9}" for c in args.confidences))
        rows = {}
        for conf in args.confidences:
            split = cw.split_sizes(len(series), n, 1.0 - conf)
            for result in cw.compare_forecasters(series, specs, n, split):
                rows.setdefault(result.spec.describe(), {"mape": result.mape})[conf] = result
        for method, cells in rows.items():
            coverages = " ".join(
                f"{cells[c].report.overall_coverage:>9.2f}" if cells[c].report else f"{'err':>9}"
                for c in args.confidences
            )
            print(f"{method:<32} {cells['mape']:>7.4f} {coverages}")

        print(f"{'component':<12} " + " ".join(
            f"{f'mean@{c:.0%}':>9} {f'med@{c:.0%}':>9} {f'cov@{c:.0%}':>9}"
            for c in args.confidences
        ))
        wnn_reports = {c: rows[specs[0].describe()][c].report for c in args.confidences}
        for j in range(n):
            cells = " ".join(
                f"{wnn_reports[c].mean_width[j]:>9.3f} {wnn_reports[c].median_width[j]:>9.3f} "
                f"{wnn_reports[c].component_coverage[j]:>9.2f}"
                for c in args.confidences
            )
            print(f"{f'j={j + 1}':<12} {cells}")


if __name__ == "__main__":
    main()
