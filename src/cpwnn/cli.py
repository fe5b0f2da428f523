"""Command-line front end: CSV in, tuned forecasts / regions / backtests out.

Subcommands: tune | forecast | check | compare | simulate. User-facing flags
take confidence levels (e.g. 0.95); internally the significance level is
delta = 1 - confidence. Exit codes: 0 success, 2 usage error, 3 data error,
4 infeasible configuration.

Each of tune, forecast, check and compare computes one result model, the
(config, results) pair that the JSON report holds, each backtest as its
CheckReport; the text and CSV renderers only format it. No analysis
draws random numbers, so none takes --seed and provenance's seed is null.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import __version__
from .backtest import CheckReport, check_cp, compare_forecasters
from .conformal import conformal_region
from .errors import (
    ColumnNotFoundError,
    ConfigError,
    CsvParseError,
    DataError,
)
from .etssim import EtsParams, simulate_ets
from .series import HorizonConfig, TimeSeries, _instance, split_sizes
from .wnn import DEFAULT_GRID, ForecasterSpec, Weighting, fpto_tune, split_and_tune

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INFEASIBLE = 4

DEFAULT_CONFIDENCE = 0.95


# ---------------------------------------------------------------------------
# CSV input / output


def load_csv(path, column="value", period: int = 12) -> TimeSeries:
    """Read one numeric column into a TimeSeries.

    column is a header name, or a digit string giving a 0-based column index;
    a column that is not a string is InvalidParamsError.
    """
    _instance("column", column, str)
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, newline="", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    # a spreadsheet export may start with a UTF-8 byte-order mark
    rows = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    if not rows:
        raise CsvParseError("empty file (expected a header row)")
    header = [cell.strip() for cell in rows[0]]
    if column in header:
        index = header.index(column)
    elif column.isdecimal() and int(column) < len(header):
        index = int(column)
    else:
        raise ColumnNotFoundError(
            f"column {column!r} not found; available columns: {', '.join(header)}"
        )
    values: list[float] = []
    for rownum, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if index >= len(row):
            raise CsvParseError(f"row {rownum}, column {header[index]!r}: missing cell")
        text = row[index].strip()
        try:
            values.append(float(text))
        except ValueError:
            raise CsvParseError(
                f"row {rownum}, column {header[index]!r}: cannot parse {text!r} as a number"
            ) from None
    return TimeSeries(values, period)


def series_to_csv(values: Sequence[float]) -> str:
    """Render a series as a two-column CSV that round-trips float64 exactly."""
    out = io.StringIO()
    out.write("t,value\n")
    for t, v in enumerate(values, start=1):
        out.write(f"{t},{float(v)!r}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Shared workflow pieces


def _described(args: argparse.Namespace, **extra) -> dict:
    """The report's config block: the run's inputs plus command-specific fields."""
    return {
        "command": args.command,
        "input": args.input_path,
        "column": args.column,
        "period": args.period,
        "n": args.n,
        "weighting": args.weighting,
    } | extra


def _load_and_fit(args: argparse.Namespace) -> tuple[TimeSeries, HorizonConfig, dict]:
    """Load the input; fix (p, k) by --p/--k, or by `split_and_tune` at the first level."""
    series = load_csv(args.input_path, args.column, args.period)
    tuned = args.p is None
    if tuned:
        _, config, _ = split_and_tune(series, args.n, 1.0 - args.confidences[0], args.folds,
                                      args.p_grid, args.k_grid, args.weighting)
    else:
        config = HorizonConfig(args.n, args.p, args.k)
    described = _described(
        args, p=config.p, k=config.k, tuned=tuned, confidences=list(args.confidences)
    )
    return series, config, described


def _levels(args: argparse.Namespace, series: TimeSeries):
    """(confidence, split) for each requested level, in the order given."""
    for conf in args.confidences:
        yield conf, split_sizes(len(series), args.n, 1.0 - conf)


# ---------------------------------------------------------------------------
# Commands: each returns (config, results) and has a text and a CSV renderer


def _tune(args: argparse.Namespace) -> tuple[dict, dict]:
    series = load_csv(args.input_path, args.column, args.period)
    folds = args.folds
    if folds is None:
        folds = split_sizes(len(series), args.n, 1.0 - args.confidences[0]).i1
    result = fpto_tune(series, args.n, folds, args.p_grid, args.k_grid, args.weighting)
    config = _described(args, folds=folds, p_grid=list(args.p_grid), k_grid=list(args.k_grid))
    results = {
        "p_star": result.p_star,
        "k_star": result.k_star,
        "objective": result.objective,
        "trace": [{"p": p, "k": k, "mape": m} for p, k, m in result.trace],
        "skipped": [{"p": p, "k": k, "reason": r} for p, k, r in result.skipped],
    }
    return config, results


def _tune_text(config: dict, results: dict) -> list[str]:
    trace = results["trace"]
    lines = [
        f"tuned over {len(trace)} grid cells, {config['folds']} folds",
        f"  p* = {results['p_star']}   k* = {results['k_star']}   "
        f"objective MAPE = {results['objective']:.4f}",
        "best cells:",
    ]
    best5 = sorted(trace, key=lambda cell: cell["mape"])[:5]
    lines.extend(f"  p={c['p']:<3d} k={c['k']:<3d} mape={c['mape']:.4f}" for c in best5)
    if results["skipped"]:
        lines.append(f"skipped {len(results['skipped'])} infeasible cells")
    return lines


def _tune_csv(config: dict, results: dict) -> tuple[tuple, list[tuple]]:
    rows = [(c["p"], c["k"], repr(c["mape"])) for c in results["trace"]]
    return ("p", "k", "mape"), rows


def _forecast(args: argparse.Namespace) -> tuple[dict, dict]:
    series, config, described = _load_and_fit(args)
    regions = []
    for conf, split in _levels(args, series):
        h = split.i1 + split.i2
        region = conformal_region(series, config, h, split.delta, args.weighting)
        regions.append({"confidence": conf, "h": h} | region.to_dict())
    return described, {"center": regions[0]["center"], "regions": regions}


def _forecast_text(config: dict, results: dict) -> list[str]:
    lines = [
        f"point forecast (n={config['n']}, p={config['p']}, k={config['k']}): "
        + ", ".join(f"{v:.4f}" for v in results["center"])
    ]
    for region in results["regions"]:
        lines.append(
            f"{100 * region['confidence']:.1f}% region (delta={region['delta']:.3f}, "
            f"h={region['h']}, rank={region['rank']}):"
        )
        bounds = zip(region["lower"], region["upper"], region["half_widths"])
        lines.extend(
            f"  j={j}: ({lower:.4f}, {upper:.4f})  half-width {half:.4f}"
            for j, (lower, upper, half) in enumerate(bounds, start=1)
        )
    return lines


def _forecast_csv(config: dict, results: dict) -> tuple[tuple, list[tuple]]:
    rows = []
    for region in results["regions"]:
        columns = zip(region["center"], region["lower"], region["upper"], region["half_widths"])
        rows.extend(
            (region["confidence"], j, *(repr(v) for v in values))
            for j, values in enumerate(columns, start=1)
        )
    return ("confidence", "component", "center", "lower", "upper", "half_width"), rows


def _check(args: argparse.Namespace) -> tuple[dict, dict]:
    series, config, described = _load_and_fit(args)
    levels = [
        {
            "confidence": conf,
            "delta": split.delta,
            "i1": split.i1,
            "i2": split.i2,
            "report": check_cp(series, config, split, args.weighting),
        }
        for conf, split in _levels(args, series)
    ]
    return described, {"levels": levels}


def _check_text(config: dict, results: dict) -> list[str]:
    lines = [
        f"coverage backtest: n={config['n']}, forecaster wnn(p={config['p']}, k={config['k']}), "
        f"weighting={config['weighting']}"
    ]
    for level in results["levels"]:
        report = level["report"]
        lines.append(
            f"confidence {100 * level['confidence']:.1f}%  (delta={level['delta']:.3f}, "
            f"i1={level['i1']}, i2={level['i2']})"
        )
        lines.append(f"  overall coverage: {report.overall_coverage:.2f}%")
        lines.append("  j   mean width   median width   coverage%")
        columns = zip(report.mean_width, report.median_width, report.component_coverage)
        lines.extend(
            f"  {j:<3d} {mean:<12.4f} {median:<14.4f} {coverage:.2f}"
            for j, (mean, median, coverage) in enumerate(columns, start=1)
        )
    return lines


def _check_csv(config: dict, results: dict) -> tuple[tuple, list[tuple]]:
    rows = []
    for level in results["levels"]:
        conf, report = level["confidence"], level["report"]
        method = report.config["forecaster"]
        columns = zip(report.mean_width, report.median_width, report.component_coverage)
        rows.extend(
            (conf, method, j, *(repr(float(v)) for v in values))
            for j, values in enumerate(columns, start=1)
        )
        rows.append((conf, method, "overall", repr(report.overall_mean_width),
                     repr(report.overall_median_width), repr(report.overall_coverage)))
    header = ("confidence", "method", "component", "mean_width", "median_width", "coverage")
    return header, rows


def _compare(args: argparse.Namespace) -> tuple[dict, dict]:
    series, config, described = _load_and_fit(args)
    specs = [
        ForecasterSpec.wnn(config, args.weighting),
        ForecasterSpec.seasonal_naive(series.period),
    ]
    levels = [
        {
            "confidence": conf,
            "i1": split.i1,
            "i2": split.i2,
            "methods": [
                {
                    "method": res.spec.describe(),
                    "mape": res.mape,
                    "error": res.error,
                    "report": res.report,
                }
                for res in compare_forecasters(series, specs, args.n, split)
            ],
        }
        for conf, split in _levels(args, series)
    ]
    return described, {"levels": levels}


def _compare_text(config: dict, results: dict) -> list[str]:
    lines = [f"method comparison: n={config['n']}"]
    for level in results["levels"]:
        lines.append(
            f"confidence {100 * level['confidence']:.1f}%  (i1={level['i1']}, i2={level['i2']})"
        )
        width = max([30, *(len(method["method"]) for method in level["methods"])])
        lines.append(f"  {'method':<{width}s} MAPE      coverage%  mean width")
        for method in level["methods"]:
            report = method["report"]
            if report is None:
                lines.append(f"  {method['method']:<{width}s} error: {method['error']}")
                continue
            lines.append(
                f"  {method['method']:<{width}s} {method['mape']:<9.4f} "
                f"{report.overall_coverage:<10.2f} {report.overall_mean_width:.4f}"
            )
    return lines


def _compare_csv(config: dict, results: dict) -> tuple[tuple, list[tuple]]:
    rows = []
    for level in results["levels"]:
        conf = level["confidence"]
        for method in level["methods"]:
            report = method["report"]
            if report is None:
                rows.append((conf, method["method"], "", "", "", f"error: {method['error']}"))
                continue
            rows.append((conf, method["method"], repr(method["mape"]),
                         repr(report.overall_mean_width), repr(report.overall_median_width),
                         repr(report.overall_coverage)))
    return ("confidence", "method", "mape", "mean_width", "median_width", "coverage"), rows


# name: (help, compute, text renderer, CSV renderer)
_ANALYSES = {
    "tune": ("grid-search (p, k) by rolling validation", _tune, _tune_text, _tune_csv),
    "forecast": ("point forecast plus conformal regions",
                 _forecast, _forecast_text, _forecast_csv),
    "check": ("backtest region coverage and width", _check, _check_text, _check_csv),
    "compare": ("tuned WNN vs seasonal-naive side by side",
                _compare, _compare_text, _compare_csv),
}


def _report(args: argparse.Namespace) -> str:
    """Run an analysis command and render its result in the requested format."""
    _, compute, text, table = _ANALYSES[args.command]
    config, results = compute(args)
    if args.output_format == "json":
        provenance: dict = {"seed": None, "version": __version__}
        if not args.no_timestamp:
            provenance["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        doc = {"config": config, "results": results, "provenance": provenance}
        return json.dumps(doc, indent=2, default=CheckReport.to_dict) + "\n"
    if args.output_format == "csv":
        header, rows = table(config, results)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()
    return "\n".join(text(config, results)) + "\n"


def _simulate(args: argparse.Namespace) -> str:
    # --model picks the (beta, phi) preset; ana is the model without trend
    beta, phi = (0.3, 0.82) if args.model == "aada" else (0.0, 0.0)
    params = EtsParams(args.alpha, args.gamma, args.sigma2, args.period,
                       beta if args.beta is None else args.beta,
                       phi if args.phi is None else args.phi,
                       args.init_level, args.init_trend)
    return series_to_csv(simulate_ets(params, args.length, args.seed).values)


# ---------------------------------------------------------------------------
# Argument parsing


def _confidence_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("confidence must lie strictly between 0 and 1")
    return value


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


def _grid_arg(text: str) -> tuple[int, ...]:
    """Parse '1:12' (inclusive range) or '3,5,7' (explicit list)."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a grid (use 'lo:hi' or 'a,b,c')"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} is an empty range (use lo <= hi)")
    if min(values) < 1:
        raise argparse.ArgumentTypeError("grid entries must be positive integers")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpwnn",
        description=(
            "Nearest-neighbor forecasts with conformal prediction regions "
            "and coverage backtesting for univariate seasonal series."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, *_) in _ANALYSES.items():
        # tune has no --p/--k; without abbreviations, --k cannot pass for --k-grid there
        sub = commands.add_parser(name, help=help_text, allow_abbrev=name != "tune")
        sub.add_argument(
            "--input", required=True, dest="input_path", help="CSV path, or - for stdin"
        )
        sub.add_argument("--column", default="value")
        sub.add_argument("--period", type=_positive_int_arg, default=12)
        sub.add_argument("--n", type=_positive_int_arg, default=1)
        if name != "tune":  # tune searches the grid, so a fixed (p, k) means nothing there
            sub.add_argument("--p", type=_positive_int_arg, default=None)
            sub.add_argument("--k", type=_positive_int_arg, default=None)
        sub.add_argument("--p-grid", dest="p_grid", type=_grid_arg, default=DEFAULT_GRID)
        sub.add_argument("--k-grid", dest="k_grid", type=_grid_arg, default=DEFAULT_GRID)
        sub.add_argument("--folds", type=_positive_int_arg, default=None)
        sub.add_argument(
            "--weighting",
            choices=[w.value for w in Weighting],
            default=Weighting.INVERSE_DISTANCE.value,
        )
        sub.add_argument("--confidence", dest="confidences", action="append", type=_confidence_arg)
        sub.add_argument("--format", dest="output_format", choices=("text", "json", "csv"),
                         default="text")
        sub.add_argument("--output", dest="output_path", default=None)
        sub.add_argument("--no-timestamp", action="store_true")
        sub.set_defaults(subparser=sub)

    simulate = commands.add_parser("simulate", help="simulate a seasonal smoothing model to CSV")
    simulate.add_argument("--model", choices=("ana", "aada"), required=True)
    simulate.add_argument("--length", type=_positive_int_arg, required=True)
    simulate.add_argument("--alpha", type=float, default=0.5)
    simulate.add_argument("--beta", type=float, default=None)
    simulate.add_argument("--gamma", type=float, default=0.2)
    simulate.add_argument("--phi", type=float, default=None)
    simulate.add_argument("--sigma2", type=float, default=1.0)
    simulate.add_argument("--period", type=_positive_int_arg, default=12)
    simulate.add_argument("--init-level", dest="init_level", type=float, default=100.0)
    simulate.add_argument("--init-trend", dest="init_trend", type=float, default=1.0)
    simulate.add_argument("--output", dest="output_path", default=None)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(subparser=simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a usage error after parsing prints the subcommand's usage line, as argparse does
    if args.command == "simulate":
        if args.model == "ana" and (args.beta is not None or args.phi is not None):
            args.subparser.error("--beta and --phi only apply to --model aada")
    else:
        if "p" in args and (args.p is None) != (args.k is None):
            args.subparser.error("--p and --k must be given together")
        args.confidences = args.confidences or [DEFAULT_CONFIDENCE]
    try:
        text = _simulate(args) if args.command == "simulate" else _report(args)
        if args.output_path is None or args.output_path == "-":
            sys.stdout.write(text)
        else:
            Path(args.output_path).write_text(text, encoding="utf-8")
        return EXIT_OK
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
