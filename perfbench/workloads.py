"""The benchmark's three workloads: inputs made from a seed, one op, its checks.

Each workload is an endless, deterministic sequence of ops numbered 0, 1, ...
`op(i)` builds op i's inputs (outside any timing), `run(op)` is the timed
call into cpwnn, and `check(op, out)` returns the problems found in its
output (an empty list when it is correct). Ops come in rounds of
`round_size` that cover every kind of op once, so a run that ends on a round
boundary always has the same mix.

cpwnn is reached only through its public functions and its CLI, looked up as
module attributes at call time so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cpwnn import backtest, cli, conformal, etssim, wnn
from cpwnn.series import HorizonConfig, TimeSeries, split_sizes

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
MILK = "data/milk_uk_monthly.csv"
DEFAULT_SEED = 1
GOLDEN_RTOL = 1e-9
CHILD_TIMEOUT_S = 120

# Bound before the tracer can wrap them, so that checks are neither traced
# nor counted.
_wnn_forecast = wnn.wnn_forecast
_theoretical_width = etssim.theoretical_width
_run_backtest = backtest.run_backtest


def _test_block_mape(series: TimeSeries, config: HorizonConfig, split, weighting) -> float:
    """Test-block MAPE of the WNN backtest, as `cpwnn compare` reports it.

    check_cp returns only the report, so the quality figures repeat its
    backtest through run_backtest, after the op and outside its timing.
    """
    spec = wnn.ForecasterSpec.wnn(config, weighting)
    return _run_backtest(series, spec, config.n, split)[1]


class Op:
    def __init__(self, index: int, kind: str, scope, inputs: dict):
        self.index = index
        self.kind = kind
        self.scope = scope  # what refits may be shared across (see spans.Tracer)
        self.inputs = inputs


def _finite_nonneg(name: str, values) -> list[str]:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        return [f"{name} not finite and non-negative: {arr.tolist()}"]
    return []


def _coverage_ok(name: str, value: float) -> list[str]:
    return [] if 0.0 <= value <= 100.0 else [f"{name} {value} outside [0, 100]"]


def _golden_diff(want: dict, got: dict) -> list[str]:
    problems = []
    for key, expected in want.items():
        actual = got[key]
        if isinstance(expected, int):
            same = actual == expected
        else:
            same = np.allclose(actual, expected, rtol=GOLDEN_RTOL, atol=0.0)
        if not same:
            problems.append(f"golden {key}: got {actual}, recorded {expected}")
    return problems


def _load_goldens() -> dict:
    if not GOLDENS.exists():  # only while record_goldens.py makes the file
        return {"seed": DEFAULT_SEED, "sim_study": [], "scoring_long": [], "cli_milk": {}}
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


class _LibraryWorkload:
    """Shared golden handling of the two in-process workloads."""

    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        recorded = _load_goldens()
        self.goldens = (
            recorded[self.name] if seed == recorded["seed"] and not tiny else []
        )

    def golden_problems(self, op: Op, out: dict) -> list[str]:
        if op.index >= len(self.goldens):
            return []
        return _golden_diff(self.goldens[op.index], self.record(out))


class SimStudy(_LibraryWorkload):
    """One op: simulate, tune (p, k), backtest, build the region, oracle widths.

    The scenarios and settings are those of scripts/run_simulation_study.py
    (n=3, 95%).
    """

    name = "sim_study"
    round_size = 4
    N = 3
    CONFIDENCE = 0.95
    SCENARIOS = [
        ("ana-300", etssim.ana_params(0.5, 0.2), 300),
        ("ana-400", etssim.ana_params(0.8, 0.4), 400),
        ("aada-300", etssim.aada_params(0.7, 0.3, 0.2, 0.82), 300),
        ("aada-400", etssim.aada_params(0.8, 0.2, 0.1, 0.9), 400),
    ]

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.quality_ops = 4 if tiny else 200
        self.trace_ops = 4 if tiny else 8

    def setup(self) -> None:
        self.op(0)

    def op(self, i: int) -> Op:
        name, params, T = self.SCENARIOS[i % len(self.SCENARIOS)]
        inputs = {"params": params, "T": T, "sim_seed": self.seed * 100_000 + i}
        return Op(i, name, i, inputs)

    def run(self, op: Op) -> dict:
        n, confidence = self.N, self.CONFIDENCE
        delta = 1.0 - confidence
        params, T = op.inputs["params"], op.inputs["T"]
        series = etssim.simulate_ets(params, T, op.inputs["sim_seed"])
        split = split_sizes(T, n, delta)
        train = TimeSeries(series.values[: T - n * split.i2], period=series.period)
        tuned = wnn.fpto_tune(train, n, split.i1)
        config = HorizonConfig(n, tuned.p_star, tuned.k_star)
        report = backtest.check_cp(series, config, split)
        region = conformal.conformal_region(series, config, split.i1 + split.i2, delta)
        theory = [etssim.theoretical_width(params, h, confidence) for h in range(1, n + 1)]
        return {
            "series": series,
            "tuned": tuned,
            "config": config,
            "split": split,
            "report": report,
            "region": region,
            "theory": np.array(theory),
        }

    @staticmethod
    def record(out: dict) -> dict:
        tuned, report, region = out["tuned"], out["report"], out["region"]
        return {
            "p_star": tuned.p_star,
            "k_star": tuned.k_star,
            "objective": tuned.objective,
            "coverage": report.overall_coverage,
            "center": region.center.tolist(),
            "half_widths": region.half_widths.tolist(),
            "theory": out["theory"].tolist(),
        }

    def check(self, op: Op, out: dict) -> list[str]:
        tuned, report, region = out["tuned"], out["report"], out["region"]
        problems = []
        best = min(m for _, _, m in tuned.trace)
        if tuned.objective != best or (tuned.p_star, tuned.k_star, best) not in tuned.trace:
            problems.append(f"tune objective {tuned.objective} is not the trace minimum {best}")
        center = _wnn_forecast(out["series"], out["config"])
        if not np.array_equal(region.center, center):
            problems.append("region center differs from wnn_forecast")
        problems += _finite_nonneg("region half-widths", region.half_widths)
        problems += _finite_nonneg("backtest half-widths", report.half_widths)
        problems += _coverage_ok("coverage", report.overall_coverage)
        if not np.all(out["theory"] > 0.0):
            problems.append(f"theoretical widths not positive: {out['theory'].tolist()}")
        return problems + self.golden_problems(op, out)

    @staticmethod
    def quality(op: Op, out: dict) -> dict:
        region = out["region"]
        return {
            "coverage_pct": out["report"].overall_coverage,
            "width_ratio": float(np.mean(2.0 * region.half_widths / out["theory"])),
            "test_mape": _test_block_mape(
                out["series"], out["config"], out["split"], "inverse-distance"
            ),
        }


class ScoringLong(_LibraryWorkload):
    """One op: backtest and region at one confidence level, fixed (p, k), long series.

    No tuning runs, so prefix refits and rank selection do all the work. A
    round is four fresh series, one per (n, weighting) pair, each at three
    levels. Every window is one season long (n*p = 12). The n=6 series are
    sqrt(6) times longer than the n=1 ones: refits number about 0.72*T/n and
    each scans T windows, so the two kinds of op cost about the same and the
    op-time median does not fall into a gap between them.
    """

    name = "scoring_long"
    LEVELS = (0.8, 0.9, 0.95)
    # (n, p, k, weighting, length, tiny length)
    JOBS = (
        (1, 12, 5, "inverse-distance", 2000, 300),
        (6, 2, 5, "uniform", 4900, 720),
        (1, 12, 5, "uniform", 2000, 300),
        (6, 2, 5, "inverse-distance", 4900, 720),
    )
    PARAMS = etssim.aada_params(0.5, 0.1, 0.2, 0.9, init_level=1000.0)
    round_size = len(JOBS) * len(LEVELS)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.quality_ops = self.round_size if tiny else 6 * self.round_size
        self.trace_ops = self.round_size
        self._series: dict[int, TimeSeries] = {}
        self._mape: dict[int, float] = {}  # per series: every level has the same test block

    def setup(self) -> None:
        for i in range(0, self.round_size, len(self.LEVELS)):
            self.op(i)

    def _make_series(self, index: int, length: int) -> TimeSeries:
        if index not in self._series:
            if len(self._series) > 2 * len(self.JOBS):
                self._series.pop(min(self._series))
            self._series[index] = etssim.simulate_ets(
                self.PARAMS, length, self.seed * 100_000 + index
            )
        return self._series[index]

    def op(self, i: int) -> Op:
        index = i // len(self.LEVELS)  # one series per job, three levels each
        n, p, k, weighting, length, tiny_length = self.JOBS[index % len(self.JOBS)]
        series = self._make_series(index, tiny_length if self.tiny else length)
        inputs = {
            "series": series,
            "config": HorizonConfig(n, p, k),
            "weighting": weighting,
            "confidence": self.LEVELS[i % len(self.LEVELS)],
        }
        return Op(i, f"n{n}-{weighting}", index, inputs)

    def run(self, op: Op) -> dict:
        series, config = op.inputs["series"], op.inputs["config"]
        weighting = op.inputs["weighting"]
        delta = 1.0 - op.inputs["confidence"]
        split = split_sizes(len(series), config.n, delta)
        report = backtest.check_cp(series, config, split, weighting)
        region = conformal.conformal_region(
            series, config, split.i1 + split.i2, delta, weighting
        )
        return {"split": split, "report": report, "region": region}

    @staticmethod
    def record(out: dict) -> dict:
        report, region = out["report"], out["region"]
        return {
            "coverage": report.overall_coverage,
            "mean_width": report.mean_width.tolist(),
            "center": region.center.tolist(),
            "half_widths": region.half_widths.tolist(),
        }

    def check(self, op: Op, out: dict) -> list[str]:
        report, region = out["report"], out["region"]
        problems = []
        center = _wnn_forecast(op.inputs["series"], op.inputs["config"], op.inputs["weighting"])
        if not np.array_equal(region.center, center):
            problems.append("region center differs from wnn_forecast")
        problems += _finite_nonneg("region half-widths", region.half_widths)
        problems += _finite_nonneg("backtest half-widths", report.half_widths)
        problems += _coverage_ok("coverage", report.overall_coverage)
        return problems + self.golden_problems(op, out)

    def quality(self, op: Op, out: dict) -> dict:
        region = out["region"]
        confidence = op.inputs["confidence"]
        theory = np.array(
            [_theoretical_width(self.PARAMS, h, confidence) for h in range(1, region.n + 1)]
        )
        if op.scope not in self._mape:
            self._mape[op.scope] = _test_block_mape(
                op.inputs["series"], op.inputs["config"], out["split"], op.inputs["weighting"]
            )
        return {
            "coverage_pct": out["report"].overall_coverage,
            "width_ratio": float(np.mean(2.0 * region.half_widths / theory)),
            "test_mape": self._mape[op.scope],
        }


def cli_calls(seed: int) -> list[tuple[str, list[str]]]:
    """The CLI rotation, as (kind, argv) pairs."""
    common = ["--input", MILK, "--no-timestamp"]
    return [
        ("tune", ["tune", "--n", "3", "--format", "json", *common]),
        ("forecast", ["forecast", "--n", "3", "--confidence", "0.9", "--confidence", "0.95",
                      "--format", "csv", *common]),
        ("check", ["check", "--n", "3", "--confidence", "0.8", "--confidence", "0.9",
                   "--confidence", "0.95", "--format", "json", *common]),
        ("compare", ["compare", "--n", "1", "--confidence", "0.9", "--confidence", "0.95",
                     "--format", "json", *common]),
        ("simulate", ["simulate", "--model", "aada", "--length", "300", "--seed", str(seed)]),
    ]


class CliMilk:
    """One op: one `python -m cpwnn.cli` process on the milk series.

    The seed picks where the rotation starts and the seed of `simulate`. The
    traced run calls `cpwnn.cli.main(argv)` in-process instead (see
    `run_in_process`).
    """

    name = "cli_milk"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.calls = cli_calls(seed)
        self.round_size = len(self.calls)
        self.quality_ops = self.round_size
        self.trace_ops = self.round_size
        recorded = _load_goldens()
        self.goldens = dict(recorded[self.name])
        if seed != recorded["seed"]:
            self.goldens.pop("simulate", None)

    def setup(self) -> None:
        cli.load_csv(ROOT / MILK)

    def op(self, i: int) -> Op:
        kind, argv = self.calls[(i + self.seed) % len(self.calls)]
        return Op(i, kind, i, {"argv": argv})

    def run(self, op: Op) -> dict:
        proc = subprocess.run(
            [sys.executable, "-m", "cpwnn.cli", *op.inputs["argv"]],
            cwd=ROOT,
            env=os.environ,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    @staticmethod
    def run_in_process(op: Op) -> dict:
        buffer = io.StringIO()
        with contextlib.chdir(ROOT), contextlib.redirect_stdout(buffer):
            code = cli.main(op.inputs["argv"])
        return {"code": code, "stdout": buffer.getvalue().encode("utf-8"), "stderr": b""}

    @staticmethod
    def digest(out: dict) -> str:
        return hashlib.sha256(out["stdout"]).hexdigest()

    def check(self, op: Op, out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['stderr'].decode(errors='replace')[-500:]}"]
        problems = []
        want = self.goldens.get(op.kind)
        if want is not None and self.digest(out) != want:
            problems.append(f"{op.kind} output differs from the recorded golden")
        text = out["stdout"].decode("utf-8")
        try:
            problems += getattr(self, f"_check_{op.kind}")(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{op.kind} output does not parse: {exc!r}")
        return problems

    @staticmethod
    def _check_tune(text: str) -> list[str]:
        results = json.loads(text)["results"]
        best = min(cell["mape"] for cell in results["trace"])
        if results["objective"] != best:
            return [f"tune objective {results['objective']} is not the trace minimum {best}"]
        return []

    @staticmethod
    def _check_forecast(text: str) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = [] if len(rows) == 6 else [f"forecast has {len(rows)} rows, expected 6"]
        for row in rows:
            problems += _finite_nonneg("half-width", float(row["half_width"]))
            if not float(row["lower"]) <= float(row["center"]) <= float(row["upper"]):
                problems.append(f"center outside its interval: {row}")
        return problems

    @staticmethod
    def _check_check(text: str) -> list[str]:
        problems = []
        for level in json.loads(text)["results"]["levels"]:
            report = level["report"]
            problems += _finite_nonneg("half-widths", report["half_widths"])
            problems += _coverage_ok("coverage", report["overall_coverage"])
        return problems

    @staticmethod
    def _check_compare(text: str) -> list[str]:
        problems = []
        for level in json.loads(text)["results"]["levels"]:
            for method in level["methods"]:
                if method["error"] is not None:
                    problems.append(f"{method['method']} failed: {method['error']}")
                    continue
                problems += _finite_nonneg("mape", method["mape"])
                problems += _finite_nonneg("half-widths", method["report"]["half_widths"])
                problems += _coverage_ok("coverage", method["report"]["overall_coverage"])
        return problems

    @staticmethod
    def _check_simulate(text: str) -> list[str]:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["t", "value"] or len(rows) != 301:
            return [f"simulate wrote header {rows[0]} and {len(rows) - 1} rows"]
        values = np.array([float(value) for _, value in rows[1:]])
        return [] if np.all(np.isfinite(values)) else ["simulate wrote non-finite values"]

    @staticmethod
    def quality(op: Op, out: dict) -> dict:
        """Coverage from `check` and `compare`; widths and MAPE from `compare`.

        Milk has no closed-form oracle, so its width ratio is the tuned
        forecaster's mean backtest width over the seasonal-naive baseline's.
        """
        if op.kind not in ("check", "compare"):
            return {}
        levels = json.loads(out["stdout"])["results"]["levels"]
        if op.kind == "check":
            return {"coverage_pct": float(np.mean([lv["report"]["overall_coverage"] for lv in levels]))}
        wnn_runs = [lv["methods"][0] for lv in levels]
        naive_runs = [lv["methods"][1] for lv in levels]
        ratios = [
            np.mean(a["report"]["mean_width"]) / np.mean(b["report"]["mean_width"])
            for a, b in zip(wnn_runs, naive_runs)
        ]
        return {
            "coverage_pct": float(np.mean([m["report"]["overall_coverage"] for m in wnn_runs])),
            "width_ratio": float(np.mean(ratios)),
            "test_mape": float(np.mean([m["mape"] for m in wnn_runs])),
        }


WORKLOADS = {w.name: w for w in (SimStudy, ScoringLong, CliMilk)}


def make(name: str, seed: int, tiny: bool = False):
    return WORKLOADS[name](seed, tiny)


def quality_summary(samples: list[dict]) -> dict:
    """Each quality figure over the ops that report it.

    Coverage and width ratio are means. MAPE is the mean of the middle 60%
    of the per-op values: a simulated path that wanders near zero gives one
    op a MAPE in the hundreds, which would swamp a plain mean.
    """
    summary = {}
    for name, average in (("coverage_pct", np.mean), ("width_ratio", np.mean),
                          ("test_mape", _trimmed_mean)):
        values = [sample[name] for sample in samples if name in sample]
        if values:
            summary[name] = float(average(values))
    return summary


def _trimmed_mean(values: list[float], share: float = 0.2) -> float:
    cut = int(len(values) * share)
    return float(np.mean(np.sort(values)[cut : len(values) - cut]))
