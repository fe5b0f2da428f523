"""Online coverage backtest over a held-out block at the end of a series.

Each test step reads the current rank-based half-widths off the calibration
score matrix, then appends its own scores to the matrix, so later steps
calibrate on a strictly larger history (the matrix grows online; there is no
fixed window). A component counts as covered when its absolute error is <=
the half-width recorded for that step.

A step reads only the rank-th largest score of each column, and the rank
never falls as the pool grows, so each column keeps just its `keep` largest
scores, `keep` being the last step's rank: `keep` floats per column instead
of i1+i2, taken from one sort of the calibration block. A score below the
kept minimum can never become a later step's rank-th largest, so the
half-widths equal, bit for bit, those that a sort of the whole pool gives.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import score_rows
from .errors import DataError, ForecastError, InvalidParamsError
from .series import (
    HorizonConfig, SplitSpec, TimeSeries, _feasible_rank, _floats, _mape_rows, rank_for,
)
from .wnn import ForecasterSpec, Weighting


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Backtest outputs: per-step half-widths, 0/1 hits, and every summary, overflow-checked."""

    half_widths: np.ndarray        # i2 x n; row i holds the widths used at test step i
    hits: np.ndarray               # i2 x n; 1 where the step's score was covered
    overall_coverage: float        # percent over all cells
    component_coverage: np.ndarray # percent per horizon component
    mean_width: np.ndarray         # 2 * column means of half_widths
    median_width: np.ndarray       # 2 * column medians of half_widths
    overall_mean_width: float      # mean of mean_width; not in to_dict
    overall_median_width: float    # 2 * median of every half-width; not in to_dict
    config: dict

    @classmethod
    def from_matrices(cls, half_widths, hits, config: dict) -> "CheckReport":
        half = _floats("half-widths", half_widths)
        hit = _floats("hits", hits)
        if half.ndim != 2 or half.shape != hit.shape or not half.size:
            raise InvalidParamsError("half_widths and hits must be congruent 2-D arrays "
                                     "with rows and columns")
        if np.any(half < 0.0) or not np.all(np.isfinite(half)):
            raise InvalidParamsError("half-widths must be finite and non-negative")
        if not ((hit == 0.0) | (hit == 1.0)).all():
            raise InvalidParamsError("hits must be 0 or 1")
        with np.errstate(over="ignore"):
            mean_width = 2.0 * half.mean(axis=0)
            median_width = 2.0 * _median(half, axis=0)
            overall_mean = float(mean_width.mean())
            # With one column, its median is the overall one: sort once.
            whole = median_width[0] if half.shape[1] == 1 else 2.0 * _median(half.ravel())
            overall_median = float(whole)
        if not (np.isfinite(mean_width).all() and np.isfinite(median_width).all()
                and math.isfinite(overall_mean) and math.isfinite(overall_median)):
            raise DataError("a width overflows; rescale the series")
        return cls(
            half_widths=half,
            hits=hit.astype(np.uint8),
            overall_coverage=float(100.0 * hit.sum() / hit.size),
            component_coverage=100.0 * hit.mean(axis=0),
            mean_width=mean_width,
            median_width=median_width,
            overall_mean_width=overall_mean,
            overall_median_width=overall_median,
            config=dict(config),
        )

    def to_dict(self) -> dict:
        return {
            "half_widths": self.half_widths.tolist(),
            "hits": self.hits.tolist(),
            "overall_coverage": self.overall_coverage,
            "component_coverage": self.component_coverage.tolist(),
            "mean_width": self.mean_width.tolist(),
            "median_width": self.median_width.tolist(),
            "config": self.config,
        }


def _median(values, axis=None):
    """np.median's bits from one sort, without the numpy.ma import np.median makes.

    An odd count takes its middle element itself, an even count
    (lo + hi) / 2 of its middle pair; averaging an element with itself would
    overflow near the largest float.
    """
    ordered = np.sort(values, axis=axis)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def backtest_matrices(
    calibration_rows, test_rows, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Run the growing-calibration loop on precomputed score rows.

    At step i the pool holds m = i1+i rows; the recorded half-width per column
    is its rank-th largest entry with rank = rank_for(delta, m). Each column
    keeps only its `keep` largest scores in ascending order, `keep` being the
    last step's rank, padded with -inf while the calibration rows are fewer:
    step i reads entry -rank, and its own score then enters, dropping the
    kept minimum, only if it beats that minimum. Score rows are finite 2-D
    arrays of one width, else InvalidParamsError. Returns (half_widths, hits).
    """
    calib = _floats("calibration rows", calibration_rows)
    test = _floats("test rows", test_rows)
    if calib.ndim != 2 or test.ndim != 2 or test.shape[1] != calib.shape[1]:
        raise InvalidParamsError("calibration and test rows must have the same width and be 2-D")
    (i1, n), i2 = calib.shape, len(test)
    if not (np.isfinite(calib).all() and np.isfinite(test).all()):
        raise InvalidParamsError("score rows must be finite")
    # The rank grows by at most 1 per added row, so the first step decides
    # feasibility.
    _feasible_rank(delta, i1)
    ranks = rank_for(delta, np.arange(i1, i1 + i2)).tolist()  # per step
    keep = max(ranks, default=1)  # the last rank; with no step, any keep >= 1
    half = np.empty((i2, n))
    # Stable: equal scores (0.0 and -0.0) keep their row order on any sort kernel.
    tops = np.sort(calib, axis=0, kind="stable")[-keep:].T.tolist()
    for j, (top, column) in enumerate(zip(tops, test.T.tolist())):
        top[:0] = [-np.inf] * (keep - len(top))  # never read: a step's rank <= m
        low = top[0]
        widths = []
        for rank, score in zip(ranks, column):
            widths.append(top[-rank])
            if score > low:
                insort(top, score)
                del top[0]
                low = top[0]
        half[:, j] = widths
    hits = (test <= half).astype(np.uint8)
    return half, hits


def run_backtest(
    series: TimeSeries, spec: ForecasterSpec, n: int, split: SplitSpec
) -> tuple[CheckReport, float]:
    """Backtest any forecaster spec; returns the report and the test-block MAPE.

    The i1+i2 most recent steps are scored: the first i1 seed the calibration
    pool, the remaining i2 are the test block.
    """
    i1, i2, delta = split.i1, split.i2, split.delta
    forecasts, actual, scores = score_rows(series, spec, n, i1 + i2)
    half, hits = backtest_matrices(scores[:i1], scores[i1:], delta)
    # Both are finite (score_rows checked their differences) and non-empty (i2 >= 1).
    test_mape = _mape_rows(actual[i1:].ravel(), forecasts[i1:-1].ravel())
    config = {
        "forecaster": spec.describe(),
        "n": n,
        "i1": i1,
        "i2": i2,
        "delta": delta,
    } | spec.fields()
    return CheckReport.from_matrices(half, hits, config), float(test_mape)


def check_cp(
    series: TimeSeries,
    config: HorizonConfig,
    split: SplitSpec,
    weighting: Weighting | str = Weighting.INVERSE_DISTANCE,
) -> CheckReport:
    """Backtest the nearest-neighbor forecaster's regions over the test block."""
    report, _ = run_backtest(series, ForecasterSpec.wnn(config, weighting), config.n, split)
    return report


@dataclass(frozen=True, eq=False)
class CompareResult:
    spec: ForecasterSpec
    mape: float | None
    report: CheckReport | None
    error: str | None = None


def compare_forecasters(
    series: TimeSeries, specs: Sequence[ForecasterSpec], n: int, split: SplitSpec
) -> list[CompareResult]:
    """Backtest several forecasters side by side; per-spec failures are recorded, not raised."""
    results: list[CompareResult] = []
    for spec in specs:
        try:
            report, test_mape = run_backtest(series, spec, n, split)
        except ForecastError as exc:
            results.append(CompareResult(spec, None, None, error=str(exc)))
        else:
            results.append(CompareResult(spec, test_mape, report))
    return results
