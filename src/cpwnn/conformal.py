"""Nonconformity scores and product prediction regions.

Scoring the step that ends at t means refitting the forecaster on the
observations before t only and taking the componentwise |actual - forecast|
over the n values that follow; every score therefore reflects a forecaster
refit on its own prefix (no lookahead). The h most recent steps are scored,
t = T-h*n, ..., T-2n, T-n. `score_rows` owns that window: it lays out the
steps and forecasts every step plus the n unseen values after T with one
`forecast_at` call of the spec (`WnnSpec` or `SeasonalNaiveSpec`), for the
calibration scores here and the backtest in `backtest`, and returns
(forecasts, actual, scores). It owns the scores too: they are computed and
checked once per entry, next to the forecasts, and one that overflows
raises DataError. `forecast_at` raises `SeriesTooShortError` when the
earliest prefix holds fewer than the spec's `min_history` observations.
`kth_largest` selects the region's rank over the score rows; the rank and
its feasibility come from `series`.

Scores do not depend on the significance level, only the rank does, so the
forecasts and their scores are computed once per (series, spec, n), for the
largest h asked so far, and every later call on that series (another level,
the backtest, the region) reads the trailing rows of that entry. An entry
holds (2h+1)*n floats for as long as its series lives.

The region for the next n unseen values is symmetric about the point
forecast, the row at end T; component j's half-width is the s-th largest of
that column's calibration scores with s = floor(delta*(h+1)).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidParamsError, SeriesTooShortError
from .series import (
    HorizonConfig, TimeSeries, _feasible_rank, _floats, _freeze, _instance, _open_unit,
    _positive_int,
)
from .wnn import ForecasterSpec, Weighting

# Per series, per (spec, n): the read-only forecasts at ends T-h*n, ..., T-n, T
# and the finite scores of the first h, for the largest h scored so far.
# TimeSeries freezes its own copy of the values, so an entry never goes stale,
# and it dies with its series. Entries are pure functions of their key:
# threads racing on one can only repeat work, never read a wrong row.
_FORECASTS: weakref.WeakKeyDictionary[TimeSeries, dict[tuple[ForecasterSpec, int], tuple]]
_FORECASTS = weakref.WeakKeyDictionary()


def score_rows(
    series: TimeSeries, spec: ForecasterSpec, n: int, h: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score the h most recent steps, t = T-h*n, ..., T-n, oldest first.

    Returns (forecasts, actual, scores). forecasts has h+1 rows: the
    forecast of values[t : t+n] made from values[:t] alone for each t, then
    the forecast of the n values after T from the whole series. actual holds
    the h realized rows and scores their |actual - forecasts[:-1]|, all three
    read-only views; a score that overflows raises DataError and stores no
    entry. h*n above the series length raises SeriesTooShortError. The
    earliest prefix must hold spec.min_history observations: `forecast_at`
    checks that, and a stored entry is for a larger h.
    """
    h = _positive_int("h", h)
    n = _positive_int("n", n)
    values = _instance("series", series, TimeSeries).values
    _instance("spec", spec, ForecasterSpec)
    if h * n > values.size:
        raise SeriesTooShortError(f"series of length {values.size} is shorter than h*n = {h * n}")
    ends = values.size - n * np.arange(h, -1, -1)
    entries = _FORECASTS.setdefault(series, {})
    entry = entries.get((spec, n))
    if entry is None or len(entry[1]) < h:
        forecasts = spec.forecast_at(series, ends, n)
        with np.errstate(over="ignore"):
            scores = np.abs(values[ends[0] :].reshape(h, n) - forecasts[:-1])
        if not np.all(np.isfinite(scores)):
            raise DataError("a score |actual - forecast| overflows; rescale the series")
        entry = entries[spec, n] = (_freeze(forecasts), _freeze(scores))
    forecasts, scores = entry
    return forecasts[-(h + 1) :], values[ends[0] :].reshape(h, n), scores[-h:]


def kth_largest(rows: np.ndarray, s: int) -> np.ndarray:
    """Per column, the s-th largest entry of the rows (s = 1 is the maximum)."""
    return np.partition(rows, -s, axis=0)[-s]


@dataclass(frozen=True, eq=False)
class PredictionRegion:
    """Product of per-step symmetric intervals around the point forecast.

    Intervals are notated open; coverage is counted with the closed
    comparison |y - center| <= half_width.
    """

    center: np.ndarray
    half_widths: np.ndarray
    delta: float
    rank: int

    def __post_init__(self):
        center = _floats("center values", self.center)
        half = _floats("half-widths", self.half_widths)
        if center.ndim != 1 or center.shape != half.shape:
            raise InvalidParamsError("center and half_widths must be 1-D and congruent")
        if not np.all(np.isfinite(half)) or np.any(half < 0.0):
            raise InvalidParamsError("half-widths must be finite and non-negative")
        if not np.all(np.isfinite(center)):
            raise InvalidParamsError("center values must be finite")
        _open_unit("delta", self.delta)
        object.__setattr__(self, "rank", _positive_int("rank", self.rank))
        object.__setattr__(self, "center", _freeze(center))
        object.__setattr__(self, "half_widths", _freeze(half))

    @property
    def n(self) -> int:
        return int(self.center.size)

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_widths

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_widths

    def to_dict(self) -> dict:
        return {
            "center": self.center.tolist(),
            "half_widths": self.half_widths.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "delta": self.delta,
            "rank": self.rank,
        }


def conformal_region(
    series: TimeSeries,
    config: HorizonConfig,
    h: int,
    delta: float,
    weighting: Weighting | str = Weighting.INVERSE_DISTANCE,
) -> PredictionRegion:
    """Region for the next n values, calibrated on the h most recent pair scores.

    The center is the forecast from the whole series. Component j's
    half-width is the rank-th largest score in column j,
    rank = floor(delta*(h+1)); the rank must be >= 1 for the region to exist.
    """
    s = _feasible_rank(delta, h)
    spec = ForecasterSpec.wnn(config, weighting)
    forecasts, _, scores = score_rows(series, spec, config.n, h)
    half = kth_largest(scores, s)
    return PredictionRegion(center=forecasts[-1], half_widths=half, delta=float(delta), rank=s)
