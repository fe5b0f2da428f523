"""Nearest-neighbor forecasting over lagged windows, with grid-search tuning.

The forecaster matches the trailing window of n*p observations against every
historical window of the same length whose next n observations are known,
then averages those continuations over the k closest windows (Euclidean
distance; uniform or inverse-square-distance weights). Equal distances rank
the earlier window first, and k=1 returns the nearest continuation bit-exactly.

Tuning evaluates a (p, k) grid by rolling-origin validation: fold i trains on
everything before the last i*n observations and scores the n observations
that follow. For each p, one neighbor search over all folds finds the
max(k) nearest windows of every fold, and every k of the grid is read from
that one result; one MAPE reduction then scores every k of that p. The search
runs over blocks of queries whose distance matrix has a fixed bound in size.
Forecasts and fold MAPEs are the same bits as one fold at a time. The cell
minimising the mean fold MAPE wins; exact ties go to the first minimum in
p-major, k-minor order (smaller p, then smaller k), so results are
deterministic.

Each forecaster is a frozen spec, `WnnSpec` or the `SeasonalNaiveSpec` baseline,
made by `ForecasterSpec.wnn` or `ForecasterSpec.seasonal_naive`. Its
`forecast_at` is its one refit path: it forecasts from many prefixes (ends) of
one series in one call, which is how `conformal.score_rows` scores every step;
`wnn_forecast` is the one-end case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    GridInfeasibleError,
    HistoryTooShortError,
    InvalidParamsError,
    TooFewCandidatesError,
)
from .series import HorizonConfig, TimeSeries, _mape_rows, _positive_int

# Regularizer for inverse-distance weights: an exact-match neighbor then
# dominates the average instead of dividing by zero.
_WEIGHT_EPS = 1e-8

# Most query-by-candidate distances `_nearest` holds at once (256 KB).
_BLOCK_FLOATS = 1 << 15


class Weighting(str, Enum):
    """Neighbor-averaging scheme."""

    UNIFORM = "uniform"
    INVERSE_DISTANCE = "inverse-distance"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(w.value for w in cls)
        raise InvalidParamsError(f"weighting must be one of {names}, got {value!r}")


class ForecasterSpec:
    """A point forecaster: one frozen type per kind, made by `wnn` or `seasonal_naive`.

    Each kind has `describe()`, `min_history` (the fewest observations a scored
    step's prefix must hold), `fields()` (its report config entries) and
    `forecast_at(values, ends, n)`, the forecasts of values[e : e+n] from
    values[:e] alone, one row per end e; only the shortest end is checked for
    history, as every longer prefix holds at least as much.
    """

    @staticmethod
    def wnn(
        config: HorizonConfig, weighting: Weighting | str = Weighting.INVERSE_DISTANCE
    ) -> "WnnSpec":
        return WnnSpec(config, Weighting(weighting))

    @staticmethod
    def seasonal_naive(period: int) -> "SeasonalNaiveSpec":
        return SeasonalNaiveSpec(_positive_int("period", period))


@dataclass(frozen=True)
class WnnSpec(ForecasterSpec):
    """The weighted nearest-neighbor forecaster at a fixed (n, p, k)."""

    config: HorizonConfig
    weighting: Weighting

    def describe(self) -> str:
        return f"wnn(p={self.config.p}, k={self.config.k}, {self.weighting.value})"

    @property
    def min_history(self) -> int:
        """The window, its n-value continuation and k - 1 more for k candidates."""
        return self.config.window + self.config.n + self.config.k - 1

    def fields(self) -> dict:
        return {"p": self.config.p, "k": self.config.k, "weighting": self.weighting.value}

    def forecast_at(self, values: np.ndarray, ends, n: int) -> np.ndarray:
        ends = np.asarray(ends)
        shortest = int(ends.min())
        config = self.config
        if config.n != n:
            raise InvalidParamsError(f"forecaster is configured for n={config.n}, asked for n={n}")
        window = config.window
        if shortest < window + n:
            raise HistoryTooShortError(window + n, shortest)
        count = shortest - window - n + 1
        if config.k > count:
            raise TooFewCandidatesError(config.k, count)
        d2, continuations = _nearest(values, ends, window, n, config.k)
        return _neighbor_average(d2, continuations, config.k, self.weighting)


@dataclass(frozen=True)
class SeasonalNaiveSpec(ForecasterSpec):
    """Repeats the last full period of the prefix."""

    period: int

    def describe(self) -> str:
        return f"seasonal-naive(m={self.period})"

    @property
    def min_history(self) -> int:
        return self.period

    def fields(self) -> dict:
        return {"period": self.period}

    def forecast_at(self, values: np.ndarray, ends, n: int) -> np.ndarray:
        ends = np.asarray(ends)
        shortest = int(ends.min())
        if shortest < self.period:
            raise HistoryTooShortError(self.period, shortest)
        return values[ends[:, None] - self.period + np.arange(n) % self.period]


@dataclass(frozen=True, eq=False)
class TuneResult:
    """Grid-search outcome; the trace preserves grid order (p-major, k-minor)."""

    p_star: int
    k_star: int
    objective: float
    trace: tuple[tuple[int, int, float], ...]
    skipped: tuple[tuple[int, int, str], ...] = ()


def _nearest(values: np.ndarray, ends: np.ndarray, window: int, n: int, kmax: int):
    """The kmax nearest candidate windows for each query end e, nearest first.

    Query e matches the trailing window of values[:e] against every candidate
    values[i : i+window] whose continuation, the n values that follow, lies
    inside values[:e]; each e must leave at least kmax candidates. On ties the
    earlier window wins, the order of a full stable sort. Returns squared
    distances of shape (len(ends), kmax) and continuations of shape
    (len(ends), kmax, n).

    Queries are searched in blocks of rows holding at most _BLOCK_FLOATS
    distances (one row, if a row alone holds more). Each row's distances come
    from the same einsum as a one-query search, over a difference buffer
    every row reuses, and are padded with +inf beyond the row's own
    candidates; selection then runs once per block.
    """
    windows = sliding_window_view(values, window)
    # Candidate i's continuation ends window i + n (window = n*p >= n).
    following = windows[n:, window - n :]
    counts = ends - window - n + 1
    buf = np.empty((int(counts.max()), window))
    step = max(1, _BLOCK_FLOATS // len(buf))
    d2 = np.empty((len(ends), kmax))
    continuations = np.empty((len(ends), kmax, n))
    for start in range(0, len(ends), step):
        block = slice(start, start + step)
        dist = np.full((len(counts[block]), int(counts[block].max())), np.inf)
        for row, (e, count) in enumerate(zip(ends[block], counts[block])):
            diff = np.subtract(windows[:count], values[e - window : e], out=buf[:count])
            np.einsum("ij,ij->i", diff, diff, out=dist[row, :count])
        # Only candidates at or below their row's kmax-th distance can be
        # chosen. Ordering just those by (row, distance, window) keeps the
        # full sort's earlier-window-wins order; the +inf padding sits past
        # every real candidate, so it is never among a row's first kmax.
        kth = np.partition(dist, kmax - 1, axis=1)[:, kmax - 1 : kmax]
        flat = np.flatnonzero(dist <= kth)
        rows, near = np.divmod(flat, dist.shape[1])
        order = np.lexsort((near, dist.ravel()[flat], rows))
        first = np.searchsorted(rows, np.arange(len(dist)))
        chosen = near[order[first[:, None] + np.arange(kmax)]]
        d2[block] = np.take_along_axis(dist, chosen, axis=1)
        continuations[block] = following[chosen]
    return d2, continuations


def _neighbor_average(
    d2: np.ndarray, continuations: np.ndarray, k: int, weighting: Weighting
) -> np.ndarray:
    """Per query, the weighted average of the k nearest continuations from `_nearest`."""
    if weighting is Weighting.UNIFORM:
        return continuations[:, :k].mean(axis=1)
    w = 1.0 / (d2[:, :k] + _WEIGHT_EPS)
    w /= w.sum(axis=1, keepdims=True)
    return np.matmul(w[:, None, :], continuations[:, :k])[:, 0]


def wnn_forecast(
    history: TimeSeries,
    config: HorizonConfig,
    weighting: Weighting | str = Weighting.INVERSE_DISTANCE,
) -> np.ndarray:
    """Forecast the next config.n values of the history.

    The trailing n*p observations form the query; candidates are all sliding
    windows (step 1) of the same length followed by n known values.
    """
    spec = ForecasterSpec.wnn(config, weighting)
    return spec.forecast_at(history.values, [len(history)], config.n)[0]


def fpto_tune(
    series: TimeSeries,
    n: int,
    folds: int,
    p_grid: Iterable[int] = range(1, 13),
    k_grid: Iterable[int] = range(1, 13),
    weighting: Weighting | str = Weighting.INVERSE_DISTANCE,
) -> TuneResult:
    """Pick the (p, k) minimising the mean MAPE over rolling validation folds.

    Fold i (i = 1..folds) trains on values[: T - i*n] and scores the n
    observations that follow. A cell that cannot be evaluated on every fold is
    skipped and recorded; tuning fails only if the whole grid is infeasible.
    """
    weighting = Weighting(weighting)
    n = _positive_int("n", n)
    folds = _positive_int("folds", folds)
    values = series.values
    T = int(values.size)
    ps = sorted({_positive_int("p_grid entry", p) for p in p_grid})
    ks = sorted({_positive_int("k_grid entry", k) for k in k_grid})
    if not ps or not ks:
        raise InvalidParamsError("p_grid and k_grid must contain positive integers")

    ends = T - n * np.arange(1, folds + 1)
    shortest = T - folds * n
    trace: list[tuple[int, int, float]] = []
    skipped: list[tuple[int, int, str]] = []
    for p in ps:
        window = n * p
        if shortest < window + n:
            reason = (
                f"shortest training fold has {shortest} observations, "
                f"window+n needs {window + n}"
            )
            skipped.extend((p, k, reason) for k in ks)
            continue
        max_k = shortest - window - n + 1
        feasible = [k for k in ks if k <= max_k]
        skipped.extend(
            (p, k, f"k={k} exceeds {max_k} candidate windows on the shortest fold")
            for k in ks[len(feasible):]
        )
        if not feasible:
            continue
        d2, continuations = _nearest(values, ends, window, n, feasible[-1])
        actual = sliding_window_view(values, n)[ends]
        forecasts = np.stack(
            [_neighbor_average(d2, continuations, k, weighting) for k in feasible]
        )
        objectives = np.mean(_mape_rows(actual, forecasts), axis=1)
        trace.extend((p, k, float(o)) for k, o in zip(feasible, objectives))
    if not trace:
        raise GridInfeasibleError(skipped)
    best = min(range(len(trace)), key=lambda i: trace[i][2])
    p_star, k_star, objective = trace[best]
    return TuneResult(p_star, k_star, objective, tuple(trace), tuple(skipped))
