"""Nearest-neighbor forecasting over lagged windows, with grid-search tuning.

The forecaster matches the trailing window of n*p observations against every
historical window of the same length whose next n observations are known,
then averages those continuations over the k closest windows (Euclidean
distance; uniform or inverse-square-distance weights). Equal distances rank
the earlier window first, and k=1 returns the nearest continuation bit-exactly.

Tuning evaluates a (p, k) grid by rolling-origin validation: fold i trains on
everything before the last i*n observations and scores the n observations
that follow. One neighbor search, `_nearest`, serves the tuner and every
refit. For each window n*p asked for, one matrix product of the queries and
the candidate windows, centered on the queries' median level, screens out
every candidate that cannot be among a query's max(k) nearest, with a margin
per pair that bounds the product's rounding error for any summation order
(`_nearest` derives it). The kept candidates are ranked on exact einsum
distances, so the neighbors are the same bits as a full sort of every
candidate's einsum distance. The tuner asks for every p of the grid in one
search. A larger p never takes more k, so the p that take a k are a prefix of
the grid: one `_neighbor_average` per k averages them all, and one MAPE
reduction scores every cell. A refit asks for its one (p, k). The search holds
blocks of a fixed bound in size. The cell minimising the mean fold MAPE wins;
exact ties go to the first minimum in p-major, k-minor order (smaller p, then
smaller k), so results are deterministic. Where every one of a forecast's k
squared distances overflows, inverse-distance weighting raises DataError.

Each forecaster is a frozen spec, `WnnSpec` or the `SeasonalNaiveSpec` baseline,
made by `ForecasterSpec.wnn` or `ForecasterSpec.seasonal_naive`. Its
`forecast_at` is its one refit path: it forecasts from many prefixes (ends) of
one series in one call, which is how `conformal.score_rows` scores every step;
`wnn_forecast` is the one-end case. `forecast_at` owns the history check for
every caller; the tuner skips a (p, k) cell by the same `_min_history`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, GridInfeasibleError, InvalidParamsError, SeriesTooShortError
from .series import HorizonConfig, TimeSeries, _mape_rows, _positive_int

# Regularizer for inverse-distance weights: an exact-match neighbor then
# dominates the average instead of dividing by zero.
_WEIGHT_EPS = 1e-8

# Most screen values, copied candidate values or exact-distance differences the
# search holds in one block (256 KB).
_BLOCK_FLOATS = 1 << 15


def _min_history(n: int, p: int, k: int) -> int:
    """The window n*p, its n-value continuation and k - 1 more for k candidates."""
    return n * p + n + k - 1


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
    `_forecast`. `forecast_at(values, ends, n)` checks ends, then the history
    of the shortest end only (every longer prefix holds more), and gives the
    forecasts of values[e : e+n] from values[:e] alone, one row per end e.
    """

    @staticmethod
    def wnn(
        config: HorizonConfig, weighting: Weighting | str = Weighting.INVERSE_DISTANCE
    ) -> "WnnSpec":
        return WnnSpec(config, Weighting(weighting))

    @staticmethod
    def seasonal_naive(period: int) -> "SeasonalNaiveSpec":
        return SeasonalNaiveSpec(_positive_int("period", period))

    def forecast_at(self, values: np.ndarray, ends, n: int) -> np.ndarray:
        ends = np.asarray(ends)
        valid = ends.ndim == 1 and ends.size and ends.dtype.kind in "iu"
        if not valid or ends.max() > len(values):
            raise InvalidParamsError(f"ends must be non-empty 1-D integers <= {len(values)}")
        shortest = int(ends.min())
        if shortest < self.min_history:
            raise SeriesTooShortError(
                f"series of length {len(values)} cannot seed the earliest scored pair at "
                f"t={shortest} (needs history of at least {self.min_history})"
            )
        return self._forecast(values, ends, n)


@dataclass(frozen=True)
class WnnSpec(ForecasterSpec):
    """The weighted nearest-neighbor forecaster at a fixed (n, p, k)."""

    config: HorizonConfig
    weighting: Weighting

    def describe(self) -> str:
        return f"wnn(p={self.config.p}, k={self.config.k}, {self.weighting.value})"

    @property
    def min_history(self) -> int:
        return _min_history(self.config.n, self.config.p, self.config.k)

    def fields(self) -> dict:
        return {"p": self.config.p, "k": self.config.k, "weighting": self.weighting.value}

    def _forecast(self, values: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
        config = self.config
        if config.n != n:
            raise InvalidParamsError(f"forecaster is configured for n={config.n}, asked for n={n}")
        [(d2, continuations)] = _nearest(values, ends, n, [(config.p, config.k)])
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

    def _forecast(self, values: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
        return values[ends[:, None] - self.period + np.arange(n) % self.period]


@dataclass(frozen=True, eq=False)
class TuneResult:
    """Grid-search outcome; the trace preserves grid order (p-major, k-minor)."""

    p_star: int
    k_star: int
    objective: float
    trace: tuple[tuple[int, int, float], ...]
    skipped: tuple[tuple[int, int, str], ...] = ()


@np.errstate(over="ignore", invalid="ignore")  # an overflowing window keeps every candidate
def _nearest(values: np.ndarray, ends: np.ndarray, n: int, cells):
    """The kmax nearest candidate windows of length n*p for each query end, per (p, kmax).

    cells holds (p, kmax) pairs sorted by p. Query e matches the trailing
    window of values[:e] against every candidate window whose continuation,
    the n values that follow, lies inside values[:e]; each e must hold
    _min_history(n, p, kmax) values at every p, which `forecast_at` and
    `fpto_tune` check before they search. On ties the earlier window wins, the
    order of a full stable sort. Returns one (d2, continuations) per cell:
    squared distances of shape (len(ends), kmax) and continuations of shape
    (len(ends), kmax, n), nearest first.

    One matrix product per block of queries and window L = n*p screens the
    candidates. Every value is centered on c, a median of the queries' last
    values, and a query q and a candidate window w of the centered values give
    the screen value s = |w|**2 - 2*q.w, which is d - |q|**2 and so ranks a
    row's candidates as their squared distance d does.

    The margin is per pair, with u = eps/2, Q = |q|**2 and W = |w|**2.
    Centering rounds each value by at most u relative, which moves d by at
    most ~4*u*(Q + W). s is within ~(2*L + 2)*u*(Q + W) of its exact value
    for any summation order, since gamma_L = L*u/(1 - L*u) bounds the
    relative error of a sum of L products (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1) and 2*|q.w| <= Q + W. `_distances`'s
    einsum is within gamma_(L+2) relative of the exact d <= 2*(Q + W), so
    within ~(2*L + 6)*u*(Q + W). So every einsum distance lies within
    alpha*(Q + W) of s + Q, where alpha = 4*(L + 3)*eps is twice the sum,
    (2*L + 6)*eps; the slack covers second-order terms and the rounding of
    the bounds below. Let U be a row's kmax-th smallest s + alpha*W: kmax
    candidates have an einsum distance of at most U + Q + alpha*Q, so each of
    the row's true kmax nearest, ties included, has s - alpha*W <=
    U + 2*alpha*Q. The screen keeps every candidate that meets this, plus
    L*2**-1072 for the absolute error of products that underflow. The margin
    scales with the pair's own norms about c, not the series' range, so a
    spike only widens it for the windows that hold the spike; but rows whose
    queries sit at a level far from c, as on the minority side of a level
    shift among the queries, keep every candidate near their level. If any
    W of a window exceeds a sixteenth of the largest float, every candidate
    of that window is kept. The kept candidates are ranked on their einsum
    distance, which does not depend on which others were kept.

    Rows are searched in blocks holding at most _BLOCK_FLOATS screen values
    (one row, if a row alone holds more), and candidates are copied for the
    product a chunk of at most _BLOCK_FLOATS values at a time. Columns past a
    row's last candidate are +inf, so they never lower its U and never pass.
    """
    windows = [n * p for p, _ in cells]
    widest, top = windows[-1], int(ends.max())
    # Row a of either view is the widest window ending just before values[a]
    # (zero-padded), so its last L columns are the window of length L ending there.
    ending = sliding_window_view(np.concatenate([np.zeros(widest), values]), widest)
    center = np.partition(values[ends - 1], len(ends) // 2)[len(ends) // 2]  # a median
    padded = np.concatenate([np.zeros(widest), values[:top] - center])
    centered = sliding_window_view(padded, widest)
    chunk = max(1, _BLOCK_FLOATS // widest)  # rows per squared chunk
    # norms[j, a] is |w|**2 of the centered window of length windows[j] ending
    # at a: the sum of the last windows[j] squares of row a.
    tails = 1.0 * (np.arange(widest) >= widest - np.array(windows)[:, None])
    norms = np.empty((len(cells), len(centered)))
    for lo in range(0, len(centered), chunk):
        np.matmul(tails, np.square(centered[lo : lo + chunk]).T, out=norms[:, lo : lo + chunk])
    step = max(1, _BLOCK_FLOATS // (top - n - windows[0] + 1))
    found = []
    for cell, ((_, kmax), window) in enumerate(zip(cells, windows)):
        alpha = 4 * (window + 3) * np.finfo(float).eps
        span = max(1, _BLOCK_FLOATS // window)  # candidate windows per copied chunk
        overflow = not norms[cell].max() <= np.finfo(float).max / 16
        d2, continuations = np.empty((len(ends), kmax)), np.empty((len(ends), kmax, n))
        for start in range(0, len(ends), step):
            block = slice(start, start + step)
            e = ends[block]
            last = e - n - window  # each row's last candidate window start
            width = int(last.max()) + 1
            if overflow:
                keep = np.arange(width) <= last[:, None]
            else:
                q = -2.0 * centered[e, -window:]  # exact
                screen = np.empty((len(e), width))
                for lo in range(0, width, span):
                    part = centered[window + lo : window + min(lo + span, width), -window:]
                    np.matmul(q, part.copy().T, out=screen[:, lo : lo + span])
                w_norms = norms[cell, window : window + width]
                screen += (1 - alpha) * w_norms  # s - alpha*|w|**2
                ragged = int(last.min()) + 1
                np.putmask(screen[:, ragged:], np.arange(ragged, width) > last[:, None], np.inf)
                upper = screen + 2 * alpha * w_norms  # s + alpha*|w|**2
                upper.partition(kmax - 1, axis=1)
                margin = 2 * alpha * norms[cell, e] + window * 2.0**-1072
                keep = screen <= (upper[:, kmax - 1] + margin)[:, None]
            rows, near = np.divmod(np.flatnonzero(keep), width)
            exact = _distances(ending[:, -window:], near + window, e[rows])
            # Each row's first kmax by (distance, candidate); rows come sorted.
            order = np.lexsort((near, exact, rows))
            chosen = order[np.searchsorted(rows, np.arange(len(e)))[:, None] + np.arange(kmax)]
            d2[block] = exact[chosen]
            continuations[block] = ending[near[chosen] + window + n, -n:]
        found.append((d2, continuations))
    return found


def _distances(windows: np.ndarray, candidates: np.ndarray, queries: np.ndarray):
    """Squared distance of the window in row candidates[j] of windows to that in row queries[j].

    One einsum over contiguous differences, in chunks of at most _BLOCK_FLOATS
    values (one pair, if a pair alone holds more).
    """
    d2 = np.empty(len(candidates))
    step = max(1, _BLOCK_FLOATS // windows.shape[1])
    for start in range(0, len(candidates), step):
        chunk = slice(start, start + step)
        diff = windows[candidates[chunk]] - windows[queries[chunk]]
        np.einsum("ij,ij->i", diff, diff, out=d2[chunk])
    return d2


def _neighbor_average(
    d2: np.ndarray, continuations: np.ndarray, k: int, weighting: Weighting
) -> np.ndarray:
    """Per query, the weighted average of the k nearest continuations from `_nearest`.

    Raises DataError where all k squared distances of a query overflowed to
    +inf, so that its inverse-distance weights are all 0.
    """
    if weighting is Weighting.UNIFORM:
        return continuations[:, :k].mean(axis=1)
    w = 1.0 / (d2[:, :k] + _WEIGHT_EPS)
    total = w.sum(axis=1, keepdims=True)
    if not np.all(total > 0):
        raise DataError(
            "squared distances between windows overflow, so a forecast has no finite "
            "inverse-distance weight; rescale the series"
        )
    w /= total
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
    One `_nearest` search screens the neighbors of every feasible p with a
    provably safe margin and ranks the survivors on exact einsum distances,
    so each p's neighbors are those of a refit at that p, bit for bit.
    Each k is averaged once over every p that takes it, and one MAPE reduction
    scores every cell; each row still sums the same values in the same order,
    so the objectives are those of one cell at a time, bit for bit.
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
    cells: list[tuple[int, list[int]]] = []
    skipped: list[tuple[int, int, str]] = []
    for p in ps:
        feasible = [k for k in ks if _min_history(n, p, k) <= shortest]
        for k in ks[len(feasible) :]:
            need = _min_history(n, p, k)
            skipped.append((p, k, f"shortest fold has {shortest} observations, needs {need}"))
        if feasible:
            cells.append((p, feasible))
    if not cells:
        raise GridInfeasibleError(skipped)
    # Only now are the ends known to be non-negative.
    actual = sliding_window_view(values, n)[ends]
    searched = _nearest(values, ends, n, [(p, feasible[-1]) for p, feasible in cells])
    # A larger p never takes more k, so the smallest p takes every k and the p
    # that take the j-th k are a prefix of cells: one average per k serves them.
    keys, forecasts = [], []
    for j, k in enumerate(cells[0][1]):
        group = [(p, found) for (p, feasible), found in zip(cells, searched) if len(feasible) > j]
        d2 = np.concatenate([d[:, :k] for _, (d, _) in group])
        continuations = np.concatenate([c[:, :k] for _, (_, c) in group])
        forecasts.append(_neighbor_average(d2, continuations, k, weighting))
        keys.extend((p, k) for p, _ in group)
    stacked = np.concatenate(forecasts).reshape(-1, folds, n)  # one (folds, n) per cell
    objectives = np.mean(_mape_rows(actual, stacked), axis=1)
    trace = sorted((p, k, float(o)) for (p, k), o in zip(keys, objectives))  # p-major, k-minor
    best = min(range(len(trace)), key=lambda i: trace[i][2])
    p_star, k_star, objective = trace[best]
    return TuneResult(p_star, k_star, objective, tuple(trace), tuple(skipped))
