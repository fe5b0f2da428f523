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
the candidate windows, centered on the queries' median level and scaled by a
power of two, screens out every candidate that cannot be among a query's
max(k) nearest, with a margin per pair that bounds the product's rounding
error for any summation order (`_nearest` derives it). A row of many
candidates takes its bound from the minima of groups of them, not from a
partition of every candidate. The screen runs in float32; the kept
candidates are ranked on exact float64 einsum distances, so the neighbors
are the same bits as a full sort of every candidate's einsum distance. The
tuner asks for every p of the grid in one search. A larger p never takes more
k, so the p that take a k are a prefix of the grid: one `_neighbor_average`
per k averages them all, and one MAPE reduction scores every cell. A refit
asks for its one (p, k). The search screens blocks of queries of a fixed
bound in size and ranks their kept pairs in batches of at least one
distance chunk, so at most about two blocks' worth wait at once. The cell
minimising the mean fold MAPE wins; exact ties go to the first minimum in
p-major, k-minor order (smaller p, then smaller k), so results are
deterministic. The search raises DataError where a window's squared norm about
the center tops a sixteenth of the largest float, and uniform weighting where
the sum of its k continuations overflows.

Each forecaster is a frozen spec, `WnnSpec` or the `SeasonalNaiveSpec` baseline,
made by `ForecasterSpec.wnn` or `ForecasterSpec.seasonal_naive`. Its
`forecast_at` is its one refit path: it forecasts from many prefixes (ends) of
one series in one call, which is how `conformal.score_rows` scores every step;
`wnn_forecast` is the one-end case. `forecast_at` owns the history check for
every caller; the tuner skips a (p, k) cell by the same `_min_history`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DataError, GridInfeasibleError, InvalidParamsError, SeriesTooShortError
from .series import HorizonConfig, TimeSeries, _mape_rows, _positive_int

# Regularizer for inverse-distance weights: an exact-match neighbor then
# dominates the average instead of dividing by zero.
_WEIGHT_EPS = 1e-8

# Most screen values, copied candidate values or exact-distance differences the
# search holds in one block: 128 KB of the float32 screen's, 256 KB of float64
# differences. The padded bound array beside the screen holds up to slabs - 1
# (at most 7) more columns a row, and the kept pairs waiting to be ranked are
# fewer than _BLOCK_FLOATS // window plus one block's.
_BLOCK_FLOATS = 1 << 15

# The p and k grids that tuning searches unless told otherwise, in the CLI too.
DEFAULT_GRID = tuple(range(1, 13))


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
    values, and scaled by 2**shift, a power of two that puts every scaled
    |w|**2 below 2**120 (`np.ldexp`, exact but for underflow). A query q and
    a candidate window w of these values give the screen value
    s = |w|**2 - 2*q.w, which is d - |q|**2 in scaled units and so ranks a
    row's candidates as their squared distance d does. The screen runs in
    float32 on float32 copies; `norms`, the float64 sums |w|**2, and the
    einsum distances that rank the kept candidates stay float64, so the
    neighbors are float64's.

    The margin is per pair, with eps float32's epsilon, u = eps/2,
    Q = |q|**2 and W = |w|**2 in scaled units. s is within ~(2*L + 6)*u*(Q + W)
    of its exact value for any summation order: centering and rounding to
    float32 move each value by at most ~u relative, and so s + Q by
    ~4*u*(Q + W); gamma_L = L*u/(1 - L*u) bounds the relative error of a sum
    of L products (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1), so the product is within gamma_L*(Q + W), as
    2*|q.w| <= Q + W; W's float64 sum and its rounding to float32 add at
    most (gamma_L64 + u)*W, and the sums a few roundings.
    `_distances`'s float64 einsum is within gamma_(L+2) relative of the exact
    d <= 2*(Q + W), so within ~(2*L + 6)*u64*(Q + W). So every einsum
    distance lies within alpha*(Q + W) of s + Q, where
    alpha = 4*(L + 3)*eps is at least twice the two bounds' sum for every L
    below 2**23 (L*u <= 1/2); the slack covers second-order terms and the
    rounding of the bounds below.
    Let U be at least kmax of a row's computed s + alpha*W, as taken below:
    those kmax candidates have an einsum distance of at most U + Q + alpha*Q,
    so each of the row's true kmax nearest, ties included, has
    s - alpha*W <= U + 2*alpha*Q. The screen
    keeps every candidate that meets this, plus two absolute terms for
    underflow. One is 8*L times float32's smallest normal number, 2**-126,
    for products that underflow or flush to zero. The other is the einsum's
    own L*2**-1072 in scaled units, L*2**(2*shift - 1072), capped at 2**124:
    the cap keeps every candidate anyway, since every scaled s and U lies
    within 2**123 of 0, and keeps the float32 margin finite. The margin
    scales with the pair's own norms about c, not the series' range, so a
    spike only widens it for the windows that hold the spike; but rows whose
    queries sit at a level far from c, as on the minority side of a level
    shift among the queries, keep every candidate near their level. The kept
    candidates are ranked on their einsum distance, which does not depend on
    which others were kept. Any W, of a query or a candidate, above a
    sixteenth of the largest float (unscaled) raises DataError; below it
    every einsum distance is at most about 2*(Q + W), a quarter of it, so
    none overflows.

    float32 stops being selective where the windows' norms about c dwarf the
    distances between them, as on a high-amplitude sinusoid with little
    noise: alpha*Q then exceeds the gaps, the screen keeps every window of
    the query's phase, and the einsum ranks them all.

    U is the kmax-th smallest of the row's group minima, which spares a
    partition of every candidate. A block is width columns wide, its longest
    row's candidates, and folds into slabs = max(1, min(8, width // (16*kmax)))
    slabs of groups = ceil(width / slabs) columns: column c lies in group
    c mod groups, and the padding past width is +inf. Each group minimum is
    one candidate's own s + alpha*W, exactly, so the kmax smallest are those
    of kmax distinct candidates and U is at least all of them, as above. U
    is never below the kmax-th smallest over every candidate, so the screen
    keeps a superset of what that would keep, and the exact ranking of the
    kept candidates picks the same neighbors.
    Every row has kmax finite group minima: its first kmax columns are
    candidates, in distinct groups as groups >= kmax. A block narrower than
    32*kmax, as every block of the tuner's fold rows, keeps one group per
    column, so U is each row's exact kmax-th smallest; wider blocks trade a
    few more kept pairs for a partition 1/slabs as wide.

    Rows are screened in blocks holding at most _BLOCK_FLOATS screen values
    (one row, if a row alone holds more), and candidates are copied lag-major
    for the product a chunk of at most _BLOCK_FLOATS values at a time.
    Columns past a row's last candidate are +inf, so they never lower its U
    and never pass. A block only screens: its kept (row, candidate) pairs,
    numbered by the search's rows, wait in a batch, which is ranked once it
    holds at least one distance chunk of _BLOCK_FLOATS // L pairs, or once the
    cell's last block is screened. Ranking is one `_distances`, one stable
    lexsort by (row, distance) and one searchsorted over the whole batch, so
    at most one chunk plus one block's kept pairs wait, about one
    _BLOCK_FLOATS more than a block. The queries -2*q are gathered once per
    cell, and so are the continuations of the chosen windows.
    """
    windows = [n * p for p, _ in cells]
    widest, top = windows[-1], int(ends.max())
    center = np.partition(values[ends - 1], len(ends) // 2)[len(ends) // 2]  # a median
    chunk = max(1, _BLOCK_FLOATS // widest)  # rows per squared chunk
    # norms[j, a] is |w|**2 of the centered window of length windows[j] ending
    # at a: the sum of the last windows[j] squares of row a.
    tails = 1.0 * (np.arange(widest) >= widest - np.array(windows)[:, None])
    norms = np.empty((len(cells), top + 1))
    # Row a of either view is the widest window ending just before values[a]
    # (zero-padded), so its last L columns are the window of length L ending there.
    ending = _windows(np.concatenate([np.zeros(widest), values]), widest)
    with np.errstate(over="ignore", invalid="ignore"):  # far values overflow; 0*inf is NaN
        padded = np.concatenate([np.zeros(widest), values[:top] - center])
        centered = _windows(padded, widest)
        for lo in range(0, top + 1, chunk):
            np.matmul(tails, np.square(centered[lo : lo + chunk]).T, out=norms[:, lo : lo + chunk])
    if not norms.max() <= np.finfo(float).max / 16:
        raise DataError("windows lie too far from the queries' level; rescale the series")
    # Every scaled |value| < 2**(60 - b) with widest <= 4**b, so every scaled |w|**2 < 2**120.
    shift = 60 - math.frexp(np.abs(padded).max())[1] - ((widest - 1).bit_length() + 1) // 2
    screened = _windows(np.ldexp(padded, shift).astype(np.float32), widest)
    scaled = np.ldexp(norms, 2 * shift).astype(np.float32)
    single = np.finfo(np.float32)
    step = max(1, _BLOCK_FLOATS // (top - n - windows[0] + 1))
    found = []
    for cell, ((_, kmax), window) in enumerate(zip(cells, windows)):
        alpha = 4 * (window + 3) * float(single.eps)
        einsum = min(window * 2.0 ** min(2 * shift - 1072, 124), 2.0**124)  # capped: finite
        floor = window * 8 * float(single.tiny) + einsum  # the margin's absolute terms
        span = max(1, _BLOCK_FLOATS // window)  # candidate windows per chunk, pairs per batch
        w_norms = scaled[cell, window:]
        down, up = (1 - alpha) * w_norms, 2 * alpha * w_norms  # to s - alpha*W, then s + alpha*W
        margins = 2 * alpha * scaled[cell, ends] + floor
        queries = -2 * screened[ends, -window:]  # exact
        lasts = ends - n - window  # each row's last candidate window start
        d2, starts = np.empty((len(ends), kmax)), np.empty((len(ends), kmax), np.intp)
        pending, held, first = [], 0, 0  # the batch's kept pairs, their count, its first row
        for start in range(0, len(ends), step):
            block = slice(start, start + step)
            q, last = queries[block], lasts[block]
            width = int(last.max()) + 1
            screen = np.empty((len(q), width), np.float32)
            for lo in range(0, width, span):
                part = screened[window + lo : window + min(lo + span, width), -window:]
                np.matmul(q, np.ascontiguousarray(part.T), out=screen[:, lo : lo + span])
            screen += down[:width]  # s - alpha*|w|**2
            ragged = int(last.min()) + 1
            np.putmask(screen[:, ragged:], np.arange(ragged, width) > last[:, None], np.inf)
            # Column c of slab c // groups is in group c % groups; the padding is +inf.
            slabs = max(1, min(8, width // (16 * kmax)))
            groups = -(-width // slabs)
            upper = np.empty((len(q), slabs * groups), np.float32)
            np.add(screen, up[:width], out=upper[:, :width])  # s + alpha*|w|**2
            upper[:, width:] = np.inf
            if slabs > 1:
                upper = upper.reshape(len(q), slabs, groups).min(axis=1)  # each group's minimum
            upper.partition(kmax - 1, axis=1)
            keep = screen <= (upper[:, kmax - 1] + margins[block])[:, None]
            rows, near = np.divmod(np.flatnonzero(keep), width)
            if start:  # the search's row numbers
                rows += start
            pending.append((rows, near))
            held += len(rows)
            stop = min(start + step, len(ends))
            if held < span and stop < len(ends):
                continue
            if len(pending) > 1:
                rows, near = map(np.concatenate, zip(*pending))
            exact = _distances(ending[:, -window:], near + window, ends[rows])
            # Each row's first kmax by distance; rows come sorted, and within a
            # row flatnonzero gave the candidates in ascending order, which the
            # stable lexsort keeps among equal distances.
            order = np.lexsort((exact, rows))
            chosen = order[np.searchsorted(rows, np.arange(first, stop))[:, None] + np.arange(kmax)]
            d2[first:stop], starts[first:stop] = exact[chosen], near[chosen]
            pending, held, first = [], 0, stop
        found.append((d2, ending[starts + (window + n), -n:]))
    return found


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Every window of width values of the contiguous 1-D array a, one per row, as a view.

    The same view as sliding_window_view, without the argument checks that
    make that cost some twenty times as much, which a one-end search would
    pay three times.
    """
    return np.ndarray((len(a) - width + 1, width), a.dtype, a, 0, a.strides * 2)


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

    Raises DataError where a uniform average overflows. Inverse-distance
    weights are all positive, since `_nearest` keeps every squared distance
    below a quarter of the largest float.
    """
    if weighting is Weighting.UNIFORM:
        with np.errstate(over="ignore"):
            average = continuations[:, :k].mean(axis=1)
        if not np.all(np.isfinite(average)):
            raise DataError("the average of neighbor continuations overflows; rescale the series")
        return average
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
    p_grid: Iterable[int] = DEFAULT_GRID,
    k_grid: Iterable[int] = DEFAULT_GRID,
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
    actual = values[T - n * folds :].reshape(folds, n)[::-1]  # row i: fold i + 1
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
