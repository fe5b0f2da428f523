"""Nearest-neighbor forecasting over lagged windows, with grid-search tuning.

The forecaster matches the trailing window of n*p observations against every
historical window of the same length whose next n observations are known,
then averages those continuations over the k closest windows (Euclidean
distance; uniform or inverse-square-distance weights). Equal distances rank
the earlier window first, and k=1 returns the nearest continuation bit-exactly.

Tuning evaluates a (p, k) grid by rolling-origin validation: fold i trains on
everything before the last i*n observations and scores the n observations
that follow. One neighbor search, `_nearest`, serves the tuner, every p of the
grid in one call, and every refit; its docstring has the mechanics and the
proof. Its neighbors are those of a full stable sort of every candidate's
float64 einsum distance, whatever the BLAS kernel, so the tuner's trace is
the same bits as refitting one cell at a time. It raises DataError where a
window's squared norm about the queries' median level tops a sixteenth of
the largest float; `_BLOCK_FLOATS` states its memory bound. Its float32
screen stops being selective, and the search slows, on a high-amplitude
sinusoid with little noise and on the far side of a level shift among the
queries. A larger p never takes more k, so one `_neighbor_average` per k
averages the rows of every p that takes it, and one MAPE reduction scores
every cell. The cell minimising the mean fold MAPE wins; exact ties go to the
first minimum in p-major, k-minor order (smaller p, then smaller k), so
results are deterministic. Uniform weighting raises DataError where the sum
of a row's k continuations overflows.
`split_and_tune` tunes on a split's training block for the CLI and scripts.

Each forecaster is a frozen spec whose constructor checks its fields, `WnnSpec`
(also `ForecasterSpec.wnn`) or the `SeasonalNaiveSpec` baseline (also
`ForecasterSpec.seasonal_naive`). Its `forecast_at` is its one refit path: it
forecasts from many prefixes (ends) of one series in one call, which is how
`conformal.score_rows` scores every step; `wnn_forecast` is the one-end case.
It takes a `TimeSeries`, as every public entry that forecasts from a series
does, and owns the history check for every caller; the tuner skips a (p, k)
cell by the same `_min_history`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DataError, GridInfeasibleError, InvalidParamsError, SeriesTooShortError
from .series import HorizonConfig, SplitSpec, TimeSeries, _instance, _mape_rows
from .series import _positive_int, split_sizes

# Regularizer for inverse-distance weights: an exact-match neighbor then
# dominates the average instead of dividing by zero.
_WEIGHT_EPS = 1e-8

# Most screen values, exact-distance differences, padded sort values or
# copied squares the search holds in one block or chunk: 256 KB of the
# float32 screen's, 512 KB of float64 differences, sort values or squares
# (one row's or window's, if one alone holds more). Timed interleaved with
# BLAS on one thread (2-vCPU Xeon VM), 1 << 16 ran the scoring_long searches
# 1.19x (n=1) and 1.03x (n=6) as fast as 1 << 15 and a T=20,000 search
# 1.44x, and no search measured slower; 1 << 17 and 1 << 18 ran the
# scoring_long searches 0.69-0.74x as fast as 1 << 16. Beside the screen a
# block holds its group minima, at most as many values (a copy of the screen
# where the block keeps one group per column), and the kept pairs waiting to
# be ranked are fewer than _BLOCK_FLOATS // (the shortest window) plus one
# block's. Besides these, the search holds, for its whole length: per cell
# and window end, the float64 norms and their float32 scaled copy; per end,
# the lifts of the cell being screened; one float32 query per end, one value
# wider than the widest window; one lag-major float32 copy of every
# candidate window, one row wider than the widest window for the W row, so
# about 4*T*(n*max(p) + 1) bytes (254 KB for a scoring_long n=6 search,
# 116 MB for T=1e5 and n*p=288); and every row block's mask of the columns
# past each row's last candidate. Together the masks hold one bool per row
# for the spread of its block's last candidates: at most _BLOCK_FLOATS for
# sorted ends, at most one per (end, candidate) for any.
_BLOCK_FLOATS = 1 << 16

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
    """A point forecaster: `wnn` is `WnnSpec`, `seasonal_naive` is `SeasonalNaiveSpec`.

    Each kind is a frozen type whose constructor checks its fields, with
    `describe()`, `min_history` (the fewest observations a scored step's
    prefix must hold), `fields()` (its report config entries) and `_forecast`.
    `forecast_at(series, ends, n)` checks n, takes a `TimeSeries` (its values
    reach `_forecast` uncopied), checks ends, then the history of the shortest
    end only (every longer prefix holds more), and gives the forecasts of
    values[e : e+n] from values[:e] alone, one row per end e.
    """

    def forecast_at(self, series: TimeSeries, ends, n: int) -> np.ndarray:
        n = _positive_int("n", n)
        values = _instance("series", series, TimeSeries).values
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
    weighting: Weighting = Weighting.INVERSE_DISTANCE

    def __post_init__(self):
        _instance("config", self.config, HorizonConfig)
        object.__setattr__(self, "weighting", Weighting(self.weighting))

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
        d2, continuations = _nearest(values, ends, n, [(config.p, config.k)])
        return _neighbor_average(d2, continuations, config.k, self.weighting)


@dataclass(frozen=True)
class SeasonalNaiveSpec(ForecasterSpec):
    """Repeats the last full period of the prefix."""

    period: int

    def __post_init__(self):
        object.__setattr__(self, "period", _positive_int("period", self.period))

    def describe(self) -> str:
        return f"seasonal-naive(m={self.period})"

    @property
    def min_history(self) -> int:
        return self.period

    def fields(self) -> dict:
        return {"period": self.period}

    def _forecast(self, values: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
        return values[ends[:, None] - self.period + np.arange(n) % self.period]


ForecasterSpec.wnn, ForecasterSpec.seasonal_naive = WnnSpec, SeasonalNaiveSpec


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
    order of a full stable sort. The search's rows are the (cell, end) pairs,
    cell-major: row j*len(ends) + i is ends[i] at cells[j]. Returns squared
    distances of shape (rows, K) and continuations of shape (rows, K, n),
    nearest first, K being the largest kmax; only the first kmax columns of a
    cell's rows are its neighbors.

    One matrix product per block of rows screens the candidates, and a block
    holds rows of one cell, of window L = n*p. Every cell shares one candidate
    axis, the end a of a candidate window: column i of a block is the window
    ending at base + i, base being the shortest window of the search.
    Every value is centered on c, a median of the queries' last values, and
    scaled by 2**shift, a power of two that puts every scaled |w|**2 below
    2**120 (`np.ldexp`, exact but for underflow). A query q and a candidate
    window w of these values give s = |w|**2 - 2*q.w, which is d - |q|**2 in
    scaled units and so ranks a row's candidates as their squared distance d
    does. The product reads the last L lags of the queries, times -2, and of
    the candidate windows, and one row more: a 1 on the queries' side and
    (1 - alpha)*|w|**2 on the candidates', alpha being the cell's margin
    factor below. So it gives each pair's screen value t = s - alpha*|w|**2
    in one pass, and then columns a < L are set to +inf: no window of length
    L ends there. The screen runs in float32 on float32 copies; `norms`, the
    float64 sums |w|**2, and the einsum distances that rank the kept
    candidates stay float64, so the neighbors are float64's.

    The margin is per pair, with eps float32's epsilon, u = eps/2,
    Q = |q|**2 and W = |w|**2 in scaled units. t is within beta*(Q + W),
    beta ~ (2*L + 8)*u, of the exact s - alpha*W for any summation order:
    centering and rounding to float32 move each value by at most ~u
    relative, and so 2*q.w by ~2*u*(Q + W); gamma_(L+1) =
    (L + 1)*u/(1 - (L + 1)*u) bounds the relative error of a sum of L + 1
    products (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1), so the product is within gamma_(L+1)*(Q + 2*W), as
    2*|q.w| <= Q + W; W's float64 sum, its rounding to float32 and the
    rounding of (1 - alpha)*W add at most (gamma_L64 + 2*u)*W. Write s for
    t + alpha*W: it is within beta*(Q + W) of its exact value.
    `_distances`'s float64 einsum is within gamma_(L+2) relative of the exact
    d <= 2*(Q + W), so within ~(2*L + 6)*u64*(Q + W). So every einsum
    distance lies within alpha*(Q + W) of s + Q, where
    alpha = 4*(L + 3)*eps is at least twice the two bounds' sum for every L
    below 2**23 (L*u <= 1/2), so beta <= alpha/2; the slack covers
    second-order terms and the rounding of the bounds below.
    Let U be at least kmax of a row's s + alpha*W = t + 2*alpha*W, as taken
    below: those kmax candidates have an einsum distance of at most
    U + Q + alpha*Q, so each of the row's true kmax nearest, ties included,
    has t <= U + 2*alpha*Q. The screen keeps every candidate that meets
    this, plus two absolute terms for underflow. One is 8*L times float32's
    smallest normal number, 2**-126, for products that underflow or flush to
    zero. The other is the einsum's own L*2**-1072 in scaled units,
    L*2**(2*shift - 1072), capped at 2**124: the cap keeps every candidate
    anyway, since every scaled t and the map's slope*g below lie within
    2**123 of 0, and keeps the float32 margin finite. The margin
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

    U comes from the row's group minima of t, with kmax the row's cell's,
    which spares a partition of every candidate. A block is width columns
    wide, to its longest row's last candidate, and with its cell's kmax
    folds into slabs = max(1, min(8, width // (16*kmax))) slabs of
    groups = ceil(width / slabs) columns, read from the screen in place:
    column c lies in group c mod groups, and the last slab is short. Each
    group minimum g is one candidate's own t, exactly, so the kmax smallest
    are those of kmax distinct candidates. A candidate's t bounds its
    s + alpha*W: its exact squared distance d is within beta*(Q + W) of
    s + Q, and W <= 2*Q + 2*d (|w|**2 <= 2*|q|**2 + 2*|w - q|**2), so
    W <= ((4 + 2*beta)*Q + 2*t)/(1 - 2*alpha - 2*beta), and
        s + alpha*W = t + 2*alpha*W <= t + kappa*(t + (2 + beta)*Q)
    with kappa = 4*alpha/(1 - 2*alpha - 2*beta) <= 4*alpha/(1 - 3*alpha).
    The bound rises with t, and t + (2 + beta)*Q >= 0 (it is at least
    (1 - 2*alpha - 2*beta)*W/2), so a larger kappa or Q factor only raises
    it: U = g + grow*(g + 2.5*Q) at g the row's kmax-th smallest group
    minimum, with grow = 4*(alpha + eps)/(1 - 3*alpha), is at least all kmax
    candidates' s + alpha*W. While alpha < 1/8, windows below 2**18 - 3
    values, that slack (eps in grow, 2.5 against 2 + beta) covers float32's
    rounding of the map, slope*g + lift with slope = 1 + grow and
    lift = (2.5*grow + 2*alpha)*Q plus the absolute terms, made once per
    cell; a longer window takes grow = 0 and the absolute terms' cap, which
    keeps every candidate. U is never below the map of the kmax-th smallest
    t over every candidate, so the screen keeps a superset of what that
    would keep, and the exact ranking of the kept candidates picks the same
    neighbors.
    Every row has kmax finite group minima: its first kmax candidates lie in
    consecutive columns, so in distinct groups as groups >= kmax. A block
    narrower than 32*kmax, as every block of the sim_study tuner's fold rows,
    keeps one group per column, so U is the map of each row's exact kmax-th
    smallest t; wider blocks trade a few more kept pairs for a partition
    1/slabs as wide.

    Each cell's rows are screened in blocks holding at most _BLOCK_FLOATS
    screen values (one row, if a row alone holds more). Every cell splits
    its rows alike, since the rows per block depend only on the candidate
    count, so the row blocks are made once per search: each block's rows,
    its width, its ragged bound (the columns before it are candidates of
    every row) and its mask of the columns past each row's last candidate.
    The candidate windows are copied lag-major once per search, with one row
    more, for every block's product; each cell writes its (1 - alpha)*W, by
    candidate, into that row and makes its rows' lifts once, for all its
    blocks. Columns past a row's last candidate are +inf, so they never
    lower its U and never pass.
    A block only screens: its kept (row, candidate) pairs, numbered by the
    search's rows, wait in a batch, which may span cells and is ranked once
    it holds at least one distance chunk of the shortest window,
    _BLOCK_FLOATS // base pairs, or once the last block is screened.
    The rows come cell-major, so each cell's pairs are one slice of the
    batch: ranking is one `_distances` per cell over its slice, which gives
    the einsum distances of a one-cell search bit for bit, and one `_rank`,
    a stable sort per row over the pairs of every cell of the batch. At most
    one chunk plus one block's kept pairs wait, fewer than 2*_BLOCK_FLOATS.
    The continuations of the chosen windows are gathered once for all cells:
    a window's continuation depends only on where it ends.
    """
    windows = [n * p for p, _ in cells]
    widest, top, count = windows[-1], int(ends.max()), len(ends)
    base = windows[0]  # the end of the earliest candidate window of any cell
    center = np.partition(values[ends - 1], count // 2)[count // 2]  # a median
    chunk = max(1, _BLOCK_FLOATS // widest)  # windows per chunk of _BLOCK_FLOATS values
    # norms[j, a] is |w|**2 of the centered window of length windows[j] ending
    # at a: the sum of the last windows[j] rows of column a of squares.
    tails = 1.0 * (np.arange(widest) >= widest - np.array(windows)[:, None])
    norms = np.empty((len(cells), top + 1))
    # Row a of ending (and of screened below) is the widest window ending just
    # before values[a] (zero-padded), so its last L columns are the window of
    # length L ending there.
    ending = _windows(np.concatenate([np.zeros(widest), values]), widest)
    with np.errstate(over="ignore", invalid="ignore"):  # far values overflow; 0*inf is NaN
        padded = np.concatenate([np.zeros(widest), values[:top] - center])
        squares = _windows(np.square(padded), top + 1)  # the same windows, lag-major
        for lo in range(0, top + 1, chunk):  # chunk columns copied at a time, for BLAS
            part = np.ascontiguousarray(squares[:, lo : lo + chunk])
            np.matmul(tails, part, out=norms[:, lo : lo + chunk])
    if not norms.max() <= np.finfo(float).max / 16:
        raise DataError("windows lie too far from the queries' level; rescale the series")
    # Every scaled |value| < 2**(60 - b) with widest <= 4**b, so every scaled |w|**2 < 2**120.
    shift = 60 - math.frexp(np.abs(padded).max())[1] - ((widest - 1).bit_length() + 1) // 2
    screened = _windows(np.ldexp(padded, shift).astype(np.float32), widest)
    scaled = np.ldexp(norms, 2 * shift).astype(np.float32)
    single = np.finfo(np.float32)
    einsum = 2.0 ** min(2 * shift - 1072, 124)
    # -2*q, exactly, and a 1 for the candidates' W row; a cell's product reads
    # the last L lags and the 1.
    queries = np.ones((count, widest + 1), np.float32)
    np.multiply(screened[ends], -2, out=queries[:, :-1])
    lasts = ends - (n + base)  # each end's last candidate column
    # Column c of a block is the candidate window ending at base + c, lag-major,
    # over the W row, which each cell fills with its (1 - alpha)*|w|**2.
    lagged = np.empty((widest + 1, top - n + 1 - base), np.float32)
    lagged[:-1] = screened[base : top - n + 1].T
    step = max(1, _BLOCK_FLOATS // lagged.shape[1])  # rows per block
    blocks = []  # every cell's row blocks: their rows, width, ragged bound and past-last mask
    for start in range(0, count, step):
        last = lasts[start : start + step]
        width, ragged = int(last.max()) + 1, int(last.min()) + 1
        past = np.arange(ragged, width) > last[:, None]
        blocks.append((start, start + len(last), width, ragged, past))
    span = max(1, _BLOCK_FLOATS // base)  # pairs per batch
    row_ends = np.concatenate([ends] * len(cells))
    firsts = np.arange(0, len(row_ends) + count, count)  # each cell's first row, and the end
    K = max(kmax for _, kmax in cells)
    d2, starts = np.empty((len(row_ends), K)), np.empty((len(row_ends), K), np.intp)
    pending, held, first = [], 0, 0  # the batch's kept pairs, their count, its first row
    for j, (L, (_, kmax)) in enumerate(zip(windows, cells)):
        alpha = 4 * (L + 3) * float(single.eps)
        # The margin's absolute terms, the einsum's capped to stay finite.
        floor = L * 8 * float(single.tiny) + min(L * einsum, 2.0**124)
        np.multiply(scaled[j, base : top - n + 1], 1 - alpha, out=lagged[-1])  # the W row
        if 8 * alpha < 1:  # U's map holds: windows below 2**18 - 3 values
            grow = 4 * (alpha + float(single.eps)) / (1 - 3 * alpha)
        else:  # the floor's cap keeps every candidate
            grow, floor = 0.0, 2.0**124
        # U plus the margin is slope*g + lift, g the row's kmax-th smallest group minimum.
        slope, lift = 1 + grow, (2.5 * grow + 2 * alpha) * scaled[j, ends] + floor
        for start, stop, width, ragged, past in blocks:
            # t = s - alpha*|w|**2; no window of length L ends before L.
            screen = np.matmul(queries[start:stop, -L - 1 :], lagged[-L - 1 :, :width])
            screen[:, : L - base] = np.inf
            np.putmask(screen[:, ragged:], past, np.inf)
            # Column c of slab c // groups is in group c % groups; the last slab is short.
            slabs = max(1, min(8, width // (16 * kmax)))
            groups = -(-width // slabs)
            if slabs > 1:  # each group's minimum, the last slab's by one np.minimum
                cut = (slabs - 1) * groups
                minima = screen[:, :cut].reshape(stop - start, slabs - 1, groups).min(axis=1)
                np.minimum(minima[:, : width - cut], screen[:, cut:], out=minima[:, : width - cut])
            else:
                minima = screen.copy()
            minima.partition(kmax - 1, axis=1)
            keep = screen <= (minima[:, kmax - 1] * slope + lift[start:stop])[:, None]
            rows, near = np.divmod(keep.ravel().nonzero()[0], width)
            pending.append((rows + j * count + start, near))  # the search's row numbers
            held += len(rows)
            done = j * count + stop  # the search's rows screened so far
            if held < span and done < len(row_ends):
                continue
            rows, near = map(np.concatenate, zip(*pending))
            # One exact distance pass per cell of the batch, over its slice of the pairs.
            exact, near, query = np.empty(len(rows)), near + base, row_ends[rows]
            cuts = np.searchsorted(rows, firsts[first // count : j + 2]).tolist()
            for window, lo, hi in zip(windows[first // count : j + 1], cuts, cuts[1:]):
                exact[lo:hi] = _distances(ending[:, -window:], near[lo:hi], query[lo:hi])
            chosen = _rank(rows - first, exact, done - first, K)
            d2[first:done], starts[first:done] = exact[chosen], near[chosen]
            pending, held, first = [], 0, done
    return d2, ending[starts + n, -n:]


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Every window of width values of the contiguous 1-D array a, one per row, as a view.

    The same view as sliding_window_view, without the argument checks that
    make that cost some twenty times as much, which a one-end search would
    pay three times.
    """
    return np.ndarray((len(a) - width + 1, width), a.dtype, a, 0, a.strides * 2)


def _rank(rows: np.ndarray, exact: np.ndarray, count: int, kmax: int) -> np.ndarray:
    """Per row 0 .. count-1 of the pairs, the indices of its kmax least exact distances.

    rows come sorted, and within a row the pairs come in candidate order;
    every row holds at least one pair. Each row's distances fill one row of a
    matrix padded with +inf, and one stable sort per row orders them, so equal
    distances keep the earlier candidate first. Rows are sorted in chunks
    whose matrix holds at most _BLOCK_FLOATS values (one row, if a row alone
    holds more). Returns shape (count, kmax), nearest first; past a row's own
    pairs, the indices are of other pairs.
    """
    kept = np.bincount(rows, minlength=count)
    offsets = kept.cumsum() - kept  # each row's first pair
    chosen = np.empty((count, kmax), np.intp)
    lo = 0
    while lo < count:
        hi, wide = count, int(kept[lo:].max())  # a matrix as wide as its rows' most pairs
        if (hi - lo) * wide > _BLOCK_FLOATS:  # the most rows from lo whose matrix fits
            most = np.maximum.accumulate(kept[lo : lo + max(1, _BLOCK_FLOATS // kept[lo])])
            sizes = most * np.arange(1, len(most) + 1)  # of the matrices of rows lo .. lo + i
            hi = lo + max(1, int(np.count_nonzero(sizes <= _BLOCK_FLOATS)))
            wide = int(most[hi - lo - 1])
        pairs = slice(offsets[lo], offsets[hi - 1] + kept[hi - 1])
        matrix = np.empty((hi - lo, max(wide, kmax)))
        matrix.fill(np.inf)
        # Row-major, the first kept[r] slots of row r take its pairs in order.
        matrix[np.arange(matrix.shape[1]) < kept[lo:hi, None]] = exact[pairs]
        order = np.argsort(matrix, axis=1, kind="stable")[:, :kmax]
        np.minimum(order + offsets[lo:hi, None], pairs.stop - 1, out=chosen[lo:hi])
        lo = hi
    return chosen


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
    history = _instance("history", history, TimeSeries)
    return spec.forecast_at(history, [len(history)], config.n)[0]


def _grid(name: str, grid) -> list[int]:
    """The distinct entries of an iterable of positive integers, in order."""
    if not isinstance(grid, Iterable):
        raise InvalidParamsError(f"{name} must be an iterable of positive integers, got {grid!r}")
    return sorted({_positive_int(f"{name} entry", entry) for entry in grid})


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
    Each k is averaged once over every p that takes it, a leading slice of the
    search's rows, and one MAPE reduction scores every cell; each row still
    sums the same values in the same order, so the objectives are those of
    one cell at a time, bit for bit.
    """
    weighting = Weighting(weighting)
    n = _positive_int("n", n)
    folds = _positive_int("folds", folds)
    values = _instance("series", series, TimeSeries).values
    T = int(values.size)
    ps, ks = _grid("p_grid", p_grid), _grid("k_grid", k_grid)
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
        lines = "; ".join(f"(p={p}, k={k}): {why}" for p, k, why in skipped[:5])
        more = "" if len(skipped) <= 5 else f" (+{len(skipped) - 5} more)"
        raise GridInfeasibleError(f"no grid cell is feasible: {lines}{more}")
    # Only now are the ends known to be non-negative.
    actual = values[T - n * folds :].reshape(folds, n)[::-1]  # row i: fold i + 1
    d2, continuations = _nearest(values, ends, n, [(p, feasible[-1]) for p, feasible in cells])
    # A larger p never takes more k, so the smallest p takes every k and the p
    # that take the j-th k are a prefix of cells, whose rows lead the search's.
    keys, forecasts = [], []
    for j, k in enumerate(cells[0][1]):
        group = [p for p, feasible in cells if len(feasible) > j]
        rows = len(group) * folds
        forecasts.append(_neighbor_average(d2[:rows], continuations[:rows], k, weighting))
        keys.extend((p, k) for p in group)
    stacked = np.concatenate(forecasts).reshape(-1, folds, n)  # one (folds, n) per cell
    objectives = np.mean(_mape_rows(actual, stacked), axis=1)
    trace = sorted((p, k, float(o)) for (p, k), o in zip(keys, objectives))  # p-major, k-minor
    best = min(range(len(trace)), key=lambda i: trace[i][2])
    p_star, k_star, objective = trace[best]
    return TuneResult(p_star, k_star, objective, tuple(trace), tuple(skipped))


def split_and_tune(
    series: TimeSeries,
    n: int,
    delta: float,
    folds: int | None = None,
    p_grid: Iterable[int] = DEFAULT_GRID,
    k_grid: Iterable[int] = DEFAULT_GRID,
    weighting: Weighting | str = Weighting.INVERSE_DISTANCE,
) -> tuple[SplitSpec, HorizonConfig, TuneResult]:
    """(split, HorizonConfig(n, p*, k*), TuneResult) from tuning at level delta's split.

    The training block is the series minus its last n*i2 values, the split's test
    block; `fpto_tune` searches it with split.i1 folds unless folds is given.
    """
    series = _instance("series", series, TimeSeries)
    split = split_sizes(len(series), n, delta)
    train = TimeSeries(series.values[: len(series) - n * split.i2], series.period)
    result = fpto_tune(train, n, split.i1 if folds is None else folds, p_grid, k_grid, weighting)
    return split, HorizonConfig(n, result.p_star, result.k_star), result
