"""Series container, the shared MAPE, the calibration/test split rule and the
order-statistic rank rule both the split and the regions rest on.

A series of length T is written a_1..a_T in the docs; storage is a plain
read-only float64 array. Every type here is frozen, every function pure, so
everything is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    EmptySeriesError,
    InsufficientCalibrationError,
    InvalidParamsError,
    NonFiniteValueError,
    SeriesTooShortError,
    ZeroActualError,
)

# Absorbs float representation dust in floor/ceil expressions involving delta
# (e.g. 1/0.05 - 1 evaluating to 19.000000000000004).
_DUST = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _floats(what: str, values, error=InvalidParamsError) -> np.ndarray:
    """Read outside values as a float array; numpy's conversion errors become `error`."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} do not form a numeric array: {exc}") from None


def _positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParamsError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _instance(name: str, value, kind: type):
    """value, if it is a kind; else InvalidParamsError naming the type it got."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        got = type(value).__name__
        raise InvalidParamsError(f"{name} must be {article} {kind.__name__}, got {got}")
    return value


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _open_unit(name: str, value) -> None:
    """Reject a value that is not a number in the open interval (0, 1)."""
    if not _is_number(value) or not 0.0 < value < 1.0:
        raise InvalidParamsError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Univariate series with seasonal-period metadata."""

    values: np.ndarray
    period: int = 12

    def __post_init__(self):
        arr = _floats("series values", self.values, DataError)
        if arr.ndim != 1:
            raise DataError("series values must be one-dimensional")
        if arr.size == 0:
            raise EmptySeriesError("series must contain at least one observation")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            i = int(bad[0])
            raise NonFiniteValueError(f"non-finite value {float(arr[i])!r} at position {i}")
        object.__setattr__(self, "period", _positive_int("period", self.period))
        object.__setattr__(self, "values", _freeze(arr))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class HorizonConfig:
    """Forecast geometry: n values per step, a window of n*p lags, k neighbors."""

    n: int
    p: int
    k: int

    def __post_init__(self):
        for name in ("n", "p", "k"):
            object.__setattr__(self, name, _positive_int(name, getattr(self, name)))


def rank_for(delta: float, h: int | np.ndarray) -> int | np.ndarray:
    """Order-statistic rank floor(delta*(h+1)), guarded against float dust.

    h is a positive int, or a 1-D integer array of them (maybe empty) for one
    rank per entry by the same IEEE operations. Any other h, and one too large
    to rank (delta*(h+1) overflows a float, or h+1 the array's integers), is
    InvalidParamsError.
    """
    _open_unit("delta", delta)
    if not isinstance(h, np.ndarray):
        h = _positive_int("h", h)
    elif h.ndim != 1 or h.dtype.kind not in "iu" or h.size and (
        h.min() < 1 or h.max() == np.iinfo(h.dtype).max
    ):
        raise InvalidParamsError(
            f"h must be a positive integer or a 1-D array of them, got a {h.ndim}-D {h.dtype} array"
        )
    try:
        rank = np.floor(delta * (h + 1) + _DUST)
    except OverflowError:
        raise InvalidParamsError("h is too large for a rank: delta*(h+1) overflows") from None
    return rank.astype(int) if np.ndim(rank) else int(rank)


def min_calibration_count(delta: float) -> int:
    """Smallest calibration count h for which floor(delta*(h+1)) reaches 1."""
    _open_unit("delta", delta)
    if 1.0 / delta == math.inf:
        raise InvalidParamsError(f"delta = {delta!r} is too small for any calibration count")
    return math.ceil(1.0 / delta - 1.0 - _DUST)


def _feasible_rank(delta: float, h: int) -> int:
    """rank_for(delta, h) for a valid h and delta; InsufficientCalibrationError below 1.

    A delta within float dust of 1 rounds the rank past h: InvalidParamsError.
    """
    h = _positive_int("h", h)
    s = rank_for(delta, h)
    if s < 1:
        raise InsufficientCalibrationError(
            f"h={h} calibration examples are too few for this significance level; "
            f"need at least {min_calibration_count(delta)}"
        )
    if s > h:
        raise InvalidParamsError(
            f"delta = {delta!r} is too close to 1: its rank {s} exceeds h = {h}"
        )
    return s


@dataclass(frozen=True)
class SplitSpec:
    """Counts of calibration (i1) and test (i2) examples plus significance level."""

    i1: int
    i2: int
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "i1", _positive_int("i1", self.i1))
        object.__setattr__(self, "i2", _positive_int("i2", self.i2))
        # delta must lie in (0, 1) and floor(delta*(i1+1)) >= 1, so the first step has a rank.
        _feasible_rank(self.delta, self.i1)


def _mape_rows(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """MAPE over the last axis, in percent; predicted broadcasts against actual.

    `fpto_tune` scores every (p, k) cell of its grid at once: a (cells, folds, n)
    stack of forecasts against the (folds, n) actuals. A zero actual raises
    ZeroActualError with its position in the first row that holds one, and a
    row whose MAPE overflows raises DataError with the position of its largest
    term.
    """
    zeros = np.flatnonzero(actual == 0.0)
    if zeros.size:
        i = int(zeros[0]) % actual.shape[-1]
        raise ZeroActualError(f"actual value at position {i} is zero; MAPE is undefined there")
    with np.errstate(over="ignore"):
        terms = np.abs((predicted - actual) / actual)
        rows = 100.0 * np.mean(terms, axis=-1)
    bad = np.flatnonzero(~np.isfinite(rows))
    if bad.size:
        i = int(np.argmax(terms.reshape(-1, terms.shape[-1])[bad[0]]))
        raise DataError(f"the percentage error at position {i} overflows; rescale the series")
    return rows


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def split_sizes(T: int, n: int, delta: float) -> SplitSpec:
    """Derive (i1, i2) from the 20%-test-block rule with a feasibility floor on i1.

    i2 = ceil(0.2*T/n). i1 = ceil(0.2*(T - n*i2)/n) when that is large enough
    for the first rank to exist, otherwise the floor ceil(1/delta - 1). Both
    ceilings are evaluated in exact integer arithmetic.
    """
    T = _positive_int("T", T)
    n = _positive_int("n", n)
    i2 = _ceil_div(T, 5 * n)
    i1 = _ceil_div(T - n * i2, 5 * n)
    i1 = max(i1, min_calibration_count(delta))
    if T - n * (i1 + i2) < n:
        raise SeriesTooShortError(
            f"series of length {T} leaves no training data after holding out "
            f"n*(i1+i2) = {n * (i1 + i2)} observations"
        )
    return SplitSpec(i1=i1, i2=i2, delta=delta)
