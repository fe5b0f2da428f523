"""Every public reader of outside arrays raises only this package's errors.

The four readers (`TimeSeries`, `PredictionRegion`, `CheckReport`,
`backtest_matrices`) and the two rank rules (`rank_for`,
`min_calibration_count`) get malformed input: cells that are not numbers,
ragged rows, NaN and infinities, integers too large for a float, arrays of
the wrong rank and hits other than 0 and 1. Each call either
returns or raises a `ForecastError`; numpy's own exceptions, and its
warnings (errors in this suite), must not escape.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwnn import (
    CheckReport,
    PredictionRegion,
    TimeSeries,
    backtest_matrices,
    min_calibration_count,
    rank_for,
)
from cpwnn.errors import ForecastError

BAD_CELLS = ["x", None, {}, 10**400, -(10**400), float("nan"), float("inf"), -float("inf"),
             [1.0, 2.0], 2, -1, 0.5, 256]
CELLS = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, 1e308]), st.sampled_from(BAD_CELLS)
)


@st.composite
def arrays(draw):
    """A nested list of 0 to 3 dimensions, often ragged or holding a bad cell."""
    rank = draw(st.integers(0, 3))
    if rank == 0:
        return draw(CELLS)
    shape = draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank))

    def build(dims):
        if len(dims) == 1:
            return draw(st.lists(CELLS, min_size=dims[0], max_size=dims[0]))
        rows = [build(dims[1:]) for _ in range(dims[0])]
        if rows and draw(st.booleans()):  # ragged: one row shorter or longer
            rows[-1] = rows[-1][:-1] if rows[-1] and draw(st.booleans()) else [*rows[-1], 0.0]
        return rows

    return build(shape)


DELTAS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 1e-310, 10**400, "0.1", None, True, 0, 1]),
)

READERS = {
    "TimeSeries": lambda a, b, delta: TimeSeries(a),
    "PredictionRegion": lambda a, b, delta: PredictionRegion(a, b, delta, 1),
    "CheckReport": lambda a, b, delta: CheckReport(a, b, {}),
    "backtest_matrices": lambda a, b, delta: backtest_matrices(a, b, delta),
    "rank_for": lambda a, b, delta: rank_for(delta, 10),
    "rank_for(array)": lambda a, b, delta: rank_for(delta, np.arange(1, 6)),
    "min_calibration_count": lambda a, b, delta: min_calibration_count(delta),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(READERS)), arrays(), arrays(), DELTAS)
def test_readers_raise_only_typed_errors(reader, first, second, delta):
    try:
        READERS[reader](first, second, delta)
    except ForecastError:
        pass
