"""Every public reader of outside arrays raises only this package's errors.

The four readers (`TimeSeries`, `PredictionRegion`, `CheckReport`,
`backtest_matrices`) and the two rank rules (`rank_for`,
`min_calibration_count`) get malformed input: cells that are not numbers,
ragged rows, NaN and infinities, integers too large for a float, arrays of
the wrong rank and hits other than 0 and 1. Each call either
returns or raises a `ForecastError`; numpy's own exceptions, and its
warnings (errors in this suite), must not escape.

The public entry points that take a series, a spec, a split, ETS parameters
or a grid raise `InvalidParamsError` for an argument of another type.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwnn import (
    CheckReport,
    ForecasterSpec,
    HorizonConfig,
    PredictionRegion,
    SplitSpec,
    TimeSeries,
    backtest_matrices,
    check_cp,
    compare_forecasters,
    conformal_region,
    fpto_tune,
    min_calibration_count,
    rank_for,
    run_backtest,
    simulate_ets,
    theoretical_width,
    wnn_forecast,
)
from cpwnn.errors import ForecastError, InvalidParamsError

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


SERIES = TimeSeries(np.round(np.random.default_rng(7).normal(10.0, 1.0, 120), 1), 4)
CONFIG, SPLIT = HorizonConfig(n=2, p=2, k=3), SplitSpec(i1=8, i2=7, delta=0.2)
WRONG_TYPES = {
    "fpto_tune(series=ndarray)": lambda: fpto_tune(SERIES.values, 2, 3),
    "fpto_tune(series=list)": lambda: fpto_tune(SERIES.values.tolist(), 2, 3),
    "fpto_tune(p_grid=3)": lambda: fpto_tune(SERIES, 2, 3, p_grid=3),
    "fpto_tune(k_grid=None)": lambda: fpto_tune(SERIES, 2, 3, k_grid=None),
    "wnn_forecast(history=ndarray)": lambda: wnn_forecast(SERIES.values, CONFIG),
    "wnn_forecast(history=list)": lambda: wnn_forecast(SERIES.values.tolist(), CONFIG),
    "check_cp(series=ndarray)": lambda: check_cp(SERIES.values, CONFIG, SPLIT),
    "check_cp(series=list)": lambda: check_cp(SERIES.values.tolist(), CONFIG, SPLIT),
    "check_cp(split=None)": lambda: check_cp(SERIES, CONFIG, None),
    "conformal_region(series=ndarray)": lambda: conformal_region(SERIES.values, CONFIG, 19, 0.1),
    "conformal_region(series=list)": lambda: conformal_region(
        SERIES.values.tolist(), CONFIG, 19, 0.1
    ),
    "run_backtest(spec=str)": lambda: run_backtest(SERIES, "wnn", 2, SPLIT),
    "run_backtest(spec=HorizonConfig)": lambda: run_backtest(SERIES, CONFIG, 2, SPLIT),
    "compare_forecasters(specs=[str])": lambda: compare_forecasters(
        SERIES, [ForecasterSpec.wnn(CONFIG), "wnn"], 2, SPLIT
    ),
    "compare_forecasters(specs=None)": lambda: compare_forecasters(SERIES, None, 2, SPLIT),
    "simulate_ets(params=None)": lambda: simulate_ets(None, 10, 1),
    "theoretical_width(params=None)": lambda: theoretical_width(None, 2, 0.9),
}


@pytest.mark.parametrize("call", sorted(WRONG_TYPES))
def test_a_wrong_argument_type_is_invalid_params(call):
    with pytest.raises(InvalidParamsError, match="must be a"):
        WRONG_TYPES[call]()
