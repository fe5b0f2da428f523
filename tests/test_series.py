import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwnn import (
    HorizonConfig,
    SplitSpec,
    TimeSeries,
    min_calibration_count,
    rank_for,
    split_sizes,
)
from cpwnn.errors import (
    DataError,
    EmptySeriesError,
    InsufficientCalibrationError,
    InvalidParamsError,
    NonFiniteValueError,
    SeriesTooShortError,
    ZeroActualError,
)
from cpwnn.series import _mape_rows


class TestValidateSeries:
    def test_plain_construction(self):
        ts = TimeSeries([1.0, 2.0, 3.0], 12)
        assert len(ts) == 3
        assert ts.period == 12

    def test_nan_reports_position(self):
        with pytest.raises(NonFiniteValueError) as exc:
            TimeSeries([1.0, float("nan")], 12)
        assert str(exc.value) == "non-finite value nan at position 1"

    @pytest.mark.parametrize("values", [["a"], [[1.0], [2.0, 3.0]]])
    def test_values_that_are_not_numbers_are_data_error(self, values):
        with pytest.raises(DataError, match="series values do not form a numeric array"):
            TimeSeries(values, 12)

    def test_a_value_too_large_for_a_float_is_data_error(self):
        with pytest.raises(DataError, match="series values do not form a numeric array"):
            TimeSeries([1.0, 10**400], 12)

    def test_numeric_strings_are_read(self):
        assert TimeSeries(["1.5", "2"], 12).values.tolist() == [1.5, 2.0]

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteValueError):
            TimeSeries([1.0, float("inf"), 2.0], 12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySeriesError):
            TimeSeries([], 12)

    def test_bad_period(self):
        with pytest.raises(InvalidParamsError, match="period must be a positive integer, got 0"):
            TimeSeries([1.0], 0)

    def test_two_dimensional_values_are_a_data_error(self):
        with pytest.raises(DataError):
            TimeSeries([[1.0, 2.0], [3.0, 4.0]], 12)

    def test_values_are_read_only(self):
        ts = TimeSeries([1.0, 2.0], 4)
        with pytest.raises(ValueError):
            ts.values[0] = 9.0


class TestHorizonConfig:
    @pytest.mark.parametrize("bad", [dict(n=0, p=1, k=1), dict(n=1, p=0, k=1), dict(n=1, p=1, k=0)])
    def test_positive_fields(self, bad):
        with pytest.raises(InvalidParamsError):
            HorizonConfig(**bad)


def row_mape(actual, predicted):
    """`series._mape_rows` on one row, as the tuner and the backtest read it."""
    return float(_mape_rows(np.asarray(actual, dtype=float), np.asarray(predicted, dtype=float)))


class TestMape:
    def test_symmetric_one_percent(self):
        assert row_mape([100.0, 100.0], [99.0, 101.0]) == pytest.approx(1.0)

    def test_exact_forecast_is_zero(self):
        assert row_mape([5.0, 5.0, 5.0], [5.0, 5.0, 5.0]) == 0.0

    def test_hand_arithmetic(self):
        # (|10/100| + |20/200|) / 2 * 100 = 10
        assert row_mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0)

    def test_zero_actual_reports_index(self):
        with pytest.raises(ZeroActualError) as exc:
            row_mape([1.0, 0.0, 3.0], [1.0, 1.0, 3.0])
        assert str(exc.value) == "actual value at position 1 is zero; MAPE is undefined there"

    @pytest.mark.parametrize("actual, predicted, position", [
        ([1e-310, 1.0], [10.0, 1.0], 0),  # 10 / 1e-310 overflows
        ([1.0, 1e-310, 2.0], [1.0, 10.0, 2.0], 1),
        ([1e-300, 1e-300], [1e8, 1e8], 0),  # each term is finite, their sum is not
    ])
    def test_overflowing_term_is_data_error(self, actual, predicted, position):
        with pytest.raises(DataError, match=f"at position {position} overflows") as exc:
            row_mape(actual, predicted)
        assert type(exc.value) is DataError

    @given(st.lists(st.floats(min_value=0.5, max_value=1e6), min_size=1, max_size=30))
    def test_self_mape_is_zero(self, xs):
        assert row_mape(xs, xs) == 0.0

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=1e4), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, xs, c):
        rng = np.random.default_rng(0)
        actual = np.asarray(xs)
        predicted = actual * (1.0 + 0.1 * rng.standard_normal(actual.size))
        base = row_mape(actual, predicted)
        scaled = row_mape(c * actual, c * predicted)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestSplitSizes:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (102, 127)), (2, (51, 64)), (3, (34, 43)), (4, (26, 32))],
    )
    @pytest.mark.parametrize("delta", [0.05, 0.08, 0.10])
    def test_known_pairs_for_T_634(self, n, expected, delta):
        split = split_sizes(634, n, delta)
        assert (split.i1, split.i2) == expected

    def test_floor_branch_kicks_in(self):
        # 20% of the training block is below 1/delta - 1, so i1 falls back.
        split = split_sizes(300, 3, 0.05)
        assert split.i1 == min_calibration_count(0.05) == 19
        assert split.i2 == 20

    @pytest.mark.parametrize("T,n,delta", [(634, 1, 0.05), (300, 3, 0.05), (97, 1, 0.3), (1000, 5, 0.1)])
    def test_rank_feasible_at_first_step(self, T, n, delta):
        split = split_sizes(T, n, delta)
        assert math.floor(delta * (split.i1 + 1) + 1e-9) >= 1

    def test_min_calibration_count_is_the_feasibility_boundary(self):
        # the rank rule, the split's feasibility check and the split's i1 floor
        # must agree on where the first rank appears, dust-prone deltas included
        deltas = [0.05, 0.08, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.9, *np.linspace(0.005, 0.995, 199)]
        for delta in map(float, deltas):
            m = min_calibration_count(delta)
            assert rank_for(delta, m) == 1
            SplitSpec(i1=m, i2=1, delta=delta)
            if m > 1:
                assert rank_for(delta, m - 1) == 0
                with pytest.raises(InsufficientCalibrationError):
                    SplitSpec(i1=m - 1, i2=1, delta=delta)
            assert split_sizes(1000, 1, delta).i1 >= m

    @pytest.mark.parametrize(
        "delta", [0, 0.0, 1.0, float("nan"), "x", None, True, 10**400],
        ids=["0", "0.0", "1.0", "nan", "x", "None", "True", "1e400"],
    )
    def test_rank_rules_check_their_delta(self, delta):
        with pytest.raises(InvalidParamsError, match=r"delta must lie in \(0, 1\)"):
            rank_for(delta, 10)
        with pytest.raises(InvalidParamsError, match=r"delta must lie in \(0, 1\)"):
            rank_for(delta, np.arange(3, 6))
        with pytest.raises(InvalidParamsError, match=r"delta must lie in \(0, 1\)"):
            min_calibration_count(delta)

    @pytest.mark.parametrize(
        "h",
        [0, -5, 2.5, True, None, "3", [1, 2], np.array(3), np.array([[3]]), np.array([2.0]),
         np.array([True]), np.array([4, 0]), np.array([np.iinfo(np.int64).max])],
        ids=["0", "-5", "2.5", "True", "None", "str", "list", "0-D", "2-D", "float array",
             "bool array", "zero entry", "int64 max"],
    )
    def test_rank_for_reads_its_h(self, h):
        with pytest.raises(InvalidParamsError, match="h must be a positive integer"):
            rank_for(0.5, h)

    def test_rank_for_rejects_an_h_whose_rank_overflows(self):
        assert rank_for(0.5, 10**300) == int(np.floor(0.5 * (10**300 + 1)))
        with pytest.raises(InvalidParamsError, match=r"delta\*\(h\+1\) overflows"):
            rank_for(0.5, 10**400)

    def test_rank_for_takes_integer_arrays_empty_included(self):
        assert rank_for(0.5, np.int64(7)) == 4
        assert rank_for(0.5, np.array([], dtype=int)).shape == (0,)
        for dtype in (np.int64, np.int32, np.uint8):
            ranks = rank_for(0.5, np.arange(1, 6, dtype=dtype))
            assert ranks.tolist() == [1, 1, 2, 2, 3]

    def test_a_delta_too_small_for_any_count_is_invalid(self):
        # 1/delta overflows to inf, which has no ceiling
        with pytest.raises(InvalidParamsError, match="too small for any calibration count"):
            min_calibration_count(5e-324)
        with pytest.raises(InvalidParamsError, match="too small for any calibration count"):
            split_sizes(300, 1, 1e-310)

    def test_too_short(self):
        # i2 = 5 and the delta floor forces i1 = 19, leaving no training data
        with pytest.raises(SeriesTooShortError):
            split_sizes(24, 1, 0.05)

    def test_length_typed(self):
        with pytest.raises(InvalidParamsError, match="T must be a positive integer"):
            split_sizes(True, 1, 0.5)

    def test_spec_invariants_enforced(self):
        with pytest.raises(InsufficientCalibrationError) as exc:
            SplitSpec(i1=5, i2=3, delta=0.05)
        assert str(exc.value) == (
            "h=5 calibration examples are too few for this significance level; need at least 19"
        )
        with pytest.raises(InvalidParamsError):
            SplitSpec(i1=20, i2=3, delta=1.5)


def test_timeseries_is_immutable_value():
    ts = TimeSeries(np.array([1.0, 2.0]), 2)
    with pytest.raises(AttributeError):
        ts.period = 3
