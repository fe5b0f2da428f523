import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from cpwnn import etssim, wnn
from cpwnn import (
    ForecasterSpec,
    HorizonConfig,
    SplitSpec,
    TimeSeries,
    Weighting,
    check_cp,
    conformal_region,
    fpto_tune,
    mape,
    run_backtest,
    split_sizes,
    wnn_forecast,
)
from cpwnn.errors import (
    DataError,
    GridInfeasibleError,
    InvalidParamsError,
    SeriesTooShortError,
    ZeroActualError,
)

WEIGHT_EPS = 1e-8


def naive_wnn(values, n, p, k, weighting=Weighting.INVERSE_DISTANCE):
    """Slow reference: enumerate every window, sort by (distance, position)."""
    values = np.asarray(values, dtype=float)
    window = n * p
    query = values[-window:]
    candidates = []
    for i in range(values.size - window - n + 1):
        d2 = float(((values[i : i + window] - query) ** 2).sum())
        candidates.append((d2, i, values[i + window : i + window + n]))
    candidates.sort(key=lambda c: (c[0], c[1]))
    chosen = candidates[:k]
    if weighting is Weighting.UNIFORM:
        return np.mean([c[2] for c in chosen], axis=0)
    raw = np.array([1.0 / (c[0] + WEIGHT_EPS) for c in chosen])
    w = raw / raw.sum()
    return sum(wi * c[2] for wi, c in zip(w, chosen))


def naive_mape_star(values, n, folds, p, k, weighting=Weighting.INVERSE_DISTANCE):
    total = 0.0
    T = len(values)
    for i in range(1, folds + 1):
        predicted = naive_wnn(values[: T - i * n], n, p, k, weighting)
        total += mape(values[T - i * n : T - i * n + n], predicted)
    return total / folds


def reference_fold_forecast(values, n, p, k, weighting):
    """The per-fold arithmetic the batched search must reproduce bit for bit:
    every candidate's distance, a full stable sort, w /= w.sum(), w @ C."""
    window = n * p
    count = values.size - window - n + 1
    diff = sliding_window_view(values, window)[:count] - values[-window:]
    d2 = np.einsum("ij,ij->i", diff, diff)
    chosen = np.argsort(d2, kind="stable")[:k]
    continuations = sliding_window_view(values, n)[window : window + count][chosen]
    if weighting is Weighting.UNIFORM:
        return continuations.mean(axis=0)
    w = 1.0 / (d2[chosen] + WEIGHT_EPS)
    w /= w.sum()
    return w @ continuations


def reference_nearest(values, ends, window, n, kmax):
    """The one-query-at-a-time search: per end, every candidate's distance, then
    the partition-plus-stable-sort selection of the kmax nearest."""
    windows = sliding_window_view(values, window)
    following = windows[n:, window - n :]
    d2 = np.empty((len(ends), kmax))
    continuations = np.empty((len(ends), kmax, n))
    for row, e in enumerate(ends):
        diff = windows[: e - window - n + 1] - values[e - window : e]
        dist = np.einsum("ij,ij->i", diff, diff)
        near = np.flatnonzero(dist <= np.partition(dist, kmax - 1)[kmax - 1])
        chosen = near[np.argsort(dist[near], kind="stable")[:kmax]]
        d2[row] = dist[chosen]
        continuations[row] = following[chosen]
    return d2, continuations


def nearest_per_cell(values, ends, n, cells):
    """`_nearest`'s stacked rows split into one (d2, continuations) per cell."""
    d2, continuations = wnn._nearest(values, ends, n, cells)
    rows = [slice(j * len(ends), (j + 1) * len(ends)) for j in range(len(cells))]
    return [(d2[r, :kmax], continuations[r, :kmax]) for r, (_, kmax) in zip(rows, cells)]


def assert_same_nearest(values, ends, n, p, kmax):
    """`_nearest` at one (p, kmax) gives the reference's neighbors, with ==."""
    got = wnn._nearest(values, ends, n, [(p, kmax)])
    want = reference_nearest(values, ends, n * p, n, kmax)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return want


def reference_mape(actual, predicted):
    zeros = np.flatnonzero(actual == 0.0)
    if zeros.size:
        i = int(zeros[0])
        raise ZeroActualError(f"actual value at position {i} is zero; MAPE is undefined there")
    return float(100.0 * np.mean(np.abs((predicted - actual) / actual)))


def reference_trace(values, n, folds, p_grid, k_grid, weighting):
    """One fold at a time: the fold MAPEs of every feasible cell, then np.mean."""
    T = values.size
    trace = []
    for p in p_grid:
        shortest = T - folds * n
        if shortest < n * p + n:
            continue
        for k in k_grid:
            if k > shortest - n * p - n + 1:
                continue
            errors = [
                reference_mape(
                    values[T - i * n : T - i * n + n],
                    reference_fold_forecast(values[: T - i * n], n, p, k, weighting),
                )
                for i in range(1, folds + 1)
            ]
            trace.append((p, k, float(np.mean(errors))))
    return trace


class TestWnnForecast:
    def test_constant_series(self):
        ts = TimeSeries(np.full(30, 5.0), 12)
        forecast = wnn_forecast(ts, HorizonConfig(n=2, p=2, k=3))
        assert forecast == pytest.approx([5.0, 5.0])

    def test_exact_periodic_next_period(self):
        profile = np.array([3.0, 7.0, 1.0, 9.0])
        ts = TimeSeries(np.tile(profile, 10), 4)
        forecast = wnn_forecast(ts, HorizonConfig(n=4, p=1, k=1))
        assert np.array_equal(forecast, profile)
        assert np.array_equal(forecast, naive_wnn(ts.values, 4, 1, 1))

    def test_k1_returns_nearest_continuation(self):
        rng = np.random.default_rng(7)
        values = rng.normal(10.0, 2.0, size=40)
        ts = TimeSeries(values, 4)
        forecast = wnn_forecast(ts, HorizonConfig(n=2, p=3, k=1))
        assert np.array_equal(forecast, naive_wnn(values, 2, 3, 1))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        values = rng.normal(50.0, 5.0, size=60)
        ts = TimeSeries(values, 12)
        for weighting in Weighting:
            got = wnn_forecast(ts, HorizonConfig(n=3, p=2, k=4), weighting)
            want = naive_wnn(values, 3, 2, 4, weighting)
            assert got == pytest.approx(want, rel=1e-12)

    def test_history_too_short(self):
        # window 6 + n 3 needs 9 values, more than the 6 there are
        ts = TimeSeries(np.arange(1.0, 7.0), 2)
        with pytest.raises(SeriesTooShortError, match="needs history of at least 9"):
            wnn_forecast(ts, HorizonConfig(n=3, p=2, k=1))

    def test_too_few_candidates(self):
        # window 6 + n 2 fit in 9 values, but k = 5 candidates need 12
        ts = TimeSeries(np.arange(1.0, 10.0), 2)
        with pytest.raises(SeriesTooShortError, match="needs history of at least 12"):
            wnn_forecast(ts, HorizonConfig(n=2, p=3, k=5))

    def test_bounded_by_neighbor_labels(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 3.0, size=50)
        ts = TimeSeries(values, 4)
        config = HorizonConfig(n=2, p=2, k=5)
        forecast = wnn_forecast(ts, config)
        # reference labels of the selected neighbors
        window = config.n * config.p
        query = values[-window:]
        d2 = [((values[i : i + window] - query) ** 2).sum() for i in range(values.size - window - 1)]
        order = np.argsort(d2, kind="stable")[:5]
        labels = np.array([values[i + window : i + window + 2] for i in order])
        assert np.all(forecast >= labels.min(axis=0) - 1e-9)
        assert np.all(forecast <= labels.max(axis=0) + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-50 * 2**10, 50 * 2**10), min_size=18, max_size=40),
        st.integers(-100 * 2**10, 100 * 2**10),
    )
    def test_shift_equivariance(self, xs, shift):
        # Values and shift on a dyadic grid: adding the shift is exact, so every
        # difference, distance and neighbor set is the same bits after it.
        values = np.asarray(xs) / 2**10
        shift = shift / 2**10
        config = HorizonConfig(n=2, p=2, k=3)
        base = wnn_forecast(TimeSeries(values, 4), config)
        shifted = wnn_forecast(TimeSeries(values + shift, 4), config)
        assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-7)

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_one_far_spike_is_data_error(self, weighting):
        # Every window holding the spike is about 1e160 from the queries, so
        # its squared distance overflows: the series has no nearest neighbors.
        values = np.random.default_rng(2).normal(10.0, 1.0, 200)
        values[20] = 1e160
        with pytest.raises(DataError, match="rescale the series"):
            wnn_forecast(TimeSeries(values), HorizonConfig(1, 2, 3), weighting)

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_constant_level_near_the_largest_float(self, weighting):
        # Every squared window about the level is 0, so the search accepts the
        # series; the sum of k = 3 uniform neighbors still overflows.
        ts = TimeSeries(np.full(40, 1.5e308), 4)
        if weighting is Weighting.UNIFORM:
            with pytest.raises(DataError, match="average of neighbor continuations overflows"):
                wnn_forecast(ts, HorizonConfig(1, 2, 3), weighting)
        else:
            assert wnn_forecast(ts, HorizonConfig(1, 2, 3), weighting) == pytest.approx([1.5e308])


class TestPointForecast:
    def test_seasonal_naive_repeats_last_period(self):
        ts = TimeSeries(np.array([9.0, 9.0, 9.0, 9.0, 1.0, 2.0, 3.0, 4.0]), 4)
        spec = ForecasterSpec.seasonal_naive(4)
        assert spec.forecast_at(ts.values, [8], 2)[0] == pytest.approx([1.0, 2.0])

    def test_seasonal_naive_cyclic_extension(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0, 4.0]), 4)
        spec = ForecasterSpec.seasonal_naive(4)
        got = spec.forecast_at(ts.values, [4], 6)[0]
        assert got == pytest.approx([1.0, 2.0, 3.0, 4.0, 1.0, 2.0])

    def test_seasonal_naive_many_ends_match_each_prefix(self):
        values = np.random.default_rng(6).normal(10.0, 2.0, size=30)
        spec = ForecasterSpec.seasonal_naive(3)
        ends = [3, 5, 11, 24, 30]
        got = spec.forecast_at(values, ends, 7)
        assert got.shape == (5, 7)
        for row, e in zip(got, ends):
            assert np.array_equal(row, np.resize(values[:e][-3:], 7))
        with pytest.raises(SeriesTooShortError, match=r"at t=2 \(needs history of at least 3\)"):
            spec.forecast_at(values, [30, 2], 7)

    def test_wnn_dispatch_identity(self):
        rng = np.random.default_rng(5)
        ts = TimeSeries(rng.normal(20.0, 1.0, size=40), 4)
        config = HorizonConfig(n=2, p=3, k=2)
        ends = [20, 31, 40]
        got = ForecasterSpec.wnn(config).forecast_at(ts.values, ends, 2)
        for row, e in zip(got, ends):
            assert np.array_equal(row, wnn_forecast(TimeSeries(ts.values[:e], 4), config))

    @pytest.mark.parametrize("shortest", [7, 8])
    def test_wnn_checks_the_shortest_end(self, shortest):
        # window 6 + n 2 needs 8 values (7 is short); k = 2 candidates need 9 (8 is short)
        values = np.arange(1.0, 41.0)
        spec = ForecasterSpec.wnn(HorizonConfig(n=2, p=3, k=2))
        spec.forecast_at(values, [40, 9], 2)
        with pytest.raises(SeriesTooShortError) as exc:
            spec.forecast_at(values, [40, shortest, 30], 2)
        assert str(exc.value) == (
            f"series of length 40 cannot seed the earliest scored pair at t={shortest} "
            "(needs history of at least 9)"
        )

    def test_wnn_dispatch_checks_n(self):
        ts = TimeSeries(np.arange(1.0, 41.0), 4)
        spec = ForecasterSpec.wnn(HorizonConfig(n=2, p=3, k=2))
        with pytest.raises(InvalidParamsError):
            spec.forecast_at(ts.values, [40], 3)

    @pytest.mark.parametrize(
        "ends",
        [[45], [40.0], [], [[40]], [True], 40],
        ids=["past-the-end", "float", "empty", "2-D", "bool", "scalar"],
    )
    @pytest.mark.parametrize(
        "spec",
        [ForecasterSpec.wnn(HorizonConfig(1, 2, 2)), ForecasterSpec.seasonal_naive(4)],
        ids=["wnn", "seasonal-naive"],
    )
    def test_bad_ends_are_invalid_params(self, spec, ends):
        values = np.arange(1.0, 41.0)
        assert spec.forecast_at(values, [40], 1).shape == (1, 1)
        with pytest.raises(InvalidParamsError, match="ends must be"):
            spec.forecast_at(values, ends, 1)

    @pytest.mark.parametrize(
        "spec",
        [ForecasterSpec.wnn(HorizonConfig(1, 2, 1)), ForecasterSpec.seasonal_naive(4)],
        ids=["wnn", "seasonal-naive"],
    )
    def test_values_are_read_as_a_1d_float_array(self, spec):
        values = np.random.default_rng(7).normal(20.0, 1.0, size=50)
        ends = np.array([40, 45])
        want = spec.forecast_at(values, ends, 1)
        assert np.array_equal(spec.forecast_at(values.tolist(), ends, 1), want)
        with pytest.raises(InvalidParamsError, match="do not form a numeric array"):
            spec.forecast_at(["x"] * 50, ends, 1)
        with pytest.raises(InvalidParamsError, match="one-dimensional"):
            spec.forecast_at(values.reshape(5, 10), ends, 1)

    def test_a_float64_array_reaches_the_forecaster_uncopied(self, monkeypatch):
        spec = ForecasterSpec.seasonal_naive(4)
        seen = []
        monkeypatch.setattr(type(spec), "_forecast", lambda self, v, ends, n: seen.append(v))
        values = np.arange(1.0, 51.0)
        spec.forecast_at(values, [40], 1)
        assert len(seen) == 1 and seen[0] is values

    @pytest.mark.parametrize("period", [2.5, True, 0, -3])
    def test_seasonal_naive_rejects_a_bad_period(self, period):
        with pytest.raises(InvalidParamsError, match="period must be a positive integer"):
            ForecasterSpec.seasonal_naive(period)

    def test_unknown_weighting_is_a_config_error(self):
        ts = TimeSeries(np.random.default_rng(3).normal(20.0, 1.0, size=40), 4)
        config = HorizonConfig(n=1, p=2, k=1)
        calls = [
            lambda: ForecasterSpec.wnn(config, "nearest"),
            lambda: fpto_tune(ts, 1, 3, weighting="nearest"),
            lambda: check_cp(ts, config, SplitSpec(4, 2, 0.2), "nearest"),
            lambda: conformal_region(ts, config, 8, 0.2, "nearest"),
        ]
        for call in calls:
            with pytest.raises(InvalidParamsError, match="weighting must be one of"):
                call()


class TestFptoTune:
    def test_singleton_grid(self):
        rng = np.random.default_rng(2)
        ts = TimeSeries(rng.normal(30.0, 2.0, size=60), 12)
        result = fpto_tune(ts, n=2, folds=4, p_grid=[2], k_grid=[3])
        assert (result.p_star, result.k_star) == (2, 3)
        assert len(result.trace) == 1
        assert result.objective == result.trace[0][2]

    def test_deterministic_periodic_attains_zero(self):
        profile = 10.0 + np.sin(2 * np.pi * np.arange(12) / 12)
        ts = TimeSeries(np.tile(profile, 20), 12)
        result = fpto_tune(ts, n=12, folds=3, p_grid=[1, 2], k_grid=[1, 2, 3])
        assert result.objective == pytest.approx(0.0, abs=1e-9)

    def test_trace_matches_naive_double_loop(self):
        rng = np.random.default_rng(9)
        ts = TimeSeries(rng.normal(40.0, 3.0, size=55), 4)
        result = fpto_tune(ts, n=2, folds=3, p_grid=[1, 2, 3], k_grid=[1, 2, 4])
        assert len(result.trace) == 9
        for p, k, objective in result.trace:
            want = naive_mape_star(ts.values, 2, 3, p, k)
            assert objective == pytest.approx(want, rel=1e-10)

    def test_tie_break_prefers_small_p_then_k(self):
        ts = TimeSeries(np.tile(np.array([4.0, 8.0, 6.0, 2.0]), 15), 4)
        result = fpto_tune(ts, n=4, folds=2, p_grid=[2, 1], k_grid=[3, 1])
        # every cell is exact on a deterministic periodic series -> all tie at 0
        assert result.objective == pytest.approx(0.0, abs=1e-9)
        assert (result.p_star, result.k_star) == (1, 1)

    def test_infeasible_cells_are_skipped_not_fatal(self):
        rng = np.random.default_rng(4)
        ts = TimeSeries(rng.normal(25.0, 1.0, size=30), 4)
        result = fpto_tune(ts, n=2, folds=3, p_grid=[1, 40], k_grid=[1])
        assert [(p, k) for p, k, _ in result.trace] == [(1, 1)]
        assert any(p == 40 for p, _, _ in result.skipped)

    def test_whole_grid_infeasible_raises(self):
        ts = TimeSeries(np.arange(1.0, 21.0), 4)
        with pytest.raises(GridInfeasibleError) as exc:
            fpto_tune(ts, n=2, folds=3, p_grid=[30], k_grid=[1, 2])
        assert str(exc.value) == (
            "no grid cell is feasible: "
            "(p=30, k=1): shortest fold has 14 observations, needs 62; "
            "(p=30, k=2): shortest fold has 14 observations, needs 63"
        )
        # the message names the first five cells and counts the rest
        with pytest.raises(GridInfeasibleError) as exc:
            fpto_tune(ts, n=2, folds=3, p_grid=[30, 31], k_grid=[1, 2, 3, 4])
        assert str(exc.value).endswith(
            "; (p=31, k=1): shortest fold has 14 observations, needs 64 (+3 more)"
        )
        assert str(exc.value).count("(p=") == 5

    def test_deterministic_given_inputs(self):
        rng = np.random.default_rng(12)
        ts = TimeSeries(rng.normal(15.0, 1.0, size=48), 4)
        a = fpto_tune(ts, n=2, folds=3, p_grid=range(1, 4), k_grid=range(1, 4))
        b = fpto_tune(ts, n=2, folds=3, p_grid=range(1, 4), k_grid=range(1, 4))
        assert a.trace == b.trace and (a.p_star, a.k_star) == (b.p_star, b.k_star)

    @pytest.mark.parametrize("n, folds", [(0, 3), (-1, 3), (2.5, 3), (2, 0), (2, -1), (2, 2.5)])
    def test_n_and_folds_must_be_positive_integers(self, n, folds):
        ts = TimeSeries(np.arange(1.0, 41.0), 4)
        with pytest.raises(InvalidParamsError):
            fpto_tune(ts, n=n, folds=folds, p_grid=[1], k_grid=[1])

    @pytest.mark.parametrize(
        "p_grid, k_grid",
        [([2.5], [1.9, True]), ([2.5], [1]), ([2], [True]), ([0, 2], [1]), ([2], [])],
    )
    def test_grid_entries_must_be_positive_integers(self, p_grid, k_grid):
        ts = TimeSeries(np.arange(1.0, 41.0), 4)
        with pytest.raises(InvalidParamsError):
            fpto_tune(ts, n=2, folds=3, p_grid=p_grid, k_grid=k_grid)


WNN_CASES = [(1, 1, 1), (1, 3, 4), (2, 2, 1), (2, 3, 5), (3, 4, 2)]
HISTORY_CASES = [(ForecasterSpec.wnn(HorizonConfig(n, p, k)), n) for n, p, k in WNN_CASES] + [
    (ForecasterSpec.seasonal_naive(m), 2) for m in [1, 4, 12]
]


class TestOneHistoryRule:
    """One boundary, spec.min_history, for every user of a forecaster's history."""

    @pytest.mark.parametrize(
        "spec, n", HISTORY_CASES, ids=[f"{s.describe()}-n{n}" for s, n in HISTORY_CASES]
    )
    def test_forecast_at_and_scoring_share_the_boundary(self, spec, n):
        values = np.random.default_rng(8).normal(30.0, 3.0, size=40)
        least = spec.min_history
        spec.forecast_at(values, [40, least], n)
        with pytest.raises(SeriesTooShortError, match=rf"at t={least - 1} \(needs"):
            spec.forecast_at(values, [40, least - 1], n)
        # The earliest scored step of h steps ends at 40 - h*n.
        h = (40 - least) // n
        scorers = [lambda ts, h: run_backtest(ts, spec, n, SplitSpec(h - 1, 1, 0.5))]
        if hasattr(spec, "config"):
            scorers += [
                lambda ts, h: check_cp(ts, spec.config, SplitSpec(h - 1, 1, 0.5)),
                lambda ts, h: conformal_region(ts, spec.config, h, 0.5),
            ]
        for score in scorers:
            ts = TimeSeries(values, 4)
            score(ts, h)  # its stored forecasts must not hide the failure below
            with pytest.raises(SeriesTooShortError, match=rf"at t={40 - (h + 1) * n} \(needs"):
                score(ts, h + 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tuner_skips_exactly_the_cells_below_min_history(self, n):
        ts = TimeSeries(np.random.default_rng(9).normal(30.0, 3.0, size=40), 4)
        shortest = 40 - 3 * n
        p_grid, k_grid = range(1, 31), range(1, 13)
        result = fpto_tune(ts, n, 3, p_grid, k_grid)
        short = {
            (p, k)
            for p in p_grid
            for k in k_grid
            if shortest < ForecasterSpec.wnn(HorizonConfig(n, p, k)).min_history
        }
        assert short and len(short) < len(p_grid) * len(k_grid)
        assert {(p, k) for p, k, _ in result.skipped} == short
        assert {(p, k) for p, k, _ in result.trace} == {
            (p, k) for p in p_grid for k in k_grid
        } - short


def _bit_test_series(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(40.0, 4.0, size=90)
    if kind == "rounded":
        # few distinct values: exact distance ties straddle the k-th neighbor
        return np.round(rng.normal(10.0, 1.0, size=90))
    return np.tile(rng.normal(20.0, 3.0, size=5), 18)  # periodic: exact matches


class TestBatchedSearchIsBitIdentical:
    """The batched search against the one-fold-at-a-time reference, with ==."""

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("kind", ["random", "rounded", "periodic"])
    @pytest.mark.parametrize("n, folds", [(1, 9), (2, 4), (3, 8)])
    def test_trace_and_forecast(self, kind, weighting, n, folds):
        values = _bit_test_series(kind, 10 * n + folds)
        ts = TimeSeries(values, 4)
        p_grid, k_grid = range(1, 7), range(1, 13)
        result = fpto_tune(ts, n, folds, p_grid, k_grid, weighting)
        want = reference_trace(values, n, folds, p_grid, k_grid, weighting)
        assert list(result.trace) == want
        for p, k in [(1, 1), (2, 5), (3, 12)]:
            got = wnn_forecast(ts, HorizonConfig(n=n, p=p, k=k), weighting)
            assert np.array_equal(got, reference_fold_forecast(values, n, p, k, weighting))

    def test_k_equal_to_the_candidates_of_the_shortest_fold(self):
        values = _bit_test_series("rounded", 3)[:40]
        # shortest fold 40 - 5*2 = 30 values; window 6 leaves 30 - 6 - 2 + 1 = 23
        result = fpto_tune(TimeSeries(values, 4), 2, 5, [3], [1, 23, 24])
        want = reference_trace(values, 2, 5, [3], [1, 23], Weighting.INVERSE_DISTANCE)
        assert list(result.trace) == want
        assert [(p, k) for p, k, _ in result.skipped] == [(3, 24)]

    def test_zero_actual_index_matches_reference(self):
        values = _bit_test_series("random", 4)
        values[-5] = 0.0  # position 1 of the fold that scores values[-6:-3]
        with pytest.raises(ZeroActualError) as want:
            reference_trace(values, 3, 4, [2], [1, 2], Weighting.INVERSE_DISTANCE)
        with pytest.raises(ZeroActualError) as got:
            fpto_tune(TimeSeries(values, 4), 3, 4, [2], [1, 2])
        assert str(got.value) == str(want.value)
        assert "at position 1 is zero" in str(want.value)

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_many_ends_span_several_blocks(self, weighting):
        # Rounded values tie at the kmax-th distance; the ends grow, so each
        # block pads its shorter rows with +inf.
        values = np.round(np.random.default_rng(21).normal(10.0, 1.0, size=3000))
        n, window, kmax = 1, 4, 6
        ends = np.arange(2400, 3001)
        rows_per_block = wnn._BLOCK_FLOATS // (ends[-1] - window - n + 1)
        assert len(ends) > 2 * rows_per_block and len(ends) % rows_per_block
        got = wnn._nearest(values, ends, n, [(window, kmax)])
        want = reference_nearest(values, ends, window, n, kmax)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        spec = ForecasterSpec.wnn(HorizonConfig(n=n, p=window, k=kmax), weighting)
        want_forecasts = wnn._neighbor_average(*want, kmax, weighting)
        assert np.array_equal(spec.forecast_at(values, ends, n), want_forecasts)

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("kind", ["random", "rounded"])
    def test_ragged_unsorted_grid_with_long_neighbor_sums(self, kind, weighting):
        # n = 1 with k 8-12 at several p sums 8 or more neighbors per row, the
        # unrolled path of numpy's mean and w.sum. Shortest fold 34 - 12 = 22
        # takes k <= 22 - p: p = 9 loses k = 15 and p = 12 loses k = 11, 12, 15,
        # so later k are averaged over shorter prefixes of the p.
        values = _bit_test_series(kind, 31)[:34]
        p_grid, k_grid = [5, 1, 9, 3, 5, 12, 7], [12, 3, 8, 1, 10, 12, 9, 11, 15]
        result = fpto_tune(TimeSeries(values, 4), 1, 12, p_grid, k_grid, weighting)
        want = reference_trace(values, 1, 12, sorted(set(p_grid)), sorted(set(k_grid)), weighting)
        assert list(result.trace) == want
        assert [(p, k) for p, k, _ in result.skipped] == [(9, 15), (12, 11), (12, 12), (12, 15)]
        best = min(want, key=lambda cell: cell[2])
        assert (result.p_star, result.k_star, result.objective) == best

    def test_one_search_one_average_per_k_one_mape_reduction(self, monkeypatch):
        # One search serves every p, one average every p that takes a k, and
        # one MAPE reduction every cell.
        calls = {"_nearest": 0, "_neighbor_average": 0, "_mape_rows": 0}

        def counted(name):
            inner = getattr(wnn, name)

            def call(*args):
                calls[name] += 1
                return inner(*args)

            return call

        for name in calls:
            monkeypatch.setattr(wnn, name, counted(name))
        values = _bit_test_series("random", 6)  # T = 90, shortest fold 90 - 8*2 = 74
        # k = 70 needs 2*p + 2 + 69 <= 74 values: only p = 1 takes it.
        result = fpto_tune(TimeSeries(values, 4), 2, 8, [1, 3, 5, 40], [*range(1, 13), 70])
        assert [(p, k) for p, k, _ in result.trace if k == 70] == [(1, 70)]
        assert {p for p, _, _ in result.trace} == {1, 3, 5}
        assert len(result.trace) == 13 + 12 + 12
        assert calls == {"_nearest": 1, "_neighbor_average": 13, "_mape_rows": 1}

    @pytest.mark.parametrize("folds", [30, 31, 45, 60])
    def test_folds_covering_the_series_are_infeasible(self, folds):
        # T = 90 = 30 folds of n = 3; at 60 folds the ends reach -90, past
        # the 88 rows of the actual values' window view.
        values = _bit_test_series("random", 5)
        assert reference_trace(values, 3, folds, [1], [1], Weighting.UNIFORM) == []
        with pytest.raises(GridInfeasibleError):
            fpto_tune(TimeSeries(values, 4), 3, folds, [1], [1])


class TestScreenedSearchIsBitIdentical:
    """The matrix-product screen and exact re-rank against the references, with ==."""

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("seed", [15, 54])
    def test_one_decimal_ties(self, seed, weighting):
        # The screen and einsum round these near-tied distances differently;
        # with no margin the screen drops a true neighbor.
        values = np.round(np.random.default_rng(seed).normal(1.0, 0.3, 80), 1) + 5.1
        result = fpto_tune(TimeSeries(values, 4), 1, 10, range(1, 7), range(1, 4), weighting)
        want = reference_trace(values, 1, 10, range(1, 7), range(1, 4), weighting)
        assert list(result.trace) == want

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("scale", [1e152, 1e154, 1e160, 1e-160])
    def test_overflowing_and_subnormal_squares(self, scale, weighting):
        # At 1e154 and 1e160 the squared windows about the queries' level
        # pass a sixteenth of the largest float, so the search raises
        # DataError for either weighting. At 1e152 they stay below it, and
        # at 1e-160 they are subnormal: both match the reference.
        values = np.round(np.random.default_rng(3).normal(10.0, 1.0, 80)) * scale
        ts = TimeSeries(values, 4)
        if scale in (1e154, 1e160):
            with pytest.raises(DataError, match="rescale the series"):
                fpto_tune(ts, 1, 10, range(1, 7), range(1, 4), weighting)
        else:
            want = reference_trace(values, 1, 10, range(1, 7), range(1, 4), weighting)
            assert list(fpto_tune(ts, 1, 10, range(1, 7), range(1, 4), weighting).trace) == want

    @pytest.mark.parametrize("seed, p", [(209, 6), (219, 1)])
    def test_subnormal_products(self, seed, p):
        # The einsum's products of values near 1e-160 are subnormal, so their
        # absolute error decides these rows: the margin's L*2**-1072 term,
        # carried into the screen's scaled units, keeps them.
        values = np.round(np.random.default_rng(seed).normal(10.0, 1.0, 80)) * 1e-160
        ends = np.arange(60, 81)
        assert_same_nearest(values, ends, 1, p, 3)

    @pytest.mark.parametrize("spike", [1e30, 1e40])
    def test_one_spike_far_above_the_noise(self, spike):
        # The spike sets the scale, which puts the noise near 2**-40 (1e30) or
        # 2**-73 (1e40) in the float32 screen. At 1e30 the margin's relative
        # terms decide; at 1e40 the noise's products are subnormal in float32
        # and the absolute term keeps every candidate.
        values = np.random.default_rng(30).normal(size=400)
        values[150] = spike
        assert_same_nearest(values, np.arange(250, 401), 1, 12, 5)

    @pytest.mark.parametrize("seed", range(6))
    def test_float32_rounding_at_the_kth_neighbor(self, seed):
        # Two windows lie 1 from the query, within an ulp of each other, and
        # every other window about 1e4 away. float32 rounds their screen
        # values apart by about eps32*(Q + W), some 0.01 here, so only a
        # margin at float32's eps keeps both, and the float32 screen stays
        # selective: two pairs for the one row.
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 100.0, 120)
        values[20:24] = values[-4:] + [1.0, 0.0, 0.0, 0.0]
        values[60:64] = values[-4:] + [0.0, 1.0, 0.0, 0.0]
        assert_same_nearest(values, np.array([120]), 1, 4, 1)

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("scale", [1e-200, 1e-310])
    def test_tiny_data_through_the_tuner(self, scale, weighting):
        # Scaled by 2**shift the screen tells these windows apart, but every
        # einsum distance underflows to 0, so all of them tie. The einsum's
        # absolute term, carried into scaled units, keeps the tied windows;
        # capped, it raises no overflow warning.
        values = np.round(np.random.default_rng(4).normal(10.0, 1.0, 80)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fpto_tune(TimeSeries(values, 4), 1, 10, range(1, 7), range(1, 4), weighting)
        want = reference_trace(values, 1, 10, range(1, 7), range(1, 4), weighting)
        assert list(result.trace) == want

    def test_sinusoid_with_little_noise(self):
        # The windows' norms about the center dwarf the distances between
        # them, so float32's margin, alpha*|q|**2, exceeds the gaps and the
        # screen keeps about 135 candidates a row, every window of the query's
        # phase; the exact ranking still picks the reference's neighbors.
        noise = np.random.default_rng(8).normal(size=2000)
        values = 100.0 * np.sin(2.0 * np.pi * np.arange(2000) / 12) + 0.01 * noise
        assert_same_nearest(values, np.arange(1280, 2001), 1, 12, 5)

    def test_einsum_ties_far_from_the_query(self):
        # The query is twelve 0s and 1s, and the center is among them; every
        # earlier value is 1e8 plus 0 or 1. Past the 11 windows that overlap
        # the query, einsum rounds the distances, about 1.2e17, into ties that
        # the screen values still tell apart; the margin's alpha*|w|**2 terms
        # keep the tied windows.
        values = (np.random.default_rng(5).random(300) < 0.5).astype(float)
        values[:288] += 1e8
        ends = np.array([300])
        d2, _ = assert_same_nearest(values, ends, 1, 12, 15)
        assert len(set(d2[0, 11:])) < 4

    def test_einsum_ties_far_from_the_center(self):
        # The query is eleven values of +-1e8, then one 0 or 1, the center.
        # einsum rounds its distances to windows of 0s and 1s, about 1.1e17,
        # into ties that the screen values still tell apart; the margin's
        # 2*alpha*|q|**2 term keeps the tied windows.
        rng = np.random.default_rng(18)
        values = (rng.random(300) < 0.9).astype(float)
        values[288:299] = 1e8 * rng.choice([-1.0, 1.0], 11)
        ends = np.array([300])
        d2, _ = assert_same_nearest(values, ends, 1, 12, 5)
        assert len(set(d2[0])) < 5

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_unit_step_walk_at_level_1e8(self, weighting):
        # Uncentered, |q|**2 ~ 1e17 would widen the margin past the gaps between
        # distances; centered on the queries' median, the values are the walk itself.
        values = 1e8 + np.cumsum(np.random.default_rng(8).normal(size=400))
        result = fpto_tune(TimeSeries(values, 4), 1, 12, range(1, 13), range(1, 6), weighting)
        want = reference_trace(values, 1, 12, range(1, 13), range(1, 6), weighting)
        assert list(result.trace) == want
        assert_same_nearest(values, np.arange(300, 401), 1, 12, 5)

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_level_1e153_overflows_the_query_norm_not_the_distances(self, weighting):
        # |q|**2 of the raw values overflows, but that of the centered values
        # does not, and neither does any squared distance.
        rng = np.random.default_rng(9)
        values = (100.0 + np.round(rng.normal(0.0, 0.3, 80), 1)) * 1e153
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(values[:6] ** 2))
        result = fpto_tune(TimeSeries(values, 4), 1, 10, range(1, 7), range(1, 4), weighting)
        want = reference_trace(values, 1, 10, range(1, 7), range(1, 4), weighting)
        assert np.isfinite([cell[2] for cell in want]).all()
        assert list(result.trace) == want

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_fold_rows_span_several_blocks(self, weighting):
        values = np.round(np.random.default_rng(21).normal(10.0, 1.0, size=3000))
        n, folds = 1, 25
        # A block row holds T - 2 screen values: window starts 0 .. T - 3 for p = 1.
        rows_per_block = wnn._BLOCK_FLOATS // (values.size - 2)
        assert folds > 2 * rows_per_block and folds % rows_per_block
        result = fpto_tune(TimeSeries(values, 4), n, folds, range(1, 7), range(1, 4), weighting)
        want = reference_trace(values, n, folds, range(1, 7), range(1, 4), weighting)
        assert list(result.trace) == want

    def test_tied_rows_keep_more_pairs_than_one_distance_chunk(self, monkeypatch):
        # Period 2 with rare spikes: nearly every candidate of a phase ties at
        # the kmax-th distance and passes the screen, so the exact distances
        # of a batch's kept pairs come in several chunks of _BLOCK_FLOATS.
        values = np.tile([1.0, 2.0], 1500)
        values[::97] += 1.0
        n, window, kmax = 1, 12, 3
        ends = np.arange(2980, 3001)
        queries = recorded_distances(monkeypatch)
        got = wnn._nearest(values, ends, n, [(window, kmax)])
        assert max(map(len, queries)) > 2 * wnn._BLOCK_FLOATS // window
        want = reference_nearest(values, ends, window, n, kmax)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_row_blocks_and_candidate_chunks(self, monkeypatch, weighting):
        # At 600 floats a block, windows of 80 are squared and copied 7 at a
        # time, and a block holds 2 fold rows of the tune and 3 rows of the
        # refit search, whose rows each screen 177 candidates.
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", 600)
        values = np.round(np.random.default_rng(33).normal(10.0, 1.0, 260))
        n, folds, p_grid, k_grid = 4, 6, [1, 2, 7, 20], [1, 3, 5]
        assert 600 // 80 == 7 and 600 // (256 - 4 - 4 + 1) == 2 and 600 // (260 - 4 - 80 + 1) == 3
        result = fpto_tune(TimeSeries(values, 4), n, folds, p_grid, k_grid, weighting)
        assert list(result.trace) == reference_trace(values, n, folds, p_grid, k_grid, weighting)
        assert_same_nearest(values, np.arange(200, 261), n, 20, 5)


class TestGroupMinimumBound:
    """Blocks at least 32*kmax candidates wide bound each row from group
    minima; against the one-query-at-a-time reference, with ==."""

    def test_period_equal_to_the_group_count(self):
        # One block of 16 rows screens 1,988 candidates each, folded into 8
        # slabs of 249 columns, so 249 groups. With period 249 every window
        # of the query's phase lies in one group, so the bound comes from the
        # other phases' minima: the loosest it gets, 32 pairs a row against 7
        # for the kmax-th smallest over every candidate.
        T, window, kmax = 2000, 12, 5
        width = T - 1 - window + 1
        assert wnn._BLOCK_FLOATS // width == 16 and width // (16 * kmax) >= 8
        assert -(-width // 8) == 249
        rng = np.random.default_rng(41)
        values = np.tile(rng.normal(size=249), 9)[:T] + 1e-3 * rng.normal(size=T)
        assert_same_nearest(values, np.arange(T - 15, T + 1), 1, 12, kmax)

    @pytest.mark.parametrize("kmax", [1, 3])
    def test_first_row_holds_exactly_kmax_candidates(self, kmax):
        # At T = 300 a block holds 113 rows. Ends from the minimum history
        # give the first block rows of kmax to kmax + 112 candidates, grouped
        # (7 slabs of 17 columns at kmax 1, 2 of 58 at kmax 3): only the first
        # kmax columns of the first row are candidates, one per group.
        T, window = 300, 12
        assert wnn._BLOCK_FLOATS // (T - 1 - window + 1) == 113
        values = np.round(np.random.default_rng(43).normal(10.0, 1.0, T), 1)
        ends = np.arange(wnn._min_history(1, 12, kmax), T + 1)
        assert_same_nearest(values, ends, 1, 12, kmax)

    def test_rounded_values_tie_at_the_kth_across_groups(self):
        # Windows of six rounded values: about 13 windows a row tie at the
        # kth distance, spread over about 12 groups, and the stable order
        # takes the earliest of them.
        values = np.round(np.random.default_rng(42).normal(10.0, 1.0, 2000))
        d2, _ = assert_same_nearest(values, np.arange(1280, 2001), 1, 6, 5)
        assert np.mean(d2[:, -2] == d2[:, -1]) > 0.5


def recorded_distances(monkeypatch):
    """The query end of every pair handed to `_distances`, one array per call."""
    queries = []
    distances = wnn._distances

    def recorded(windows, candidates, rows):
        queries.append(rows)
        return distances(windows, candidates, rows)

    monkeypatch.setattr(wnn, "_distances", recorded)
    return queries


class TestBatchedRanking:
    """Row blocks only screen; their kept pairs are ranked in batches of at
    least one distance chunk. Against the one-query-at-a-time reference, with ==."""

    def test_shuffled_ends_over_several_blocks_and_batches(self, monkeypatch):
        # Rounded values tie at the kth distance; 16 rows a block, so the 721
        # shuffled ends make 46 blocks, ranked in a few batches.
        values = np.round(np.random.default_rng(44).normal(10.0, 1.0, 2000))
        ends = np.random.default_rng(45).permutation(np.arange(1280, 2001))
        queries = recorded_distances(monkeypatch)
        assert_same_nearest(values, ends, 1, 6, 5)
        assert 1 < len(queries) < 46 // 4

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_one_batch_spans_many_blocks(self, monkeypatch, weighting):
        # At 600 floats a block holds one row, and a batch 600 // 12 = 50
        # pairs: about ten rows of 5 or 6 kept pairs each.
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", 600)
        values = selective_series("scoring_long")
        ends = np.random.default_rng(46).permutation(np.arange(1800, 2001))
        queries = recorded_distances(monkeypatch)
        want = assert_same_nearest(values, ends, 1, 12, 5)
        assert 1 < len(queries) <= len(ends) // 5
        spec = ForecasterSpec.wnn(HorizonConfig(n=1, p=12, k=5), weighting)
        want_forecasts = wnn._neighbor_average(*want, 5, weighting)
        assert np.array_equal(spec.forecast_at(values, ends, 1), want_forecasts)

    def test_every_block_ranks_its_own_pairs(self, monkeypatch):
        # At 24 floats a block holds one row, and a batch 24 // 4 = 6 pairs,
        # no more than a row of kmax = 6 keeps: every block is ranked alone.
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", 24)
        values = np.round(np.random.default_rng(47).normal(10.0, 1.0, 300))
        ends = np.random.default_rng(48).permutation(np.arange(240, 301))
        queries = recorded_distances(monkeypatch)
        assert_same_nearest(values, ends, 1, 4, 6)
        assert [len(set(rows.tolist())) for rows in queries] == [1] * len(ends)

    @pytest.mark.parametrize("block_floats", [600, wnn._BLOCK_FLOATS])
    def test_several_cells_with_unsorted_ends(self, monkeypatch, block_floats):
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", block_floats)
        values = np.round(np.random.default_rng(49).normal(10.0, 1.0, 900), 1)
        ends = np.random.default_rng(50).choice(np.arange(300, 901), 250, replace=False)
        n, cells = 2, [(1, 9), (3, 6), (5, 6), (12, 2)]
        found = nearest_per_cell(values, ends, n, cells)
        for (p, kmax), got in zip(cells, found):
            want = reference_nearest(values, ends, n * p, n, kmax)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def recorded_ranks(monkeypatch):
    """The pairs each row of a batch holds, one array per `_rank` call (one batch)."""
    kept = []
    rank = wnn._rank

    def recorded(rows, exact, count, kmax):
        kept.append(np.bincount(rows, minlength=count))
        return rank(rows, exact, count, kmax)

    monkeypatch.setattr(wnn, "_rank", recorded)
    return kept


class TestCellMajorRows:
    """One search screens and ranks the (cell, end) rows of every cell together;
    against the one-query-at-a-time reference, with ==."""

    def test_blocks_split_each_cell_and_one_batch_ranks_four_cells(self, monkeypatch):
        # Four cells of 12 unsorted ends are 48 rows, each screening the 199
        # candidate ends 1 .. 199. At 1,592 floats a block holds 8 rows, so
        # each cell screens in two blocks, of 8 rows and of 4; the kept pairs
        # of all four cells, each of its own kmax, fall short of one distance
        # chunk of 1,592 pairs, so one batch ranks every row.
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", 1592)
        values = np.round(np.random.default_rng(51).normal(10.0, 1.0, 200), 1)
        ends = np.array([200, 161, 199, 150, 187, 20, 120, 175, 9, 198, 64, 143])
        n, cells = 1, [(1, 7), (2, 3), (3, 5), (4, 1)]
        assert 1592 // (200 - n - 1 + 1) == 8
        kept = recorded_ranks(monkeypatch)
        for (p, kmax), got in zip(cells, nearest_per_cell(values, ends, n, cells)):
            want = reference_nearest(values, ends, n * p, n, kmax)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert len(kept) == 1 and len(kept[0]) == 48

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_tuner_cells_of_different_kmax(self, monkeypatch, weighting):
        # Shortest fold 60 - 10 = 50: p = 1 and 4 take every k, p = 8 and 12
        # skip k = 45, so their kmax is 30. The 40 rows screen the 58
        # candidate ends 1 .. 58; at 900 floats a block holds 15 rows, so each
        # cell's 10 fold rows screen in one block at its own kmax, and a batch
        # of at least 900 pairs ranks the rows of two cells: p = 1 and 4,
        # then p = 8 and 12.
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", 900)
        values = _bit_test_series("rounded", 61)[:60]
        n, folds, p_grid, k_grid = 1, 10, [1, 4, 8, 12], [1, 3, 20, 30, 45]
        assert 900 // (59 - n - 1 + 1) == 15
        result = fpto_tune(TimeSeries(values, 4), n, folds, p_grid, k_grid, weighting)
        assert list(result.trace) == reference_trace(values, n, folds, p_grid, k_grid, weighting)
        assert [(p, k) for p, k, _ in result.skipped] == [(8, 45), (12, 45)]

    def test_candidates_are_copied_once_per_search(self, monkeypatch):
        # At 96 floats a block holds one row, so the 10 rows of the two cells
        # screen in 10 blocks, and every block reads the one lag-major float32
        # copy of the 299 candidate windows (ends 1 .. 299) of the widest cell.
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", 96)
        copies = []
        contiguous = np.ascontiguousarray

        def recorded(a):
            if a.dtype == np.float32:
                copies.append(a.shape)
            return contiguous(a)

        monkeypatch.setattr(np, "ascontiguousarray", recorded)
        values = np.round(np.random.default_rng(53).normal(10.0, 1.0, 300), 1)
        ends = np.array([300, 240, 299, 120, 64])
        n, cells = 1, [(1, 4), (12, 3)]
        found = nearest_per_cell(values, ends, n, cells)
        monkeypatch.undo()
        assert copies == [(12, 299)]
        for (p, kmax), got in zip(cells, found):
            want = reference_nearest(values, ends, n * p, n, kmax)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_tuner_products_read_each_cells_own_window(self, monkeypatch):
        # The sim_study tune of the first round: n = 3 on the training block
        # and the default grid. Each cell's fold rows fit one block, and its
        # float32 screen product sums the cell's own n*p lags, 3 at p = 1 up
        # to 36 at p = 12, not the widest window's 36 at every p.
        params, T, seed = TUNER_ROUND[0]
        n = 3
        split = split_sizes(T, n, 0.05)
        series = etssim.simulate_ets(params, T, seed)
        inner = []
        matmul = np.matmul

        def recorded(a, b, **kwargs):
            if a.dtype == np.float32:
                inner.append((a.shape[-1], b.shape[0]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded)
        result = fpto_tune(TimeSeries(series.values[: T - n * split.i2], series.period), n, split.i1)
        monkeypatch.undo()
        assert len(result.trace) == len(wnn.DEFAULT_GRID) ** 2
        assert inner == [(n * p, n * p) for p in wnn.DEFAULT_GRID]

    @pytest.mark.parametrize("order", [1, -1], ids=["rising", "falling"])
    def test_level_shift_in_one_batch(self, monkeypatch, order):
        # The level shifts by 1e8 at t = 450 among the queries, so the rows
        # before it keep about 450 pairs and those after it about 5. At 4,000
        # floats one batch holds rows of both kinds, and its padded matrix,
        # as wide as its most kept pairs, would not fit: the sort splits it
        # into chunks of rows.
        monkeypatch.setattr(wnn, "_BLOCK_FLOATS", 4000)
        values = np.random.default_rng(52).normal(size=600)
        values[450:] += 1e8
        ends = np.arange(383, 601)[::order]
        kept = recorded_ranks(monkeypatch)
        assert_same_nearest(values, ends, 1, 4, 5)
        mixed = [rows for rows in kept if rows.min() <= 7 and rows.max() > 400]
        assert mixed and all(len(rows) * rows.max() > 4000 for rows in mixed)


def selective_series(kind):
    rng = np.random.default_rng(8)
    if kind == "scoring_long":
        params = etssim.aada_params(0.5, 0.1, 0.2, 0.9, init_level=1000.0)
        return etssim.simulate_ets(params, 2000, 1).values
    if kind == "walk_at_1e8":
        return 1e8 + np.cumsum(rng.normal(size=2000))
    values = rng.normal(size=2000)
    if kind == "spikes_of_1e8":
        values[::97] += 1e8
    else:  # the level shifts by 1e8 at t = 1000, or at t = 1500 among the queries
        values[1000 if kind == "level_shift" else 1500 :] += 1e8
    return values


# The first round of the sim_study workload: (ETS parameters, length, seed).
TUNER_ROUND = [
    (etssim.ana_params(0.5, 0.2), 300, 100_000),
    (etssim.ana_params(0.8, 0.4), 400, 100_001),
    (etssim.aada_params(0.7, 0.3, 0.2, 0.82), 300, 100_002),
    (etssim.aada_params(0.8, 0.2, 0.1, 0.9), 400, 100_003),
]
TUNER_IDS = ["ana-300", "ana-400", "aada-300", "aada-400"]


class TestScreenSelectivity:
    """How many pairs the screen hands `_distances`, on the scoring_long search
    (T = 2000, ends 1280 .. 2000, n = 1, p = 12, k = 5) and series far from 0."""

    def kept_per_row(self, monkeypatch, values, ends, kmax):
        queries = recorded_distances(monkeypatch)
        assert_same_nearest(values, ends, 1, 12, kmax)
        return np.bincount(np.concatenate(queries), minlength=ends.max() + 1)[ends]

    def test_scoring_long_ranks_in_at_most_two_batches(self, monkeypatch):
        # 46 row blocks of 16 rows keep about 5.7 pairs a row: two batches,
        # neither much above one distance chunk of 32768 // 12 = 2730 pairs.
        queries = recorded_distances(monkeypatch)
        assert_same_nearest(selective_series("scoring_long"), np.arange(1280, 2001), 1, 12, 5)
        assert len(queries) <= 2
        assert all(len(rows) < 2 * (wnn._BLOCK_FLOATS // 12) for rows in queries)

    @pytest.mark.parametrize(
        "kind", ["scoring_long", "walk_at_1e8", "spikes_of_1e8", "level_shift"]
    )
    def test_at_most_two_kmax_pairs_per_row(self, monkeypatch, kind):
        ends, kmax = np.arange(1280, 2001), 5
        kept = self.kept_per_row(monkeypatch, selective_series(kind), ends, kmax)
        assert kept.mean() <= 2 * kmax

    def test_level_shift_among_the_queries(self, monkeypatch):
        # The values are centered on the queries' median, near 1e8, so the
        # margin of a row whose query lies before the shift is about 1e3, and
        # the row keeps every candidate; the rows after the shift stay selective.
        ends, kmax = np.arange(1280, 2001), 5
        kept = self.kept_per_row(monkeypatch, selective_series("shift_among_queries"), ends, kmax)
        assert kept[ends >= 1500 + 12].mean() <= 2 * kmax

    @pytest.mark.parametrize("params, T, seed", TUNER_ROUND, ids=TUNER_IDS)
    def test_tuner_rows_keep_the_exact_bound(self, monkeypatch, params, T, seed):
        # The sim_study tune (the first round at seed 1): n = 3 on the
        # training block, the default grid, so every p searches its fold rows
        # with kmax = 12. Those rows hold fewer than 32*kmax candidates, so
        # each takes its U from every candidate, not from group minima, and
        # keeps about kmax pairs.
        n, kmax, grid = 3, 12, wnn.DEFAULT_GRID
        split = split_sizes(T, n, 0.05)
        folds = split.i1
        series = etssim.simulate_ets(params, T, seed)
        values = series.values[: T - n * split.i2]
        queries = recorded_distances(monkeypatch)
        result = fpto_tune(TimeSeries(values, series.period), n, folds)
        assert len(result.trace) == len(grid) * len(grid)
        assert sum(map(len, queries)) <= 1.25 * kmax * len(grid) * folds
        want = reference_trace(values, n, folds, grid, grid, Weighting.INVERSE_DISTANCE)
        assert list(result.trace) == want

    @pytest.mark.parametrize("params, T, seed", TUNER_ROUND, ids=TUNER_IDS)
    def test_tuner_ranks_in_at_most_three_batches(self, monkeypatch, params, T, seed):
        # The sim_study tune searches the 12 cells of the default grid
        # together: its kept pairs are ranked in a few batches, not once per cell.
        n = 3
        split = split_sizes(T, n, 0.05)
        series = etssim.simulate_ets(params, T, seed)
        kept = recorded_ranks(monkeypatch)
        result = fpto_tune(TimeSeries(series.values[: T - n * split.i2], series.period), n, split.i1)
        assert len(result.trace) == len(wnn.DEFAULT_GRID) ** 2
        assert 1 <= len(kept) <= 3


@st.composite
def searches(draw):
    """A `_nearest` call and the block bound to run it at: 1-4 cells of
    differing kmax, sorted or shuffled ends, on a rounded, spiked, shifted or
    low-noise sinusoid series (on the last two, the screen keeps many pairs)."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    ps = draw(st.lists(st.integers(1, 12), min_size=count, max_size=count, unique=True))
    kmaxes = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count, unique=True))
    cells = sorted(zip(ps, kmaxes))
    need = max(wnn._min_history(n, p, kmax) for p, kmax in cells)
    T = draw(st.integers(need, need + 250))
    ends = draw(st.lists(st.integers(need, T), min_size=1, max_size=40))
    ends = np.array(sorted(ends) if draw(st.booleans()) else ends)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["rounded", "spiked", "shifted", "sinusoid"]))
    if kind == "rounded":  # ties at the kth distance
        values = np.round(rng.normal(10.0, 1.0, T))
    elif kind == "sinusoid":
        values = 100.0 * np.sin(2.0 * np.pi * np.arange(T) / 12) + 0.01 * rng.normal(size=T)
    else:
        values = rng.normal(size=T)
        if kind == "spiked":
            values[rng.integers(0, T, 3)] += 1e8
        else:  # in some draws, the shift lies between the earliest and the latest query
            among = draw(st.booleans()) and ends.min() < ends.max()
            lo, hi = (int(ends.min()), int(ends.max()) - 1) if among else (0, T - 1)
            values[draw(st.integers(lo, hi)) :] += 1e8
    block_floats = draw(st.sampled_from([60, 600, 4000, wnn._BLOCK_FLOATS]))
    return values, ends, n, cells, block_floats


# Function-scoped fixtures such as monkeypatch do not reset between the
# examples of one @given test, so the block bound is patched per example.
@settings(max_examples=200, deadline=None)
@given(searches())
def test_random_searches_match_the_reference(search):
    values, ends, n, cells, block_floats = search
    with mock.patch.object(wnn, "_BLOCK_FLOATS", block_floats):
        found = nearest_per_cell(values, ends, n, cells)
    for (p, kmax), got in zip(cells, found):
        want = reference_nearest(values, ends, n * p, n, kmax)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _openblas_with_dynamic_arch():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        return False
    config = blas.get("openblas configuration", "")
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in config


HASH_NEAREST = """
import hashlib
import numpy as np
from cpwnn import etssim, wnn

params = etssim.aada_params(0.5, 0.1, 0.2, 0.9, init_level=1000.0)
long = etssim.simulate_ets(params, 2000, 1).values
tune = etssim.simulate_ets(etssim.ana_params(0.5, 0.2), 240, 2).values
noise = np.random.default_rng(8).normal(size=2000)
sinusoid = 100.0 * np.sin(2.0 * np.pi * np.arange(2000) / 12) + 0.01 * noise
shifted = noise + 1e8 * (np.arange(2000) >= 1500)
searches = [
    (long, np.arange(1280, 2001), 1, [(12, 5)]),
    (tune, 240 - 3 * np.arange(19), 3, [(p, 12) for p in range(1, 13)]),
    (sinusoid, np.arange(1280, 2001), 1, [(12, 5)]),
    (shifted, np.arange(1280, 2001), 1, [(12, 5)]),
]
digest = hashlib.sha256()
for values, ends, n, cells in searches:
    d2, continuations = wnn._nearest(values, ends, n, cells)
    digest.update(d2.tobytes() + continuations.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.skipif(not _openblas_with_dynamic_arch(), reason="needs OpenBLAS with DYNAMIC_ARCH")
def test_neighbors_do_not_depend_on_the_blas_kernel():
    # The screen's products go through BLAS, whose summation and FMA order
    # follow the kernel picked for the CPU; the margin covers any order, so
    # the neighbors of a scoring_long-shaped search, a tuner-shaped search
    # and two searches whose screen keeps many candidates (a low-noise
    # sinusoid, and a level shift among the queries) are the same bits
    # under Prescott's kernel as under the default one.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    digests = []
    for coretype in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_NEAREST],
            env=dict(env, PYTHONPATH=path, **coretype),
            capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(proc.stdout)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64
