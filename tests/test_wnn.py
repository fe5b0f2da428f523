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


def assert_same_nearest(values, ends, n, p, kmax):
    """`_nearest` at one (p, kmax) gives the reference's neighbors, with ==."""
    [got] = wnn._nearest(values, ends, n, [(p, kmax)])
    want = reference_nearest(values, ends, n * p, n, kmax)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return want


def reference_mape(actual, predicted):
    zeros = np.flatnonzero(actual == 0.0)
    if zeros.size:
        raise ZeroActualError(int(zeros[0]))
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
        with pytest.raises(GridInfeasibleError):
            fpto_tune(ts, n=2, folds=3, p_grid=[30], k_grid=[1, 2])

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
        assert got.value.index == want.value.index == 1

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_many_ends_span_several_blocks(self, weighting):
        # Rounded values tie at the kmax-th distance; the ends grow, so each
        # block pads its shorter rows with +inf.
        values = np.round(np.random.default_rng(21).normal(10.0, 1.0, size=3000))
        n, window, kmax = 1, 4, 6
        ends = np.arange(2400, 3001)
        rows_per_block = wnn._BLOCK_FLOATS // (ends[-1] - window - n + 1)
        assert len(ends) > 2 * rows_per_block and len(ends) % rows_per_block
        [got] = wnn._nearest(values, ends, n, [(window, kmax)])
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
    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e-160])
    def test_overflowing_and_subnormal_squares(self, scale, weighting):
        # At 1e154 and 1e160 squared distances overflow to +inf, and so do
        # the squared windows, so the screen keeps every candidate. Where all k of a
        # fold overflow, the reference's inverse-distance weights are 0/0 and
        # its objective NaN; the tuner raises DataError there instead. Uniform
        # averages stay finite. At 1e-160 the squares are subnormal.
        values = np.round(np.random.default_rng(3).normal(10.0, 1.0, 80)) * scale
        with np.errstate(invalid="ignore"):
            want = reference_trace(values, 1, 10, range(1, 7), range(1, 4), weighting)
        overflowed = np.isnan([cell[2] for cell in want]).any()
        assert overflowed == (scale > 1 and weighting is Weighting.INVERSE_DISTANCE)
        ts = TimeSeries(values, 4)
        if overflowed:
            with pytest.raises(DataError, match="rescale the series"):
                fpto_tune(ts, 1, 10, range(1, 7), range(1, 4), weighting)
        else:
            assert list(fpto_tune(ts, 1, 10, range(1, 7), range(1, 4), weighting).trace) == want

    @pytest.mark.parametrize("seed, p", [(209, 6), (219, 1)])
    def test_subnormal_products(self, seed, p):
        # Products of values near 1e-160 are subnormal, so their absolute
        # error decides these rows: the margin's L*2**-1072 term keeps them.
        values = np.round(np.random.default_rng(seed).normal(10.0, 1.0, 80)) * 1e-160
        ends = np.arange(60, 81)
        assert_same_nearest(values, ends, 1, p, 3)

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
        # of a block's kept pairs come in several chunks of _BLOCK_FLOATS.
        values = np.tile([1.0, 2.0], 1500)
        values[::97] += 1.0
        n, window, kmax = 1, 12, 3
        ends = np.arange(2980, 3001)
        kept = []
        distances = wnn._distances

        def recorded(windows, candidates, queries):
            kept.append(len(candidates))
            return distances(windows, candidates, queries)

        monkeypatch.setattr(wnn, "_distances", recorded)
        [got] = wnn._nearest(values, ends, n, [(window, kmax)])
        assert max(kept) > 2 * wnn._BLOCK_FLOATS // window
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


class TestScreenSelectivity:
    """How many pairs the screen hands `_distances`, on the scoring_long search
    (T = 2000, ends 1280 .. 2000, n = 1, p = 12, k = 5) and series far from 0."""

    @staticmethod
    def kept_per_row(monkeypatch, values, ends, kmax):
        queries = []
        distances = wnn._distances

        def recorded(windows, candidates, rows):
            queries.append(rows)
            return distances(windows, candidates, rows)

        monkeypatch.setattr(wnn, "_distances", recorded)
        assert_same_nearest(values, ends, 1, 12, kmax)
        return np.bincount(np.concatenate(queries), minlength=ends.max() + 1)[ends]

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
