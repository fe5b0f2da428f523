import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpwnn import backtest
from cpwnn import (
    CheckReport,
    ForecasterSpec,
    HorizonConfig,
    SplitSpec,
    TimeSeries,
    backtest_matrices,
    check_cp,
    compare_forecasters,
    conformal_region,
    rank_for,
    run_backtest,
    split_sizes,
    wnn_forecast,
)
from cpwnn.backtest import _median
from cpwnn.errors import (
    DataError,
    InsufficientCalibrationError,
    InvalidParamsError,
    SeriesTooShortError,
)


def selection_oracle(calib, test, delta):
    """Recompute the half-width matrix per step from scratch, column by column.

    Each step sorts the first i1+i rows of every column in descending order
    and reads entry s-1, s = floor(delta*(i1+i+1)).
    """
    calib = np.atleast_2d(np.asarray(calib, dtype=float))
    test = np.atleast_2d(np.asarray(test, dtype=float))
    i1 = calib.shape[0]
    pool = np.vstack([calib, test])
    half = np.empty(test.shape)
    for i in range(test.shape[0]):
        s = int(np.floor(delta * (i1 + i + 1) + 1e-9))
        half[i] = -np.sort(-pool[: i1 + i], axis=0)[s - 1]
    hits = (test <= half).astype(int)
    return half, hits


class TestBacktestMatrices:
    def test_hand_trace(self):
        half, hits = backtest_matrices([[5.0], [2.0], [8.0]], [[6.0]], 0.3)
        assert half.tolist() == [[8.0]]
        assert hits.tolist() == [[1]]
        report = CheckReport.from_matrices(half, hits, {})
        assert report.overall_coverage == 100.0
        assert report.mean_width == pytest.approx([16.0])

    def test_row_joins_pool_only_after_recording(self):
        # the first test score (9) exceeds the pool max (8): had it been
        # appended before recording, step 0 would have used 9 instead of 8.
        half, hits = backtest_matrices([[5.0], [2.0], [8.0]], [[9.0], [6.0]], 0.3)
        assert half.tolist() == [[8.0], [9.0]]
        assert hits.tolist() == [[0], [1]]

    def test_matches_selection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            i1 = int(rng.integers(4, 20))
            i2 = int(rng.integers(1, 8))
            n = int(rng.integers(1, 4))
            delta = float(rng.uniform(1.0 / (i1 + 1) + 1e-6, 0.5))
            calib = np.abs(rng.standard_normal((i1, n)))
            test = np.abs(rng.standard_normal((i2, n)))
            half, hits = backtest_matrices(calib, test, delta)
            want_half, want_hits = selection_oracle(calib, test, delta)
            assert np.array_equal(half, want_half)
            assert np.array_equal(hits, want_hits)

    @settings(max_examples=150, deadline=None)
    @given(
        i1=st.integers(1, 40),
        i2=st.integers(1, 40),
        n=st.integers(1, 6),
        integer=st.booleans(),
        drift=st.floats(1.0, 4.0),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(i1=19, i2=1, n=1, integer=True, drift=1.0, fraction=0.0, seed=0)
    @example(i1=5, i2=30, n=6, integer=True, drift=4.0, fraction=1.0, seed=1)
    @example(i1=5, i2=40, n=1, integer=False, drift=1.0, fraction=0.89, seed=0)
    @example(i1=30, i2=20, n=2, integer=True, drift=1.0, fraction=0.3, seed=1)
    @example(i1=40, i2=10, n=2, integer=False, drift=1.0, fraction=0.0, seed=0)
    def test_property_matches_selection_oracle(self, i1, i2, n, integer, drift, fraction, seed):
        # Integer-valued scores tie often; a drift > 1 ramps the test scores
        # above the calibration scale, so later steps rank mostly test rows.
        # Any feasible delta: from the smallest with rank 1 at i1, up to 0.99.
        # The last three examples: delta 0.899 keeps 40 scores of a 5-row
        # calibration pool, so 35 are padding at first; 10 integer test scores
        # equal the kept minimum (of 15) when they arrive; and no test score
        # beats the kept maximum of 40 calibration scores at delta 1/41.
        rng = np.random.default_rng(seed)
        if integer:
            calib = rng.integers(0, 5, (i1, n)).astype(float)
            test = np.round(rng.integers(0, 5, (i2, n)) * np.linspace(1.0, drift, i2)[:, None])
        else:
            calib = np.abs(rng.standard_normal((i1, n)))
            test = np.abs(rng.standard_normal((i2, n))) * np.linspace(1.0, drift, i2)[:, None]
        lowest = 1.0 / (i1 + 1)
        delta = lowest + fraction * (0.99 - lowest)
        half, hits = backtest_matrices(calib, test, delta)
        want_half, want_hits = selection_oracle(calib, test, delta)
        assert np.array_equal(half, want_half)
        assert np.array_equal(hits, want_hits)

    def test_long_drifting_block_matches_selection_oracle(self):
        rng = np.random.default_rng(12)
        calib = np.abs(rng.standard_normal((1600, 1)))
        test = np.abs(rng.standard_normal((2000, 1))) * np.linspace(1.0, 3.0, 2000)[:, None]
        half, hits = backtest_matrices(calib, test, 0.05)
        want_half, want_hits = selection_oracle(calib, test, 0.05)
        assert np.array_equal(half, want_half)
        assert np.array_equal(hits, want_hits)

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("i1, i2, n", [(320, 400, 1), (131, 164, 6)])
    def test_scoring_long_shapes_match_selection_oracle(self, i1, i2, n, delta):
        # The calibration and test blocks of the benchmark's long-series
        # backtests, n = 1 and 6, at its three levels.
        rng = np.random.default_rng(14)
        calib = np.abs(rng.standard_normal((i1, n)))
        test = np.abs(rng.standard_normal((i2, n))) * np.linspace(1.0, 1.5, i2)[:, None]
        half, hits = backtest_matrices(calib, test, delta)
        want_half, want_hits = selection_oracle(calib, test, delta)
        assert np.array_equal(half, want_half)
        assert np.array_equal(hits, want_hits)
        # The report's column means sum in this layout's order.
        assert half.flags.c_contiguous

    @pytest.mark.parametrize("i1, i2, n, most", [(320, 400, 1, 40), (131, 164, 6, 90)])
    def test_only_scores_above_the_kept_minimum_are_inserted(self, monkeypatch, i1, i2, n, most):
        # On a stationary block at delta 0.05 (keep 36 and 14) a test score
        # rarely reaches the top: 32 of 400 and 71 of 984 are inserted, not
        # one per step. The bounds leave about 25% headroom.
        inserted = []
        insort = backtest.insort

        def counted(pool, score):
            inserted.append(score)
            insort(pool, score)

        monkeypatch.setattr(backtest, "insort", counted)
        rng = np.random.default_rng(15)
        calib = np.abs(rng.standard_normal((i1, n)))
        test = np.abs(rng.standard_normal((i2, n)))
        backtest_matrices(calib, test, 0.05)
        assert 0 < len(inserted) <= most

    def test_signed_zero_ties_keep_their_row_order(self):
        # 0.0 == -0.0, so only the order a sort leaves equal scores in decides
        # the sign a width reads: that of a stable sort of the calibration
        # rows. No test score beats the kept minimum, a zero, so none enters.
        rng = np.random.default_rng(16)
        calib = np.where(rng.random((300, 1)) < 0.5, 0.0, -0.0)
        calib[:5] = 1.0
        half, _ = backtest_matrices(calib, np.zeros((40, 1)), 0.5)
        ordered = sorted(calib[:, 0].tolist())
        want = [ordered[-rank_for(0.5, 300 + i)] for i in range(40)]
        assert np.array_equal(np.signbit(half[:, 0]), np.signbit(want))

    @pytest.mark.parametrize("delta", [0.05, 0.5, 0.9])
    def test_an_empty_test_block_gives_empty_matrices(self, delta):
        half, hits = backtest_matrices(np.ones((20, 3)), np.empty((0, 3)), delta)
        assert half.shape == hits.shape == (0, 3)
        assert (half.dtype, hits.dtype) == (np.float64, np.uint8)

    def test_ranks_where_the_dust_guard_decides(self):
        # The pools grow from m = 99 to 200 rows, so delta*(m + 1) is the
        # integer j or 2*j in exact arithmetic at m = 99 and 199; in floating
        # point it falls just below it for some j (0.29 * 100 < 29).
        deltas = [j / 100 for j in range(1, 100)]
        assert any(delta * 100 < round(delta * 100) for delta in deltas)
        rng = np.random.default_rng(13)
        calib, test = rng.random((99, 2)), rng.random((102, 2))
        for delta in deltas:
            half, hits = backtest_matrices(calib, test, delta)
            want_half, want_hits = selection_oracle(calib, test, delta)
            assert np.array_equal(half, want_half)
            assert np.array_equal(hits, want_hits)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("which", ["calibration", "test"])
    def test_non_finite_score_is_rejected(self, bad, which):
        calib = [[1.0], [2.0], [3.0]]
        test = [[1.0], [2.0]]
        (calib if which == "calibration" else test)[1][0] = bad
        with pytest.raises(InvalidParamsError, match="score rows must be finite"):
            backtest_matrices(calib, test, 0.5)

    def test_delta_whose_rank_exceeds_the_pool(self):
        # floor(delta*3 + dust) = 3 > 2 rows: no score has that rank
        with pytest.raises(InvalidParamsError, match="too close to 1"):
            backtest_matrices([[1.0], [2.0]], [[1.0]], 1.0 - 1e-12)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(1)
        calib = np.abs(rng.standard_normal((15, 2)))
        test = np.abs(rng.standard_normal((5, 2)))
        lo, _ = backtest_matrices(calib, test, 0.10)
        hi, _ = backtest_matrices(calib, test, 0.30)
        assert np.all(hi <= lo + 1e-12)

    def test_infeasible_delta(self):
        with pytest.raises(InsufficientCalibrationError) as exc:
            backtest_matrices([[1.0], [2.0]], [[1.0]], 0.05)
        assert str(exc.value) == (
            "h=2 calibration examples are too few for this significance level; need at least 19"
        )

    def test_rows_of_different_widths(self):
        with pytest.raises(InvalidParamsError, match="rows must have the same width"):
            backtest_matrices(np.ones((20, 2)), np.ones((3, 1)), 0.3)

    @pytest.mark.parametrize("calib, test", [
        (np.ones(5), np.ones(5)),  # once promoted to one row of five columns
        ([1.0, 2.0, 3.0], [[1.0]]),  # n = 1 scores as a flat list
        (np.ones((4, 1)), np.ones(1)),
        (np.ones((4, 1, 1)), np.ones((2, 1, 1))),
    ])
    def test_score_rows_must_be_2d(self, calib, test):
        with pytest.raises(InvalidParamsError, match="rows must have the same width and be 2-D"):
            backtest_matrices(calib, test, 0.6)

    @pytest.mark.parametrize("bad", ["x", 10**400, {}], ids=["text", "1e400", "dict"])
    def test_non_numeric_score_is_invalid_params(self, bad):
        with pytest.raises(InvalidParamsError, match="calibration rows do not form a numeric"):
            backtest_matrices([[1.0], [bad]], [[1.0]], 0.5)
        with pytest.raises(InvalidParamsError, match="test rows do not form a numeric"):
            backtest_matrices([[1.0], [2.0]], [[bad]], 0.5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, float("nan"), -0.1, "0.1", None])
    def test_delta_outside_the_unit_interval(self, delta):
        with pytest.raises(InvalidParamsError, match=r"delta must lie in \(0, 1\)"):
            backtest_matrices([[1.0], [2.0]], [[1.0]], delta)


class TestCheckCp:
    def test_perfect_forecaster_degenerates(self):
        profile = np.array([5.0, 11.0, 7.0, 3.0])
        series = TimeSeries(np.tile(profile, 30), 4)
        split = SplitSpec(i1=6, i2=5, delta=0.2)
        report = check_cp(series, HorizonConfig(n=4, p=1, k=1), split)
        assert np.all(report.half_widths == 0.0)
        assert np.all(report.hits == 1)
        assert report.overall_coverage == 100.0
        assert report.mean_width == pytest.approx([0.0] * 4)

    def test_report_recomputes_from_own_matrices(self):
        rng = np.random.default_rng(4)
        series = TimeSeries(100.0 + np.cumsum(rng.normal(0, 0.5, size=160)), 4)
        split = SplitSpec(i1=8, i2=6, delta=0.2)
        report = check_cp(series, HorizonConfig(n=2, p=2, k=3), split)
        hits = report.hits
        assert report.overall_coverage == pytest.approx(100.0 * hits.sum() / hits.size)
        assert report.component_coverage == pytest.approx(100.0 * hits.mean(axis=0))
        assert report.mean_width == pytest.approx(2.0 * report.half_widths.mean(axis=0))
        assert report.median_width == pytest.approx(2.0 * np.median(report.half_widths, axis=0))
        assert report.config["i1"] == 8 and report.config["i2"] == 6

    def test_rank_grows_with_pool(self):
        # the recorded half-width at step i must be the rank-th largest of the
        # first i1+i rows of the score sequence, recomputed independently
        rng = np.random.default_rng(9)
        series = TimeSeries(50.0 + rng.normal(0, 1.0, size=140), 4)
        config = HorizonConfig(n=2, p=2, k=3)
        split = SplitSpec(i1=7, i2=5, delta=0.25)
        report = check_cp(series, config, split)
        T = len(series)
        t_values = [T - 2 * (split.i1 + split.i2) + 2 * j for j in range(split.i1 + split.i2)]
        fresh = [wnn_forecast(TimeSeries(series.values[:t], 4), config) for t in t_values]
        rows = np.stack([np.abs(series.values[t : t + 2] - f) for t, f in zip(t_values, fresh)])
        for i in range(split.i2):
            s = rank_for(split.delta, split.i1 + i)
            for j in range(2):
                column = sorted(rows[: split.i1 + i, j], reverse=True)
                assert report.half_widths[i, j] == pytest.approx(column[s - 1])

    def test_series_too_short(self):
        # the earliest scored step (t = T - n*(i1+i2): 3, 6, then 8) falls below
        # the history a refit needs, window + n + k - 1 = 10; the region and
        # the backtest fail the same way
        config = HorizonConfig(n=2, p=4, k=1)
        for T, split in [(39, SplitSpec(i1=9, i2=9, delta=0.2)),
                         (30, SplitSpec(i1=9, i2=3, delta=0.2)),
                         (30, SplitSpec(i1=9, i2=2, delta=0.2))]:
            series = TimeSeries(np.arange(1.0, T + 1.0), 4)
            with pytest.raises(SeriesTooShortError) as backtest_exc:
                check_cp(series, config, split)
            with pytest.raises(SeriesTooShortError) as region_exc:
                conformal_region(series, config, split.i1 + split.i2, split.delta)
            assert str(region_exc.value) == str(backtest_exc.value)

    def test_shapes_for_simulated_split(self):
        from cpwnn import ana_params, simulate_ets

        series = simulate_ets(ana_params(0.5, 0.2), 300, 42)
        split = split_sizes(300, 3, 0.05)
        assert (split.i1, split.i2) == (19, 20)
        report = check_cp(series, HorizonConfig(n=3, p=4, k=4), split)
        assert report.half_widths.shape == (20, 3)
        assert 0.0 <= report.overall_coverage <= 100.0

    def test_overflowing_score_is_data_error(self):
        # Values of +-1e308 are finite, but a seasonal-naive forecast of the
        # opposite sign is 2e308 away; the suite turns a numpy warning into a failure.
        rng = np.random.default_rng(5)
        series = TimeSeries(np.where(rng.random(120) < 0.5, 1.0, -1.0) * 1e308, 12)
        split = SplitSpec(i1=20, i2=24, delta=0.05)
        with pytest.raises(DataError, match="overflows; rescale the series"):
            run_backtest(series, ForecasterSpec.seasonal_naive(12), 1, split)

    def test_overflowing_width_is_data_error(self):
        # Every half-width is finite, but the sum behind a mean width is not;
        # the suite turns numpy's overflow warning into a failure.
        series = TimeSeries(np.random.default_rng(5).random(120) * 1e308 + 1e300, 12)
        split = SplitSpec(i1=20, i2=24, delta=0.05)
        with pytest.raises(DataError, match="a width overflows; rescale the series"):
            run_backtest(series, ForecasterSpec.seasonal_naive(12), 1, split)
        with pytest.raises(DataError, match="a width overflows; rescale the series"):
            CheckReport.from_matrices([[1e308], [1e308]], [[1], [1]], {})
        # Each column's mean width is finite, but their overall mean is not.
        with pytest.raises(DataError, match="a width overflows; rescale the series"):
            CheckReport.from_matrices(np.full((1, 12), 0.8e308), np.ones((1, 12)), {})

    def test_overall_widths_match_the_json_lists(self):
        # The overall widths recomputed from the report's JSON lists: the mean
        # of the column mean widths, and twice the median cell.
        rng = np.random.default_rng(28)
        parities = set()
        for _ in range(1200):
            shape = tuple(rng.integers(1, 8, 2))
            scale = 10.0 ** rng.integers(-320, 305)
            half = rng.random(shape) * scale
            if rng.random() < 0.3:  # ties
                half = np.round(half / scale * 4) * scale
            report = CheckReport.from_matrices(half, np.ones(shape), {})
            doc = report.to_dict()
            assert report.overall_mean_width == float(np.mean(doc["mean_width"]))
            assert report.overall_median_width == float(_median(doc["half_widths"]) * 2.0)
            parities.add(half.size % 2)
        assert parities == {0, 1}

    @pytest.mark.parametrize("rows", [1, 2, 7, 8])
    def test_median_width_is_numpys(self, rows):
        rng = np.random.default_rng(rows)
        for half in (
            rng.random((rows, 3)),
            rng.integers(1, 1000, (rows, 3)) * 5e-324,  # subnormal
            2e307 * (1.0 - 0.1 * rng.random((rows, 3))),  # row sums near the largest float
        ):
            report = CheckReport.from_matrices(half, np.ones(half.shape), {})
            assert np.array_equal(report.median_width, 2.0 * np.median(half, axis=0))

    def test_an_odd_median_is_its_middle_element(self):
        # Averaging the middle element with itself would overflow.
        assert _median(np.full(3, 1.7e308)) == 1.7e308 == np.median(np.full(3, 1.7e308))

    def test_a_report_without_rows_is_invalid(self):
        with pytest.raises(InvalidParamsError, match="with rows"):
            CheckReport.from_matrices(np.empty((0, 2)), np.empty((0, 2)), {})

    def test_a_report_without_columns_is_invalid(self):
        with pytest.raises(InvalidParamsError, match="with rows and columns"):
            CheckReport.from_matrices(np.empty((2, 0)), np.empty((2, 0)), {})

    @pytest.mark.parametrize("hits", [[[2]], np.array([[-1]]), [[0.5]], [[float("nan")]], [[256]]])
    def test_hits_must_be_zero_or_one(self, hits):
        # uint8 once wrapped these: 2 read as 200% coverage, -1 as 25,500%
        with pytest.raises(InvalidParamsError, match="hits must be 0 or 1"):
            CheckReport.from_matrices([[1.0]], hits, {})

    @pytest.mark.parametrize("bad", ["x", 10**400, [1.0, 2.0]], ids=["text", "1e400", "ragged"])
    def test_non_numeric_report_input_is_invalid_params(self, bad):
        with pytest.raises(InvalidParamsError, match="half-widths do not form a numeric array"):
            CheckReport.from_matrices([[1.0, bad]], [[1, 1]], {})
        with pytest.raises(InvalidParamsError, match="hits do not form a numeric array"):
            CheckReport.from_matrices([[1.0, 1.0]], [[1, bad]], {})

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_a_negative_or_non_finite_half_width_is_invalid(self, bad):
        with pytest.raises(InvalidParamsError, match="half-widths must be finite and non-negative"):
            CheckReport.from_matrices([[1.0, bad]], [[1, 1]], {})


class TestCompareForecasters:
    def test_singleton_matches_direct_calls(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(80.0 + rng.normal(0, 2.0, size=150), 4)
        config = HorizonConfig(n=2, p=2, k=3)
        split = SplitSpec(i1=8, i2=7, delta=0.2)
        spec = ForecasterSpec.wnn(config)
        (result,) = compare_forecasters(series, [spec], 2, split)
        direct_report, direct_mape = run_backtest(series, spec, 2, split)
        assert result.error is None
        assert result.mape == pytest.approx(direct_mape)
        assert np.allclose(result.report.half_widths, direct_report.half_widths)
        assert check_cp(series, config, split).overall_coverage == result.report.overall_coverage

    def test_both_exact_on_deterministic_seasonal(self):
        profile = np.array([6.0, 12.0, 8.0, 4.0])
        series = TimeSeries(np.tile(profile, 30), 4)
        split = SplitSpec(i1=6, i2=5, delta=0.2)
        specs = [
            ForecasterSpec.wnn(HorizonConfig(n=4, p=1, k=1)),
            ForecasterSpec.seasonal_naive(4),
        ]
        results = compare_forecasters(series, specs, 4, split)
        for result in results:
            assert result.mape == pytest.approx(0.0, abs=1e-12)
            assert result.report.overall_coverage == 100.0

    def test_per_spec_errors_are_collected(self):
        profile = np.array([6.0, 12.0, 8.0, 4.0])
        series = TimeSeries(np.tile(profile, 30), 4)
        split = SplitSpec(i1=6, i2=5, delta=0.2)
        specs = [
            ForecasterSpec.wnn(HorizonConfig(n=4, p=40, k=1)),  # window too long
            ForecasterSpec.seasonal_naive(4),
        ]
        broken, healthy = compare_forecasters(series, specs, 4, split)
        assert broken.error is not None and broken.report is None
        assert healthy.error is None and healthy.report.overall_coverage == 100.0

    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_n_must_be_a_positive_integer(self, n):
        # Typed before any forecaster sees it: a WNN spec at n = 1 would
        # take True as 1, and the seasonal-naive gather cannot index by 2.5.
        series = TimeSeries(np.tile(np.array([6.0, 12.0, 8.0, 4.0]), 30), 4)
        split = SplitSpec(i1=6, i2=5, delta=0.2)
        specs = [
            ForecasterSpec.seasonal_naive(4),
            ForecasterSpec.wnn(HorizonConfig(n=1, p=2, k=1)),
        ]
        message = f"n must be a positive integer, got {n!r}"
        for spec in specs:
            with pytest.raises(InvalidParamsError, match=message):
                run_backtest(series, spec, n, split)
        results = compare_forecasters(series, specs, n, split)
        assert [r.error for r in results] == [message, message]
