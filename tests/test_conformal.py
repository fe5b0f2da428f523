import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from cpwnn import (
    ForecasterSpec,
    HorizonConfig,
    PredictionRegion,
    SplitSpec,
    TimeSeries,
    Weighting,
    check_cp,
    conformal_region,
    rank_for,
    run_backtest,
    wnn_forecast,
)
from cpwnn import conformal
from cpwnn.conformal import kth_largest, score_rows
from cpwnn.errors import InsufficientCalibrationError, InvalidParamsError, SeriesTooShortError


def periodic_series(profile, reps, period=None):
    profile = np.asarray(profile, dtype=float)
    return TimeSeries(np.tile(profile, reps), period or len(profile))


def wnn_scores(ts, config, h, weighting=Weighting.INVERSE_DISTANCE):
    """Score rows of the h most recent steps, oldest first, as `score_rows` gives them."""
    spec = ForecasterSpec.wnn(config, weighting)
    _, _, scores = score_rows(ts, spec, config.n, h)
    return scores


class TestNonconformityScores:
    def test_perfect_forecaster_gives_zeros(self):
        ts = periodic_series([5.0, 9.0, 2.0, 7.0], 12)
        config = HorizonConfig(n=4, p=1, k=1)
        scores = wnn_scores(ts, config, h=1)[0]
        assert scores == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_componentwise_absolute_error(self):
        # prefix [9, 23, 9, 23]: the nearest window continues with (9, 23);
        # realized values are (10, 20), so the scores are (1, 3).
        ts = TimeSeries(np.array([9.0, 23.0, 9.0, 23.0, 10.0, 20.0]), 2)
        scores = wnn_scores(ts, HorizonConfig(n=2, p=1, k=1), h=1)[0]
        assert scores == pytest.approx([1.0, 3.0])

    def test_matches_fresh_reforecast(self):
        values = np.random.default_rng(8).normal(30.0, 2.0, size=50)
        config = HorizonConfig(n=2, p=2, k=3)
        # a rounded series has exact distance ties at the k-th neighbor
        for ts in (TimeSeries(values, 4), TimeSeries(np.round(values), 4)):
            for weighting in Weighting:
                rows = wnn_scores(ts, config, h=3, weighting=weighting)
                assert rows.shape == (3, 2)  # one row per t = 44, 46, 48
                for row, t in zip(rows, (44, 46, 48)):
                    fresh = wnn_forecast(TimeSeries(ts.values[:t], 4), config, weighting)
                    assert np.array_equal(row, np.abs(ts.values[t : t + 2] - fresh))

    def test_label_must_fit(self):
        # h = 15 pairs with n = 2 would put the earliest pair at t = 29 - 30 < 1
        ts = TimeSeries(np.arange(1.0, 30.0), 4)
        with pytest.raises(SeriesTooShortError):
            wnn_scores(ts, HorizonConfig(n=2, p=2, k=1), h=15)


class TestScoreMatrix:
    def test_rows_are_chronological(self):
        rng = np.random.default_rng(1)
        ts = TimeSeries(rng.normal(10.0, 1.0, size=60), 4)
        config = HorizonConfig(n=2, p=2, k=2)
        rows = wnn_scores(ts, config, h=5)
        assert rows.shape == (5, 2)
        for i, t in enumerate((50, 52, 54, 56, 58)):
            fresh = wnn_forecast(TimeSeries(ts.values[:t], 4), config)
            assert rows[i] == pytest.approx(np.abs(ts.values[t : t + 2] - fresh))


class TestKthLargest:
    def test_selection_matches_full_sort_on_ties(self):
        # few distinct values, so every rank sits inside a run of ties
        rows = np.round(np.random.default_rng(4).uniform(0.0, 6.0, size=(140, 6))) / 4.0
        rows[:20] = 0.0
        for s in range(1, rows.shape[0] + 1):
            want = np.sort(rows, axis=0)[::-1][s - 1]
            assert np.array_equal(kth_largest(rows, s), want)


def reference_rows(ts, spec, n, h):
    """Scores and center straight from `forecast_at`, bypassing the memo."""
    ends = len(ts) - n * np.arange(h, -1, -1)
    forecasts = spec.forecast_at(ts.values, ends, n)
    actual = np.stack([ts.values[t : t + n] for t in ends[:-1]])
    return np.abs(actual - forecasts[:-1]), forecasts[-1]


class TestForecastMemo:
    """Forecasts are computed once per (series, spec, n) and served from then on."""

    @staticmethod
    def series(seed=11, size=90):
        return TimeSeries(np.random.default_rng(seed).normal(40.0, 3.0, size=size), 4)

    @pytest.mark.parametrize("hs", [(4, 9, 15), (15, 9, 4)])
    def test_rows_and_centers_match_uncached_forecasts(self, hs):
        ts = self.series()
        config = HorizonConfig(n=2, p=2, k=3)
        spec = ForecasterSpec.wnn(config)
        for h in hs:
            rows, center = reference_rows(ts, spec, 2, h)
            assert np.array_equal(wnn_scores(ts, config, h), rows)
            region = conformal_region(ts, config, h, delta=0.5)
            assert np.array_equal(region.center, center)
            assert np.array_equal(region.half_widths, kth_largest(rows, rank_for(0.5, h)))

    def test_specs_and_horizons_do_not_collide(self):
        ts = self.series()
        cases = [
            (HorizonConfig(n=2, p=2, k=3), Weighting.INVERSE_DISTANCE),
            (HorizonConfig(n=2, p=2, k=3), Weighting.UNIFORM),
            (HorizonConfig(n=2, p=2, k=5), Weighting.INVERSE_DISTANCE),
            (HorizonConfig(n=3, p=2, k=3), Weighting.INVERSE_DISTANCE),
            (HorizonConfig(n=1, p=4, k=3), Weighting.INVERSE_DISTANCE),
        ]
        for _ in range(2):
            for config, weighting in cases:
                spec = ForecasterSpec.wnn(config, weighting)
                rows, center = reference_rows(ts, spec, config.n, 8)
                assert np.array_equal(wnn_scores(ts, config, 8, weighting), rows)
                assert np.array_equal(
                    conformal_region(ts, config, 8, 0.5, weighting).center, center
                )

    def test_stored_forecasts_are_read_only(self):
        ts = self.series()
        spec = ForecasterSpec.wnn(HorizonConfig(n=2, p=2, k=3))
        forecasts, _, _ = score_rows(ts, spec, 2, 6)
        with pytest.raises(ValueError):
            forecasts[0, 0] = 1e9
        assert not any(f.flags.writeable for f in conformal._FORECASTS[ts].values())
        rows, _ = reference_rows(ts, spec, 2, 6)
        assert np.array_equal(wnn_scores(ts, spec.config, 6), rows)

    def test_too_short_raises_on_every_call(self):
        ts = TimeSeries(np.arange(1.0, 30.0), 4)
        config = HorizonConfig(n=2, p=2, k=1)
        wnn_scores(ts, config, h=5)  # feasible: an entry now exists
        wrong_n = ForecasterSpec.wnn(HorizonConfig(n=3, p=2, k=1))
        split = SplitSpec(i1=4, i2=1, delta=0.2)
        for _ in range(3):
            with pytest.raises(SeriesTooShortError):
                wnn_scores(ts, config, h=15)
            with pytest.raises(SeriesTooShortError):
                conformal_region(ts, config, 15, 0.5)
            with pytest.raises(InvalidParamsError):
                run_backtest(ts, wrong_n, 2, split)

    def test_entry_dies_with_its_series(self):
        ts = self.series()
        config = HorizonConfig(n=2, p=2, k=3)
        wnn_scores(ts, config, h=6)
        alive = weakref.ref(ts)
        stored = weakref.ref(conformal._FORECASTS[ts][ForecasterSpec.wnn(config), 2])
        gc.collect()
        held = len(conformal._FORECASTS)
        del ts
        gc.collect()
        assert alive() is None
        assert stored() is None
        assert len(conformal._FORECASTS) == held - 1

    def test_two_threads_get_the_serial_results(self):
        config = HorizonConfig(n=1, p=4, k=3)
        splits = [SplitSpec(i1=i1, i2=12, delta=0.2) for i1 in (8, 16, 24)]

        def run(ts, order):
            return {i: check_cp(ts, config, splits[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(6):
                values = np.random.default_rng(seed).normal(40.0, 3.0, size=140)
                serial = run(TimeSeries(values, 4), range(3))
                shared = TimeSeries(values, 4)
                results = [None, None]

                def worker(slot, order):
                    results[slot] = run(shared, order)

                threads = [
                    threading.Thread(target=worker, args=(0, (0, 1, 2))),
                    threading.Thread(target=worker, args=(1, (2, 1, 0))),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for got in results:
                    for i in range(3):
                        assert np.array_equal(got[i].half_widths, serial[i].half_widths)
                        assert np.array_equal(got[i].hits, serial[i].hits)
        finally:
            sys.setswitchinterval(interval)


def region_oracle_bounds(column_scores, center_j, delta, grid_pad=1.0, points=4001):
    """Membership test on a dense grid: keep candidates whose p-value beats delta."""
    scores = np.asarray(column_scores, dtype=float)
    reach = scores.max() + grid_pad
    grid = np.linspace(center_j - reach, center_j + reach, points)
    counts = (scores[:, None] >= np.abs(grid - center_j)[None, :]).sum(axis=0)
    member = (counts + 1) / (scores.size + 1) > delta
    return grid[member].min(), grid[member].max(), grid[1] - grid[0]


class TestConformalRegion:
    def test_rank_one_takes_column_maximum(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(rng.normal(20.0, 2.0, size=70), 4)
        config = HorizonConfig(n=2, p=2, k=3)
        h, delta = 12, 0.1  # floor(0.1 * 13) = 1
        region = conformal_region(ts, config, h, delta)
        assert region.rank == 1
        scores = wnn_scores(ts, config, h)
        assert region.half_widths == pytest.approx(scores.max(axis=0))

    def test_degenerate_on_deterministic_series(self):
        ts = periodic_series([4.0, 9.0, 6.0, 1.0], 15)
        config = HorizonConfig(n=4, p=1, k=1)
        region = conformal_region(ts, config, h=8, delta=0.2)
        assert region.half_widths == pytest.approx([0.0] * 4, abs=1e-12)
        assert region.center == pytest.approx([4.0, 9.0, 6.0, 1.0])

    def test_rank_identity_against_selection_oracle(self):
        rng = np.random.default_rng(5)
        ts = TimeSeries(rng.normal(100.0, 5.0, size=90), 4)
        config = HorizonConfig(n=3, p=2, k=4)
        h, delta = 15, 0.2
        region = conformal_region(ts, config, h, delta)
        s = rank_for(delta, h)
        scores = wnn_scores(ts, config, h)
        for j in range(3):
            want = sorted(scores[:, j], reverse=True)[s - 1]
            assert region.half_widths[j] == pytest.approx(want)

    def test_symmetry_about_center(self):
        rng = np.random.default_rng(6)
        ts = TimeSeries(rng.normal(10.0, 1.0, size=60), 4)
        region = conformal_region(ts, HorizonConfig(n=2, p=2, k=2), h=10, delta=0.15)
        assert region.upper - region.center == pytest.approx(region.center - region.lower)

    def test_matches_grid_membership_oracle(self):
        rng = np.random.default_rng(7)
        ts = TimeSeries(rng.normal(50.0, 4.0, size=80), 4)
        config = HorizonConfig(n=2, p=3, k=3)
        h, delta = 14, 0.2
        region = conformal_region(ts, config, h, delta)
        scores = wnn_scores(ts, config, h)
        for j in range(2):
            lo, hi, step = region_oracle_bounds(scores[:, j], region.center[j], delta)
            assert abs(lo - region.lower[j]) <= step + 1e-9
            assert abs(hi - region.upper[j]) <= step + 1e-9

    def test_nested_in_delta(self):
        rng = np.random.default_rng(9)
        ts = TimeSeries(rng.normal(0.0, 2.0, size=80), 4)
        config = HorizonConfig(n=2, p=2, k=3)
        wide = conformal_region(ts, config, h=16, delta=0.1)
        narrow = conformal_region(ts, config, h=16, delta=0.3)
        assert np.all(narrow.half_widths <= wide.half_widths + 1e-12)

    def test_infeasible_delta_reports_minimum(self):
        ts = TimeSeries(np.random.default_rng(2).normal(5.0, 1.0, size=60), 4)
        with pytest.raises(InsufficientCalibrationError) as exc:
            conformal_region(ts, HorizonConfig(n=2, p=2, k=2), h=5, delta=0.05)
        assert str(exc.value).endswith("; need at least 19")

    def test_delta_validated(self):
        ts = periodic_series([4.0, 9.0, 6.0, 1.0], 15)
        with pytest.raises(InvalidParamsError):
            conformal_region(ts, HorizonConfig(n=4, p=1, k=1), 8, 0.0)

    def test_delta_whose_rank_exceeds_h(self):
        # floor(delta*9 + dust) = 9 > h = 8: no score has that rank
        ts = periodic_series([4.0, 9.0, 6.0, 1.0], 15)
        with pytest.raises(InvalidParamsError, match="too close to 1: its rank 9 exceeds h = 8"):
            conformal_region(ts, HorizonConfig(n=4, p=1, k=1), 8, 1.0 - 1e-12)

    @pytest.mark.parametrize("h,delta", [(20.5, 0.1), (True, 0.5), (True, 0.1), (2.5, 0.1)])
    def test_h_validated(self, h, delta):
        # (True, 0.1) and (2.5, 0.1) are typed before the rank rule sees them
        ts = periodic_series([4.0, 9.0, 6.0, 1.0], 15)
        with pytest.raises(InvalidParamsError, match="h must be a positive integer"):
            conformal_region(ts, HorizonConfig(n=4, p=1, k=1), h, delta)

    @pytest.mark.parametrize("center, half", [([1.0, 2.0], [0.5]), ([[1.0]], [[0.5]])])
    def test_region_center_and_half_widths_must_be_congruent(self, center, half):
        with pytest.raises(InvalidParamsError, match="must be 1-D and congruent"):
            PredictionRegion(center, half, 0.1, 1)

    @pytest.mark.parametrize("rank", [True, 2.5, 0])
    def test_region_rank_must_be_a_positive_integer(self, rank):
        with pytest.raises(InvalidParamsError, match="rank must be a positive integer"):
            PredictionRegion([1.0], [0.5], 0.1, rank)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_region_half_widths_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(InvalidParamsError, match="half-widths must be finite and non-negative"):
            PredictionRegion([1.0, 2.0], [0.5, bad], 0.1, 1)

    @pytest.mark.parametrize("bad", ["x", 10**400, [1.0, 2.0]], ids=["text", "1e400", "ragged"])
    def test_region_inputs_that_are_not_numbers_are_invalid_params(self, bad):
        with pytest.raises(InvalidParamsError, match="center values do not form a numeric array"):
            PredictionRegion([1.0, bad], [0.5, 0.5], 0.1, 1)
        with pytest.raises(InvalidParamsError, match="half-widths do not form a numeric array"):
            PredictionRegion([1.0, 2.0], [0.5, bad], 0.1, 1)
