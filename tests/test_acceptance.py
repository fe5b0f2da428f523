"""Acceptance gate.

Each test exercises one release criterion end to end at its stated tolerance
and reports a single PASS/FAIL line through the terminal-summary hook in
conftest. Expected values are either exact by construction, frozen from
independent oracles implemented in this file, or published reference figures.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import record_acceptance, replay_states

import cpwnn as cw
from cpwnn.cli import load_csv
from cpwnn.conformal import kth_largest
from cpwnn.series import _mape_rows

MILK_CSV = Path(__file__).resolve().parent.parent / "data" / "milk_uk_monthly.csv"

WIDTH_CELLS = [
    (cw.ana_params(0.5, 0.2), (3.92, 4.38, 4.80)),
    (cw.ana_params(0.8, 0.4), (3.92, 5.02, 5.92)),
    (cw.aada_params(0.7, 0.3, 0.2, 0.82), (3.92, 5.40, 7.02)),
    (cw.aada_params(0.8, 0.2, 0.1, 0.9), (3.92, 5.49, 7.08)),
]

SCENARIOS = [
    ("ana-300", cw.ana_params(0.5, 0.2), 300),
    ("ana-400", cw.ana_params(0.8, 0.4), 400),
    ("aada-300", cw.aada_params(0.7, 0.3, 0.2, 0.82), 300),
    ("aada-400", cw.aada_params(0.8, 0.2, 0.1, 0.9), 400),
]


def _finish(num: int, passed: bool, detail: str) -> None:
    record_acceptance(f"criterion {num}", passed, detail)
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_theoretical_width_cells():
    started = time.perf_counter()
    failures = []
    for params, expected in WIDTH_CELLS:
        for h, want in enumerate(expected, start=1):
            got = cw.theoretical_width(params, h, 0.95)
            if abs(got - want) > 0.01:
                failures.append(f"beta={params.beta} phi={params.phi} h={h}: {got:.4f} vs {want}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _finish(1, ok, failures_or(f"12/12 width cells within ±0.01 in {elapsed:.3f}s", failures))


def failures_or(success: str, failures: list[str]) -> str:
    return success if not failures else "; ".join(failures)


def test_criterion_2_split_rule():
    started = time.perf_counter()
    expected = {1: (102, 127), 2: (51, 64), 3: (34, 43), 4: (26, 32)}
    failures = []
    for n, want in expected.items():
        split = cw.split_sizes(634, n, 0.05)
        if (split.i1, split.i2) != want:
            failures.append(f"n={n}: got {(split.i1, split.i2)}, want {want}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _finish(2, ok, failures_or(f"4/4 split pairs exact in {elapsed:.3f}s", failures))


def _tuned_pipeline(series: cw.TimeSeries, n: int, delta: float):
    split = cw.split_sizes(len(series), n, delta)
    train = cw.TimeSeries(series.values[: len(series) - n * split.i2], period=series.period)
    tuned = cw.fpto_tune(train, n, split.i1)
    config = cw.HorizonConfig(n, tuned.p_star, tuned.k_star)
    return split, config, tuned


def test_criterion_3_simulation_study():
    started = time.perf_counter()
    n, delta, seeds = 3, 0.05, range(20)
    width_fail, coverage_fail, summary = [], [], []
    for name, params, T in SCENARIOS:
        theoretical = np.array([cw.theoretical_width(params, h, 0.95) for h in (1, 2, 3)])
        widths, coverages = [], []
        for seed in seeds:
            series = cw.simulate_ets(params, T, seed)
            split, config, _ = _tuned_pipeline(series, n, delta)
            report = cw.check_cp(series, config, split)
            region = cw.conformal_region(series, config, split.i1 + split.i2, delta)
            widths.append(2.0 * region.half_widths)
            coverages.append(report.overall_coverage)
        ratio = np.mean(widths, axis=0) / theoretical
        mean_coverage = float(np.mean(coverages))
        summary.append(
            f"{name}: width/theoretical per h {np.round(ratio, 2).tolist()}, "
            f"mean coverage {mean_coverage:.2f}%"
        )
        if np.any(ratio < 0.75) or np.any(ratio > 1.25):
            width_fail.append(f"{name} ratio {np.round(ratio, 2).tolist()} outside ±25%")
        if mean_coverage < 92.0:
            coverage_fail.append(f"{name} mean coverage {mean_coverage:.2f}% < 92%")
    elapsed = time.perf_counter() - started
    problems = width_fail + coverage_fail
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.0f}s >= 300s")
    detail = " | ".join(summary) + f" | {elapsed:.1f}s"
    _finish(3, not problems, detail if not problems else "; ".join(problems) + " || " + detail)


def test_oracle_control_meets_criterion_3_gates():
    """Criterion 3's conformal layer and gates, fed oracle scores instead of WNN's.

    Not a criterion. The oracle knows the simulated states, so it forecasts
    step j from end e as l_e + (phi + ... + phi^j) b_e + s[(e+j-1) % m], and
    its scores are the true forecast errors. Its regions and online coverage
    come from the same rank rule and backtest as criterion 3's. If they meet
    the ±25% and >= 92% gates, the region, the backtest and the closed-form
    widths agree, and criterion 3's excess width comes from the forecaster.
    """
    n, delta, seeds = 3, 0.05, range(20)
    problems = []
    for name, params, T in SCENARIOS:
        theoretical = np.array([cw.theoretical_width(params, h, 0.95) for h in (1, 2, 3)])
        trend_steps = np.cumsum(params.phi ** np.arange(1, n + 1))
        split = cw.split_sizes(T, n, delta)
        h = split.i1 + split.i2
        ends = T - n * np.arange(h, 0, -1)
        steps = ends[:, None] + np.arange(n)
        widths, coverages = [], []
        for seed in seeds:
            values = cw.simulate_ets(params, T, seed).values
            level, trend, seasonal = replay_states(params, values)
            forecasts = (
                level[ends, None]
                + trend_steps * trend[ends, None]
                + seasonal[ends[:, None], steps % params.period]
            )
            scores = np.abs(values[steps] - forecasts)
            widths.append(2.0 * kth_largest(scores, cw.rank_for(delta, h)))
            _, hits = cw.backtest_matrices(scores[: split.i1], scores[split.i1 :], delta)
            coverages.append(100.0 * hits.mean())
        ratio = np.mean(widths, axis=0) / theoretical
        mean_coverage = float(np.mean(coverages))
        print(
            f"oracle {name}: width/theoretical per h {np.round(ratio, 3).tolist()}, "
            f"mean coverage {mean_coverage:.2f}%"
        )
        if np.any(ratio < 0.75) or np.any(ratio > 1.25):
            problems.append(f"{name} ratio {np.round(ratio, 3).tolist()} outside ±25%")
        if mean_coverage < 92.0:
            problems.append(f"{name} mean coverage {mean_coverage:.2f}% < 92%")
    assert not problems, "; ".join(problems)


def _selection_oracle(calib, test, delta):
    pool = [list(row) for row in np.atleast_2d(calib)]
    test = np.atleast_2d(test)
    i1, n = len(pool), len(pool[0])
    half = []
    for i in range(test.shape[0]):
        s = math.floor(delta * (i1 + i + 1) + 1e-9)
        half.append(
            [sorted((row[j] for row in pool), reverse=True)[s - 1] for j in range(n)]
        )
        pool.append(list(test[i]))
    half = np.asarray(half)
    return half, (test <= half).astype(int)


def test_criterion_4_backtest_hand_trace_and_oracle():
    failures = []
    half, hits = cw.backtest_matrices([[5.0], [2.0], [8.0]], [[6.0]], 0.3)
    report = cw.CheckReport(half, hits, {})
    if not (half[0, 0] == 8.0 and hits[0, 0] == 1 and report.mean_width[0] == 16.0):
        failures.append(
            f"hand trace gave M={half[0,0]}, FIND={hits[0,0]}, mean width {report.mean_width[0]}"
        )
    rng = np.random.default_rng(20260810)
    for case in range(100):
        i1 = int(rng.integers(3, 25))
        i2 = int(rng.integers(1, 10))
        n = int(rng.integers(1, 5))
        delta = float(rng.uniform(1.0 / (i1 + 1) + 1e-9, 0.5))
        calib = np.abs(rng.standard_normal((i1, n)))
        test = np.abs(rng.standard_normal((i2, n)))
        got_half, got_hits = cw.backtest_matrices(calib, test, delta)
        want_half, want_hits = _selection_oracle(calib, test, delta)
        if not (np.allclose(got_half, want_half) and np.array_equal(got_hits, want_hits)):
            failures.append(f"oracle mismatch on random instance {case}")
            break
    _finish(4, not failures, failures_or("hand trace exact; 100/100 selection-oracle matches", failures))


def test_criterion_5_exchangeability_sanity():
    rng = np.random.default_rng(55)
    i1, i2, trials = 39, 25, 200
    failures, summary = [], []
    for delta in (0.05, 0.10):
        coverages = []
        for _ in range(trials):
            scores = np.abs(rng.standard_normal((i1 + i2, 1)))
            _, hits = cw.backtest_matrices(scores[:i1], scores[i1:], delta)
            coverages.append(100.0 * hits.mean())
        mean_coverage = float(np.mean(coverages))
        target = 100.0 * (1.0 - delta)
        summary.append(f"delta={delta}: {mean_coverage:.2f}% (target {target:.0f}%)")
        if abs(mean_coverage - target) > 3.0:
            failures.append(
                f"delta={delta}: mean coverage {mean_coverage:.2f}% off target {target:.0f}% by >3pp"
            )
    _finish(5, not failures, failures_or("; ".join(summary), failures))


def test_criterion_6_region_equals_grid_membership_oracle():
    rng = np.random.default_rng(66)
    failures = []
    for case in range(50):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        delta = float(rng.uniform(0.1, 0.35))
        h = int(rng.integers(cw.min_calibration_count(delta), 18))
        T = h * n + n * p + n + k + int(rng.integers(5, 15))
        values = 50.0 + np.cumsum(rng.normal(0, 0.4, size=T)) + rng.normal(0, 1.0, size=T)
        series = cw.TimeSeries(values, 4)
        config = cw.HorizonConfig(n, p, k)
        region = cw.conformal_region(series, config, h, delta)
        # scores from a fresh forecast on each prefix, not through the memoised path
        scores = np.array([
            np.abs(values[t : t + n] - cw.wnn_forecast(cw.TimeSeries(values[:t], 4), config))
            for t in range(T - h * n, T, n)
        ])
        # grid-membership oracle per component
        for j in range(n):
            column = scores[:, j]
            reach = column.max() + 1.0
            grid = np.linspace(region.center[j] - reach, region.center[j] + reach, 4001)
            counts = (column[:, None] >= np.abs(grid - region.center[j])[None, :]).sum(axis=0)
            member = (counts + 1) / (column.size + 1) > delta
            step = grid[1] - grid[0]
            lo, hi = grid[member].min(), grid[member].max()
            if abs(lo - region.lower[j]) > step + 1e-9 or abs(hi - region.upper[j]) > step + 1e-9:
                failures.append(f"case {case} component {j}: grid oracle disagrees")
        # nestedness in delta on the same instance
        delta_wide = min(0.45, delta + 0.1)
        nested = cw.conformal_region(series, config, h, delta_wide)
        if np.any(nested.half_widths > region.half_widths + 1e-12):
            failures.append(f"case {case}: nestedness violated")
        if failures:
            break
    _finish(6, not failures, failures_or("50/50 instances match the grid oracle; nestedness holds", failures))


@pytest.mark.skipif(not MILK_CSV.exists(), reason="bundled dataset missing")
def test_criterion_7_milk_benchmark():
    started = time.perf_counter()
    series = load_csv(MILK_CSV, "value", 12)
    failures = []
    if len(series) != 634:
        failures.append(f"expected 634 observations, found {len(series)}")
    split, config, tuned = _tuned_pipeline(series, 1, 0.05)
    if (split.i1, split.i2) != (102, 127):
        failures.append(f"split came out {(split.i1, split.i2)}, want (102, 127)")
    report, test_mape = cw.run_backtest(series, cw.ForecasterSpec.wnn(config), 1, split)
    if test_mape > 2.0:
        failures.append(f"test MAPE {test_mape:.4f} > 2.0")
    if not 92.0 <= report.overall_coverage <= 100.0:
        failures.append(f"coverage {report.overall_coverage:.2f}% outside [92, 100]")
    # informational only: tuned optimum and the uniform-weighting variant
    train = cw.TimeSeries(series.values[: len(series) - split.i2], period=12)
    uniform = cw.fpto_tune(train, 1, split.i1, weighting=cw.Weighting.UNIFORM)
    uniform_config = cw.HorizonConfig(1, uniform.p_star, uniform.k_star)
    uniform_report, uniform_mape = cw.run_backtest(
        series, cw.ForecasterSpec.wnn(uniform_config, cw.Weighting.UNIFORM), 1, split
    )
    elapsed = time.perf_counter() - started
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s >= 600s")
    detail = (
        f"MAPE {test_mape:.4f} (gate <= 2.0), coverage {report.overall_coverage:.2f}% "
        f"(gate [92, 100]); tuned (p*, k*) = {(config.p, config.k)} "
        f"[informational reference (11, 7)]; uniform variant: (p*, k*) = "
        f"{(uniform_config.p, uniform_config.k)}, MAPE {uniform_mape:.4f}, "
        f"coverage {uniform_report.overall_coverage:.2f}%; {elapsed:.1f}s"
    )
    _finish(7, not failures, detail if not failures else "; ".join(failures) + " || " + detail)


def _brute_force_nearest(values, window, n):
    query = values[-window:]
    best, best_i = None, None
    for i in range(values.size - window - n + 1):
        d2 = float(((values[i : i + window] - query) ** 2).sum())
        if best is None or d2 < best:
            best, best_i = d2, i
    return values[best_i + window : best_i + window + n]


def test_criterion_8_forecaster_property_suites():
    rng = np.random.default_rng(88)
    failures = []

    for case in range(100):  # shift equivariance
        length = int(rng.integers(20, 50))
        values = rng.normal(rng.uniform(-20, 20), rng.uniform(0.5, 5.0), size=length)
        shift = float(rng.uniform(-50, 50))
        config = cw.HorizonConfig(int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 5)))
        if length < config.n * config.p + config.n + config.k:
            continue
        base = cw.wnn_forecast(cw.TimeSeries(values, 4), config)
        moved = cw.wnn_forecast(cw.TimeSeries(values + shift, 4), config)
        if not np.allclose(moved, base + shift, rtol=1e-9, atol=1e-7):
            failures.append(f"shift equivariance broke on case {case}")
            break

    for case in range(100):  # k=1 returns the nearest continuation exactly
        length = int(rng.integers(20, 60))
        values = rng.normal(0, 3.0, size=length)
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        if length < n * p + n + 1:
            continue
        got = cw.wnn_forecast(cw.TimeSeries(values, 4), cw.HorizonConfig(n, p, 1))
        want = _brute_force_nearest(values, n * p, n)
        if not np.array_equal(got, want):
            failures.append(f"k=1 degeneracy broke on case {case}")
            break

    for case in range(100):  # exact-repeat periodicity
        m = int(rng.integers(2, 7))
        reps = int(rng.integers(4, 9))
        profile = rng.normal(10.0, 4.0, size=m)
        values = np.tile(profile, reps)
        p = int(rng.integers(1, min(3, reps - 2) + 1))
        got = cw.wnn_forecast(cw.TimeSeries(values, m), cw.HorizonConfig(m, p, 1))
        if not np.array_equal(got, profile):
            failures.append(f"exact-repeat periodicity broke on case {case}")
            break

    for case in range(100):  # mape against a pure-python loop
        size = int(rng.integers(1, 30))
        actual = rng.uniform(0.5, 100.0, size=size)
        predicted = actual + rng.normal(0, 5.0, size=size)
        want = 100.0 * sum(abs((f - a) / a) for a, f in zip(actual, predicted)) / size
        if not math.isclose(float(_mape_rows(actual, predicted)), want, rel_tol=1e-12):
            failures.append(f"mape oracle broke on case {case}")
            break

    _finish(8, not failures, failures_or("4 property suites x 100 cases all hold", failures))
