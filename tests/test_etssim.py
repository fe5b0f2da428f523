import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import replay_states

from cpwnn import (
    EtsParams,
    aada_params,
    ana_params,
    simulate_ets,
    theoretical_width,
)
from cpwnn.etssim import _ets_forecast_variance
from cpwnn.errors import InvalidParamsError

PARAM_SETS = [
    ana_params(0.5, 0.2),
    ana_params(0.8, 0.4),
    aada_params(0.7, 0.3, 0.2, 0.82),
    aada_params(0.8, 0.2, 0.1, 0.9),
]


class TestParams:
    def test_default_seasonal_sums_to_zero(self):
        for m in (1, 4, 12, 7):
            seasonal = EtsParams(0.5, 0.2, period=m).init_seasonal
            assert seasonal.shape == (m,)
            assert abs(seasonal.sum()) < 1e-9
            assert not seasonal.flags.writeable

    def test_ranges_enforced(self):
        with pytest.raises(InvalidParamsError):
            ana_params(alpha=0.0, gamma=0.2)
        with pytest.raises(InvalidParamsError):
            ana_params(alpha=0.5, gamma=1.0)
        with pytest.raises(InvalidParamsError):
            aada_params(0.5, 0.3, 0.2, phi=1.0)
        with pytest.raises(InvalidParamsError):
            EtsParams(alpha=0.5, gamma=0.2, beta=0.3)
        with pytest.raises(InvalidParamsError, match="period must be a positive integer"):
            EtsParams(0.5, 0.2, period=True)
        with pytest.raises(InvalidParamsError, match="sigma2 must be a finite number >= 0"):
            EtsParams(0.5, 0.2, sigma2=float("nan"))
        with pytest.raises(InvalidParamsError, match="beta must lie in"):
            aada_params(0.5, None, 0.2, 0.9)
        for T in (2.5, True):
            with pytest.raises(InvalidParamsError, match="T must be a positive integer"):
                simulate_ets(ana_params(0.5, 0.2), T, 0)

    @pytest.mark.parametrize("name", ["init_level", "init_trend"])
    @pytest.mark.parametrize("value", ["100", None, True, float("nan"), float("inf")])
    def test_start_values_must_be_finite_numbers(self, name, value):
        with pytest.raises(InvalidParamsError, match=f"{name} must be a finite number"):
            EtsParams(0.5, 0.2, beta=0.3, phi=0.9, **{name: value})
        with pytest.raises(InvalidParamsError, match=f"{name} must be a finite number"):
            EtsParams(0.5, 0.2, **{name: value})

    def test_ana_is_the_damped_model_without_trend(self):
        params = ana_params(0.5, 0.2)
        assert (params.beta, params.phi) == (0.0, 0.0)

    @pytest.mark.parametrize("sigma2", ["1", True])
    def test_sigma2_must_be_a_number(self, sigma2):
        with pytest.raises(InvalidParamsError, match="sigma2 must be a finite number >= 0"):
            EtsParams(0.5, 0.2, sigma2=sigma2)

    @pytest.mark.parametrize(
        "name, value",
        [("sigma2", float("inf")), ("sigma2", 10**400), ("sigma2", -1e-300),
         ("init_level", 10**400), ("init_trend", -(10**400)), ("init_level", -float("inf"))],
        ids=["sigma2-inf", "sigma2-1e400", "sigma2-negative",
             "init_level-1e400", "init_trend--1e400", "init_level--inf"],
    )
    def test_infinite_huge_or_negative_values_are_invalid(self, name, value):
        with pytest.raises(InvalidParamsError, match=f"{name} must be a finite number"):
            EtsParams(0.5, 0.2, **{name: value})

    @pytest.mark.parametrize("name", ["sigma2", "init_level", "init_trend"])
    def test_numpy_float32_settings_are_read(self, name):
        # The bound check compares a numpy float as a Python float: float32
        # cannot hold the largest float64, and casting it there warns.
        params = EtsParams(0.5, 0.2, **{name: np.float32(0.5)})
        assert type(getattr(params, name)) is float and getattr(params, name) == 0.5

    def test_numbers_are_stored_as_floats(self):
        params = EtsParams(0.5, 0.2, sigma2=2, init_level=10**300, init_trend=-3)
        for name, want in (("sigma2", 2.0), ("init_level", 1e300), ("init_trend", -3.0)):
            assert type(getattr(params, name)) is float and getattr(params, name) == want

    @pytest.mark.parametrize("beta, phi", [(0.0, 0.0), (0, 0), (0.3, 0.9), (1e-9, 1 - 1e-9)])
    def test_trend_domain_accepts(self, beta, phi):
        params = EtsParams(0.5, 0.2, beta=beta, phi=phi)
        assert (params.beta, params.phi) == (beta, phi)

    @pytest.mark.parametrize(
        "beta, phi",
        [(0.0, 0.5), (0.3, 0.0), (False, False), (0.0, False), (None, None),
         (None, 0.5), (1.0, 0.5), (0.3, 1.0), (-0.1, 0.5), (float("nan"), 0.5)],
    )
    def test_trend_domain_rejects(self, beta, phi):
        with pytest.raises(InvalidParamsError, match="(beta|phi) must lie in"):
            EtsParams(0.5, 0.2, beta=beta, phi=phi)

    def test_aada_with_zero_trend_is_ana(self):
        flat, ana = EtsParams(0.5, 0.2, beta=0, phi=0, init_trend=7.0), ana_params(0.5, 0.2)
        assert (flat.beta, flat.phi) == (0, 0)
        assert np.array_equal(simulate_ets(flat, 50, 3).values, simulate_ets(ana, 50, 3).values)
        assert _ets_forecast_variance(flat, 13) == _ets_forecast_variance(ana, 13)


class TestSimulate:
    def test_noiseless_ana_is_exactly_periodic(self):
        params = EtsParams(0.5, 0.2, sigma2=0.0, period=6, init_level=100.0)
        seasonal = params.init_seasonal
        series = simulate_ets(params, 30, seed=1)
        want = 100.0 + seasonal[np.arange(30) % 6]
        assert series.values == pytest.approx(want, abs=1e-12)

    def test_noiseless_damped_trend_closed_form(self):
        phi, b0 = 0.8, 2.5
        params = EtsParams(0.6, 0.2, sigma2=0.0, period=4, beta=0.3, phi=phi,
                           init_level=50.0, init_trend=b0)
        seasonal = params.init_seasonal
        series = simulate_ets(params, 20, seed=3)
        t = np.arange(1, 21)
        trend_sum = b0 * phi * (1.0 - phi**t) / (1.0 - phi)  # b0*(phi + ... + phi^t)
        want = 50.0 + trend_sum + seasonal[(t - 1) % 4]
        assert series.values == pytest.approx(want, rel=1e-12)

    def test_same_seed_same_path(self):
        params = aada_params(0.7, 0.3, 0.2, 0.82)
        a = simulate_ets(params, 100, seed=7)
        b = simulate_ets(params, 100, seed=7)
        assert np.array_equal(a.values, b.values)
        c = simulate_ets(params, 100, seed=8)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidParamsError) as exc:
            simulate_ets(ana_params(0.5, 0.2), 10, seed)
        assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"

    @pytest.mark.parametrize("init_trend", [1e308, -1e308])
    def test_overflowing_path_is_invalid_params(self, init_trend):
        params = EtsParams(0.7, 0.2, beta=0.3, phi=0.82, init_level=1e308, init_trend=init_trend)
        with pytest.raises(InvalidParamsError, match="parameters make the path overflow"):
            simulate_ets(params, 40, seed=0)

    @pytest.mark.parametrize("init_trend", [1e308, -1e308])
    def test_overflowing_path_with_numpy_rates_is_invalid_params(self, init_trend):
        # The loop runs on Python floats, which overflow without a warning;
        # numpy rates are stored as floats, so no state becomes a numpy scalar.
        alpha, beta, gamma, phi = map(np.float64, (0.7, 0.3, 0.2, 0.82))
        params = EtsParams(alpha, gamma, beta=beta, phi=phi,
                           init_level=1e308, init_trend=init_trend)
        assert all(type(v) is float for v in (params.alpha, params.beta, params.gamma, params.phi))
        with pytest.raises(InvalidParamsError, match="parameters make the path overflow"):
            simulate_ets(params, 40, seed=0)

    def test_period_metadata(self):
        series = simulate_ets(EtsParams(0.5, 0.2, period=12), 50, seed=0)
        assert series.period == 12 and len(series) == 50

    def test_recursion_reconstructs_from_observations(self):
        # replay the state recursion in test code from the true initial states:
        # an oracle holding those states forecasts the one-step mean, so its
        # one-step errors are exactly the simulator's scaled shocks. Short
        # horizon only: rounding seeds grow exponentially for these
        # parameters, so exact replay is a local consistency check
        params = EtsParams(0.7, 0.2, sigma2=2.5, period=12, beta=0.3, phi=0.82)
        values = simulate_ets(params, 300, seed=13).values
        level, trend, seasonal = replay_states(params, values)
        t = np.arange(values.size)
        means = level + params.phi * trend + seasonal[t, t % 12]
        shocks = np.random.default_rng(13).standard_normal(300) * np.sqrt(2.5)
        assert np.allclose(values - means, shocks, atol=1e-8)


class TestForecastVariance:
    def test_h1_collapses_to_sigma2(self):
        for params in PARAM_SETS:
            scaled = EtsParams(params.alpha, params.gamma, sigma2=2.5,
                               beta=params.beta, phi=params.phi)
            assert _ets_forecast_variance(scaled, 1) == pytest.approx(2.5)

    def test_ana_h2_value(self):
        assert _ets_forecast_variance(ana_params(0.5, 0.2), 2) == pytest.approx(1.25)

    def test_aada_h2_value(self):
        got = _ets_forecast_variance(aada_params(0.7, 0.3, 0.2, 0.82), 2)
        assert got == pytest.approx(1.894, abs=1e-3)

    def test_nondecreasing_over_two_periods(self):
        for params in PARAM_SETS:
            variances = [_ets_forecast_variance(params, h) for h in range(1, 25)]
            assert all(b >= a - 1e-12 for a, b in zip(variances, variances[1:]))

    @pytest.mark.parametrize("m", [1, 4, 7, 12])
    @pytest.mark.parametrize("beta, phi", [(0.0, 0.0), (0.25, 0.85)], ids=["ana", "aada"])
    def test_matches_state_space_reference(self, beta, phi, m):
        # c_j = w'F^(j-1)g over the state x = (l, b, s_{t-1}, ..., s_{t-m}),
        # built here from the recursion, not from the sum in the library
        params = EtsParams(0.6, 0.3, sigma2=1.7, period=m, beta=beta, phi=phi)
        size = 2 + m
        w = np.zeros(size)
        w[:2], w[-1] = (1.0, phi), 1.0
        g = np.zeros(size)
        g[:3] = (params.alpha, beta, params.gamma)
        F = np.zeros((size, size))
        F[0, :2] = (1.0, phi)
        F[1, 1] = phi
        F[2, -1] = 1.0  # the new s_{t-1} is s_{t-m} before its update
        F[3:, 2:-1] = np.eye(m - 1)
        power = np.eye(size)
        coefficients = []
        for _ in range(3 * m + 2):
            coefficients.append(w @ power @ g)
            power = F @ power
        for h in range(1, 3 * m + 4):
            want = params.sigma2 * (1.0 + sum(c * c for c in coefficients[: h - 1]))
            assert _ets_forecast_variance(params, h) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("phi", [0.999999, 1 - 1e-7, 1 - 1e-8])
    def test_stable_as_phi_approaches_one(self, phi):
        params = EtsParams(0.7, 0.2, sigma2=2.5, beta=0.3, phi=phi)
        assert _ets_forecast_variance(params, 1) == params.sigma2
        assert math.isfinite(theoretical_width(params, 3, 0.95))

    def test_h_validated(self):
        with pytest.raises(InvalidParamsError):
            _ets_forecast_variance(ana_params(0.5, 0.2), 0)
        with pytest.raises(InvalidParamsError, match="h must be a positive integer"):
            _ets_forecast_variance(ana_params(0.5, 0.2), 2.5)
        with pytest.raises(InvalidParamsError, match="h must be a positive integer"):
            theoretical_width(ana_params(0.5, 0.2), True, 0.9)

    def test_overflowing_variance_is_invalid_params(self):
        params = EtsParams(0.5, 0.2, sigma2=1e308)
        assert _ets_forecast_variance(params, 1) == 1e308
        with pytest.raises(InvalidParamsError, match="13-step forecast variance overflow"):
            _ets_forecast_variance(params, 13)
        with pytest.raises(InvalidParamsError, match="13-step forecast variance overflow"):
            theoretical_width(params, 13, 0.95)


class TestTheoreticalWidth:
    def test_unit_sigma_95(self):
        assert theoretical_width(ana_params(0.5, 0.2), 1, 0.95) == pytest.approx(3.92, abs=0.01)

    def test_ana_h3_strong_smoothing(self):
        assert theoretical_width(ana_params(0.8, 0.4), 3, 0.95) == pytest.approx(5.92, abs=0.01)

    @pytest.mark.parametrize("confidence", ["0.9", None])
    def test_confidence_must_be_a_number(self, confidence):
        with pytest.raises(InvalidParamsError, match="confidence must lie in"):
            theoretical_width(ana_params(0.5, 0.2), 1, confidence)

    def test_zero_confidence_zero_width(self):
        assert theoretical_width(ana_params(0.5, 0.2), 3, 0.0) == 0.0

    def test_wider_at_higher_confidence(self):
        params = aada_params(0.8, 0.2, 0.1, 0.9)
        assert theoretical_width(params, 2, 0.99) > theoretical_width(params, 2, 0.9)


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, cpwnn, cpwnn.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), timeout=120
    )
    assert proc.returncode == 0
