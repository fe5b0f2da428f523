"""Additive exponential-smoothing simulators and their exact interval widths.

One state-space form with additive errors, a damped additive trend and
additive seasonality (AAdA). With beta = phi = 0 the trend drops out and it
is the model without trend (ANA). Simulation follows the recursion

    a_t = l_{t-1} + phi*b_{t-1} + s_{t-m} + e_t
    l_t = l_{t-1} + phi*b_{t-1} + alpha*e_t
    b_t = phi*b_{t-1} + beta*e_t
    s_t = s_{t-m} + gamma*e_t

with e_t iid Normal(0, sigma2). Initial states are treated as exact (no
burn-in); the seasonal one is the zero-sum sinusoid 10*sin(2*pi*t/m) minus
its mean (`EtsParams.init_seasonal`). The h-step forecast variance is its
defining sum (Hyndman, Koehler, Ord & Snyder 2008, ch. 6)

    v_h = sigma2 * (1 + c_1^2 + ... + c_{h-1}^2),
    c_j = alpha + beta*(phi + ... + phi^j) + gamma*[j mod m = 0],

and interval widths are 2*c*sqrt(v_h) with c the two-sided standard-normal
quantile of the confidence level.

Randomness comes from numpy's default_rng(seed) (PCG64), so a seed pins the
whole path for this implementation. Bit-reproducibility across libraries is
not a goal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import InvalidParamsError, NonFiniteValueError
from .series import TimeSeries, _freeze, _is_number, _open_unit, _positive_int


@dataclass(frozen=True, eq=False)
class EtsParams:
    """Parameters and initial states of an additive-seasonal smoothing model.

    The defaults beta = phi = 0 give the model without trend (ANA); any other
    pair must lie in (0, 1) each and gives the damped trend (AAdA). Every
    field but period and init_seasonal is stored as a finite float. The
    presets ana_params and aada_params take only their model's rates (and
    AAdA its init_level); every other field is set here.
    """

    alpha: float
    gamma: float
    sigma2: float = 1.0
    period: int = 12
    beta: float = 0.0
    phi: float = 0.0
    init_level: float = 100.0
    init_trend: float = 1.0
    init_seasonal: np.ndarray = field(init=False)

    def __post_init__(self):
        _open_unit("alpha", self.alpha)
        _open_unit("gamma", self.gamma)
        object.__setattr__(self, "period", _positive_int("period", self.period))
        if not all(_is_number(v) and v == 0.0 for v in (self.beta, self.phi)):
            _open_unit("beta", self.beta)
            _open_unit("phi", self.phi)
        for name in ("alpha", "gamma", "beta", "phi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("sigma2", "init_level", "init_trend"):
            value = getattr(self, name)
            low = 0.0 if name == "sigma2" else -sys.float_info.max
            # exact for ints (10**400 fails here); float32 cannot hold the bound: compare as float
            number = float(value) if isinstance(value, np.floating) else value
            if not _is_number(value) or not low <= number <= sys.float_info.max:
                rule = "a finite number >= 0" if low == 0.0 else "a finite number"
                raise InvalidParamsError(f"{name} must be {rule}, got {value!r}")
            object.__setattr__(self, name, float(value))
        raw = 10.0 * np.sin(2.0 * np.pi * np.arange(self.period) / self.period)
        object.__setattr__(self, "init_seasonal", _freeze(raw - raw.mean()))


def ana_params(alpha: float, gamma: float) -> EtsParams:
    return EtsParams(alpha, gamma)


def aada_params(
    alpha: float, beta: float, gamma: float, phi: float, init_level: float = 100.0
) -> EtsParams:
    return EtsParams(alpha, gamma, beta=beta, phi=phi, init_level=init_level)


def simulate_ets(params: EtsParams, T: int, seed: int) -> TimeSeries:
    """Simulate T observations; fully determined by (params, T, seed)."""
    T = _positive_int("T", T)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParamsError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal(T) * math.sqrt(params.sigma2)
    m = params.period
    alpha, beta, gamma, phi = params.alpha, params.beta, params.gamma, params.phi
    # Python floats round as numpy's float64 scalars do, faster, and overflow to
    # inf or nan without a warning; an overflowing path raises below instead.
    seasonal = params.init_seasonal.tolist()
    level, trend = params.init_level, params.init_trend
    values = []
    for t, e in enumerate(shocks.tolist()):
        slot = t % m
        values.append(level + phi * trend + seasonal[slot] + e)
        level = level + phi * trend + alpha * e
        trend = phi * trend + beta * e
        seasonal[slot] = seasonal[slot] + gamma * e
    try:
        return TimeSeries(values, period=m)
    except NonFiniteValueError as exc:
        raise InvalidParamsError(f"the parameters make the path overflow: {exc}") from None


def _ets_forecast_variance(params: EtsParams, h: int) -> float:
    """Variance sigma2*(1 + c_1^2 + ... + c_{h-1}^2) of the h-step-ahead forecast error."""
    h = _positive_int("h", h)
    alpha, beta, gamma, phi = params.alpha, params.beta, params.gamma, params.phi
    squares = [1.0]
    damping = 0.0  # phi + ... + phi^j
    for j in range(1, h):
        damping = phi * (1.0 + damping)
        c = alpha + beta * damping + (gamma if j % params.period == 0 else 0.0)
        squares.append(c * c)
    variance = params.sigma2 * math.fsum(squares)
    if not math.isfinite(variance):
        raise InvalidParamsError(f"the parameters make the {h}-step forecast variance overflow")
    return variance


def theoretical_width(params: EtsParams, h: int, confidence: float) -> float:
    """Width 2*c*sigma_h of the symmetric interval at the given confidence."""
    if not _is_number(confidence) or not 0.0 <= confidence < 1.0:
        raise InvalidParamsError(f"confidence must lie in [0, 1), got {confidence!r}")
    c = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    return 2.0 * c * math.sqrt(_ets_forecast_variance(params, h))
