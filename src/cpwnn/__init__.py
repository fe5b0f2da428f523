"""Nearest-neighbor point forecasts wrapped in conformal prediction regions.

The pipeline: a weighted-nearest-neighbor forecaster over lagged windows with
automatic (p, k) tuning, per-horizon-step symmetric prediction intervals
calibrated from nonconformity scores, an online backtest of region coverage
and width, and additive-seasonal smoothing simulators whose exact
interval widths serve as a verification oracle.
"""

__version__ = "0.1.0"

from .backtest import (
    CheckReport,
    CompareResult,
    backtest_matrices,
    check_cp,
    compare_forecasters,
    run_backtest,
)
from .conformal import PredictionRegion, conformal_region
from .etssim import (
    EtsParams,
    aada_params,
    ana_params,
    simulate_ets,
    theoretical_width,
)
from .series import (
    HorizonConfig,
    SplitSpec,
    TimeSeries,
    mape,
    min_calibration_count,
    rank_for,
    split_sizes,
)
from .wnn import (
    ForecasterSpec,
    TuneResult,
    Weighting,
    fpto_tune,
    wnn_forecast,
)

__all__ = [
    "__version__",
    "CheckReport",
    "CompareResult",
    "EtsParams",
    "ForecasterSpec",
    "HorizonConfig",
    "PredictionRegion",
    "SplitSpec",
    "TimeSeries",
    "TuneResult",
    "Weighting",
    "aada_params",
    "ana_params",
    "backtest_matrices",
    "check_cp",
    "compare_forecasters",
    "conformal_region",
    "fpto_tune",
    "mape",
    "min_calibration_count",
    "rank_for",
    "run_backtest",
    "simulate_ets",
    "split_sizes",
    "theoretical_width",
    "wnn_forecast",
]
