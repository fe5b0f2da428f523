"""Exception hierarchy.

Two branches matter to callers. DataError is about the series' values: they
are unreadable, non-finite or too large to forecast (CLI exit code 3).
ConfigError is about the arguments: one is malformed, or the configuration
cannot be satisfied by the data at hand (CLI exit code 4). Every other class
subclasses exactly one of the two. Each class carries only its message,
written where it is raised.
"""


class ForecastError(Exception):
    """Base class for every error raised by this package."""


class DataError(ForecastError):
    """Input data is malformed or unusable."""


class ConfigError(ForecastError):
    """An argument is malformed, or the configuration is infeasible for the data."""


class EmptySeriesError(DataError):
    pass


class NonFiniteValueError(DataError):
    pass


class ZeroActualError(DataError):
    """MAPE is undefined wherever the actual value is exactly zero."""


class ColumnNotFoundError(DataError):
    pass


class CsvParseError(DataError):
    pass


class SeriesTooShortError(ConfigError):
    pass


class GridInfeasibleError(ConfigError):
    pass


class InsufficientCalibrationError(ConfigError):
    """The rank floor(delta*(h+1)) of h calibration examples is below 1."""


class InvalidParamsError(ConfigError):
    pass
