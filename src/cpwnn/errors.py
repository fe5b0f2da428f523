"""Exception hierarchy.

Two branches matter to callers. DataError is about the series' values: they
are unreadable, non-finite or too large to forecast (CLI exit code 3).
ConfigError is about the arguments: one is malformed, or the configuration
cannot be satisfied by the data at hand (CLI exit code 4). Every other class
subclasses exactly one of the two.
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
    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"non-finite value {value!r} at position {index}")


class ZeroActualError(DataError):
    """MAPE is undefined wherever the actual value is exactly zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"actual value at position {index} is zero; MAPE is undefined there"
        )


class ColumnNotFoundError(DataError):
    def __init__(self, column, available):
        self.column = column
        self.available = list(available)
        super().__init__(
            f"column {column!r} not found; available columns: {', '.join(self.available)}"
        )


class CsvParseError(DataError):
    def __init__(self, row: int, column, text: str):
        self.row = row
        self.column = column
        self.text = text
        super().__init__(
            f"row {row}, column {column!r}: cannot parse {text!r} as a number"
        )


class SeriesTooShortError(ConfigError):
    pass


class GridInfeasibleError(ConfigError):
    def __init__(self, cells):
        self.cells = list(cells)
        lines = "; ".join(f"(p={p}, k={k}): {why}" for p, k, why in self.cells[:5])
        more = "" if len(self.cells) <= 5 else f" (+{len(self.cells) - 5} more)"
        super().__init__(f"no grid cell is feasible: {lines}{more}")


class InsufficientCalibrationError(ConfigError):
    """The rank floor(delta*(h+1)) of h calibration examples is below 1."""

    def __init__(self, h: int, min_h: int):
        self.h = h
        self.min_h = min_h
        super().__init__(
            f"h={h} calibration examples are too few for this significance level; "
            f"need at least {min_h}"
        )


class InvalidParamsError(ConfigError):
    pass
