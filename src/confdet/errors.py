"""Exception types shared across the toolkit.

Two broad families matter for callers (and for CLI exit codes):
``ConfigError`` marks a bad argument or option value, ``DataError`` marks
invalid, inconsistent, or insufficient input data.
"""


class ConfdetError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ConfdetError):
    """An argument, option, or configuration value is unusable."""


class DataError(ConfdetError):
    """Input data is invalid, inconsistent, or insufficient."""


class OutOfRange(ConfigError):
    """A numeric parameter lies outside its documented range."""


class InvalidSpec(ConfigError):
    """A synthetic-data specification is internally inconsistent."""


class EmptySetConfig(ConfigError):
    """A configuration would permit empty prediction sets where forbidden."""


class NonPositiveSigma(DataError):
    """A sigma entry used for scaling is zero or negative."""


class EmptyCalibration(DataError):
    """No calibration scores were supplied."""


class MissingClass(DataError):
    """A class id has zero calibration records in a class-wise fit."""


class InvalidClass(DataError):
    """A class label is not an integer in ``[0, n_classes)``."""


class EmptyFit(DataError):
    """No usable pairs remained for fitting a calibration map."""


class StratificationImpossible(DataError):
    """A stratified split cannot represent every class."""


class LengthMismatch(DataError):
    """Two paired sequences differ in length."""


class TooFewPairs(DataError):
    """Fewer than two pairs were supplied to a paired test."""


class SeedMismatch(DataError):
    """Two reports were produced from different split sequences."""


class EmptyFile(DataError):
    """A dataset file contained no usable records."""


class MalformedFile(DataError):
    """A report or calibrator file does not hold what its loader expects."""


class ParseError(DataError):
    """A line in a dataset file is not valid JSON.

    Attributes
    ----------
    line : int
        One-based line number of the offending line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(DataError):
    """A parsed record violates a validation rule.

    Attributes
    ----------
    line : int or None
        One-based line number when the record came from a file.
    rule : str
        Human-readable description of the violated rule.
    """

    def __init__(self, rule: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + rule)
        self.line = line
        self.rule = rule
