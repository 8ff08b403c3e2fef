"""Exception hierarchy shared across the package, the checks of config
fields, and ``read_input``, the one reader of every input file."""

import csv
import math
import numbers
import reprlib


class QLayoutError(Exception):
    """Base class for all package errors."""


class ParseError(QLayoutError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedGateError(ParseError):
    def __init__(self, gate, line=None):
        super().__init__(f"unsupported gate '{gate}'", line=line)
        self.gate = gate


class EmptyCircuitError(QLayoutError):
    pass


class TopologyError(QLayoutError):
    pass


class ShapeError(QLayoutError):
    def __init__(self, message, *shapes):
        if shapes:
            message = f"{message}: {' vs '.join(str(s) for s in shapes)}"
        super().__init__(message)


class IncompleteLayoutError(QLayoutError):
    pass


class ConstraintViolationError(QLayoutError):
    pass


class SearchSpaceTooLargeError(QLayoutError):
    pass


class NumericError(QLayoutError):
    pass


class InfeasibleStateError(QLayoutError):
    pass


class ConfigError(QLayoutError):
    pass


# repr of a value an error line echoes: 3 levels of nesting, 6 items of a
# list, 40 characters of a string or a number
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 3
_SHORT.maxstring = _SHORT.maxother = _SHORT.maxlong = 40


def shown(value):
    """``repr(value)``, shortened so that an error line that echoes an
    input value stays short however deep or long the value is."""
    return _SHORT.repr(value)


def read_input(path, error, message, decode=None):
    """``decode(fh)``, or the text if ``decode`` is None, of the file at
    ``path`` opened as UTF-8 with ``newline=""`` (as csv needs). A file
    that cannot be opened or decoded (missing, a directory, not UTF-8,
    malformed or too deeply nested) raises ``error(f"{message}: {why}")``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read() if decode is None else decode(fh)
    except (OSError, ValueError, RecursionError, csv.Error) as exc:
        raise error(f"{message}: {exc}") from None


def check_integer(name, value, minimum, maximum=None):
    """Raise ConfigError unless ``value`` is an integer, not a bool, of at
    least ``minimum`` and, if ``maximum`` is given, at most ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, not {shown(value)}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, not {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be at most {maximum}, not {value}")


def check_positive_float(name, value):
    """Raise ConfigError unless ``value`` is a real number, not a bool,
    that is finite and greater than 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0)):
        raise ConfigError(f"{name} must be positive and finite, not {value}")


def check_probability(name, value):
    """Raise ConfigError unless ``value`` is a real number, not a bool, in
    (0, 1]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value <= 1):
        raise ConfigError(f"{name} must be in (0, 1], not {shown(value)}")


def check_flag(name, value):
    """Raise ConfigError unless ``value`` is a bool."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be True or False, not {shown(value)}")


class TooManyQubitsError(ConfigError):
    """A circuit is wider than the device or the policy's feature width."""


class CheckpointError(QLayoutError):
    """A checkpoint file does not describe the network its header builds."""
