"""Exception hierarchy shared across the package, and the integer,
positive-float, probability and flag checks of config fields."""

import math
import numbers


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


def check_integer(name, value, minimum, maximum=None):
    """Raise ConfigError unless ``value`` is an integer, not a bool, of at
    least ``minimum`` and, if ``maximum`` is given, at most ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
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
        raise ConfigError(f"{name} must be in (0, 1], not {value!r}")


def check_flag(name, value):
    """Raise ConfigError unless ``value`` is a bool."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be True or False, not {value!r}")


class TooManyQubitsError(ConfigError):
    """A circuit is wider than the device or the policy's feature width."""


class CheckpointError(QLayoutError):
    """A checkpoint file does not describe the network its header builds."""
