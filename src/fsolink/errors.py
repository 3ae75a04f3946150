"""Exception types shared across the simulator, and the one scalar check."""

import math
import sys
from numbers import Integral, Real

_FLOAT_MAX = sys.float_info.max


class FsolinkError(Exception):
    """Base class for all simulator errors."""


class ParameterError(FsolinkError, ValueError):
    """A scalar parameter is out of its documented range."""


class DimensionError(FsolinkError, ValueError):
    """Grid shapes or spacings of two operands do not match."""


class InvalidFieldError(FsolinkError, ValueError):
    """A field contains non-finite samples or is otherwise unusable."""


class ZeroPowerError(FsolinkError, ValueError):
    """An efficiency is undefined because the field carries no power."""


class CurveCrossingError(FsolinkError, ValueError):
    """A BER curve does not cross the requested target level.

    ``side`` names the offending curve ("curve" or "reference").
    """

    def __init__(self, message, side):
        super().__init__(message)
        self.side = side


class ScanRangeError(FsolinkError, ValueError):
    """A delay scan range does not bracket the efficiency peak."""


class ControllerFault(FsolinkError, RuntimeError):
    """The control loop observed a non-finite objective value."""


class ConfigError(FsolinkError, ValueError):
    """Scenario configuration failed validation.

    ``path`` is the dotted path of the offending field, e.g.
    ``atmosphere.outer_scale_m``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class MissingArtifactError(FsolinkError, FileNotFoundError):
    """A CLI command needs an artifact a previous step has not produced."""


class NumericalContractError(FsolinkError, ArithmeticError):
    """A numerical invariant (power conservation, determinism) was violated."""


def _parameter_error(name, message):
    return ParameterError(f"{name}: {message}")


def _num(value, name, lo=None, hi=None, *, gt=None, lt=None, integer=False,
         inf_ok=False, error=_parameter_error):
    """The one scalar check: value as an int (integer) or a float.

    Rejects bools, non-numbers.Real values, values beyond the float range
    (except +inf with inf_ok) or NaN, non-Integral values with integer, and
    values outside the inclusive lo/hi or exclusive gt/lt bounds, by raising
    error(name, message): a ParameterError naming the argument, or for the
    scenario a ConfigError with the field's dotted path.
    """
    kind = type(value)  # plain ints and floats skip the slow numbers-ABC checks
    if kind not in (float, int) and (isinstance(value, bool) or not isinstance(value, Real)):
        raise error(name, f"expected a number, got {kind.__name__}")
    if not (abs(value) <= _FLOAT_MAX or (inf_ok and value == math.inf)):  # NaN fails too
        raise error(name, "must be finite")
    if integer and kind is not int and not isinstance(value, Integral):
        raise error(name, "expected an integer")
    if lo is not None and value < lo:
        raise error(name, f"must be >= {lo}")
    if hi is not None and value > hi:
        raise error(name, f"must be <= {hi}")
    if gt is not None and value <= gt:
        raise error(name, f"must be > {gt}")
    if lt is not None and value >= lt:
        raise error(name, f"must be < {lt}")
    return int(value) if integer else float(value)
