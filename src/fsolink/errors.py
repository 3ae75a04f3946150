"""Exception types shared across the simulator, and the one scalar and one array check."""

import math
import sys
from numbers import Integral, Real

import numpy as np

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


def _prefixed(kind):
    """An error hook of the checks: kind, its message prefixed by the argument."""
    return lambda name, message: kind(f"{name}: {message}")


_parameter_error = _prefixed(ParameterError)


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


_PLAIN_NUMBERS = frozenset((float, int, complex))


def _holds_bool(values):
    """Whether values, a number or a list or tuple of them, nested or not,
    is or holds a bool (a Python or numpy bool, or a bool array)."""
    if not isinstance(values, (list, tuple)):
        return isinstance(values, (bool, np.bool_)) or (
            isinstance(values, np.ndarray) and values.dtype.kind == "b")
    # a flat list of plain numbers, the common input, is settled by its types
    return not _PLAIN_NUMBERS.issuperset(map(type, values)) and any(map(_holds_bool, values))


def _array(values, name, shape, lo=None, hi=None, *, gt=None, lt=None, integer=False,
           dtype=np.float64, empty_ok=False, error=_parameter_error, nonfinite=None):
    """The one array check: values as an array of dtype (int64 with
    integer), not copied if it is one already.

    shape gives each axis' length: an int, None for any, or a name shared
    by axes of equal length (("n", "n") is square); shape None allows any.
    Non-numbers (strings, bools, also among the numbers of a list, objects,
    ragged nesting; complex unless dtype is complex128; non-integers with
    integer), a wrong shape, an empty array unless empty_ok and elements
    outside _num's bounds raise
    error(name, message); NaN or infinite elements raise nonfinite(name,
    message): by default an InvalidFieldError for complex values, else error.
    """
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting, or no array at all
        raise error(name, "expected a rectangular array of numbers") from None
    kinds = "iu" if integer else "iufc" if dtype is np.complex128 else "iuf"
    if a.dtype.kind not in kinds:
        raise error(name, f"expected {'integers' if integer else 'numbers'}, got {a.dtype}")
    if isinstance(values, (list, tuple)) and _holds_bool(values):  # numpy reads them as 0 and 1
        raise error(name, f"expected {'integers' if integer else 'numbers'}, got bools among them")
    if shape is not None:
        named = {}  # a named axis takes the length of the first axis of that name
        want = tuple(g if w is None else named.setdefault(w, g) if isinstance(w, str) else w
                     for w, g in zip(shape, a.shape))
        if a.ndim != len(shape) or a.shape != want:
            raise error(name, f"expected shape {shape}, got {a.shape}")
    if a.size == 0 and not empty_ok:
        raise error(name, "must not be empty")
    a = a.astype(np.int64 if integer else dtype, copy=False)
    if not integer and not np.isfinite(a).all():
        if nonfinite is None:
            nonfinite = _prefixed(InvalidFieldError) if dtype is np.complex128 else error
        raise nonfinite(name, "holds non-finite values")
    if a.size and (lo is not None or hi is not None or gt is not None or lt is not None):
        for extreme in (a.min(), a.max()):  # all elements lie within bounds the extremes meet
            _num(extreme, name, lo, hi, gt=gt, lt=lt, error=error)
    return a
