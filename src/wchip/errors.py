"""Exception taxonomy shared across the package, and the readers of its
kinds of argument.

Everything raised on purpose derives from :class:`WchipError`, so callers
(and the CLI driver) can distinguish simulator errors from genuine bugs.  A
number or count outside its documented domain raises
:class:`ParamOutOfRange`, and any other refused input
:class:`ValidationError`.  Each public constructor and entry point reads
every argument as the config reader does, by the reader of its kind below
(real number, count, channel index, amplitude, enum member; a channel name
is a ``str``), so a value in a second form, such as a numeric string or a
``bool``, is a named error.
"""

import cmath
import math
import numbers
import operator


class WchipError(Exception):
    """Base class for all errors raised by this package."""


class ParamOutOfRange(WchipError):
    """A number or count lies outside its documented domain."""


class ValidationError(WchipError):
    """An input refused for a reason other than a number out of its domain."""


class DiagonalsNotUniform(WchipError):
    """Counting statistics deviate from the uniform 1/3 diagonals beyond the
    configured threshold, so the three-dimensional reconstruction is invalid."""


class GridTooLarge(WchipError):
    """A sweep grid exceeds the configured cell cap."""


class ConfigError(WchipError):
    """A run configuration failed validation; message names the field."""


def parse_number(value, field: str, *, finite: bool = True) -> float:
    """A real number as a float, an integer past the floats as an infinity;
    another value, and with `finite` an infinity or NaN, is refused."""
    number = value if type(value) is float else None  # the common case first
    if number is None and isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the floats
            number = math.inf if value > 0 else -math.inf
    if number is None or finite and not math.isfinite(number):
        raise ValidationError(f"field {field!r}: expected {'a finite' if finite else 'a'} number, got {value!r}")
    return number


def parse_numbers(values, field: str, *, finite: bool = True) -> tuple[float, ...]:
    """The real numbers (:func:`parse_number`) of any iterable but a string."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ValidationError(f"field {field!r}: expected a sequence of numbers, got {values!r}")
    return tuple(parse_number(value, field, finite=finite) for value in values)


def parse_integer(value, field: str) -> int:
    """A count: an integer, or a real number with an integral value, as an
    int; a ``bool`` is neither."""
    count = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            count = int(value)
        except (OverflowError, ValueError):  # an infinity or a NaN
            pass
    if count is None or count != value:
        raise ValidationError(f"field {field!r}: expected an integer, got {value!r}")
    return count


def parse_channel(value) -> int:
    """A channel index: an int or a numpy integer, never negative."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ParamOutOfRange(f"channel index must be an integer, got {value!r}")
    if value < 0:
        raise ParamOutOfRange(f"channel index must be non-negative, got {value}")
    return operator.index(value)


def parse_amplitude(value, name) -> complex:
    """A number as a finite complex; `name` names it (or the basis it weighs)."""
    if type(value) is not complex and (isinstance(value, bool) or not isinstance(value, numbers.Number)):
        raise ValidationError(f"amplitude {name}: expected a number, got {value!r}")
    try:
        amplitude = complex(value)
    except OverflowError:  # an int or a Fraction past the float range
        raise ParamOutOfRange(f"amplitude {name} overflows a float") from None
    if not cmath.isfinite(amplitude):
        raise ParamOutOfRange(f"amplitude {name} must be finite, got {amplitude}")
    return amplitude


def parse_member(value, kind, field: str):
    """`value` if it is a member of the enum `kind`."""
    if not isinstance(value, kind):
        raise ValidationError(f"field {field!r}: expected a {kind.__name__}, got {value!r}")
    return value
