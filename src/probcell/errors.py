"""Exception hierarchy shared across the toolkit.

Every domain error derives from ProbcellError so the CLI can map them to
exit code 1 with a machine-readable payload. ``check_int`` and
``check_real`` check every numeric setting, raising a ValueError that names it.
"""
import math
import operator


class ProbcellError(Exception):
    """Base class for all domain errors raised by this package."""


class VolumeTooSmall(ProbcellError):
    """The volume is smaller than one output tile along some axis."""


class ShapeMismatch(ProbcellError):
    """Operands do not share the same grid shape."""


class NonPositiveAleatoric(ProbcellError):
    """Aleatoric variance map contains values <= 0."""


class NonFiniteInput(ProbcellError, ValueError):
    """A map, feature row or coordinate holds NaN or infinite values."""


class ProbabilityOutOfRange(ProbcellError, ValueError):
    """A probability is NaN or lies outside [0, 1]."""


class InvalidModel(ProbcellError, ValueError):
    """A model file is malformed or its trees or layers are inconsistent."""


class VolumeSizeMismatch(ProbcellError):
    """A raw volume file's byte size disagrees with its sidecar shape."""


class SingleClass(ProbcellError):
    """Classifier training needs at least one example of each class."""


class DimensionMismatch(ProbcellError):
    """Feature matrix width differs from the model's training width."""


class NonFiniteLoss(ProbcellError):
    """Training loss diverged to a non-finite value."""


class EmptyStructure(ProbcellError):
    """A structure mask has no foreground voxels."""


class DegenerateESD(ProbcellError):
    """No background voxels remain inside the tissue mask."""


class EmptyCells(ProbcellError):
    """An operation requires at least one cell coordinate."""


class AllZeroDifferences(ProbcellError):
    """Signed-rank test is undefined when every difference is zero."""


class PackingInfeasible(ProbcellError):
    """Rejection sampling could not place the requested points."""


class InvalidConfig(ProbcellError, ValueError):
    """A config file is not a JSON object or names a setting that does not exist."""


def _items(value, name: str, length: int | None) -> tuple:
    """(value,) for a scalar setting, else the length items of a sequence."""
    if length is None:
        return (value,)
    if not hasattr(value, "__len__") or len(value) != length:
        raise ValueError(f"{name} must be {length} values, got {value!r}")
    return tuple(value)


def check_int(value, name: str, least: int = 0, length: int | None = None):
    """operator.index(value), an integer and no bool, at least least; given a
    length, the tuple of value's length items, each checked so."""
    items = _items(value, name, length)
    if any(isinstance(x, bool) or not hasattr(x, "__index__") for x in items):
        kind = "an integer" if length is None else "integers"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    ints = tuple(operator.index(x) for x in items)
    if min(ints) < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return ints[0] if length is None else ints


def check_real(value, name: str, lo=0, hi=math.inf, ends: str = "()", length: int | None = None):
    """value, unchanged, if it is a number (no bool) between lo and hi, each
    end closed ("[", "]") or open ("(", ")") as ends says; given a length, if
    each of its length items is. NaN is in no interval. By default: finite, > 0."""
    for x in _items(value, name, length):
        try:
            inside = (lo <= x if ends[0] == "[" else lo < x) and (x <= hi if ends[1] == "]" else x < hi)
        except TypeError:  # not a number
            inside = False
        if isinstance(x, bool) or not inside:
            raise ValueError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")
    return value
