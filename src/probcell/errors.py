"""Exception hierarchy shared across the toolkit.

Every domain error derives from ProbcellError so the CLI can map them to
exit code 1 with a machine-readable payload.
"""


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
