"""Exception types shared across the package.

All of them derive from ``AvfusionError``.  A stage's backward takes its
forward's cache as an argument, so no error type covers a backward run
without one.
"""


class AvfusionError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatch(AvfusionError):
    """Operand shapes are inconsistent with each other or with parameters."""


class NonFiniteValue(AvfusionError, ValueError):
    """An input holds NaN or Inf; rejected once, where it enters the package."""


class NonDeterministicLoss(AvfusionError):
    """Two evaluations of a loss at identical parameters disagreed."""


class UnsupportedFormat(AvfusionError):
    """WAV file is valid but not PCM 16-bit mono at a supported rate."""


class CorruptHeader(AvfusionError):
    """WAV file header is malformed or truncated."""


class ClipTooShort(AvfusionError):
    """Audio clip is shorter than one analysis window."""


class GridTooFineForInput(AvfusionError):
    """Patch grid requests more patches than the input can supply."""


class InvalidConfig(AvfusionError):
    """Experiment config failed validation."""


class EmptyDataset(AvfusionError):
    """A training routine received no samples."""


class NumericalDivergence(AvfusionError):
    """Training loss became non-finite."""


class CorruptMagic(AvfusionError):
    """A binary file does not start with the expected magic bytes."""


class TruncatedFile(AvfusionError):
    """A binary file's payload does not match its declared size."""


class DimOverflow(AvfusionError):
    """Declared dimensions are zero, absurdly large, or unencodable."""


class BadTensorName(AvfusionError):
    """A checkpoint tensor name is not valid UTF-8 or repeats an earlier one."""
