"""Error taxonomy shared across the package.

DataError covers anything wrong with files, manifests, or configuration
(CLI exit code 2); NumericError covers NaN losses and failed gradient
checks (exit code 3). Shape mismatches inside the autodiff graph raise
autodiff.ShapeError.
"""


class DataError(Exception):
    """Bad input data, file format, or configuration."""


class BadMagicError(DataError):
    """A feature file or checkpoint does not start with the expected magic bytes."""


class VersionError(DataError):
    """A feature file or checkpoint declares an unsupported format version."""


class TruncatedFileError(DataError):
    """A feature file or checkpoint ends before the declared payload."""


class MalformedFileError(DataError):
    """A feature file declares an empty matrix, or a feature file or checkpoint
    has bytes past its payload."""


class NumericError(Exception):
    """Numerical failure: NaN loss, diverged training, failed grad check."""
