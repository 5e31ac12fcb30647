"""Error taxonomy shared across the package.

DataError covers anything wrong with files, manifests, or configuration
(CLI exit code 2); NumericError covers NaN losses and failed gradient
checks (exit code 3). Shape mismatches inside the autodiff graph raise
autodiff.ShapeError.
"""


class DataError(Exception):
    """Bad input data, file format, or configuration."""


class BadMagicError(DataError):
    """Feature file does not start with the expected magic bytes."""


class VersionError(DataError):
    """Feature file declares an unsupported format version."""


class TruncatedFileError(DataError):
    """Feature file ends before the declared payload."""


class MalformedFileError(DataError):
    """Feature file declares an empty matrix or has bytes past its payload."""


class NumericError(Exception):
    """Numerical failure: NaN loss, diverged training, failed grad check."""
