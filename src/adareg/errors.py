"""Exception types shared across the package."""


class AdaRegError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(AdaRegError):
    """Operand shapes are incompatible."""


class ConvergenceFailure(AdaRegError):
    """An iterative solver exceeded its iteration cap."""


class NotPSD(AdaRegError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class NotPD(AdaRegError):
    """A matrix required to be positive definite has a non-positive
    eigenvalue."""


class SpectrumOutOfBounds(AdaRegError, ValueError):
    """A precision matrix has an eigenvalue outside its [u, v] bounds."""


class ZeroMatrix(AdaRegError):
    """An all-zero matrix was passed where a nonzero one is required."""


class DegenerateRow(AdaRegError):
    """A matrix row has zero variance, so its correlations are undefined."""


class ZeroVariance(AdaRegError):
    """A target column is constant, so explained variance is undefined."""


class Diverged(AdaRegError):
    """Training produced a non-finite loss or parameter.

    ``cell`` is the index of the failing cell when cells train as a group,
    else None; the message then starts with it.  ``reason`` is the message
    without that prefix."""

    def __init__(self, reason: str, cell: int | None = None):
        super().__init__(reason if cell is None else f"cell {cell}: {reason}")
        self.reason = reason
        self.cell = cell


class DataError(AdaRegError):
    """Base class for dataset ingestion errors."""


class BadMagic(DataError):
    """An IDX file starts with an unexpected magic number."""


class TruncatedFile(DataError):
    """An IDX file ends before its header-declared payload."""


class CountMismatch(DataError):
    """Image and label files declare different item counts."""


class ParseError(DataError):
    """A CSV cell failed to parse; the message carries row/column location."""


class RaggedRows(DataError):
    """CSV rows have inconsistent lengths."""


class SizeTooLarge(DataError):
    """A requested subsample exceeds the dataset size."""


class ConfigError(AdaRegError):
    """An experiment configuration failed validation."""


class EmptyDirectory(AdaRegError):
    """A run directory contains no metric logs to summarize."""


class SchemaMismatch(AdaRegError):
    """Metric logs in one directory disagree on their schema."""


class MissingWeights(AdaRegError):
    """A run directory has no saved weights to export from."""
