"""Exception types shared across the package."""


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient becomes non-finite during training."""


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files; message carries the line number."""


class ConfigError(ValueError):
    """Raised for invalid run/sweep configurations."""
