"""Exception types shared across the package."""


class ExpnetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ExpnetError):
    """Tensor shapes are inconsistent or a dimension is invalid."""


class LayoutError(ExpnetError):
    """Rendered glyphs do not fit inside the requested canvas."""


class FileFormatError(ExpnetError):
    """Base class for binary file format problems."""


class BadMagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(FileFormatError):
    """File declares an unsupported format version."""


class TruncatedFileError(FileFormatError):
    """File ended before the declared content was read."""


class ArchitectureMismatchError(FileFormatError):
    """Checkpoint architecture does not match the target model."""


class StaleTraceError(ExpnetError):
    """A forward trace was used after its workspace served a later forward."""


class TrainingDivergedError(ExpnetError):
    """Training produced non-finite logits: the run diverged."""
