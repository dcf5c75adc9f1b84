"""Multi-output CNN engine and synthetic base^exponent dataset generator."""

from .datagen import (Dataset, GenConfig, Sample, add_gaussian_noise, gaussian_blur,
                      generate_dataset, render_expression)
from .errors import (ArchitectureMismatchError, BadMagicError, ExpnetError, FileFormatError,
                     LayoutError, ShapeError, StaleTraceError, TrainingDivergedError,
                     TruncatedFileError, VersionMismatchError)
from .losses import softmax
from .model import (DEFAULT_ARCH, TINY_ARCH, Architecture, ForwardTrace, MultiOutputModel,
                    Workspace, model_forward)
from .optim import AdamState, adam_step
from .rng import Rng
from .tensor import conv2d_naive

__all__ = [
    "AdamState", "Architecture", "ArchitectureMismatchError", "BadMagicError",
    "DEFAULT_ARCH", "Dataset", "ExpnetError", "FileFormatError", "ForwardTrace", "GenConfig",
    "LayoutError", "MultiOutputModel", "Rng", "Sample", "ShapeError", "StaleTraceError",
    "TINY_ARCH", "TrainingDivergedError", "TruncatedFileError", "VersionMismatchError",
    "Workspace", "adam_step", "add_gaussian_noise", "conv2d_naive", "gaussian_blur",
    "generate_dataset", "model_forward", "render_expression", "softmax",
]
