"""Multi-output CNN engine and synthetic base^exponent dataset generator."""

from .datagen import GenConfig, Sample, add_gaussian_noise, gaussian_blur, generate_dataset, render_expression
from .errors import (ArchitectureMismatchError, BadMagicError, ExpnetError, FileFormatError,
                     LayoutError, ShapeError, TruncatedFileError, VersionMismatchError)
from .losses import LossBreakdown, combined_loss, softmax, softmax_ce_grad, sparse_ce
from .model import (DEFAULT_ARCH, TINY_ARCH, Architecture, ForwardTrace, MultiOutputModel,
                    model_backward, model_forward)
from .optim import AdamState, adam_step
from .rng import Rng
from .tensor import conv2d_fast, conv2d_naive

__all__ = [
    "AdamState", "Architecture", "ArchitectureMismatchError", "BadMagicError",
    "DEFAULT_ARCH", "ExpnetError", "FileFormatError", "ForwardTrace", "GenConfig",
    "LayoutError", "LossBreakdown", "MultiOutputModel", "Rng", "Sample", "ShapeError",
    "TINY_ARCH", "TruncatedFileError", "VersionMismatchError", "adam_step",
    "add_gaussian_noise", "combined_loss", "conv2d_fast", "conv2d_naive",
    "gaussian_blur", "generate_dataset", "model_backward", "model_forward",
    "render_expression", "softmax", "softmax_ce_grad", "sparse_ce",
]
