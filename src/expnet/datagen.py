"""Deterministic synthesis of base^exponent expression images.

Each sample is rendered white-on-black (foreground 1.0), blurred, then
noised; blur models optics, noise models the sensor, and doing noise last
keeps its statistics measurable on the output.  Sample i draws everything
from substream (master_seed, i), so a dataset is a pure function of its
config and any sample can be regenerated in isolation.

Per-sample draw order within the substream: base digit, exponent digit,
font scale, noise sigma, blur sigma, then the noise field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError
from .glyphs import GLYPH_H, GLYPH_W, GLYPHS
from .model import BASE_DIGITS, EXP_DIGITS, N_BASE_CLASSES, N_EXP_CLASSES
from .rng import Rng
from .tensor import DTYPE

# Expression layout constants: the exponent is drawn at 0.6x the base scale,
# raised so its bottom sits 20% of the base height above the base's top edge,
# after a horizontal gap of one scaled pixel.
EXP_SCALE_RATIO = 0.6
SUPERSCRIPT_RISE = 0.2
BLUR_IDENTITY_BELOW = 0.05


@dataclass(frozen=True)
class GenConfig:
    count: int = 1
    image_size: tuple[int, int] = (64, 64)
    font_scale_range: tuple[float, float] = (2.0, 3.5)
    noise_sigma_range: tuple[float, float] = (0.0, 0.3)
    blur_sigma_range: tuple[float, float] = (0.0, 2.0)
    master_seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if min(self.image_size) < 1:
            raise ValueError(f"image_size must be >= 1 in each dimension, got {self.image_size}")
        # the comparisons are False for NaN, so a NaN range is rejected too
        for name, rule in (("font_scale_range", "> 0"), ("noise_sigma_range", ">= 0"),
                           ("blur_sigma_range", ">= 0")):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is empty: ({lo}, {hi})")
            if not ((lo > 0.0 if rule == "> 0" else lo >= 0.0) and hi < math.inf):
                raise ValueError(f"{name} must be finite and {rule}, got ({lo}, {hi})")


@dataclass(frozen=True)
class Sample:
    image: np.ndarray                 # [1, H, W] float32 in [0, 1]
    base_label: int                   # the base digit minus BASE_DIGITS[0]
    exp_label: int                    # the exponent digit minus EXP_DIGITS[0]
    meta: tuple[float, float, float]  # (font_scale, noise_sigma, blur_sigma)


@dataclass(frozen=True)
class Dataset:
    """Samples as columns: ds[i] is a Sample viewing them, ds[slice or index array] a Dataset."""
    images: np.ndarray       # [N, 1, H, W] float32 in [0, 1]
    base_labels: np.ndarray  # [N] int64
    exp_labels: np.ndarray   # [N] int64
    meta: np.ndarray         # [N, 3] float32, Sample.meta's order

    def __len__(self) -> int:
        return len(self.base_labels)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Sample(self.images[key], int(self.base_labels[key]),
                          int(self.exp_labels[key]), tuple(self.meta[key].tolist()))
        return Dataset(self.images[key], self.base_labels[key], self.exp_labels[key],
                       self.meta[key])

    def check_labels(self) -> None:
        """Raise ValueError naming the first sample whose labels are outside its heads' classes."""
        bad = ((self.base_labels < 0) | (self.base_labels >= N_BASE_CLASSES)
               | (self.exp_labels < 0) | (self.exp_labels >= N_EXP_CLASSES))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"sample {i} labels ({self.base_labels[i]}, {self.exp_labels[i]}) "
                             f"outside the {N_BASE_CLASSES} base / {N_EXP_CLASSES} exp classes")


def _scale_glyph(digit: int, scale: float) -> np.ndarray:
    """Nearest-neighbor upscale: dst pixel (r, c) reads master (r*H//h, c*W//w)."""
    h = max(1, round(GLYPH_H * scale))
    w = max(1, round(GLYPH_W * scale))
    rows = (np.arange(h) * GLYPH_H) // h
    cols = (np.arange(w) * GLYPH_W) // w
    return GLYPHS[digit][np.ix_(rows, cols)]


def render_expression(base: int, exponent: int, font_scale: float,
                      image_size: tuple[int, int] = (64, 64)) -> np.ndarray:
    """Rasterize "base^exponent" onto a black canvas; returns [1, H, W]."""
    h, w = image_size
    big = _scale_glyph(base, font_scale)
    small = _scale_glyph(exponent, font_scale * EXP_SCALE_RATIO)
    gap = max(1, round(font_scale))

    total_w = big.shape[1] + gap + small.shape[1]
    base_top = (h - big.shape[0]) // 2
    left = (w - total_w) // 2
    exp_top = base_top - round(SUPERSCRIPT_RISE * big.shape[0])
    exp_left = left + big.shape[1] + gap

    if base_top < 0 or base_top + big.shape[0] > h:
        raise LayoutError(f"base glyph (scale {font_scale}) taller than {h}px canvas")
    if left < 0 or exp_left + small.shape[1] > w:
        raise LayoutError(f"expression (scale {font_scale}) wider than {w}px canvas")
    if exp_top < 0 or exp_top + small.shape[0] > h:
        raise LayoutError(f"exponent glyph (scale {font_scale}) leaves the canvas")

    canvas = np.zeros((h, w), dtype=DTYPE)
    canvas[base_top:base_top + big.shape[0], left:left + big.shape[1]][big] = 1.0
    canvas[exp_top:exp_top + small.shape[0], exp_left:exp_left + small.shape[1]][small] = 1.0
    return canvas[None]


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with clamp-to-edge borders.

    Kernel radius is ceil(3*sigma), normalized to sum 1; sigma below 0.05 is
    treated as the identity.
    """
    if sigma < 0:
        raise ValueError(f"blur sigma must be >= 0, got {sigma}")
    if sigma < BLUR_IDENTITY_BELOW:
        return image.copy()
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()

    plane = image[0].astype(np.float64)
    padded = np.pad(plane, ((0, 0), (radius, radius)), mode="edge")
    rows = np.zeros_like(plane)
    for i, k in enumerate(kernel):
        rows += k * padded[:, i:i + plane.shape[1]]
    padded = np.pad(rows, ((radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(plane)
    for i, k in enumerate(kernel):
        out += k * padded[i:i + plane.shape[0], :]
    return out.astype(image.dtype)[None]


def add_gaussian_noise(image: np.ndarray, sigma: float, rng: Rng) -> np.ndarray:
    """Per-pixel N(0, sigma^2) added then clamped to [0, 1]."""
    if sigma < 0:
        raise ValueError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return image.copy()
    noise = rng.normals(image.size).reshape(image.shape)
    noisy = image.astype(np.float64) + sigma * noise
    return np.clip(noisy, 0.0, 1.0).astype(image.dtype)


def generate_sample(config: GenConfig, index: int) -> Sample:
    """Sample i of the dataset, identical whether generated alone or in bulk."""
    stream = Rng(config.master_seed).substream(index)
    base_label = stream.randint(N_BASE_CLASSES)
    exp_label = stream.randint(N_EXP_CLASSES)
    # metadata kept f32-representable so dataset files round-trip it exactly
    font_scale = float(np.float32(stream.uniform(*config.font_scale_range)))
    noise_sigma = float(np.float32(stream.uniform(*config.noise_sigma_range)))
    blur_sigma = float(np.float32(stream.uniform(*config.blur_sigma_range)))

    image = render_expression(BASE_DIGITS[0] + base_label, EXP_DIGITS[0] + exp_label,
                              font_scale, config.image_size)
    image = gaussian_blur(image, blur_sigma)
    image = add_gaussian_noise(image, noise_sigma, stream)
    return Sample(image, base_label, exp_label, (font_scale, noise_sigma, blur_sigma))


def generate_dataset(config: GenConfig) -> Dataset:
    """All samples of the config, in index order."""
    n = config.count
    ds = Dataset(np.empty((n, 1, *config.image_size), DTYPE), np.empty(n, np.int64),
                 np.empty(n, np.int64), np.empty((n, 3), DTYPE))
    for i in range(n):
        try:
            s = generate_sample(config, i)
        except LayoutError as exc:
            raise LayoutError(f"sample {i}: {exc}") from exc
        ds.images[i], ds.base_labels[i], ds.exp_labels[i], ds.meta[i] = (
            s.image, s.base_label, s.exp_label, s.meta)
    return ds
