"""Deterministic synthesis of base^exponent expression images.

Each sample is rendered white-on-black (foreground 1.0), blurred, then
noised; blur models optics, noise models the sensor, and doing noise last
keeps its statistics measurable on the output; the pixels are kept as the
uint8 bytes an EXPD file stores, and ``to_float`` is their one conversion back
to float32.  Sample i draws everything from substream (master_seed, i), so a
dataset is a pure function of its config and any sample can be regenerated in
isolation.

Per-sample draw order within the substream: base digit, exponent digit,
font scale, noise sigma, blur sigma, then the noise field.

Samples are synthesized CHUNK at a time: the chunk's scalar draws are one
array, and its blur and its noise one batched call each. Every value comes
from its sample's own substream and every sum keeps its per-sample order, so
the bytes do not depend on the chunking.

The noise field depends only on each sample's stream and its scalar draws,
not on the image, so a worker thread draws it while the calling thread
renders and blurs the chunk; the draw is numpy's sin, cos and log, which
release the interpreter lock. Render, blur and the noise arithmetic stay on
the calling thread. On 2 cores, in-process 128-sample sets at CHUNK 64 were
1.2-1.6x as fast as drawing in line, CHUNK 128 was not clearly faster, and
``bench/run.py --workload data`` read 1.22x the samples/s (10 pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import LayoutError, ShapeError
from .glyphs import GLYPH_H, GLYPH_W, GLYPHS
from .model import BASE_DIGITS, EXP_DIGITS, N_BASE_CLASSES, N_EXP_CLASSES
from .rng import Rng, draw, normals, to_uniform
from .tensor import DTYPE

if TYPE_CHECKING:
    from concurrent.futures import Executor

# Expression layout constants: the exponent is drawn at 0.6x the base scale,
# raised so its bottom sits 20% of the base height above the base's top edge,
# after a horizontal gap of one scaled pixel.
EXP_SCALE_RATIO = 0.6
SUPERSCRIPT_RISE = 0.2
BLUR_IDENTITY_BELOW = 0.05

# Samples synthesized together: their draws, blur and noise are each one batched
# call, and the chunk's float64 scratch with the worker's draw blocks (a 9 MB
# tracemalloc peak at 64x64) bounds the memory a dataset of any size needs
# beyond its own columns. glibc keeps the worker's malloc arena resident after
# the call: with fields drawn into that arena, a later evaluation peaked 7%
# higher in RSS than drawing in line at 128 and 4.6% at 64. With the field
# allocated by the calling thread, it peaked 2.4% higher at 64.
CHUNK = 64


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
        # gaussian_blur's kernel radius is ceil(3 * sigma); for an integer side,
        # ceil(3 * hi) > side iff 3 * hi > side, which cannot overflow as ceil can
        lo, hi = self.blur_sigma_range
        if 3.0 * hi > max(self.image_size):
            raise ValueError(f"blur_sigma_range must be finite and give a kernel radius "
                             f"ceil(3 * sigma) of at most {max(self.image_size)}, the image's "
                             f"larger side, got ({lo}, {hi})")


def to_float(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels, round(p * 255), as the float32 images p in [0, 1] the model reads."""
    return pixels.astype(DTYPE) / 255.0


@dataclass(frozen=True)
class Sample:
    pixels: np.ndarray                # [1, H, W] uint8, as EXPD stores them
    base_label: int                   # the base digit minus BASE_DIGITS[0]
    exp_label: int                    # the exponent digit minus EXP_DIGITS[0]
    meta: tuple[float, float, float]  # (font_scale, noise_sigma, blur_sigma)

    @property
    def image(self) -> np.ndarray:    # [1, H, W] float32 in [0, 1]
        return to_float(self.pixels)


@dataclass(frozen=True)
class Dataset:
    """Samples as columns: ds[i] is a Sample viewing them, ds[slice or index array] a Dataset."""
    pixels: np.ndarray       # [N, 1, H, W] uint8, as EXPD stores them
    base_labels: np.ndarray  # [N] int64
    exp_labels: np.ndarray   # [N] int64
    meta: np.ndarray         # [N, 3] float32, Sample.meta's order

    def __post_init__(self):
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 4 or self.pixels.shape[1] != 1:
            raise ShapeError(f"pixels must be uint8 [N, 1, H, W], "
                             f"got {self.pixels.dtype} {self.pixels.shape}")

    @classmethod
    def empty(cls, n: int, image_size: tuple[int, int]) -> Dataset:
        return cls(np.empty((n, 1, *image_size), np.uint8), np.empty(n, np.int64),
                   np.empty(n, np.int64), np.empty((n, 3), DTYPE))

    @property
    def images(self) -> np.ndarray:   # [N, 1, H, W] float32 in [0, 1]
        return to_float(self.pixels)

    def __len__(self) -> int:
        return len(self.base_labels)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Sample(self.pixels[key], int(self.base_labels[key]),
                          int(self.exp_labels[key]), tuple(self.meta[key].tolist()))
        return Dataset(self.pixels[key], self.base_labels[key], self.exp_labels[key],
                       self.meta[key])

    def check_labels(self) -> None:
        """Raise ValueError naming the first sample whose labels are outside its heads' classes."""
        bad = ((self.base_labels < 0) | (self.base_labels >= N_BASE_CLASSES)
               | (self.exp_labels < 0) | (self.exp_labels >= N_EXP_CLASSES))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"sample {i} labels ({self.base_labels[i]}, {self.exp_labels[i]}) "
                             f"outside the {N_BASE_CLASSES} base / {N_EXP_CLASSES} exp classes")


@lru_cache(maxsize=1024)
def _glyph(digit: int, h: int, w: int) -> np.ndarray:
    """Glyph scaled to h x w by nearest neighbor; read-only, since it is shared."""
    rows = (np.arange(h) * GLYPH_H) // h
    cols = (np.arange(w) * GLYPH_W) // w
    glyph = GLYPHS[digit][np.ix_(rows, cols)]
    glyph.flags.writeable = False
    return glyph


def _scale_glyph(digit: int, scale: float) -> np.ndarray:
    """Nearest-neighbor upscale: dst pixel (r, c) reads master (r*H//h, c*W//w)."""
    return _glyph(digit, max(1, round(GLYPH_H * scale)), max(1, round(GLYPH_W * scale)))


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


def _check_sigmas(kind: str, images: np.ndarray, sigmas) -> np.ndarray:
    """Per-sample sigmas of an [N, C, H, W] batch as float64 [N], each finite and >= 0."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if images.ndim != 4 or sigmas.shape != images.shape[:1]:
        raise ShapeError(f"{kind} takes [N, C, H, W] images and [N] sigmas, "
                         f"got {images.shape} and {sigmas.shape}")
    bad = ~(np.isfinite(sigmas) & (sigmas >= 0.0))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{kind} sigma of sample {i} must be finite and >= 0, got {sigmas[i]}")
    return sigmas


def _tap_sum(padded: np.ndarray, kernels: np.ndarray, step: int) -> np.ndarray:
    """out[:, j] = sum over taps i of kernels[:, i] * padded[:, j + i * step], from +0 in tap order.

    Each tap is one contiguous range of the flattened rows, so the last
    (taps - 1) * step entries, and any j whose taps straddle a border, are not
    blurred values; the caller slices them away.
    """
    span = padded.shape[1] - (kernels.shape[1] - 1) * step
    out = np.zeros_like(padded)
    term = np.empty((len(padded), span))
    for i, k in enumerate(kernels.T[:, :, None]):
        out[:, :span] += np.multiply(k, padded[:, i * step:i * step + span], out=term)
    return out


def gaussian_blur(images: np.ndarray, sigmas) -> np.ndarray:
    """Separable Gaussian blur of each sample by its own sigma, clamp-to-edge borders.

    Kernel radius is ceil(3*sigma), normalized to sum 1; sigma below 0.05 is
    treated as the identity. Samples of one radius are blurred together, and
    each output pixel adds its taps in kernel order, so a sample's result does
    not depend on the batch it is in.
    """
    sigmas = _check_sigmas("blur", images, sigmas)
    out = images.copy()
    radii = np.where(sigmas < BLUR_IDENTITY_BELOW, 0, np.ceil(3.0 * sigmas)).astype(np.int64)
    _, c, h, w = images.shape
    for radius in np.unique(radii[radii > 0]).tolist():
        group = np.flatnonzero(radii == radius)
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        kernels = np.exp(-0.5 * (offsets / sigmas[group, None]) ** 2)
        kernels /= kernels.sum(axis=1, keepdims=True)
        g = len(group)

        planes = images[group].astype(np.float64)
        padded = np.pad(planes, ((0, 0), (0, 0), (0, 0), (radius, radius)), mode="edge")
        rows = _tap_sum(padded.reshape(g, -1), kernels, 1).reshape(padded.shape)[..., :w]
        padded = np.pad(rows, ((0, 0), (0, 0), (radius, radius), (0, 0)), mode="edge")
        cols = _tap_sum(padded.reshape(g, -1), kernels, w).reshape(padded.shape)[:, :, :h]
        out[group] = cols
    return out


def add_gaussian_noise(images: np.ndarray, sigmas, field: np.ndarray) -> np.ndarray:
    """Per-pixel N(0, sigma^2) added to each sample then clamped to [0, 1].

    field holds one row of C*H*W standard normals per sample with sigma > 0, in
    sample order; the noise of such a sample is its row times its sigma, and the
    rows are overwritten. A sample with sigma 0 is copied.
    """
    sigmas = _check_sigmas("noise", images, sigmas)
    noisy = np.flatnonzero(sigmas > 0.0)
    if field.shape != (len(noisy), images[0].size):
        raise ShapeError(f"noise field must be [{len(noisy)}, {images[0].size}], one row per "
                         f"sample with sigma > 0, got {field.shape}")
    out = images.copy()
    if len(noisy):
        field *= sigmas[noisy, None]
        field += images[noisy].reshape(len(noisy), -1)
        out[noisy] = np.clip(field, 0.0, 1.0, out=field).reshape(-1, *images.shape[1:])
    return out


def _synthesize(config: GenConfig, start: int, out: Dataset, worker: Executor) -> None:
    """Samples start .. start + len(out) - 1 of the config, written into out's columns.

    The worker draws the noise field while this thread renders and blurs; it
    calls nothing a tracer wraps, so every traced span stays on this thread.
    """
    streams = Rng(config.master_seed).substreams(start, start + len(out))
    draws = draw(streams, 5)
    out.base_labels[:] = draws[:, 0] % N_BASE_CLASSES
    out.exp_labels[:] = draws[:, 1] % N_EXP_CLASSES
    lo, hi = np.array([config.font_scale_range, config.noise_sigma_range,
                       config.blur_sigma_range]).T
    # float32 metadata, so dataset files round-trip it exactly
    out.meta[:] = to_uniform(draws[:, 2:], lo, hi)
    font_scale, noise_sigma, blur_sigma = out.meta.astype(np.float64).T
    noisy = [s for s, sigma in zip(streams, noise_sigma.tolist()) if sigma > 0.0]
    size = math.prod(config.image_size)
    # allocated here, not on the worker: glibc keeps a thread's malloc arena
    # resident after the thread ends, so a field allocated there stays in RSS
    field = worker.submit(normals, noisy, size, np.empty((len(noisy), size + size % 2)))

    images = np.empty((len(out), 1, *config.image_size), DTYPE)
    for j, (base, exp, scale) in enumerate(zip(out.base_labels.tolist(),
                                               out.exp_labels.tolist(), font_scale.tolist())):
        try:
            images[j] = render_expression(BASE_DIGITS[0] + base, EXP_DIGITS[0] + exp,
                                          scale, config.image_size)
        except LayoutError as exc:
            raise LayoutError(f"sample {start + j}: {exc}") from exc
    images = add_gaussian_noise(gaussian_blur(images, blur_sigma), noise_sigma, field.result())
    # the bytes EXPD stores, rint(p * 255), computed in place on the chunk's float32 images
    out.pixels[:] = np.rint(np.multiply(images, 255.0, out=images), out=images)


def _noise_worker() -> Executor:
    """The one-thread pool that draws noise fields; the caller shuts it down with ``with``."""
    # imported here, so that `import expnet` and the commands that never
    # synthesize do not load concurrent.futures and logging (about 12 ms)
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1)


def generate_sample(config: GenConfig, index: int) -> Sample:
    """Sample i of the dataset, identical whether generated alone or in bulk."""
    one = Dataset.empty(1, config.image_size)
    with _noise_worker() as worker:
        _synthesize(config, index, one, worker)
    return one[0]


def generate_dataset(config: GenConfig) -> Dataset:
    """All samples of the config, in index order, synthesized CHUNK at a time."""
    ds = Dataset.empty(config.count, config.image_size)
    with _noise_worker() as worker:
        for start in range(0, config.count, CHUNK):
            _synthesize(config, start, ds[start:start + CHUNK], worker)
    return ds
