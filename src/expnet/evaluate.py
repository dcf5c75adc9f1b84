"""Accuracy evaluation, robustness sweeps, and histogram reports."""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .datagen import GenConfig, Sample, generate_dataset
from .losses import softmax_ce_batch
from .model import MultiOutputModel
from .rng import Rng

EVAL_CHUNK = 256


@dataclass
class EvalReport:
    base_accuracy: float
    exp_accuracy: float
    joint_accuracy: float
    mean_loss: float
    base_confusion: np.ndarray   # [true, predicted]
    exp_confusion: np.ndarray
    count: int


def stack_dataset(samples: list[Sample]):
    """(images [N, 1, H, W] float32, base labels [N], exp labels [N])."""
    if not samples:
        raise ValueError("dataset is empty")
    images = np.stack([s.image for s in samples]).astype(np.float32)
    base = np.array([s.base_label for s in samples], dtype=np.int64)
    exp = np.array([s.exp_label for s in samples], dtype=np.int64)
    return images, base, exp


def loss_and_predictions(model: MultiOutputModel, images: np.ndarray,
                         base_labels: np.ndarray, exp_labels: np.ndarray):
    """(summed two-head loss, base predictions [N], exp predictions [N]).

    Runs the forward pass EVAL_CHUNK images at a time to bound its memory.
    """
    loss_sum = 0.0
    base_pred, exp_pred = [], []
    for lo in range(0, images.shape[0], EVAL_CHUNK):
        hi = lo + EVAL_CHUNK
        base_logits, exp_logits, _ = model.forward_batch(images[lo:hi], need_trace=False)
        base_losses, _ = softmax_ce_batch(base_logits, base_labels[lo:hi])
        exp_losses, _ = softmax_ce_batch(exp_logits, exp_labels[lo:hi])
        loss_sum += float(base_losses.sum() + exp_losses.sum())
        base_pred.append(base_logits.argmax(axis=1))
        exp_pred.append(exp_logits.argmax(axis=1))
    return loss_sum, np.concatenate(base_pred), np.concatenate(exp_pred)


def evaluate(model: MultiOutputModel, dataset: list[Sample]) -> EvalReport:
    """Argmax predictions per head; joint = both heads correct."""
    images, base_labels, exp_labels = stack_dataset(dataset)
    n = images.shape[0]
    loss_sum, base_pred, exp_pred = loss_and_predictions(model, images, base_labels, exp_labels)
    b_ok = base_pred == base_labels
    e_ok = exp_pred == exp_labels
    n_base, n_exp = model.arch.n_base, model.arch.n_exp
    base_conf = np.zeros((n_base, n_base), dtype=np.int64)
    exp_conf = np.zeros((n_exp, n_exp), dtype=np.int64)
    np.add.at(base_conf, (base_labels, base_pred), 1)
    np.add.at(exp_conf, (exp_labels, exp_pred), 1)
    return EvalReport(int(b_ok.sum()) / n, int(e_ok.sum()) / n, int((b_ok & e_ok).sum()) / n,
                      loss_sum / n, base_conf, exp_conf, n)


def _level_seed(master_seed: int, attribute: str, level: float) -> int:
    """Seed for one sweep level, a pure function of (seed, attribute, level)."""
    bits = struct.unpack("<Q", struct.pack("<d", float(level)))[0]
    tag = 1 if attribute == "noise" else 2
    return Rng(master_seed).substream(tag).substream(bits).key


def robustness_sweep(model: MultiOutputModel, base_config: GenConfig, attribute: str,
                     levels: list[float], per_level_count: int) -> list[tuple[float, EvalReport]]:
    """Evaluate on fresh test sets with one corruption attribute pinned per level."""
    if attribute not in ("noise", "blur"):
        raise ValueError(f"attribute must be 'noise' or 'blur', got {attribute!r}")
    if any(lv < 0 for lv in levels):
        raise ValueError("levels must be non-negative")
    if sorted(levels) != list(levels):
        raise ValueError("levels must be sorted ascending")
    results = []
    for level in levels:
        pinned = {f"{attribute}_sigma_range": (level, level)}
        config = replace(base_config, count=per_level_count,
                         master_seed=_level_seed(base_config.master_seed, attribute, level),
                         **pinned)
        results.append((level, evaluate(model, generate_dataset(config))))
    return results


def histogram(values, bins: int | None = None) -> list[tuple[object, int]]:
    """Bucket counts: categorical by exact value, or `bins` equal-width bins.

    Continuous bins split [min, max] right-open except the last; counts always
    sum to len(values).
    """
    if len(values) == 0:
        raise ValueError("histogram needs at least one value")
    if bins is None:
        buckets: dict = {}
        for v in values:
            buckets[v] = buckets.get(v, 0) + 1
        return sorted(buckets.items())
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return [((lo, hi), len(values))]
    counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    return [((float(edges[i]), float(edges[i + 1])), int(counts[i])) for i in range(bins)]
