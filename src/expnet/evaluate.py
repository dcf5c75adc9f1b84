"""Accuracy evaluation, robustness sweeps, histogram reports, and their CSV text."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .datagen import Dataset, GenConfig, generate_dataset
from .losses import softmax_ce_batch
from .model import N_BASE_CLASSES, N_EXP_CLASSES, MultiOutputModel, Workspace
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


def evaluate(model: MultiOutputModel, dataset: Dataset,
             workspace: Workspace | None = None) -> EvalReport:
    """Argmax predictions per head; joint = both heads correct.

    Runs the forward pass EVAL_CHUNK images at a time to bound its memory,
    with its scratch arrays in ``workspace`` when one is given.  A label
    outside its head's classes raises ValueError naming the sample first.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    dataset.check_labels()
    loss_sum = 0.0
    base_pred, exp_pred = [], []
    for lo in range(0, n, EVAL_CHUNK):
        chunk = dataset[lo:lo + EVAL_CHUNK]
        base_logits, exp_logits, _ = model.forward_batch(chunk.images, need_trace=False,
                                                         workspace=workspace)
        base_losses, _ = softmax_ce_batch(base_logits, chunk.base_labels)
        exp_losses, _ = softmax_ce_batch(exp_logits, chunk.exp_labels)
        loss_sum += float(base_losses.sum() + exp_losses.sum())
        base_pred.append(base_logits.argmax(axis=1))
        exp_pred.append(exp_logits.argmax(axis=1))
    base_pred, exp_pred = np.concatenate(base_pred), np.concatenate(exp_pred)
    b_ok = base_pred == dataset.base_labels
    e_ok = exp_pred == dataset.exp_labels
    base_conf = np.zeros((N_BASE_CLASSES, N_BASE_CLASSES), dtype=np.int64)
    exp_conf = np.zeros((N_EXP_CLASSES, N_EXP_CLASSES), dtype=np.int64)
    np.add.at(base_conf, (dataset.base_labels, base_pred), 1)
    np.add.at(exp_conf, (dataset.exp_labels, exp_pred), 1)
    return EvalReport(int(b_ok.sum()) / n, int(e_ok.sum()) / n, int((b_ok & e_ok).sum()) / n,
                      loss_sum / n, base_conf, exp_conf, n)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line, then one line per row of its values' str, comma-joined.

    str gives a Python float the same shortest round-tripping text as repr.
    """
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


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
    if not levels:
        raise ValueError("levels must not be empty")
    if not all(0.0 <= lv < math.inf for lv in levels):
        raise ValueError(f"levels must be finite and non-negative, got {levels}")
    if sorted(levels) != list(levels):
        raise ValueError("levels must be sorted ascending")
    # every config is built first, so a level GenConfig refuses is refused before any work
    configs = [replace(base_config, count=per_level_count,
                       master_seed=_level_seed(base_config.master_seed, attribute, level),
                       **{f"{attribute}_sigma_range": (level, level)}) for level in levels]
    return [(level, evaluate(model, generate_dataset(config)))
            for level, config in zip(levels, configs)]


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
