"""Mini-batch training loop with validation-based early stopping.

Everything is keyed by seeds and substream indices rather than sequential
draws: the train/validation split uses substream 0 of the config seed and
epoch e shuffles with substream e + 1, so a run resumed from a checkpoint
shuffles identically to one that never stopped.  Gradients are averaged over
the batch (learning rate stays batch-size independent) and one Adam step is
taken per batch.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import ClassVar

import numpy as np

from .datagen import Dataset
from .errors import TrainingDivergedError
# EVAL_CHUNK is re-exported: callers read it as train.EVAL_CHUNK
from .evaluate import EVAL_CHUNK, csv_text, evaluate  # noqa: F401
from .losses import softmax_ce_batch
from .model import DEFAULT_ARCH, Architecture, MultiOutputModel, Workspace
from .optim import AdamState, adam_step, check_adam_settings
from .rng import Rng


@dataclass(frozen=True)
class TrainConfig:
    """The settings ``expnet train`` takes; Adam's betas and eps are AdamState's defaults."""

    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    early_stop_patience: int = 5
    seed: int = 0

    early_stop_min_delta: ClassVar[float] = 1e-4
    validation_fraction: ClassVar[float] = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.early_stop_patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.early_stop_patience}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < math.inf:    # False for NaN too
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class EpochRecord:
    epoch: int
    train_total: float
    train_base: float
    train_exp: float
    val_total: float
    val_base_acc: float
    val_exp_acc: float


@dataclass
class TrainResult:
    model: MultiOutputModel          # parameters from the best validation epoch
    history: list[EpochRecord]
    final_model: MultiOutputModel    # parameters after the last completed epoch
    adam_state: AdamState
    best_epoch: int
    stopped_early: bool


def _clone_model(model: MultiOutputModel) -> MultiOutputModel:
    return model.astype(model.param_arrays()[0].dtype)


def batch_loss_and_grads(model: MultiOutputModel, images: np.ndarray,
                         base_labels: np.ndarray, exp_labels: np.ndarray,
                         workspace: Workspace | None = None):
    """Mean combined loss over the batch plus mean parameter gradients.

    The passes keep their scratch arrays in ``workspace`` when one is given.
    """
    b = images.shape[0]
    base_logits, exp_logits, trace = model.forward_batch(images, workspace=workspace)
    base_losses, g_base = softmax_ce_batch(base_logits, base_labels)
    exp_losses, g_exp = softmax_ce_batch(exp_logits, exp_labels)
    grads = model.backward_batch(trace, (g_base / b).astype(images.dtype),
                                 (g_exp / b).astype(images.dtype))
    return float(base_losses.mean()), float(exp_losses.mean()), grads


def validation_metrics(model: MultiOutputModel, dataset: Dataset,
                       workspace: Workspace | None = None):
    """(mean total loss, base accuracy, exp accuracy) over a fixed set."""
    report = evaluate(model, dataset, workspace)
    return report.mean_loss, report.base_accuracy, report.exp_accuracy


def train(dataset: Dataset, config: TrainConfig,
          arch: Architecture = DEFAULT_ARCH, init_seed: int = 0,
          initial_model: MultiOutputModel | None = None,
          initial_adam: AdamState | None = None,
          start_epoch: int = 0) -> TrainResult:
    """Train a fresh model, or continue from (initial_model, initial_adam).

    Resuming at start_epoch k with the state saved after k epochs replays the
    exact same remaining epochs as an uninterrupted run; early-stopping
    counters start fresh on resume. A start_epoch outside [0, config.epochs),
    an initial_adam whose lr, betas or eps would turn the parameters NaN or
    step them backwards, or a label outside its head's classes, raises
    ValueError before the first step.  Non-finite
    logits in a step or in validation raise TrainingDivergedError naming the
    epoch and the batch.
    """
    if not 0 <= start_epoch < config.epochs:
        raise ValueError(f"start_epoch must be in [0, {config.epochs}), got {start_epoch}")
    n = len(dataset)
    n_val = max(1, int(round(config.validation_fraction * n)))
    if n_val >= n:
        raise ValueError(f"validation split leaves no training data (n={n})")
    dataset.check_labels()

    rng = Rng(config.seed)
    split = rng.substream(0).permutation(n)
    val_idx, train_idx = split[:n_val], split[n_val:]
    val_set = dataset[val_idx]

    if initial_model is None:
        model = MultiOutputModel.init(arch, init_seed)
    else:
        model = initial_model
    params = model.param_arrays()
    if initial_adam is None:
        adam = AdamState.init(params, lr=config.lr)
    else:
        check_adam_settings(initial_adam.lr, initial_adam.beta1, initial_adam.beta2,
                            initial_adam.eps)
        adam = initial_adam

    workspace = Workspace()   # scratch of the steps and validation, freed on return
    history: list[EpochRecord] = []
    best_model = None         # the first epoch's finite validation loss always beats inf
    best_val = np.inf
    best_epoch = start_epoch
    bad_epochs = 0
    stopped_early = False

    for epoch in range(start_epoch, config.epochs):
        order = train_idx[rng.substream(epoch + 1).permutation(len(train_idx))]
        base_sum = exp_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = dataset[order[lo:lo + config.batch_size]]
            try:
                b_loss, e_loss, grads = batch_loss_and_grads(
                    model, batch.images, batch.base_labels, batch.exp_labels,
                    workspace=workspace)
            except ValueError as exc:     # labels are checked above: softmax's non-finite
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}, batch {lo // config.batch_size}: "
                    f"{exc}") from exc
            adam_step(params, grads, adam)
            base_sum += b_loss * len(batch)
            exp_sum += e_loss * len(batch)

        train_base = base_sum / len(order)
        train_exp = exp_sum / len(order)
        try:
            val_total, val_base_acc, val_exp_acc = validation_metrics(model, val_set, workspace)
        except ValueError as exc:
            raise TrainingDivergedError(f"training diverged in epoch {epoch}, validation after "
                                        f"batch {(len(order) - 1) // config.batch_size}: "
                                        f"{exc}") from exc
        history.append(EpochRecord(epoch, train_base + train_exp, train_base,
                                   train_exp, val_total, val_base_acc, val_exp_acc))

        if val_total < best_val - config.early_stop_min_delta:
            best_val = val_total
            best_epoch = epoch
            best_model = _clone_model(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.early_stop_patience:
                stopped_early = True
                break

    return TrainResult(best_model, history, model, adam, best_epoch, stopped_early)


def history_csv(history: list[EpochRecord]) -> str:
    """One line per epoch; the columns are EpochRecord's fields in order."""
    return csv_text([f.name for f in fields(EpochRecord)], map(astuple, history))
