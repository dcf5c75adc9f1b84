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
from dataclasses import dataclass

import numpy as np

from .datagen import Sample
# EVAL_CHUNK is re-exported: callers read it as train.EVAL_CHUNK
from .evaluate import EVAL_CHUNK, loss_and_predictions, stack_dataset  # noqa: F401
from .losses import softmax_ce_batch
from .model import DEFAULT_ARCH, Architecture, MultiOutputModel, Workspace
from .optim import AdamState, adam_step, check_adam_settings
from .rng import Rng


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    early_stop_patience: int = 5
    early_stop_min_delta: float = 1e-4
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}")
        if self.early_stop_patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.early_stop_patience}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        check_adam_settings(self.lr, self.beta1, self.beta2, self.adam_eps, eps_name="adam_eps")
        # a NaN would make every epoch a bad one without saying so
        if not 0.0 <= self.early_stop_min_delta < math.inf:
            raise ValueError(f"early_stop_min_delta must be finite and >= 0, "
                             f"got {self.early_stop_min_delta}")


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


def validation_metrics(model: MultiOutputModel, images: np.ndarray,
                       base_labels: np.ndarray, exp_labels: np.ndarray,
                       workspace: Workspace | None = None):
    """(mean total loss, base accuracy, exp accuracy) over a fixed set."""
    n = images.shape[0]
    loss_sum, base_pred, exp_pred = loss_and_predictions(model, images, base_labels, exp_labels,
                                                         workspace)
    return (loss_sum / n, int((base_pred == base_labels).sum()) / n,
            int((exp_pred == exp_labels).sum()) / n)


def train(dataset: list[Sample], config: TrainConfig,
          arch: Architecture = DEFAULT_ARCH, init_seed: int = 0,
          initial_model: MultiOutputModel | None = None,
          initial_adam: AdamState | None = None,
          start_epoch: int = 0) -> TrainResult:
    """Train a fresh model, or continue from (initial_model, initial_adam).

    Resuming at start_epoch k with the state saved after k epochs replays the
    exact same remaining epochs as an uninterrupted run; early-stopping
    counters start fresh on resume.
    """
    images, base_labels, exp_labels = stack_dataset(dataset)
    n = images.shape[0]
    if base_labels.max() >= arch.n_base or exp_labels.max() >= arch.n_exp:
        raise ValueError("dataset labels exceed the model's head widths")

    rng = Rng(config.seed)
    split = rng.substream(0).permutation(n)
    n_val = max(1, int(round(config.validation_fraction * n)))
    if n_val >= n:
        raise ValueError(f"validation split leaves no training data (n={n})")
    val_idx, train_idx = split[:n_val], split[n_val:]
    val_images = images[val_idx]
    val_base, val_exp = base_labels[val_idx], exp_labels[val_idx]

    if initial_model is None:
        model = MultiOutputModel.init(arch, init_seed)
    else:
        model = initial_model
    params = model.param_arrays()
    if initial_adam is None:
        adam = AdamState.init(params, lr=config.lr, beta1=config.beta1,
                              beta2=config.beta2, eps=config.adam_eps)
    else:
        adam = initial_adam

    workspace = Workspace()   # scratch of the steps and validation, freed on return
    history: list[EpochRecord] = []
    best_model = _clone_model(model)
    best_val = np.inf
    best_epoch = start_epoch
    bad_epochs = 0
    stopped_early = False

    for epoch in range(start_epoch, config.epochs):
        order = train_idx[rng.substream(epoch + 1).permutation(len(train_idx))]
        base_sum = exp_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            b_loss, e_loss, grads = batch_loss_and_grads(
                model, images[idx], base_labels[idx], exp_labels[idx], workspace=workspace)
            adam_step(params, grads, adam)
            base_sum += b_loss * len(idx)
            exp_sum += e_loss * len(idx)

        train_base = base_sum / len(order)
        train_exp = exp_sum / len(order)
        val_total, val_base_acc, val_exp_acc = validation_metrics(
            model, val_images, val_base, val_exp, workspace)
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

    if not history:
        raise ValueError("no epochs were run (start_epoch >= config.epochs)")
    if best_val == np.inf:
        best_model = _clone_model(model)
        best_epoch = history[-1].epoch
    return TrainResult(best_model, history, model, adam, best_epoch, stopped_early)


def history_csv(history: list[EpochRecord]) -> str:
    lines = ["epoch,train_total,train_base,train_exp,val_total,val_base_acc,val_exp_acc"]
    for r in history:
        lines.append(f"{r.epoch},{r.train_total!r},{r.train_base!r},{r.train_exp!r},"
                     f"{r.val_total!r},{r.val_base_acc!r},{r.val_exp_acc!r}")
    return "\n".join(lines) + "\n"
