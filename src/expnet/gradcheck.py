"""Finite-difference validation of the analytic gradients.

Everything is re-evaluated in 64-bit: central differences at eps=1e-3 on
32-bit floats would drown the signal in round-off.  Relative errors use a
1e-8 denominator floor so near-zero gradient pairs compare as equal.

The network is piecewise smooth: a central difference is only meaningful if
p-eps, p, and p+eps all lie in the same linear region of every ReLU and the
same routing of every max pool.  Each probe therefore records the activation
pattern (every pool stage's routes, which fold in its ReLU, plus the hidden
ReLU mask); elements whose pattern changes across the stencil sit on a kink
or pooling tie and are excluded from the per-tensor maximum, mirroring how
the analytic subgradient is only defined off those sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import softmax_ce_batch
from .model import N_BASE_CLASSES, N_EXP_CLASSES, TINY_ARCH, MultiOutputModel
from .rng import Rng
from .train import batch_loss_and_grads

DENOM_FLOOR = 1e-8


@dataclass
class GradCheckRow:
    name: str
    max_rel_err: float
    n_checked: int
    n_excluded: int
    ok: bool


@dataclass
class GradCheckReport:
    rows: list[GradCheckRow]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def _loss_and_pattern(model: MultiOutputModel, image: np.ndarray,
                      base_label: int, exp_label: int) -> tuple[float, np.ndarray]:
    base_logits, exp_logits, trace = model.forward_batch(image[None])
    base_loss, _ = softmax_ce_batch(base_logits, np.array([base_label]))
    exp_loss, _ = softmax_ce_batch(exp_logits, np.array([exp_label]))
    # a dead window routes DEAD whichever cell wins: its output is 0 either way
    pattern = np.concatenate([a.reshape(-1) for a in (*trace.routes, trace.hidden > 0)])
    return float(base_loss[0] + exp_loss[0]), pattern


def analytic_gradients(model: MultiOutputModel, image: np.ndarray,
                       base_label: int, exp_label: int) -> list[np.ndarray]:
    """Backprop gradients of the combined loss wrt every parameter tensor.

    They come from the training step itself, at a batch of one.
    """
    _, _, grads = batch_loss_and_grads(model, image[None], np.array([base_label]),
                                       np.array([exp_label]))
    return grads


def gradient_check(model: MultiOutputModel, image: np.ndarray, base_label: int,
                   exp_label: int, eps: float = 1e-3, tolerance: float = 1e-3,
                   analytic: list[np.ndarray] | None = None) -> GradCheckReport:
    """Compare analytic gradients against 64-bit central differences.

    Intended for small models only: cost is two forward passes per parameter.
    Pass precomputed (possibly corrupted) gradients via `analytic` to test the
    detector itself.
    """
    model64 = model.astype(np.float64)
    image64 = image.astype(np.float64)
    if analytic is None:
        analytic = analytic_gradients(model64, image64, base_label, exp_label)
    _, center_pattern = _loss_and_pattern(model64, image64, base_label, exp_label)
    rows = []
    for (name, param), grad in zip(model64.parameters(), analytic):
        flat = param.reshape(-1)
        a = np.asarray(grad, dtype=np.float64).reshape(-1)
        max_rel = 0.0
        excluded = 0
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            up, pat_up = _loss_and_pattern(model64, image64, base_label, exp_label)
            flat[i] = saved - eps
            down, pat_down = _loss_and_pattern(model64, image64, base_label, exp_label)
            flat[i] = saved
            if not (np.array_equal(pat_up, center_pattern)
                    and np.array_equal(pat_down, center_pattern)):
                excluded += 1
                continue
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(a[i]), abs(numeric), DENOM_FLOOR)
            max_rel = max(max_rel, abs(a[i] - numeric) / denom)
        rows.append(GradCheckRow(name, float(max_rel), flat.size - excluded, excluded,
                                 max_rel < tolerance))
    return GradCheckReport(rows, tolerance)


def probe_inputs(arch_input_hw: tuple[int, int], seed: int) -> np.ndarray:
    """Seeded generic probe image with no exactly-zero pixels.

    A rendered expression is mostly exact zeros, which parks every background
    pre-activation of a zero-bias model on the ReLU kink; a dense random
    image keeps the excluded fraction small.
    """
    h, w = arch_input_hw
    return Rng(seed).uniforms(h * w, 0.05, 1.0).reshape(1, h, w).astype(np.float32)


def build_probe(seed: int = 4):
    """Standard small probe: tiny model with offset biases, generic image, labels.

    Biases get a small positive offset so pre-activations sit away from the
    ReLU kinks; seed 4 yields zero excluded elements on the tiny architecture.
    """
    model = MultiOutputModel.init(TINY_ARCH, seed)
    r = Rng(1000 + seed)
    for name, arr in model.parameters():
        if name.endswith("bias"):
            arr += r.uniforms(arr.size, 0.1, 0.4).astype(arr.dtype).reshape(arr.shape)
    image = probe_inputs(TINY_ARCH.input_hw, seed)
    return model, image, seed % N_BASE_CLASSES, seed % N_EXP_CLASSES
