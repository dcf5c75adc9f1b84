"""Softmax and the batched sparse cross-entropy that training and evaluation run.

The combined two-head loss is the sum of ``softmax_ce_batch`` over the base
and the exponent logits.  Probabilities are computed in 64-bit with
max-subtraction for stability and cast back to the input dtype; the log
argument is clamped at 1e-12 so a zero probability yields a large finite loss
instead of -inf.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

PROB_CLAMP = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """exp(v - max v) / sum, along the last axis; sums to 1 within 1e-6."""
    if logits.size == 0:
        raise ShapeError("softmax needs at least one logit")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax input contains non-finite values")
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=-1, keepdims=True)).astype(logits.dtype)


def softmax_ce_batch(logits: np.ndarray, labels: np.ndarray):
    """Per-row (loss, grad) for a batch: [B, C] logits, [B] integer labels.

    loss[i] = -log p[labels[i]] and grad[i] = p - onehot(labels[i]), its
    gradient wrt the logits, where p = softmax(logits[i]).  Gradients are
    per-sample (not averaged); the caller decides the reduction.
    """
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"batch shapes inconsistent: {logits.shape} vs {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise IndexError("label out of range for logit width")
    probs = softmax(logits)
    rows = np.arange(logits.shape[0])
    picked = np.maximum(probs[rows, labels].astype(np.float64), PROB_CLAMP)
    losses = -np.log(picked)
    grads = probs.copy()
    grads[rows, labels] -= 1
    return losses, grads
