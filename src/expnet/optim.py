"""Adam optimizer over a flat list of parameter tensors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class AdamState:
    """First/second moment tensors mirroring the parameter list, plus step count."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: list[np.ndarray], lr: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def check_adam_settings(lr: float, beta1: float, beta2: float, eps: float,
                        eps_name: str = "eps") -> None:
    """Raise ValueError naming the first setting with which an update goes wrong or NaN.

    The chained comparisons are False for NaN, so a NaN is rejected too.
    """
    for name, value, rule, ok in (("lr", lr, "finite and > 0", 0.0 < lr < math.inf),
                                  ("beta1", beta1, "in [0, 1)", 0.0 <= beta1 < 1.0),
                                  ("beta2", beta2, "in [0, 1)", 0.0 <= beta2 < 1.0),
                                  (eps_name, eps, "finite and > 0", 0.0 < eps < math.inf)):
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value}")


# Elements per Adam block: the block's slices of p, g, m, v and the update's
# temporaries (about 2 MB of float32) stay in cache between its passes.
BLOCK = 1 << 16


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update, in place on params and state.

    t += 1; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g^2;
    p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    Each tensor is updated BLOCK elements at a time with the same operations
    in the same order per element, so the result does not depend on BLOCK.
    Every tensor must be C-contiguous (the blocks are slices of flat views).
    """
    counts = (len(params), len(grads), len(state.m), len(state.v))
    if len(set(counts)) != 1:
        raise ShapeError("parameter/gradient/first-moment/second-moment counts differ: "
                         + "/".join(str(c) for c in counts))
    for i, tensors in enumerate(zip(params, grads, state.m, state.v)):
        shapes = [t.shape for t in tensors]
        if len(set(shapes)) != 1:
            raise ShapeError(f"tensor {i} shape mismatch (param, grad, m, v): "
                             + " vs ".join(str(s) for s in shapes))
        if not all(t.flags.c_contiguous for t in tensors):
            raise ShapeError(f"tensor {i}: adam_step needs C-contiguous param, grad, m and v")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for tensors in zip(params, grads, state.m, state.v):
        p_flat, g_flat, m_flat, v_flat = (t.reshape(-1) for t in tensors)
        for lo in range(0, p_flat.size, BLOCK):
            blk = slice(lo, lo + BLOCK)
            p, g, m, v = p_flat[blk], g_flat[blk], m_flat[blk], v_flat[blk]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            denom = np.sqrt(v / bias2)
            denom += state.eps
            step = m / bias1
            step *= state.lr
            step /= denom
            p -= step.astype(p.dtype, copy=False)
    return params, state
