"""Forward and backward passes for the individual network layers.

Every op takes a batch: [B, C, H, W] feature maps, [B, F] dense activations; a
single sample is a batch of one (``x[None]``).  Parameters live in small layer
classes; the math functions are pure and dtype-preserving so the 64-bit
gradient checker can reuse them.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import col2im_batch, im2col_batch, _check_conv_args


class ConvLayer:
    """Convolution parameters: weights [K, C_in, M, N], bias [K]."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, stride: int = 1, padding: int = 0):
        if weights.ndim != 4 or bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise ShapeError(
                f"inconsistent conv parameter shapes {weights.shape} / {bias.shape}")
        self.weights = weights
        self.bias = bias
        self.stride = stride
        self.padding = padding


class DenseLayer:
    """Fully connected parameters: weights [out, in], bias [out]."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        if weights.ndim != 2 or bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise ShapeError(
                f"inconsistent dense parameter shapes {weights.shape} / {bias.shape}")
        self.weights = weights
        self.bias = bias


# --- ReLU ---

def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


# --- Max pooling ---

def _pool_offsets_batch(x: np.ndarray, window: int, stride: int):
    """(pooled values, window-relative offsets uint8) with row-major tie-break.

    Offset m * window + n names the cell at row m, column n of each window.
    """
    b, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"pool window {window} larger than input {h}x{w}")
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    if window == 2 and stride == 2 and h % 2 == 0 and w % 2 == 0:
        # elementwise max tree; strict > keeps the earliest cell on ties
        a = x[:, :, 0::2, 0::2]
        bb = x[:, :, 0::2, 1::2]
        cc = x[:, :, 1::2, 0::2]
        d = x[:, :, 1::2, 1::2]
        m_ab = np.maximum(a, bb)
        m_cd = np.maximum(cc, d)
        out = np.maximum(m_ab, m_cd)
        off = np.where(m_cd > m_ab,
                       np.uint8(2) + (d > cc).astype(np.uint8),
                       (bb > a).astype(np.uint8))
        return out, off
    stack = np.empty((b, c, h_out, w_out, window * window), dtype=x.dtype)
    for m in range(window):
        for n in range(window):
            stack[..., m * window + n] = x[:, :, m:m + (h_out - 1) * stride + 1:stride,
                                           n:n + (w_out - 1) * stride + 1:stride]
    offset = stack.argmax(axis=-1)          # first occurrence wins ties
    out = np.take_along_axis(stack, offset[..., None], axis=-1)[..., 0]
    return out, offset.astype(np.uint8)


def _pool_backward_offsets_batch(upstream: np.ndarray, offsets: np.ndarray,
                                 x_shape: tuple, window: int, stride: int) -> np.ndarray:
    """Route each upstream value to its window's recorded offset; zeros elsewhere."""
    grad = np.zeros(x_shape, dtype=upstream.dtype)
    h_out, w_out = upstream.shape[2:]
    for m in range(window):
        for n in range(window):
            mask = offsets == m * window + n
            grad[:, :, m:m + (h_out - 1) * stride + 1:stride,
                 n:n + (w_out - 1) * stride + 1:stride] += upstream * mask
    return grad


# --- Dense ---

def dense_forward_batch(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != layer.weights.shape[1]:
        raise ShapeError(
            f"dense input shape {x.shape} does not match weights {layer.weights.shape}")
    return x @ layer.weights.T + layer.bias


def dense_backward_batch(layer: DenseLayer, upstream: np.ndarray, cached_x: np.ndarray):
    grad_w = upstream.T @ cached_x
    grad_b = upstream.sum(axis=0)
    grad_x = upstream @ layer.weights
    return grad_w, grad_b, grad_x


# --- Convolution (forward via im2col + GEMM; see tensor.py for the oracle) ---

def conv_forward_batch(layer: ConvLayer, x: np.ndarray):
    """Returns ([B, K, H', W'], cache) where cache carries the im2col matrix."""
    h_out, w_out = _check_conv_args(x[0], layer.weights, layer.bias,
                                    layer.stride, layer.padding)
    b = x.shape[0]
    k, _, m, n = layer.weights.shape
    cols = im2col_batch(x, m, n, layer.stride, layer.padding)
    out = layer.weights.reshape(k, -1) @ cols + layer.bias[:, None]
    out = out.reshape(k, b, h_out, w_out).transpose(1, 0, 2, 3)
    return out, (cols, x.shape)


def conv_backward_batch(layer: ConvLayer, upstream: np.ndarray, cache):
    """Returns (grad_weights, grad_bias, grad_x) summed over the batch."""
    cols, x_shape = cache
    k, _, m, n = layer.weights.shape
    u2 = upstream.transpose(1, 0, 2, 3).reshape(k, -1)
    grad_w = (u2 @ cols.T).reshape(layer.weights.shape)
    grad_b = u2.sum(axis=1)
    grad_cols = layer.weights.reshape(k, -1).T @ u2
    grad_x = col2im_batch(grad_cols, x_shape, m, n, layer.stride, layer.padding)
    return grad_w, grad_b, grad_x

