"""Forward and backward passes for the individual network layers.

Every op takes a batch: channel-major [C, B, H, W] feature maps, [B, F] dense
activations; a single sample is a batch of one (``x[:, None]`` for a feature
map, ``x[None]`` for a dense vector).  Parameters live in small layer
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

def _pool_offsets_batch(x: np.ndarray, window: int, stride: int, need_offsets: bool = True):
    """(pooled values, window-relative offsets uint8) with row-major tie-break.

    Pools the last two axes of x (a channel-major [C, B, H, W] batch).  Offset
    m * window + n names the cell at row m, column n of each window;
    need_offsets=False returns None for them and skips their work.
    """
    h, w = x.shape[-2:]
    if window > h or window > w:
        raise ShapeError(f"pool window {window} larger than input {h}x{w}")
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    if window == 2 and stride == 2 and h % 2 == 0 and w % 2 == 0:
        # elementwise max tree; strict > keeps the earliest cell on ties
        a = x[..., 0::2, 0::2]
        bb = x[..., 0::2, 1::2]
        cc = x[..., 1::2, 0::2]
        d = x[..., 1::2, 1::2]
        m_ab = np.maximum(a, bb)
        m_cd = np.maximum(cc, d)
        out = np.maximum(m_ab, m_cd)
        if not need_offsets:
            return out, None
        # off = 2 + (d > cc) where the bottom row's max beats the top row's, else
        # (bb > a), as uint8 bit operations: with the and-mask 0 the xors give lo
        lo = (bb > a).view(np.uint8)
        off = (d > cc).view(np.uint8)
        off |= 2
        off ^= lo
        off &= np.negative((m_cd > m_ab).view(np.uint8))
        off ^= lo
        return out, off
    stack = np.empty((*x.shape[:-2], h_out, w_out, window * window), dtype=x.dtype)
    for m in range(window):
        for n in range(window):
            stack[..., m * window + n] = x[..., m:m + (h_out - 1) * stride + 1:stride,
                                           n:n + (w_out - 1) * stride + 1:stride]
    offset = stack.argmax(axis=-1)          # first occurrence wins ties
    out = np.take_along_axis(stack, offset[..., None], axis=-1)[..., 0]
    return out, offset.astype(np.uint8) if need_offsets else None


def _pool_backward_offsets_batch(upstream: np.ndarray, offsets: np.ndarray,
                                 x_shape: tuple, window: int, stride: int) -> np.ndarray:
    """Route each upstream value to its window's recorded offset; zeros elsewhere."""
    h_out, w_out = upstream.shape[-2:]
    if window == stride and x_shape[-2:] == (h_out * window, w_out * window):
        # windows tile the input exactly: each cell is written once, no zero fill
        grad = np.empty(x_shape, dtype=upstream.dtype)
        for m in range(window):
            for n in range(window):
                np.multiply(upstream, offsets == m * window + n,
                            out=grad[..., m::window, n::window])
        return grad
    grad = np.zeros(x_shape, dtype=upstream.dtype)
    for m in range(window):
        for n in range(window):
            mask = offsets == m * window + n
            grad[..., m:m + (h_out - 1) * stride + 1:stride,
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

def conv_cols_shape(layer: ConvLayer, x: np.ndarray, batch: int) -> tuple[int, ...]:
    """Shape [C, M, N, batch, H', W'] of the im2col columns of batch samples shaped like x."""
    h_out, w_out = _check_conv_args(x[:, 0], layer.weights, layer.bias,
                                    layer.stride, layer.padding)
    return (x.shape[0], *layer.weights.shape[2:], batch, h_out, w_out)


def conv_forward_batch(layer: ConvLayer, x: np.ndarray, cols: np.ndarray | None = None):
    """[C, B, H, W] -> ([K, B, H', W'], cache) where cache carries the im2col matrix.

    ``cols``, shaped by conv_cols_shape, receives the im2col columns instead
    of a new array.
    """
    h_out, w_out = conv_cols_shape(layer, x, x.shape[1])[-2:]
    b = x.shape[1]
    k, _, m, n = layer.weights.shape
    cols = im2col_batch(x, m, n, layer.stride, layer.padding, out=cols)
    out = layer.weights.reshape(k, -1) @ cols
    out += layer.bias[:, None]
    return out.reshape(k, b, h_out, w_out), (cols, x.shape)


def conv_backward_batch(layer: ConvLayer, upstream: np.ndarray, cache,
                        need_input_grad: bool = True, gxpad: np.ndarray | None = None,
                        u2p: np.ndarray | None = None):
    """Returns (grad_weights, grad_bias, grad_x) summed over the batch.

    upstream is [K, B, H', W']; grad_x is [C, B, H, W], or None when
    need_input_grad is False (the first layer, whose input is the image).
    gxpad and u2p are col2im_batch's optional scratch arrays.
    """
    cols, x_shape = cache
    k = layer.weights.shape[0]
    u2 = upstream.reshape(k, -1)
    grad_w = (u2 @ cols.T).reshape(layer.weights.shape)
    grad_b = u2.sum(axis=1)
    grad_x = None
    if need_input_grad:
        grad_x = col2im_batch(layer.weights, u2, x_shape, layer.stride, layer.padding,
                              gxpad=gxpad, u2p=u2p)
    return grad_w, grad_b, grad_x
