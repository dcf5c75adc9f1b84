"""Forward and backward passes for the individual network layers.

Every op takes a batch: channel-major [C, B, H, W] feature maps, [B, F] dense
activations; a single sample is a batch of one (``x[:, None]`` for a feature
map, ``x[None]`` for a dense vector).  A conv output about to be pooled may
instead be window-major, [C, 4, B, H/2, W/2] (see _window_cells).
Parameters live in small layer classes; the math functions are pure and
dtype-preserving so the 64-bit gradient checker can reuse them.
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

def _window_cells(x: np.ndarray) -> list[np.ndarray]:
    """Views of the four cells of every 2x2 stride-2 window of a map, cell 2 * m + n first.

    A channel-major [C, B, H, W] map gives strided views of its rows and
    columns; an odd trailing row or column belongs to no window and is in
    none of them.  A window-major [C, 4, B, H/2, W/2] map, as im2col_batch's
    window-major columns make it, holds each cell whole: x[:, 2 * m + n].
    """
    if x.ndim == 5:
        return [x[:, cell] for cell in range(4)]
    h2, w2 = x.shape[-2] // 2 * 2, x.shape[-1] // 2 * 2
    return [x[..., m:h2:2, n:w2:2] for m in range(2) for n in range(2)]


def _pool_offsets_batch(x: np.ndarray, need_offsets: bool = True):
    """(2x2 stride-2 max-pooled values, window-relative offsets uint8), row-major tie-break.

    x is a channel-major [C, B, H, W] batch, whose odd trailing row or column
    belongs to no window and is dropped, or a window-major [C, 4, B, H/2, W/2]
    one (see _window_cells); both give [C, B, H/2, W/2].  Offset 2 * m + n
    names the cell at row m, column n of each window; need_offsets=False
    returns None for them and skips their work.
    """
    if x.ndim != 5 and min(x.shape[-2:]) < 2:
        raise ShapeError(f"pool window 2 larger than input {x.shape[-2]}x{x.shape[-1]}")
    # elementwise max tree; strict > keeps the earliest cell on ties
    a, bb, cc, d = _window_cells(x)
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


def _pool_backward_offsets_batch(upstream: np.ndarray, offsets: np.ndarray,
                                 x_shape: tuple) -> np.ndarray:
    """Route each upstream value to its 2x2 window's recorded offset; zeros elsewhere.

    x_shape is the pooled map's, channel-major [C, B, H, W] or window-major
    [C, 4, B, H/2, W/2], and the gradient comes in the same layout.  Windows
    tile the input, so each pooled cell is written once; an odd trailing row
    or column of a channel-major map, which no window covers, is zeroed.
    """
    grad = np.empty(x_shape, dtype=upstream.dtype)
    for cell, view in enumerate(_window_cells(grad)):
        np.multiply(upstream, offsets == cell, out=view)
    if grad.ndim == 4:
        h2, w2 = 2 * upstream.shape[-2], 2 * upstream.shape[-1]
        grad[..., h2:, :] = 0
        grad[..., :h2, w2:] = 0
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

def conv_forward_batch(layer: ConvLayer, x: np.ndarray, cols: np.ndarray | None = None):
    """[C, B, H, W] -> ([K, B, H', W'], the im2col matrix [C*M*N, B*H'*W']).

    Any kernel, stride and padding work; the model runs only 3x3 at stride 1
    with padding 1, so its H' and W' are H and W.  ``cols``, a [C, M, N, B,
    H', W'] array, receives the im2col columns instead of a new array.  A
    window-major [C, M, N, 4, B, H'/2, W'/2] one gives the window-major output
    [K, 4, B, H'/2, W'/2] and im2col_batch's stack of four column matrices.
    Raises ShapeError if x, the parameters or cols do not fit together.
    """
    h_out, w_out = _check_conv_args(x[:, 0], layer.weights, layer.bias,
                                    layer.stride, layer.padding)
    b = x.shape[1]
    k, _, m, n = layer.weights.shape
    cols = im2col_batch(x, m, n, layer.stride, layer.padding, out=cols)
    out = layer.weights.reshape(k, -1) @ cols
    out += layer.bias[:, None]
    if out.ndim == 3:       # one [K, B*P] product per window cell
        return out.reshape(4, k, b, h_out // 2, w_out // 2).swapaxes(0, 1), cols
    return out.reshape(k, b, h_out, w_out), cols


def conv_backward_batch(layer: ConvLayer, upstream: np.ndarray, cols: np.ndarray,
                        gxpad: np.ndarray | None = None, u2p: np.ndarray | None = None):
    """Returns (grad_weights, grad_bias, grad_x) summed over the batch.

    upstream is the output gradient, [K, B, H', W'] or window-major [K, 4, B,
    H'/2, W'/2], and cols the forward's columns as one [C*M*N, columns]
    matrix in the same column order.  grad_x [C, B, H, W] is computed only
    when col2im_batch's scratch arrays gxpad [C, B, H+2, W+2] and u2p are
    given, from a row-major upstream, and only for a 3x3 conv at stride 1
    with padding 1 (ShapeError otherwise); it is None without them, as for
    the first layer, whose input is the image.
    """
    k = layer.weights.shape[0]
    u2 = upstream.reshape(k, -1)
    grad_w = (u2 @ cols.T).reshape(layer.weights.shape)
    grad_b = u2.sum(axis=1)
    grad_x = None
    if gxpad is not None:
        if (layer.stride, layer.padding) != (1, 1):
            raise ShapeError(f"input gradient of a conv at stride {layer.stride}, padding "
                             f"{layer.padding}: only stride 1 with padding 1 is supported")
        grad_x = col2im_batch(layer.weights, u2, gxpad, u2p)
    return grad_w, grad_b, grad_x
