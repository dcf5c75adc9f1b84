"""The two convolution data paths and the batched im2col/col2im lowering.

Tensors are plain numpy ``ndarray``s: row-major, channels-first ``[C, H, W]``
for images and feature maps (``[B, C, H, W]`` for a batch), 32-bit floats for
model data (the gradient-check harness re-runs everything in 64-bit, so all
math here preserves the input dtype).  Every function allocates its output; inputs are never mutated.

Two independent convolution routes are kept side by side on purpose:
``conv2d_naive`` evaluates the convolution sum directly with explicit loops
and serves as the oracle, while ``conv2d_fast`` lowers the same contract to
an im2col matrix multiply.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DTYPE = np.float32


def _conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _check_conv_args(input: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                     stride: int, padding: int) -> tuple[int, int]:
    if input.ndim != 3:
        raise ShapeError(f"conv input must be [C, H, W], got rank {input.ndim}")
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be [K, C, M, N], got rank {weights.ndim}")
    if bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
        raise ShapeError(f"bias shape {bias.shape} does not match K={weights.shape[0]}")
    if weights.shape[1] != input.shape[0]:
        raise ShapeError(
            f"input has {input.shape[0]} channels but weights expect {weights.shape[1]}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    _, h, w = input.shape
    _, _, m, n = weights.shape
    if h + 2 * padding < m or w + 2 * padding < n:
        raise ShapeError(
            f"kernel {m}x{n} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    return _conv_out_size(h, m, stride, padding), _conv_out_size(w, n, stride, padding)


def conv2d_naive(input: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                 stride: int = 1, padding: int = 0) -> np.ndarray:
    """Direct evaluation of the convolution sum; the oracle for conv2d_fast.

    z[k, i, j] = sum_{c,m,n} x[c, i*stride+m-padding, j*stride+n-padding]
                 * w[k, c, m, n] + b[k], out-of-bounds input read as 0.
    """
    h_out, w_out = _check_conv_args(input, weights, bias, stride, padding)
    k_count = weights.shape[0]
    xpad = np.pad(input, ((0, 0), (padding, padding), (padding, padding))).astype(np.float64)
    w64 = weights.astype(np.float64)
    _, _, m, n = weights.shape
    out = np.zeros((k_count, h_out, w_out), dtype=np.float64)
    for k in range(k_count):
        for i in range(h_out):
            for j in range(w_out):
                patch = xpad[:, i * stride:i * stride + m, j * stride:j * stride + n]
                out[k, i, j] = np.sum(patch * w64[k]) + float(bias[k])
    return out.astype(input.dtype)


def im2col_batch(x: np.ndarray, m: int, n: int, stride: int, padding: int) -> np.ndarray:
    """Unroll receptive fields of a batch [B, C, H, W] into [C*M*N, B*P].

    Row order is (c, m, n) row-major; column order is batch-major, then output
    position row-major, so weights.reshape(K, C*M*N) @ cols is the convolution.
    """
    b, c, h, w = x.shape
    h_out = _conv_out_size(h, m, stride, padding)
    w_out = _conv_out_size(w, n, stride, padding)
    xpad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c, m, n, b, h_out, w_out), dtype=x.dtype)
    for mi in range(m):
        for ni in range(n):
            view = xpad[:, :, mi:mi + (h_out - 1) * stride + 1:stride,
                        ni:ni + (w_out - 1) * stride + 1:stride]
            cols[:, mi, ni] = view.transpose(1, 0, 2, 3)
    return cols.reshape(c * m * n, b * h_out * w_out)


def col2im_batch(cols: np.ndarray, x_shape: tuple[int, int, int, int],
                 m: int, n: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of im2col_batch: fold column gradients back onto [B, C, H, W]."""
    b, c, h, w = x_shape
    h_out = _conv_out_size(h, m, stride, padding)
    w_out = _conv_out_size(w, n, stride, padding)
    g = cols.reshape(c, m, n, b, h_out, w_out)
    gxpad = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for mi in range(m):
        for ni in range(n):
            gxpad[:, :, mi:mi + (h_out - 1) * stride + 1:stride,
                  ni:ni + (w_out - 1) * stride + 1:stride] += g[:, mi, ni].transpose(1, 0, 2, 3)
    if padding:
        return gxpad[:, :, padding:h + padding, padding:w + padding]
    return gxpad


def conv2d_fast(input: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                stride: int = 1, padding: int = 0) -> np.ndarray:
    """im2col + GEMM convolution; same contract as conv2d_naive."""
    h_out, w_out = _check_conv_args(input, weights, bias, stride, padding)
    k = weights.shape[0]
    cols = im2col_batch(input[None], *weights.shape[2:], stride, padding)
    out = weights.reshape(k, -1) @ cols + bias[:, None].astype(input.dtype)
    return out.reshape(k, h_out, w_out)
