"""The convolution oracle and the batched im2col/col2im lowering the model runs.

Tensors are plain numpy ``ndarray``s: row-major, channels-first ``[C, H, W]``
for a single image or feature map and channel-major ``[C, B, H, W]`` for a
batch, 32-bit floats for model data (the gradient-check harness re-runs
everything in 64-bit, so all math here preserves the input dtype).  Inputs
are never mutated.  ``im2col_batch`` allocates its result unless the caller
hands it an ``out`` array to fill; ``col2im_batch`` always takes its scratch
arrays (``gxpad``, ``u2p``) from the caller.  A returned array may be a view
of such an array, whose earlier contents are overwritten.

``im2col_batch`` takes any kernel, stride and padding, so the batched
forward can be checked against ``conv2d_naive`` at any of them;
``col2im_batch`` folds only the model's 3x3 stride-1 pad-1 conv.

``conv2d_naive`` evaluates the convolution sum directly with explicit loops
and is the oracle for ``layers.conv_forward_batch``, the im2col + GEMM
convolution the model runs.
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
    """Direct evaluation of the convolution sum; the oracle for conv_forward_batch.

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


def _check_scratch(name: str, arr: np.ndarray, shape: tuple, dtype) -> None:
    if arr.shape != shape or arr.dtype != dtype:
        raise ShapeError(f"{name}: expected {shape} {np.dtype(dtype)}, "
                         f"got {arr.shape} {arr.dtype}")


def _tap_range(k: int, size: int, out_size: int, stride: int, padding: int) -> tuple[int, int]:
    """Outputs [lo, hi) whose kernel tap k reads inside the unpadded input."""
    lo = min(out_size, max(0, -((k - padding) // stride)))
    hi = min(out_size, (size - 1 + padding - k) // stride + 1)
    return lo, max(lo, hi)


def im2col_batch(x: np.ndarray, m: int, n: int, stride: int, padding: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Unroll receptive fields of a channel-major batch [C, B, H, W] into [C*M*N, B*P].

    Row order is (c, m, n) row-major; column order is batch-major, then output
    position row-major, so weights.reshape(K, C*M*N) @ cols is the convolution,
    already channel-major as [K, B, H', W'].  Each tap is copied straight from
    x and only the strips that fall on the zero padding are zeroed, so no
    padded copy of x is made.  ``out`` is an optional [C, M, N, B, H', W']
    array to fill instead of a new one (a batch slice of a larger buffer
    works); the result is then a view of it.
    """
    c, b, h, w = x.shape
    h_out = _conv_out_size(h, m, stride, padding)
    w_out = _conv_out_size(w, n, stride, padding)
    shape = (c, m, n, b, h_out, w_out)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    _check_scratch("im2col out", out, shape, x.dtype)
    for mi in range(m):
        i0, i1 = _tap_range(mi, h, h_out, stride, padding)
        for ni in range(n):
            j0, j1 = _tap_range(ni, w, w_out, stride, padding)
            tap = out[:, mi, ni]
            tap[..., :i0, :] = 0
            tap[..., i1:, :] = 0
            tap[..., i0:i1, :j0] = 0
            tap[..., i0:i1, j1:] = 0
            if i1 > i0 and j1 > j0:
                r0 = i0 * stride + mi - padding
                s0 = j0 * stride + ni - padding
                tap[..., i0:i1, j0:j1] = x[:, :, r0:r0 + (i1 - i0 - 1) * stride + 1:stride,
                                           s0:s0 + (j1 - j0 - 1) * stride + 1:stride]
    return out.reshape(c * m * n, b * h_out * w_out)


def col2im_batch(weights: np.ndarray, u2: np.ndarray, gxpad: np.ndarray,
                 u2p: np.ndarray) -> np.ndarray:
    """Input gradient [C, B, H, W] of the model's 3x3 stride-1 pad-1 conv: col2im(w^T @ u2).

    ``u2`` is the output gradient as [K, B*H*W]; ``gxpad`` [C, B, H+2, W+2]
    gives C, B, H and W.  Each kernel tap (m, n), in row-major order, adds
    weights[:, :, m, n]^T @ u2 to its shifted window of the padded gradient
    gxpad, so the [C*9, B*H*W] column gradient is never materialised.

    The fold runs ``u2p.shape[1]`` samples at a time.  It lays each slice of
    u2 at the top left of the (H+2)x(W+2) grid ``u2p`` [K, S, H+2, W+2], whose
    last two rows and columns stay zero, so that a tap's window is one
    contiguous shifted 1-D range of the flattened gxpad, and one GEMM
    computes the three taps of a kernel row.  Every element receives the same
    products in the same tap order as a fold through shifted windows of
    gxpad, plus zeros from the grid's border, which never change a partial
    sum: it starts at +0 and so is never -0.  The result therefore has that
    fold's bits wherever the kernel-row GEMM sums each dot product over K as
    the per-tap GEMM would, as it does for the model's shapes, and agrees
    with it within rounding in general.  Both scratch arrays are overwritten;
    the result is a view of gxpad.  Raises ShapeError unless weights is
    [K, C, 3, 3] and every array fits.
    """
    c, b, hp, wp = gxpad.shape
    h, w = hp - 2, wp - 2
    k = weights.shape[0]
    if min(h, w) < 1 or weights.shape != (k, c, 3, 3) or u2.shape != (k, b * h * w):
        raise ShapeError(f"col2im: weights {weights.shape} and u2 {u2.shape} do not fit a "
                         f"3x3 stride-1 pad-1 conv onto gxpad {gxpad.shape}")
    _check_scratch("col2im gxpad", gxpad, (c, b, hp, wp), np.result_type(weights, u2))
    chunk = u2p.shape[1]
    _check_scratch("col2im u2p", u2p, (k, chunk, hp, wp), u2.dtype)
    u2p[:, :, h:] = 0
    u2p[:, :, :h, w:] = 0
    grid = u2.reshape(k, b, h, w)
    flat = gxpad.reshape(c, b * hp * wp)
    w_rows = weights.transpose(2, 3, 1, 0).reshape(3, 3 * c, k)   # one GEMM per kernel row
    for lo in range(0, b, chunk):
        rows = min(chunk, b - lo)
        u2p[:, :rows, :h, :w] = grid[:, lo:lo + rows]
        src = u2p[:, :rows].reshape(k, -1)
        size = rows * hp * wp
        part = flat[:, lo * hp * wp:lo * hp * wp + size]
        part[...] = 0
        for mi in range(3):
            taps = (w_rows[mi] @ src).reshape(3, c, size)
            for ni in range(3):
                shift = mi * wp + ni
                part[:, shift:] += taps[ni, :, :size - shift]
    return gxpad[:, :, 1:h + 1, 1:w + 1]
