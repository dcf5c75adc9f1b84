import numpy as np
import pytest

from expnet.errors import ShapeError
from expnet.rng import Rng
from expnet.tensor import col2im_batch, conv2d_fast, conv2d_naive, im2col_batch


def test_conv2d_identity_kernel():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    w = np.ones((1, 1, 1, 1), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    for conv in (conv2d_naive, conv2d_fast):
        assert np.allclose(conv(x, w, b, 1, 0), x)


def test_conv2d_diagonal_kernel():
    # direct evaluation of the convolution sum: 1*1 + 4*1 = 5
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    w = np.array([[[[1.0, 0.0], [0.0, 1.0]]]], dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    out = conv2d_naive(x, w, b, 1, 0)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(5.0)


def test_conv2d_zero_weights_give_bias():
    rng = Rng(3)
    x = rng.uniforms(2 * 5 * 5).reshape(2, 5, 5).astype(np.float32)
    w = np.zeros((3, 2, 3, 3), dtype=np.float32)
    b = np.array([0.5, -1.0, 2.0], dtype=np.float32)
    for conv in (conv2d_naive, conv2d_fast):
        out = conv(x, w, b, 1, 1)
        for k in range(3):
            assert np.allclose(out[k], b[k])


def test_conv2d_kernel_too_large():
    x = np.zeros((1, 2, 2), dtype=np.float32)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    for conv in (conv2d_naive, conv2d_fast):
        with pytest.raises(ShapeError):
            conv(x, w, b, 1, 0)


def test_im2col_full_window_single_column():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    cols = im2col_batch(x, 2, 2, 1, 0)
    assert cols.shape == (4, 1)
    assert np.array_equal(cols[:, 0], np.array([1, 2, 3, 4], dtype=np.float32))


def test_im2col_1x1_window_is_flatten():
    rng = Rng(4)
    x = rng.uniforms(3 * 2 * 4 * 5).reshape(3, 2, 4, 5).astype(np.float32)   # [C, B, H, W]
    cols = im2col_batch(x, 1, 1, 1, 0)
    assert cols.shape == (3, 40)
    # columns are batch-major: sample 0's 20 positions, then sample 1's
    assert np.array_equal(cols, x.reshape(3, 40))


def test_im2col_padding_corner_zeros():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    cols = im2col_batch(x, 2, 2, 1, 1)
    assert cols.shape == (4, 9)
    corner = cols[:, 0]   # receptive field of output (0, 0) over the padded image
    assert np.count_nonzero(corner == 0) == 3
    assert corner[3] == 1.0


def col2im_reference(cols, x_shape, m, n, stride, padding):
    """Adjoint of im2col_batch by explicit loops: fold [C*M*N, B*P] onto [C, B, H, W]."""
    c, b, h, w = x_shape
    h_out = (h + 2 * padding - m) // stride + 1
    w_out = (w + 2 * padding - n) // stride + 1
    g = cols.reshape(c, m, n, b, h_out, w_out)
    gx = np.zeros((c, b, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    for ci, mi, ni, bi, i, j in np.ndindex(g.shape):
        gx[ci, bi, i * stride + mi, j * stride + ni] += g[ci, mi, ni, bi, i, j]
    return gx[:, :, padding:padding + h, padding:padding + w]


def test_fused_col2im_matches_explicit_column_gradient():
    # col2im_batch folds weights^T @ u2 tap by tap; the reference builds the
    # [C*M*N, B*P] column gradient first and folds it with loops
    for seed, (c, b, h, w, k, m, stride, pad) in enumerate(
            [(3, 2, 6, 5, 4, 3, 1, 1), (2, 3, 7, 7, 5, 3, 2, 1), (4, 1, 5, 6, 3, 2, 1, 0)]):
        rng = Rng(50 + seed)
        x_shape = (c, b, h, w)
        weights = rng.uniforms(k * c * m * m, -1, 1).reshape(k, c, m, m).astype(np.float32)
        h_out = (h + 2 * pad - m) // stride + 1
        w_out = (w + 2 * pad - m) // stride + 1
        u2 = rng.uniforms(k * b * h_out * w_out, -1, 1).reshape(k, -1).astype(np.float32)
        fused = col2im_batch(weights, u2, x_shape, stride, pad)
        assert fused.shape == x_shape and fused.dtype == np.float32
        ref = col2im_reference(weights.reshape(k, -1).T @ u2, x_shape, m, m, stride, pad)
        assert np.max(np.abs(fused - ref)) < 1e-6
        # and it is the adjoint of im2col_batch: <im2col(x), G> == <x, col2im(G)>
        x = rng.uniforms(int(np.prod(x_shape)), -1, 1).reshape(x_shape)
        cols = im2col_batch(x, m, m, stride, pad)
        g = weights.reshape(k, -1).T.astype(np.float64) @ u2.astype(np.float64)
        lhs = float((cols * g).sum())
        rhs = float((x * col2im_batch(weights.astype(np.float64), u2.astype(np.float64),
                                      x_shape, stride, pad)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_conv_fast_matches_naive_randomized():
    # 100 seeds, 3-channel 8x8 inputs, four 3x3 filters
    for seed in range(100):
        rng = Rng(seed)
        x = rng.uniforms(3 * 8 * 8, -1, 1).reshape(3, 8, 8).astype(np.float32)
        w = rng.uniforms(4 * 3 * 3 * 3, -1, 1).reshape(4, 3, 3, 3).astype(np.float32)
        b = rng.uniforms(4, -1, 1).astype(np.float32)
        fast = conv2d_fast(x, w, b, 1, 1)
        naive = conv2d_naive(x, w, b, 1, 1)
        assert np.max(np.abs(fast - naive)) < 1e-5


def test_conv_fast_matches_naive_random_shapes():
    # randomized shapes, strides and paddings
    for seed in range(40):
        rng = Rng(1000 + seed)
        c = 1 + rng.randint(3)
        h = 3 + rng.randint(6)
        w_dim = 3 + rng.randint(6)
        k = 1 + rng.randint(4)
        m = 1 + rng.randint(3)
        n = 1 + rng.randint(3)
        stride = 1 + rng.randint(2)
        pad = rng.randint(2)
        x = rng.uniforms(c * h * w_dim, -1, 1).reshape(c, h, w_dim).astype(np.float32)
        wt = rng.uniforms(k * c * m * n, -1, 1).reshape(k, c, m, n).astype(np.float32)
        b = rng.uniforms(k, -1, 1).astype(np.float32)
        fast = conv2d_fast(x, wt, b, stride, pad)
        naive = conv2d_naive(x, wt, b, stride, pad)
        assert fast.shape == naive.shape
        assert np.max(np.abs(fast - naive)) < 1e-5
        assert np.all(np.isfinite(fast))
