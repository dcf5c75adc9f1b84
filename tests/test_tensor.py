import numpy as np
import pytest

from expnet.errors import ShapeError
from expnet.layers import ConvLayer, conv_forward_batch
from expnet.rng import Rng
from expnet.tensor import col2im_batch, conv2d_naive, im2col_batch


def conv2d_batch(x, w, b, stride=1, padding=0):
    """conv_forward_batch, the model's convolution, on one [C, H, W] map."""
    out, _ = conv_forward_batch(ConvLayer(w, b, stride, padding), x[:, None])
    return out[:, 0]


def test_conv2d_identity_kernel():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    w = np.ones((1, 1, 1, 1), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    for conv in (conv2d_naive, conv2d_batch):
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
    for conv in (conv2d_naive, conv2d_batch):
        out = conv(x, w, b, 1, 1)
        for k in range(3):
            assert np.allclose(out[k], b[k])


def test_conv2d_kernel_too_large():
    x = np.zeros((1, 2, 2), dtype=np.float32)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    for conv in (conv2d_naive, conv2d_batch):
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


def col2im_reference(cols, x_shape):
    """Adjoint of im2col_batch at 3x3/s1/p1 by explicit loops: [C*9, B*H*W] onto [C, B, H, W]."""
    c, b, h, w = x_shape
    g = cols.reshape(c, 3, 3, b, h, w)
    gx = np.zeros((c, b, h + 2, w + 2), dtype=np.float64)
    for ci, mi, ni, bi, i, j in np.ndindex(g.shape):
        gx[ci, bi, i + mi, j + ni] += g[ci, mi, ni, bi, i, j]
    return gx[:, :, 1:h + 1, 1:w + 1]


def shifted_fold_reference(weights, u2, x_shape):
    """Tap-by-tap fold of weights^T @ u2 through shifted windows of a zeroed gxpad."""
    c, b, h, w = x_shape
    gxpad = np.zeros((c, b, h + 2, w + 2), dtype=u2.dtype)
    for mi in range(3):
        for ni in range(3):
            tap = weights[:, :, mi, ni].T @ u2
            gxpad[:, :, mi:mi + h, ni:ni + w] += tap.reshape(c, b, h, w)
    return gxpad[:, :, 1:h + 1, 1:w + 1]


def fold(weights, u2, x_shape, chunk, fill=(np.nan, 1e30)):
    """col2im_batch with scratch arrays pre-filled with garbage; checks it returns a gxpad view."""
    c, b, h, w = x_shape
    gxpad = np.full((c, b, h + 2, w + 2), fill[0], dtype=u2.dtype)
    u2p = np.full((weights.shape[0], chunk, h + 2, w + 2), fill[1], dtype=u2.dtype)
    out = col2im_batch(weights, u2, gxpad, u2p)
    assert out.shape == x_shape and np.shares_memory(out, gxpad)
    return out


def random_fold_case(rng, x_shape, k):
    c, b, h, w = x_shape
    weights = rng.uniforms(k * c * 9, -1, 1).reshape(k, c, 3, 3).astype(np.float32)
    u2 = rng.uniforms(k * b * h * w, -1, 1).reshape(k, -1).astype(np.float32)
    return weights, u2


def assert_fold_is_im2col_adjoint(rng, weights, u2, x_shape):
    # <im2col(x), G> == <x, col2im(G)> in float64
    x = rng.uniforms(int(np.prod(x_shape)), -1, 1).reshape(x_shape)
    w64, u64 = weights.astype(np.float64), u2.astype(np.float64)
    lhs = float((im2col_batch(x, 3, 3, 1, 1) * (w64.reshape(len(w64), -1).T @ u64)).sum())
    rhs = float((x * fold(w64, u64, x_shape, 2)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_fused_col2im_matches_explicit_column_gradient():
    # col2im_batch folds weights^T @ u2 tap by tap on the padded grid, in
    # slices of u2p.shape[1] samples, into scratch arrays that start out full
    # of garbage; on these shapes it gives the shifted fold's bits, and the
    # reference that builds the [C*9, B*H*W] column gradient first and folds
    # it with loops agrees within rounding
    cases = [(3, 2, 6, 5, 4), (2, 3, 7, 7, 5), (4, 1, 5, 6, 3), (3, 5, 6, 7, 4),
             (2, 4, 1, 1, 3), (4, 7, 8, 6, 5)]
    for seed, (c, b, h, w, k) in enumerate(cases):
        rng = Rng(50 + seed)
        x_shape = (c, b, h, w)
        weights, u2 = random_fold_case(rng, x_shape, k)
        u2[:, ::3] = 0.0
        u2[:, 1::5] = -0.0                     # signed zeros, as the pool backward routes them
        shifted = shifted_fold_reference(weights, u2, x_shape)
        for chunk in (1, 2, b):
            fused = fold(weights, u2, x_shape, chunk)
            assert np.array_equal(fused.view(np.uint32), shifted.view(np.uint32))
        ref = col2im_reference(weights.reshape(k, -1).T @ u2, x_shape)
        assert np.max(np.abs(fused - ref)) < 1e-6
        assert_fold_is_im2col_adjoint(rng, weights, u2, x_shape)


def test_fold_random_shapes_match_loop_reference():
    # a seeded sweep of channels, filters, batches, map sizes from 1x1 and
    # slice sizes 1, 2 and B; the kernel-row GEMM can sum a dot product
    # unlike the per-tap GEMM of a shifted fold, so this holds the fold to
    # the loop reference within rounding and to the adjoint identity
    for seed in range(100):
        rng = Rng(3000 + seed)
        c, b, k = 1 + rng.randint(3), 1 + rng.randint(4), 1 + rng.randint(4)
        x_shape = (c, b, 1 + rng.randint(6), 1 + rng.randint(6))
        weights, u2 = random_fold_case(rng, x_shape, k)
        ref = col2im_reference(weights.reshape(k, -1).T @ u2, x_shape)
        for chunk in {1, 2, b}:
            fused = fold(weights, u2, x_shape, chunk)
            assert np.max(np.abs(fused - ref)) < 1e-6, (seed, x_shape, k, chunk)
        assert_fold_is_im2col_adjoint(rng, weights, u2, x_shape)


def test_fold_rejects_other_conv_shapes():
    rng = Rng(60)
    x_shape = (2, 3, 4, 5)
    weights, u2 = random_fold_case(rng, x_shape, 4)
    gxpad = np.empty((2, 3, 6, 7), dtype=np.float32)
    u2p = np.empty((4, 2, 6, 7), dtype=np.float32)
    with pytest.raises(ShapeError, match="col2im"):
        col2im_batch(weights[:, :, 1:2, 1:2], u2, gxpad, u2p)     # a [K, C, 1, 1] kernel
    with pytest.raises(ShapeError, match="col2im"):
        col2im_batch(weights, u2[:, :-1], gxpad, u2p)             # u2 one column short
    with pytest.raises(ShapeError, match="col2im"):                # a grid too small for a map
        col2im_batch(weights, u2[:, :3], gxpad[:, :, :1, :1], u2p[:, :, :1, :1])
    with pytest.raises(ShapeError, match="col2im u2p"):
        col2im_batch(weights, u2, gxpad, u2p[:, :, :-1])
    assert np.array_equal(fold(weights, u2, x_shape, 2),
                          shifted_fold_reference(weights, u2, x_shape))


def test_conv_fast_matches_naive_randomized():
    # 100 seeds, 3-channel 8x8 inputs, four 3x3 filters
    for seed in range(100):
        rng = Rng(seed)
        x = rng.uniforms(3 * 8 * 8, -1, 1).reshape(3, 8, 8).astype(np.float32)
        w = rng.uniforms(4 * 3 * 3 * 3, -1, 1).reshape(4, 3, 3, 3).astype(np.float32)
        b = rng.uniforms(4, -1, 1).astype(np.float32)
        fast = conv2d_batch(x, w, b, 1, 1)
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
        fast = conv2d_batch(x, wt, b, stride, pad)
        naive = conv2d_naive(x, wt, b, stride, pad)
        assert fast.shape == naive.shape
        assert np.max(np.abs(fast - naive)) < 1e-5
        assert np.all(np.isfinite(fast))


def test_im2col_fills_a_given_array_in_place():
    # border strips are zeroed, not left from the previous user, and the
    # columns can be a batch slice of a larger buffer
    for seed, (c, b, h, w, m, n, stride, pad) in enumerate(
            [(2, 3, 5, 6, 3, 3, 1, 0), (2, 3, 5, 6, 3, 3, 1, 1), (1, 2, 4, 4, 3, 2, 1, 2),
             (3, 2, 7, 6, 3, 3, 2, 1), (1, 1, 2, 2, 1, 1, 1, 2)]):
        x = Rng(90 + seed).uniforms(c * b * h * w, -1, 1).reshape(c, b, h, w).astype(np.float32)
        fresh = im2col_batch(x, m, n, stride, pad)
        h_out = (h + 2 * pad - m) // stride + 1
        w_out = (w + 2 * pad - n) // stride + 1
        out = np.full((c, m, n, b, h_out, w_out), np.nan, dtype=np.float32)
        cols = im2col_batch(x, m, n, stride, pad, out=out)
        assert np.array_equal(cols, fresh) and np.shares_memory(cols, out)
        wide = np.full((c, m, n, b + 3, h_out, w_out), 7.0, dtype=np.float32)
        cols = im2col_batch(x, m, n, stride, pad, out=wide[:, :, :, 2:2 + b])
        assert np.array_equal(cols, fresh) and np.shares_memory(cols, wide)
        assert np.all(wide[:, :, :, :2] == 7.0) and np.all(wide[:, :, :, 2 + b:] == 7.0)
    with pytest.raises(ShapeError, match="im2col out"):
        im2col_batch(x, 1, 1, 1, 0, out=np.empty((1, 1, 1, 1, 2, 3), dtype=np.float32))
