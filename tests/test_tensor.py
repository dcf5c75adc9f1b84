import numpy as np
import pytest

from expnet.errors import ShapeError
from expnet.rng import Rng
from expnet.tensor import conv2d_fast, conv2d_naive, im2col_batch


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
    x = rng.uniforms(2 * 3 * 4 * 5).reshape(2, 3, 4, 5).astype(np.float32)
    cols = im2col_batch(x, 1, 1, 1, 0)
    assert cols.shape == (3, 40)
    # columns are batch-major: sample 0's 20 positions, then sample 1's
    assert np.array_equal(cols, x.transpose(1, 0, 2, 3).reshape(3, 40))


def test_im2col_padding_corner_zeros():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    cols = im2col_batch(x, 2, 2, 1, 1)
    assert cols.shape == (4, 9)
    corner = cols[:, 0]   # receptive field of output (0, 0) over the padded image
    assert np.count_nonzero(corner == 0) == 3
    assert corner[3] == 1.0


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
