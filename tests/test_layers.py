import numpy as np
import pytest

from expnet.errors import ShapeError
from expnet.layers import (DEAD, ConvLayer, DenseLayer, _pool_backward_offsets_batch,
                           _pool_offsets_batch, conv_backward_batch, conv_forward_batch,
                           dense_backward_batch, dense_forward_batch, relu_forward)
from expnet.model import TINY_ARCH, MultiOutputModel
from expnet.rng import Rng


def central_diff(f, x, eps=1e-6):
    """Elementwise central differences of scalar f at x, in float64."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = f(x)
        flat[i] = saved - eps
        down = f(x)
        flat[i] = saved
        gflat[i] = (up - down) / (2 * eps)
    return grad


def test_relu_forward_signs():
    x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    assert np.array_equal(relu_forward(x), np.array([0, 0, 2], dtype=np.float32))
    neg = -np.ones((3, 3), dtype=np.float32)
    assert not relu_forward(neg).any()
    pos = np.abs(Rng(0).uniforms(10)).astype(np.float32)
    assert np.array_equal(relu_forward(pos), pos)


def test_relu_backward_mask():
    # backward_batch passes gradient only through live routes and hidden > 0: a
    # dead hidden layer passes none into the trunk, only into the heads' biases
    m = MultiOutputModel.init(TINY_ARCH, 3)
    m.dense.bias[:] = -1e3
    img = Rng(3).uniforms(16 * 16).reshape(1, 1, 16, 16).astype(np.float32)
    _, _, trace = m.forward_batch(img)
    assert not trace.hidden.any()
    for route in trace.routes:
        live = route != DEAD
        assert route.dtype == np.uint8 and live.any() and not live.all()
    grads = m.backward_batch(trace, np.ones((1, 8), dtype=np.float32),
                             np.ones((1, 10), dtype=np.float32))
    for (name, _), g in zip(m.parameters(), grads):
        assert g.any() == (name in ("base_head.bias", "exp_head.bias")), name


def test_relu_backward_matches_finite_difference():
    # the hidden mask backward_batch applies is the derivative of relu_forward off the kink
    x = Rng(3).uniforms(20, -1, 1)
    x = x[np.abs(x) > 1e-3]
    num = central_diff(lambda v: float(relu_forward(v).sum()), x)
    assert np.array_equal(num != 0, x > 0)
    assert np.allclose(num, x > 0, rtol=1e-4)


def pool(x):
    """The model's pool call: relu-pooled values and the routes the pool writes.

    The routes start as a value no route takes, so each one is seen written.
    """
    c, b, h2, w2 = ((x.shape[0], *x.shape[2:]) if x.ndim == 5
                    else (*x.shape[:2], x.shape[2] // 2, x.shape[3] // 2))
    routes = np.full((c, b, h2, w2), 0xAB, dtype=np.uint8)
    return _pool_offsets_batch(x, routes), routes


def test_maxpool_single_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    out, routes = pool(x)
    assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 4.0
    assert routes[0, 0, 0, 0] == 3    # cell (1, 1) of the window
    out, routes = pool(-x)
    assert out[0, 0, 0, 0] == 0 and routes[0, 0, 0, 0] == DEAD    # the ReLU zeroes -1


def test_maxpool_tie_break_first_cell():
    # an even map and an odd one, whose trailing row and column no window covers
    for shape in ((1, 2, 6, 6), (1, 2, 5, 7)):
        x = np.full(shape, 2.5, dtype=np.float32)
        out, routes = pool(x)
        ref_out, ref_off = pool_reference(x)
        assert np.array_equal(out, ref_out) and np.all(out == 2.5)
        assert routes.tobytes() == ref_off.tobytes()
        assert not routes.any()       # every window picks its top-left cell


def test_maxpool_ramp():
    x = (np.arange(16, dtype=np.float32) + 1).reshape(1, 1, 4, 4)
    out, routes = pool(x)
    assert np.array_equal(out[0, 0], np.array([[6, 8], [14, 16]], dtype=np.float32))
    assert np.all(routes == 3)
    x = (np.arange(35, dtype=np.float32) + 1).reshape(1, 1, 5, 7)
    out, routes = pool(x)                     # floor pooling: rows 0-3, columns 0-5
    assert np.array_equal(out[0, 0], np.array([[9, 11, 13], [23, 25, 27]], dtype=np.float32))
    assert np.all(routes == 3)
    assert np.array_equal(out, pool_reference(x)[0])


def test_maxpool_window_too_large():
    for shape in ((1, 1, 1, 1), (1, 1, 1, 4), (1, 1, 4, 1)):
        with pytest.raises(ShapeError):
            pool(np.zeros(shape, dtype=np.float32))


def test_maxpool_backward_routing():
    up = np.array([[[[1.0]]]], dtype=np.float32)
    off = np.array([[[[3]]]], dtype=np.uint8)
    grad = _pool_backward_offsets_batch(up, off, (1, 1, 2, 2))
    assert np.array_equal(grad, np.array([[[[0, 0], [0, 1]]]], dtype=np.float32))
    zero = _pool_backward_offsets_batch(np.zeros_like(up), off, (1, 1, 2, 2))
    assert not zero.any()
    dead = _pool_backward_offsets_batch(up, np.full_like(off, DEAD), (1, 1, 2, 2))
    assert not dead.any()              # a DEAD route matches no cell


def pool_fd_case(seed, shape):
    """(numeric, analytic) input gradients of sum(relu(maxpool(x)) * up)."""
    rng = Rng(seed)
    x = rng.uniforms(int(np.prod(shape)), -1, 1).reshape(1, *shape)
    x[0, 0, :2, :2] -= 2                        # one window the ReLU zeroes
    out, routes = pool(x)
    assert (routes == DEAD).any() and (routes != DEAD).any()
    up = rng.uniforms(out.size, -1, 1).reshape(out.shape)

    def f(v):
        return float((_pool_offsets_batch(v) * up).sum())

    num = central_diff(f, x)
    ana = _pool_backward_offsets_batch(up, routes, x.shape)
    return num, ana


def test_maxpool_backward_matches_finite_difference():
    for shape in ((2, 6, 6), (1, 5, 7)):
        num, ana = pool_fd_case(8, shape)
        assert np.allclose(num, ana, rtol=1e-4, atol=1e-9)


def test_dense_forward_cases():
    ident = DenseLayer(np.eye(3, dtype=np.float32), np.zeros(3, dtype=np.float32))
    x = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    assert np.array_equal(dense_forward_batch(ident, x[None])[0], x)

    layer = DenseLayer(np.array([[1.0, 2.0]], dtype=np.float32),
                       np.array([3.0], dtype=np.float32))
    out = dense_forward_batch(layer, np.array([[4.0, 5.0]], dtype=np.float32))
    assert out.shape == (1, 1) and out[0, 0] == pytest.approx(17.0)    # 1*4 + 2*5 + 3

    zero = DenseLayer(np.zeros((2, 3), dtype=np.float32),
                      np.array([7.0, -1.0], dtype=np.float32))
    assert np.array_equal(dense_forward_batch(zero, np.ones((1, 3), dtype=np.float32))[0],
                          zero.bias)
    with pytest.raises(ShapeError):
        dense_forward_batch(layer, np.ones((1, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        dense_forward_batch(layer, np.ones(2, dtype=np.float32))


def test_dense_backward_formulas():
    layer = DenseLayer(np.zeros((1, 2), dtype=np.float32), np.zeros(1, dtype=np.float32))
    x = np.array([[2.0, 3.0]], dtype=np.float32)
    gw, gb, gx = dense_backward_batch(layer, np.array([[1.0]], dtype=np.float32), x)
    assert np.array_equal(gw, np.array([[2.0, 3.0]], dtype=np.float32))
    assert np.array_equal(gb, np.array([1.0], dtype=np.float32))
    assert np.array_equal(gx, np.array([[0.0, 0.0]], dtype=np.float32))

    gw, gb, gx = dense_backward_batch(layer, np.zeros((1, 1), dtype=np.float32), x)
    assert not gw.any() and not gb.any() and not gx.any()


def test_dense_backward_matches_finite_difference():
    rng = Rng(10)
    w = rng.uniforms(3 * 4, -1, 1).reshape(3, 4)
    b = rng.uniforms(3, -1, 1)
    x = rng.uniforms(2 * 4, -1, 1).reshape(2, 4)
    up = rng.uniforms(2 * 3, -1, 1).reshape(2, 3)

    def loss(wv, bv, xv):
        return float((dense_forward_batch(DenseLayer(wv, bv), xv) * up).sum())

    gw, gb, gx = dense_backward_batch(DenseLayer(w, b), up, x)
    num_w = central_diff(lambda v: loss(v, b, x), w)
    num_b = central_diff(lambda v: loss(w, v, x), b)
    num_x = central_diff(lambda v: loss(w, b, v), x)
    assert np.allclose(gw, num_w, rtol=1e-4, atol=1e-9)
    assert np.allclose(gb, num_b, rtol=1e-4, atol=1e-9)
    assert np.allclose(gx, num_x, rtol=1e-4, atol=1e-9)


def fold_scratch(layer, x):
    """Fresh col2im_batch scratch (gxpad, u2p) for the input gradient of layer at x."""
    c, b, h, w = x.shape
    k = layer.weights.shape[0]
    return (np.empty((c, b, h + 2, w + 2), dtype=x.dtype),
            np.empty((k, b, h + 2, w + 2), dtype=x.dtype))


def conv_grads(layer, x, up):
    """conv_backward_batch, input gradient included, on conv_forward_batch(layer, x)'s columns."""
    _, cols = conv_forward_batch(layer, x)
    return conv_backward_batch(layer, up, cols, *fold_scratch(layer, x))


def test_conv_backward_identity_kernel_adjoint():
    # a 3x3 kernel whose only nonzero weight is the centre tap scales x
    rng = Rng(11)
    x = rng.uniforms(1 * 3 * 3, -1, 1).reshape(1, 1, 3, 3).astype(np.float32)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 0.7
    layer = ConvLayer(w, np.zeros(1, dtype=np.float32), 1, 1)
    up = np.ones((1, 1, 3, 3), dtype=np.float32)
    gw, gb, gx = conv_grads(layer, x, up)
    assert gw[0, 0, 1, 1] == pytest.approx(float(x.sum()), rel=1e-6)
    assert gb[0] == pytest.approx(9.0)
    assert np.allclose(gx, 0.7)

    gw, gb, gx = conv_grads(layer, x, np.zeros_like(up))
    assert not gw.any() and not gb.any() and not gx.any()


def test_conv_backward_matches_finite_difference():
    rng = Rng(12)
    x = rng.uniforms(2 * 6 * 6, -1, 1).reshape(2, 1, 6, 6)        # [C, B, H, W]
    w = rng.uniforms(3 * 2 * 3 * 3, -1, 1).reshape(3, 2, 3, 3)
    b = rng.uniforms(3, -1, 1)
    up = rng.uniforms(3 * 6 * 6, -1, 1).reshape(3, 6, 6)

    def loss(wv, bv, xv):
        return float((conv_forward_batch(ConvLayer(wv, bv, 1, 1), xv)[0][:, 0] * up).sum())

    gw, gb, gx = conv_grads(ConvLayer(w, b, 1, 1), x, up[:, None])
    assert gx.shape == x.shape
    num_w = central_diff(lambda v: loss(v, b, x), w)
    num_b = central_diff(lambda v: loss(w, v, x), b)
    num_x = central_diff(lambda v: loss(w, b, v), x)
    assert np.allclose(gw, num_w, rtol=1e-4, atol=1e-8)
    assert np.allclose(gb, num_b, rtol=1e-4, atol=1e-8)
    assert np.allclose(gx, num_x, rtol=1e-4, atol=1e-8)


def test_batched_conv_matches_per_sample():
    rng = Rng(13)
    xs = rng.uniforms(2 * 4 * 5 * 5, -1, 1).reshape(2, 4, 5, 5).astype(np.float32)
    w = rng.uniforms(3 * 2 * 3 * 3, -1, 1).reshape(3, 2, 3, 3).astype(np.float32)
    b = rng.uniforms(3, -1, 1).astype(np.float32)
    layer = ConvLayer(w, b, 1, 1)
    out, _ = conv_forward_batch(layer, xs)          # channel-major: sample i is [:, i]
    assert out.shape == (3, 4, 5, 5)
    for i in range(4):
        single, _ = conv_forward_batch(layer, xs[:, i:i + 1])
        assert np.allclose(out[:, i], single[:, 0], atol=1e-6)
    up = rng.uniforms(out.size, -1, 1).reshape(out.shape).astype(np.float32)
    gw, gb, gx = conv_grads(layer, xs, up)
    gw_sum = np.zeros_like(gw)
    gb_sum = np.zeros_like(gb)
    for i in range(4):
        gwi, gbi, gxi = conv_grads(layer, xs[:, i:i + 1], up[:, i:i + 1])
        gw_sum += gwi
        gb_sum += gbi
        assert np.allclose(gx[:, i], gxi[:, 0], atol=1e-5)
    assert np.allclose(gw, gw_sum, atol=1e-4)
    assert np.allclose(gb, gb_sum, atol=1e-5)


def test_conv_backward_without_input_grad():
    # the first conv skips its input gradient; the parameter gradients are unchanged
    rng = Rng(14)
    x = rng.uniforms(2 * 3 * 7 * 7, -1, 1).reshape(2, 3, 7, 7).astype(np.float32)
    layer = ConvLayer(rng.uniforms(4 * 2 * 3 * 3, -1, 1).reshape(4, 2, 3, 3).astype(np.float32),
                      rng.uniforms(4, -1, 1).astype(np.float32), 1, 1)
    out, cols = conv_forward_batch(layer, x)
    up = rng.uniforms(out.size, -1, 1).reshape(out.shape).astype(np.float32)
    gw, gb, gx = conv_backward_batch(layer, up, cols, *fold_scratch(layer, x))
    gw0, gb0, gx0 = conv_backward_batch(layer, up, cols)
    assert gx0 is None and gx.shape == x.shape
    assert gw0.tobytes() == gw.tobytes() and gb0.tobytes() == gb.tobytes()


def test_conv_backward_refuses_input_grad_off_the_model_shape():
    # a 3x3 conv at stride 2, padding 3 also keeps a 4x4 map's H and W, so the
    # fold's shape check alone would pass it; its weight gradient is still given
    rng = Rng(15)
    x = rng.uniforms(2 * 1 * 4 * 4, -1, 1).reshape(2, 1, 4, 4).astype(np.float32)
    layer = ConvLayer(rng.uniforms(3 * 2 * 9, -1, 1).reshape(3, 2, 3, 3).astype(np.float32),
                      np.zeros(3, dtype=np.float32), stride=2, padding=3)
    out, cols = conv_forward_batch(layer, x)
    assert out.shape == (3, 1, 4, 4)
    with pytest.raises(ShapeError, match="stride 2, padding 3"):
        conv_backward_batch(layer, out, cols, *fold_scratch(layer, x))
    gw, gb, gx = conv_backward_batch(layer, out, cols)
    assert gw.shape == layer.weights.shape and gx is None


# --- The pool's ReLU and routes against loop oracles ---

def pool_reference(x):
    """Loop oracle of 2x2 stride-2 max pooling: values and first-maximum offsets."""
    h_out, w_out = x.shape[-2] // 2, x.shape[-1] // 2
    out = np.zeros((*x.shape[:-2], h_out, w_out), dtype=x.dtype)
    off = np.zeros(out.shape, dtype=np.uint8)
    for idx in np.ndindex(*x.shape[:-2], h_out, w_out):
        *lead, i, j = idx
        win = x[(*lead, slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2))].reshape(-1)
        off[idx] = int(np.argmax(win))
        out[idx] = win[off[idx]]
    return out, off


def window_major(x):
    """A channel-major [C, B, H, W] map as window-major [C, 4, B, H/2, W/2], odd edge dropped."""
    c, b, h, w = x.shape
    hc, wc = h // 2, w // 2
    grid = x[..., :2 * hc, :2 * wc].reshape(c, b, hc, 2, wc, 2)
    return grid.transpose(0, 3, 5, 1, 2, 4).reshape(c, 4, b, hc, wc)


def test_pool_2x2_fast_path_matches_loop_reference():
    # all 81 windows over the values {-1, 0, 1}: all-equal windows, pairwise ties
    # within and across rows, and ties at zero; then multi-window random maps,
    # one of them odd-sized; the window-major layout pools to the same bytes
    ties = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 4, indexing="ij"), dtype=np.float32)
    ties = ties.reshape(4, 3, 27).transpose(1, 2, 0).reshape(3, 27, 2, 2)
    rand = Rng(25).uniforms(2 * 3 * 8 * 6, -1, 1).reshape(2, 3, 8, 6).astype(np.float32)
    odd = Rng(26).uniforms(2 * 3 * 7 * 5, -1, 1).reshape(2, 3, 7, 5).astype(np.float32)
    for x in (rand, odd, ties):
        out, routes = pool(x)
        ref_out, ref_off = relu_then_pool_reference(x)
        # by number: np.maximum and argmax may keep different zeros of a -0/+0 tie
        assert np.array_equal(out, ref_out)
        if x is not odd:
            assert out.tobytes() == ref_out.tobytes()
        # max commutes with the ReLU, and a live window's first maximum is the
        # same cell in x and in relu(x): the oracle's cell where out > 0
        assert np.array_equal(out, pool_reference(x)[0].clip(0))
        assert routes.tobytes() == np.where(out > 0, ref_off, DEAD).tobytes()
        out_wm, routes_wm = pool(window_major(x))
        assert out_wm.tobytes() == out.tobytes() and routes_wm.tobytes() == routes.tobytes()
    # ties pick the first cell; the 16 windows over {-1, 0} alone are DEAD
    assert np.array_equal(np.bincount(routes.ravel()), [27, 18, 12, 8, 16])


def relu_then_pool_reference(x):
    """Loop oracle of the textbook stage order: pooled relu(x) and first-argmax offsets."""
    return pool_reference(np.maximum(x, 0))


def relu_then_pool_backward_reference(x, up):
    """Route up to the reference offsets, then apply the full-resolution ReLU mask."""
    _, off = relu_then_pool_reference(x)
    grad = np.zeros_like(x)
    for tap in range(4):
        m, n = divmod(tap, 2)
        for idx in zip(*np.nonzero(off == tap)):
            *lead, i, j = idx
            grad[(*lead, 2 * i + m, 2 * j + n)] = up[idx]
    return grad * (x > 0)


def pool_then_relu_case(seed, shape):
    """Random map with an all-negative window, a tie window and a window tied at 0."""
    x = Rng(seed).uniforms(int(np.prod(shape)), -1, 1).reshape(shape).astype(np.float32)
    x[0, 0, :2, :2] = -0.5                      # all-negative (dead) window
    x[0, 1, :2, :2] = 0.25                      # every cell tied
    x[1, 2, 2:4, 2:4] = [[-0.3, 0.0], [0.0, -0.1]]   # dead, tied at 0
    return x


def test_relu_after_pool_matches_relu_then_pool():
    for shape in ((2, 3, 6, 6), (2, 3, 5, 7)):
        x = pool_then_relu_case(20, shape)
        out, routes = pool(x)
        ref_out, ref_off = relu_then_pool_reference(x)
        assert out.tobytes() == ref_out.tobytes()
        live = out > 0
        assert np.array_equal(routes[live], ref_off[live])
        assert (routes[~live] == DEAD).all()
        assert (routes[0, 0, 0, 0], routes[0, 1, 0, 0], routes[1, 2, 1, 1]) == (DEAD, 0, DEAD)
        assert not live.all() and live.any()
        assert _pool_offsets_batch(x).tobytes() == out.tobytes()    # no routes asked


def test_relu_after_pool_backward_matches_relu_then_pool():
    for shape in ((2, 3, 6, 6), (2, 3, 5, 7)):
        x = pool_then_relu_case(21, shape)
        pooled, routes = pool(x)
        up = Rng(22).uniforms(pooled.size, -1, 1).reshape(pooled.shape).astype(np.float32)
        grad = _pool_backward_offsets_batch(up, routes, x.shape)
        ref = relu_then_pool_backward_reference(x, up)
        assert np.array_equal(grad, ref)
        assert not grad[0, 0, :2, :2].any()     # dead window passes nothing
        assert grad[0, 1, 0, 0] == up[0, 1, 0, 0]   # the tie routes to the first cell
        assert not grad[0, 1, :2, :2].ravel()[1:].any()


def test_tiled_pool_backward_equals_general_path():
    # each pooled cell is written once and an odd trailing row or column is
    # zeroed; positive inputs make the reference's ReLU mask all ones; the
    # window-major layout gets the same values at its cells
    for shape in ((3, 2, 8, 6), (2, 2, 9, 7)):
        x = Rng(23).uniforms(int(np.prod(shape)), 0.1, 1).reshape(shape).astype(np.float32)
        x[0, 0, :2, :2] = 0.5                   # tie window
        pooled, routes = pool(x)
        up = Rng(24).uniforms(pooled.size, -1, 1).reshape(pooled.shape).astype(np.float32)
        grad = _pool_backward_offsets_batch(up, routes, x.shape)
        ref = relu_then_pool_backward_reference(x, up)
        assert np.array_equal(grad, ref)
        nonzero = grad != 0
        assert grad[nonzero].tobytes() == ref[nonzero].tobytes()
        assert np.count_nonzero(nonzero) == np.count_nonzero(up)
        grad_wm = _pool_backward_offsets_batch(up, routes, window_major(x).shape)
        assert grad_wm.tobytes() == window_major(grad).tobytes()
