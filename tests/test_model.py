import hashlib
import tracemalloc

import numpy as np
import pytest

from expnet.errors import ShapeError, StaleTraceError
from expnet.layers import DEAD, conv_forward_batch, dense_forward_batch, relu_forward
from expnet.layers import _pool_offsets_batch
from expnet.model import (DEFAULT_ARCH, TINY_ARCH, TRUNK_CHUNK, Architecture,
                          MultiOutputModel, Workspace, model_forward)
from expnet.rng import Rng
from expnet.train import batch_loss_and_grads


def test_default_architecture_shape_chain():
    # 1x64x64 -> 32x64x64 -> 32x32x32 -> 64x32x32 -> 64x16x16 -> 16384 -> 128 -> (8, 10),
    # the trunk channel-major [C, B, H, W], each pool applying its stage's ReLU
    m = MultiOutputModel.init(DEFAULT_ARCH, 0)
    x = Rng(0).uniforms(64 * 64).reshape(1, 1, 64, 64).astype(np.float32)
    y, _ = conv_forward_batch(m.convs[0], x)
    assert y.shape == (32, 1, 64, 64)
    y = _pool_offsets_batch(y)
    assert y.shape == (32, 1, 32, 32)
    y2, _ = conv_forward_batch(m.convs[1], y)
    assert y2.shape == (64, 1, 32, 32)
    y2 = _pool_offsets_batch(y2)
    assert y2.shape == (64, 1, 16, 16)
    flat = y2.transpose(1, 0, 2, 3).reshape(1, -1)
    assert flat.shape == (1, 16384)
    hidden = dense_forward_batch(m.dense, flat)
    assert hidden.shape == (1, 128)
    assert dense_forward_batch(m.base_head, hidden).shape == (1, 8)
    assert dense_forward_batch(m.exp_head, hidden).shape == (1, 10)
    assert DEFAULT_ARCH.stage_shapes() == [(1, 64, 64), (32, 32, 32), (64, 16, 16)]
    assert DEFAULT_ARCH.feature_size() == 16384
    base, exp, _ = m.forward_batch(x)
    assert np.array_equal(base[0], dense_forward_batch(m.base_head, relu_forward(hidden))[0])


def test_forward_logit_shapes_and_trace():
    m = MultiOutputModel.init(DEFAULT_ARCH, 1)
    img = Rng(1).uniforms(64 * 64).reshape(1, 64, 64).astype(np.float32)
    base, exp, trace = m.forward_batch(img[None])
    assert base.shape == (1, 8) and exp.shape == (1, 10)
    assert len(trace.cols) == len(trace.routes) == 2
    # each conv's columns cover its input, whose H and W its same-padded output keeps
    assert [cols.shape for cols in trace.cols] == [(9, 64 * 64), (32 * 9, 32 * 32)]
    # routes are taken after the pool, at pooled resolution, with the ReLU folded in
    assert [route.shape for route in trace.routes] == [(32, 1, 32, 32), (64, 1, 16, 16)]
    assert all(route.dtype == np.uint8 and route.max() <= DEAD for route in trace.routes)
    assert trace.flat.shape == (1, 16384) and trace.hidden.shape == (1, 128)
    assert np.array_equal((trace.routes[1] != DEAD).transpose(1, 0, 2, 3).reshape(1, -1),
                          trace.flat > 0)
    assert m.forward_batch(img[None], need_trace=False)[2] is None
    # model_forward, the single-image predict, is the untraced pass
    base1, exp1, no_trace = model_forward(m, img)
    assert no_trace is None
    assert np.array_equal(base1, base[0]) and np.array_equal(exp1, exp[0])


def test_routes_are_window_cells_where_live_and_exactly_dead_elsewhere():
    # an identity conv pools the image itself: one window all negative with its
    # max in cell 3, one tied at 5 in cells 1 and 3, one tied at 0 in cells 1
    # and 2, one live in cell 2; a trailing row and column of 9s that no window
    # covers; the second image is all NaN and random ones fill a partial last
    # trunk slice.  conv0's window-major pass records the routes and pooled
    # values that the pool writes for its row-major output
    m = MultiOutputModel.init(Architecture(input_hw=(5, 5), conv_channels=(1,),
                                           dense_width=2), 0)
    m.convs[0].weights[:] = 0
    m.convs[0].weights[0, 0, 1, 1] = 1
    img = np.array([[-3, -2, 1, 5, 9],
                    [-4, -1, 0, 5, 9],
                    [-1, 0, 1, 2, 9],
                    [0, -2, 7, 3, 9],
                    [9, 9, 9, 9, 9]], dtype=np.float32)
    n = TRUNK_CHUNK + 3
    imgs = Rng(5).uniforms(n * 25, -1, 1).reshape(n, 1, 5, 5).astype(np.float32)
    imgs[0, 0], imgs[1, 0] = img, np.nan
    _, _, trace = m.forward_batch(imgs)
    conv_out, _ = conv_forward_batch(m.convs[0], imgs.transpose(1, 0, 2, 3))
    assert conv_out.shape == (1, n, 5, 5)
    row_major_route = np.empty((1, n, 2, 2), dtype=np.uint8)
    pooled = _pool_offsets_batch(conv_out, row_major_route)
    (route,) = trace.routes
    assert route.dtype == np.uint8 and route.shape == (1, n, 2, 2)
    assert np.array_equal(route[0, 0], [[DEAD, 1], [DEAD, 2]])
    assert route.tobytes() == row_major_route.tobytes()
    live = pooled > 0
    assert (route[live] < DEAD).all() and (route[~live] == DEAD).all()
    assert (~live[0, 1]).all() and live[0, 2:].any()
    assert trace.flat.tobytes() == pooled.transpose(1, 0, 2, 3).tobytes()


def test_forward_batch_matches_per_sample():
    m = MultiOutputModel.init(TINY_ARCH, 2)
    # both passes run the trunk in TRUNK_CHUNK slices; the traced one writes
    # them into whole-batch arrays
    for n in (3, 2 * TRUNK_CHUNK + 3):
        imgs = Rng(n).uniforms(n * 16 * 16).reshape(n, 1, 16, 16).astype(np.float32)
        base, exp, _ = m.forward_batch(imgs)
        base_eval, exp_eval, _ = m.forward_batch(imgs, need_trace=False)
        assert np.array_equal(base, base_eval) and np.array_equal(exp, exp_eval)
        for i in range(n):
            b1, e1, _ = model_forward(m, imgs[i])
            assert np.allclose(b1, base[i], atol=1e-5) and np.allclose(e1, exp[i], atol=1e-5)


@pytest.mark.parametrize("arch", [TINY_ARCH, Architecture(input_hw=(17, 15),
                                                          conv_channels=(4, 8), dense_width=16)])
def test_backward_batch_matches_per_sample(arch):
    # in float64 the batch gradient is the per-sample sum up to rounding, across
    # a partial last trunk slice, conv0's window-major backward and, at 17x15,
    # the row and column that each pool floors away
    m = MultiOutputModel.init(arch, 5).astype(np.float64)
    n = 2 * TRUNK_CHUNK + 3
    h, w = arch.input_hw
    rng = Rng(n)
    imgs = rng.uniforms(n * h * w).reshape(n, 1, h, w)
    g_base = rng.uniforms(n * 8, -1, 1).reshape(n, 8)
    g_exp = rng.uniforms(n * 10, -1, 1).reshape(n, 10)
    _, _, trace = m.forward_batch(imgs)
    grads = m.backward_batch(trace, g_base, g_exp)
    sums = [np.zeros_like(g) for g in grads]
    for i in range(n):
        _, _, one = m.forward_batch(imgs[i:i + 1])
        for total, g in zip(sums, m.backward_batch(one, g_base[i:i + 1], g_exp[i:i + 1])):
            total += g
    for (name, _), got, want in zip(m.parameters(), grads, sums):
        scale = np.abs(want).max()
        assert got.dtype == np.float64 and scale > 0, name
        assert np.abs(got - want).max() <= 1e-12 * scale, name


def test_untraced_forward_memory_is_bounded_by_the_trunk_slice():
    # an unsliced 256-image trunk would hold a 302 MB conv1 im2col matrix at once
    m = MultiOutputModel.init(DEFAULT_ARCH, 3)
    imgs = Rng(3).uniforms(256 * 64 * 64).reshape(256, 1, 64, 64).astype(np.float32)
    tracemalloc.start()
    try:
        m.forward_batch(imgs, need_trace=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def _batch(n, seed, dtype=np.float32):
    imgs = Rng(seed).uniforms(n * 64 * 64).reshape(n, 1, 64, 64).astype(dtype)
    return imgs, np.arange(n) % 8, (np.arange(n) * 7) % 10


def _same_bytes(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_workspace_contents_never_leak_into_a_step():
    m = MultiOutputModel.init(DEFAULT_ARCH, 11)
    ws = Workspace()
    for seed in (1, 2):
        batch = _batch(32, seed)
        losses_ws = batch_loss_and_grads(m, *batch, workspace=ws)
        losses = batch_loss_and_grads(m, *batch)
        assert losses_ws[:2] == losses[:2]
        assert all(_same_bytes(a, b) for a, b in zip(losses_ws[2], losses[2]))
        for buf in ws.buffers.values():        # what the next step finds in the workspace
            buf.fill(np.nan)
    assert {name for name, _ in ws.buffers} == {"conv0.cols", "conv1.cols", "conv1.gxpad",
                                                "conv1.u2p"}


def test_one_workspace_serves_any_batch_size_and_dtype():
    m = MultiOutputModel.init(DEFAULT_ARCH, 12)
    ws = Workspace()
    for n, dtype in ((32, np.float32), (17, np.float32), (2 * TRUNK_CHUNK + 3, np.float32),
                     (5, np.float64), (32, np.float32)):
        net = m.astype(dtype)
        imgs, base, exp = _batch(n, n, dtype)
        got = batch_loss_and_grads(net, imgs, base, exp, workspace=ws)
        want = batch_loss_and_grads(net, imgs, base, exp)
        assert got[:2] == want[:2]
        assert all(_same_bytes(a, b) for a, b in zip(got[2], want[2]))
        traced = net.forward_batch(imgs, workspace=ws)
        untraced = net.forward_batch(imgs, need_trace=False, workspace=ws)
        assert np.array_equal(traced[0], untraced[0]) and np.array_equal(traced[1], untraced[1])


def test_stale_trace_raises_instead_of_wrong_gradients():
    m = MultiOutputModel.init(TINY_ARCH, 13)
    ws = Workspace()
    imgs = Rng(13).uniforms(3 * 16 * 16).reshape(3, 1, 16, 16).astype(np.float32)
    g_base, g_exp = np.ones((3, 8), np.float32), np.ones((3, 10), np.float32)
    _, _, first = m.forward_batch(imgs, workspace=ws)
    _, _, second = m.forward_batch(imgs[::-1].copy(), workspace=ws)
    with pytest.raises(StaleTraceError, match="forward 1 .* forward 2"):
        m.backward_batch(first, g_base, g_exp)
    m.backward_batch(second, g_base, g_exp)
    m.forward_batch(imgs, need_trace=False, workspace=ws)      # reuses the columns too
    with pytest.raises(StaleTraceError, match="forward 2 .* forward 3"):
        m.backward_batch(second, g_base, g_exp)
    # traces without a workspace own their arrays and stay valid
    _, _, own = m.forward_batch(imgs)
    m.forward_batch(imgs, workspace=ws)
    m.backward_batch(own, g_base, g_exp)


def test_warm_workspace_bounds_the_traced_step_memory():
    # the step used to allocate 83.1 MB afresh, most of it the two im2col
    # matrices and the padded input gradient
    m = MultiOutputModel.init(DEFAULT_ARCH, 14)
    batch = _batch(32, 14)
    ws = Workspace()
    batch_loss_and_grads(m, *batch, workspace=ws)
    tracemalloc.start()
    try:
        batch_loss_and_grads(m, *batch, workspace=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_zero_image_zero_heads_give_zero_logits():
    m = MultiOutputModel.init(DEFAULT_ARCH, 2)
    m.base_head.weights[:] = 0
    m.base_head.bias[:] = 0
    m.exp_head.weights[:] = 0
    m.exp_head.bias[:] = 0
    base, exp, _ = model_forward(m, np.zeros((1, 64, 64), dtype=np.float32))
    assert not base.any() and not exp.any()


def test_forward_deterministic():
    img = Rng(3).uniforms(64 * 64).reshape(1, 64, 64).astype(np.float32)
    outs = []
    for _ in range(2):
        m = MultiOutputModel.init(DEFAULT_ARCH, 5)
        base, exp, _ = model_forward(m, img)
        outs.append((base.copy(), exp.copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_forward_rejects_wrong_input_shape():
    m = MultiOutputModel.init(DEFAULT_ARCH, 0)
    with pytest.raises(ShapeError):
        model_forward(m, np.zeros((1, 32, 32), dtype=np.float32))
    with pytest.raises(ShapeError):
        m.forward_batch(np.zeros((2, 3, 64, 64), dtype=np.float32))
    for need_trace in (True, False):
        with pytest.raises(ShapeError, match="B >= 1"):
            m.forward_batch(np.zeros((0, 1, 64, 64), dtype=np.float32), need_trace)


def test_shape_error_names_layer():
    m = MultiOutputModel.init(TINY_ARCH, 0)
    m.convs[1].weights = np.zeros((8, 3, 3, 3), dtype=np.float32)  # wrong C_in
    img = np.zeros((1, 16, 16), dtype=np.float32)
    with pytest.raises(ShapeError, match="conv1"):
        model_forward(m, img)


def test_backward_rejects_mis_shaped_head_gradients():
    m = MultiOutputModel.init(TINY_ARCH, 4)
    img = Rng(4).uniforms(16 * 16).reshape(1, 1, 16, 16).astype(np.float32)
    _, _, trace = m.forward_batch(img)
    good_base, good_exp = np.ones((1, 8), np.float32), np.ones((1, 10), np.float32)
    for bad in (np.ones((2, 8), np.float32), np.ones((1, 7), np.float32),
                np.ones(8, np.float32)):
        with pytest.raises(ShapeError, match=r"base_head: gradient shape .* \[1, 8\]"):
            m.backward_batch(trace, bad, good_exp)
    with pytest.raises(ShapeError, match=r"exp_head: gradient shape \(1, 8\) .* \[1, 10\]"):
        m.backward_batch(trace, good_base, good_base)
    m.backward_batch(trace, good_base, good_exp)


def test_backward_zero_upstream_gives_zero_grads():
    m = MultiOutputModel.init(TINY_ARCH, 4)
    img = Rng(4).uniforms(16 * 16).reshape(1, 16, 16).astype(np.float32)
    _, _, trace = m.forward_batch(img[None])
    grads = m.backward_batch(trace, np.zeros((1, 8), dtype=np.float32),
                             np.zeros((1, 10), dtype=np.float32))
    assert all(not g.any() for g in grads)


def test_trunk_gradient_additivity():
    m = MultiOutputModel.init(TINY_ARCH, 6)
    img = Rng(6).uniforms(16 * 16).reshape(1, 16, 16).astype(np.float32)
    rng = Rng(7)
    g1 = rng.uniforms(8, -1, 1).astype(np.float32)
    g2 = rng.uniforms(10, -1, 1).astype(np.float32)
    zero8 = np.zeros(8, dtype=np.float32)
    zero10 = np.zeros(10, dtype=np.float32)

    _, _, trace = m.forward_batch(img[None])
    only_base = m.backward_batch(trace, g1[None], zero10[None])
    _, _, trace = m.forward_batch(img[None])
    only_exp = m.backward_batch(trace, zero8[None], g2[None])
    _, _, trace = m.forward_batch(img[None])
    both = m.backward_batch(trace, g1[None], g2[None])
    for a, b, c in zip(only_base, only_exp, both):
        assert np.max(np.abs((a + b) - c)) < 1e-6


def test_exp_head_zero_equals_single_head_backprop():
    m = MultiOutputModel.init(TINY_ARCH, 8)
    img = Rng(8).uniforms(16 * 16).reshape(1, 16, 16).astype(np.float32)
    g1 = Rng(9).uniforms(8, -1, 1).astype(np.float32)
    _, _, trace = m.forward_batch(img[None])
    grads = m.backward_batch(trace, g1[None], np.zeros((1, 10), dtype=np.float32))
    names = [name for name, _ in m.parameters()]
    exp_w = grads[names.index("exp_head.weights")]
    exp_b = grads[names.index("exp_head.bias")]
    assert not exp_w.any() and not exp_b.any()
    assert grads[names.index("conv0.weights")].any()


def test_initial_parameters_are_pinned():
    params = MultiOutputModel.init(DEFAULT_ARCH, 0).param_arrays()
    assert hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest() == (
        "708c600736c42258cb90b009e2e03aeb5f13a58cbdc1aeab4382f806094361fb")


def test_architecture_descriptor_bytes_are_pinned():
    # the EXPM v1 descriptor text; pooling has no fields but keeps its line
    assert DEFAULT_ARCH.to_text() == ("input 64 64\nconv 32 64\nkernel 3 stride 1 pad 1\n"
                                      "pool 2 stride 2\ndense 128\nheads 8 10")
    assert TINY_ARCH.to_text() == ("input 16 16\nconv 4 8\nkernel 3 stride 1 pad 1\n"
                                   "pool 2 stride 2\ndense 16\nheads 8 10")


@pytest.mark.parametrize("kwargs, match", [
    (dict(input_hw=(4, 4), conv_channels=(2, 2, 2)), "leave an empty map"),
    (dict(dense_width=0), "a size field is not positive"),
    (dict(input_hw=(-2, 64)), "a size field is not positive"),
    (dict(conv_channels=(32, 0)), "a size field is not positive"),
])
def test_architecture_rejects_unbuildable_shapes(kwargs, match):
    # these reached MultiOutputModel.init and raised ZeroDivisionError there
    with pytest.raises(ValueError, match=match):
        Architecture(**kwargs)


def test_architecture_descriptor_round_trip():
    for arch in (DEFAULT_ARCH, TINY_ARCH,
                 Architecture(input_hw=(32, 32), conv_channels=(8, 16, 16),
                              dense_width=64)):
        assert Architecture.from_text(arch.to_text()) == arch


def test_parameters_order_and_set():
    m = MultiOutputModel.init(TINY_ARCH, 10)
    names = [name for name, _ in m.parameters()]
    assert names == ["conv0.weights", "conv0.bias", "conv1.weights", "conv1.bias",
                     "dense.weights", "dense.bias", "base_head.weights",
                     "base_head.bias", "exp_head.weights", "exp_head.bias"]
    assert [(name, a.shape) for name, a in m.parameters()] == TINY_ARCH.param_shapes()
    arrays = [a + 1 for a in m.param_arrays()]
    built = MultiOutputModel.from_arrays(TINY_ARCH, arrays)
    assert all(a is b for a, b in zip(built.param_arrays(), arrays))
    assert all(conv.stride == 1 and conv.padding == 1 for conv in built.convs)
    with pytest.raises(ShapeError, match="expected 10"):
        MultiOutputModel.from_arrays(TINY_ARCH, arrays[:-1])
    with pytest.raises(ShapeError, match="dense.weights"):
        MultiOutputModel.from_arrays(TINY_ARCH, arrays[:4] + [arrays[4].T] + arrays[5:])
