import numpy as np
import pytest

from expnet.errors import ShapeError
from expnet.layers import conv_forward_batch, dense_forward_batch, relu_forward
from expnet.layers import _pool_offsets_batch
from expnet.model import (DEFAULT_ARCH, TINY_ARCH, Architecture, MultiOutputModel,
                          model_backward, model_forward)
from expnet.rng import Rng


def test_default_architecture_shape_chain():
    # 1x64x64 -> 32x64x64 -> 32x32x32 -> 64x32x32 -> 64x16x16 -> 16384 -> 128 -> (8, 10)
    m = MultiOutputModel.init(DEFAULT_ARCH, 0)
    x = Rng(0).uniforms(64 * 64).reshape(1, 1, 64, 64).astype(np.float32)
    y, _ = conv_forward_batch(m.convs[0], x)
    assert y.shape == (1, 32, 64, 64)
    y, _ = _pool_offsets_batch(relu_forward(y), 2, 2)
    assert y.shape == (1, 32, 32, 32)
    y2, _ = conv_forward_batch(m.convs[1], y)
    assert y2.shape == (1, 64, 32, 32)
    y2, _ = _pool_offsets_batch(relu_forward(y2), 2, 2)
    assert y2.shape == (1, 64, 16, 16)
    flat = y2.reshape(1, -1)
    assert flat.shape == (1, 16384)
    hidden = dense_forward_batch(m.dense, flat)
    assert hidden.shape == (1, 128)
    assert dense_forward_batch(m.base_head, hidden).shape == (1, 8)
    assert dense_forward_batch(m.exp_head, hidden).shape == (1, 10)
    assert DEFAULT_ARCH.stage_shapes() == [(1, 64, 64), (32, 32, 32), (64, 16, 16)]
    assert DEFAULT_ARCH.feature_size() == 16384


def test_forward_logit_shapes_and_trace():
    m = MultiOutputModel.init(DEFAULT_ARCH, 1)
    img = Rng(1).uniforms(64 * 64).reshape(1, 64, 64).astype(np.float32)
    base, exp, trace = model_forward(m, img)
    assert base.shape == (8,) and exp.shape == (10,)
    assert trace.batch == 1
    assert len(trace.conv_caches) == len(trace.relu_masks) == len(trace.pool_offsets) == 2
    assert trace.relu_masks[0].shape == (1, 32, 64, 64)
    assert trace.pool_offsets[1].shape == (1, 64, 16, 16)
    assert trace.pool_offsets[1].dtype == np.uint8
    assert trace.flat.shape == (1, 16384) and trace.hidden.shape == (1, 128)
    assert m.forward_batch(img[None], need_trace=False)[2] is None


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


def test_shape_error_names_layer():
    m = MultiOutputModel.init(TINY_ARCH, 0)
    m.convs[1].weights = np.zeros((8, 3, 3, 3), dtype=np.float32)  # wrong C_in
    img = np.zeros((1, 16, 16), dtype=np.float32)
    with pytest.raises(ShapeError, match="conv1"):
        model_forward(m, img)


def test_backward_zero_upstream_gives_zero_grads():
    m = MultiOutputModel.init(TINY_ARCH, 4)
    img = Rng(4).uniforms(16 * 16).reshape(1, 16, 16).astype(np.float32)
    _, _, trace = model_forward(m, img)
    grads = model_backward(m, trace, np.zeros(8, dtype=np.float32),
                           np.zeros(10, dtype=np.float32))
    assert all(not g.any() for g in grads)


def test_trunk_gradient_additivity():
    m = MultiOutputModel.init(TINY_ARCH, 6)
    img = Rng(6).uniforms(16 * 16).reshape(1, 16, 16).astype(np.float32)
    rng = Rng(7)
    g1 = rng.uniforms(8, -1, 1).astype(np.float32)
    g2 = rng.uniforms(10, -1, 1).astype(np.float32)
    zero8 = np.zeros(8, dtype=np.float32)
    zero10 = np.zeros(10, dtype=np.float32)

    _, _, trace = model_forward(m, img)
    only_base = model_backward(m, trace, g1, zero10)
    _, _, trace = model_forward(m, img)
    only_exp = model_backward(m, trace, zero8, g2)
    _, _, trace = model_forward(m, img)
    both = model_backward(m, trace, g1, g2)
    for a, b, c in zip(only_base, only_exp, both):
        assert np.max(np.abs((a + b) - c)) < 1e-6


def test_exp_head_zero_equals_single_head_backprop():
    m = MultiOutputModel.init(TINY_ARCH, 8)
    img = Rng(8).uniforms(16 * 16).reshape(1, 16, 16).astype(np.float32)
    g1 = Rng(9).uniforms(8, -1, 1).astype(np.float32)
    _, _, trace = model_forward(m, img)
    grads = model_backward(m, trace, g1, np.zeros(10, dtype=np.float32))
    names = [name for name, _ in m.parameters()]
    exp_w = grads[names.index("exp_head.weights")]
    exp_b = grads[names.index("exp_head.bias")]
    assert not exp_w.any() and not exp_b.any()
    assert grads[names.index("conv0.weights")].any()


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
    assert built.convs[1].stride == TINY_ARCH.conv_stride
    assert built.convs[1].padding == TINY_ARCH.conv_padding
    with pytest.raises(ShapeError, match="expected 10"):
        MultiOutputModel.from_arrays(TINY_ARCH, arrays[:-1])
    with pytest.raises(ShapeError, match="dense.weights"):
        MultiOutputModel.from_arrays(TINY_ARCH, arrays[:4] + [arrays[4].T] + arrays[5:])
