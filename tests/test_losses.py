import math

import numpy as np
import pytest

from expnet.losses import softmax, softmax_ce_batch
from expnet.model import TINY_ARCH, MultiOutputModel
from expnet.rng import Rng
from expnet.train import batch_loss_and_grads


def test_softmax_symmetry():
    out = softmax(np.array([0.0, 0.0], dtype=np.float32))
    assert np.allclose(out, [0.5, 0.5])


def test_softmax_analytic_ratio():
    out = softmax(np.array([math.log(2.0), 0.0]))
    assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-9)


def test_softmax_large_logits_stay_finite():
    out = softmax(np.array([1000.0, 0.0], dtype=np.float32))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-30)


def test_softmax_probability_vector_property():
    for seed in range(200):
        rng = Rng(seed)
        scale = 1000.0 if seed % 4 == 0 else 5.0
        v = rng.uniforms(2 + seed % 9, -scale, scale).astype(np.float32)
        p = softmax(v)
        assert p.min() >= 0.0
        assert abs(float(np.sum(p, dtype=np.float64)) - 1.0) < 1e-6


def test_softmax_shift_invariance():
    # float64 logits: float32 inputs cannot even represent v + 1000 exactly
    rng = Rng(17)
    v = rng.uniforms(10, -3, 3)
    for c in (-100.0, -1.0, 0.5, 1e3):
        assert np.allclose(softmax(v + c), softmax(v), atol=1e-6)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax(np.array([np.nan, 0.0]))


def ce(logits, label):
    """softmax_ce_batch on one row of logits: (loss, logit gradient)."""
    losses, grads = softmax_ce_batch(logits[None], np.array([label]))
    return float(losses[0]), grads[0]


def test_sparse_ce_uniform():
    for cls in range(10):
        loss, _ = ce(np.zeros(10, dtype=np.float32), cls)
        assert loss == pytest.approx(math.log(10.0), rel=1e-6)


def test_sparse_ce_perfect_and_clamped():
    # logit gaps of 200 put p[2] at 1 and p[0] at exp(-200) in 64-bit, which
    # the cast back to float32 rounds to exactly 1 and 0
    logits = np.array([-100.0, -100.0, 100.0, -100.0], dtype=np.float32)
    assert ce(logits, 2)[0] == 0.0
    assert ce(logits, 0)[0] == pytest.approx(-math.log(1e-12), rel=1e-9)
    assert ce(logits, 0)[0] == pytest.approx(27.631, abs=1e-2)


def test_sparse_ce_nonnegative_random():
    for seed in range(50):
        loss, _ = ce(Rng(seed).uniforms(6, -4, 4).astype(np.float32), seed % 6)
        assert loss >= 0.0


def test_sparse_ce_class_out_of_range():
    logits = np.zeros(4, dtype=np.float32)
    with pytest.raises(IndexError):
        ce(logits, 4)
    with pytest.raises(IndexError):
        ce(logits, -1)


def test_softmax_ce_grad_uniform_case():
    _, g = ce(np.array([0.0, 0.0], dtype=np.float32), 0)
    assert np.allclose(g, [-0.5, 0.5])


def test_softmax_ce_grad_confident_case():
    _, g = ce(np.array([30.0, 0.0, 0.0], dtype=np.float32), 0)
    assert np.max(np.abs(g)) < 1e-6


def test_softmax_ce_grad_matches_finite_difference():
    rng = Rng(23)
    logits = rng.uniforms(5, -2, 2)
    cls = 3
    _, ana = ce(logits, cls)
    eps = 1e-6
    for i in range(5):
        bump = logits.copy()
        bump[i] += eps
        up, _ = ce(bump, cls)
        bump[i] -= 2 * eps
        down, _ = ce(bump, cls)
        num = (up - down) / (2 * eps)
        assert num == pytest.approx(float(ana[i]), rel=1e-5, abs=1e-9)


def two_head_loss(base_logits, exp_logits, base_label, exp_label):
    """The combined loss as training sums it: base CE + exponent CE."""
    return ce(base_logits, base_label)[0] + ce(exp_logits, exp_label)[0]


def test_combined_loss_uniform_analytic():
    base_loss, _ = ce(np.zeros(8, dtype=np.float32), 0)
    exp_loss, _ = ce(np.zeros(10, dtype=np.float32), 0)
    assert base_loss == pytest.approx(math.log(8.0), rel=1e-6)
    assert exp_loss == pytest.approx(math.log(10.0), rel=1e-6)
    assert base_loss + exp_loss == pytest.approx(4.382027, abs=1e-4)


def test_combined_loss_perfect_prediction():
    base = np.full(8, -40.0, dtype=np.float32)
    base[3] = 40.0
    exp = np.full(10, -40.0, dtype=np.float32)
    exp[7] = 40.0
    assert two_head_loss(base, exp, 3, 7) == pytest.approx(0.0, abs=1e-6)


def test_combined_loss_weights():
    # training weighs both heads by 1: batch_loss_and_grads returns each
    # head's mean softmax_ce_batch loss, and its gradient is the sum of the
    # two heads' backprops
    m = MultiOutputModel.init(TINY_ARCH, 29)
    imgs = Rng(29).uniforms(3 * 16 * 16).reshape(3, 1, 16, 16).astype(np.float32)
    base_labels, exp_labels = np.array([2, 0, 7]), np.array([5, 9, 1])
    base_mean, exp_mean, grads = batch_loss_and_grads(m, imgs, base_labels, exp_labels)
    base_logits, exp_logits, _ = m.forward_batch(imgs)
    base_losses, g_base = softmax_ce_batch(base_logits, base_labels)
    exp_losses, g_exp = softmax_ce_batch(exp_logits, exp_labels)
    assert base_mean == float(base_losses.mean()) and exp_mean == float(exp_losses.mean())
    zero_base, zero_exp = np.zeros_like(g_base), np.zeros_like(g_exp)
    only_base = m.backward_batch(m.forward_batch(imgs)[2], g_base / 3, zero_exp)
    only_exp = m.backward_batch(m.forward_batch(imgs)[2], zero_base, g_exp / 3)
    for g, a, b in zip(grads, only_base, only_exp):
        assert np.allclose(g, a + b, atol=1e-6)


def test_combined_loss_label_out_of_range():
    with pytest.raises(IndexError):
        two_head_loss(np.zeros(8, dtype=np.float32), np.zeros(10, dtype=np.float32), 8, 0)


def test_batch_softmax_ce_matches_per_row():
    # against -log softmax and p - onehot, row by row
    rng = Rng(31)
    logits = rng.uniforms(6 * 9, -3, 3).reshape(6, 9).astype(np.float32)
    labels = np.array([rng.randint(9) for _ in range(6)], dtype=np.int64)
    losses, grads = softmax_ce_batch(logits, labels)
    for i in range(6):
        p = softmax(logits[i])
        onehot = np.eye(9, dtype=np.float32)[labels[i]]
        assert losses[i] == pytest.approx(-math.log(float(p[labels[i]])), rel=1e-6)
        assert np.allclose(grads[i], p - onehot, atol=1e-7)
