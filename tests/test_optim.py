import numpy as np
import pytest

from expnet import optim
from expnet.errors import ShapeError
from expnet.optim import AdamState, adam_step
from expnet.rng import Rng


def test_first_step_moves_by_lr():
    # bias correction makes m_hat = g and v_hat = g^2 on step 1
    p = np.full(5, 3.0, dtype=np.float32)
    g = np.ones(5, dtype=np.float32)
    state = AdamState.init([p], lr=1e-3)
    adam_step([p], [g], state)
    assert state.t == 1
    assert np.allclose(p, 3.0 - 1e-3, atol=1e-7)


def test_zero_gradient_is_fixed_point():
    p = np.array([1.0, -2.0], dtype=np.float32)
    snapshot = p.copy()
    state = AdamState.init([p])
    for _ in range(3):
        adam_step([p], [np.zeros_like(p)], state)
    assert np.array_equal(p, snapshot)
    assert state.t == 3


def test_scalar_quadratic_descends():
    # minimize f(p) = p^2 from p = 1 with lr = 0.05; the oracle run shows a
    # strict decrease for the first ~24 steps, then a small overshoot through
    # zero before settling near 0 (|p| = 0.0042 after 100 steps)
    p = np.array([1.0], dtype=np.float64)
    state = AdamState.init([p], lr=0.05)
    prev = abs(float(p[0]))
    for step in range(100):
        g = 2.0 * p
        adam_step([p], [g], state)
        cur = abs(float(p[0]))
        if step < 20:
            assert cur < prev
        assert cur <= 1.0
        prev = cur
    assert abs(float(p[0])) < 0.1


def test_moment_recurrences_match_reference():
    # hand-rolled reference of the textbook update, two steps
    p = np.array([0.5], dtype=np.float64)
    state = AdamState.init([p], lr=0.01)
    grads = [np.array([0.3]), np.array([-0.2])]
    ref_p, ref_m, ref_v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        adam_step([p], [g.copy()], state)
        ref_m = 0.9 * ref_m + 0.1 * float(g[0])
        ref_v = 0.999 * ref_v + 0.001 * float(g[0]) ** 2
        m_hat = ref_m / (1 - 0.9 ** t)
        v_hat = ref_v / (1 - 0.999 ** t)
        ref_p -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert float(p[0]) == pytest.approx(ref_p, rel=1e-12)
        assert float(state.m[0][0]) == pytest.approx(ref_m, rel=1e-12)
        assert float(state.v[0][0]) == pytest.approx(ref_v, rel=1e-12)


def test_tree_shape_mismatch():
    p = np.zeros(3, dtype=np.float32)
    state = AdamState.init([p])
    with pytest.raises(ShapeError):
        adam_step([p], [np.zeros(4, dtype=np.float32)], state)
    with pytest.raises(ShapeError):
        adam_step([p], [np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.float32)], state)


def test_state_mirrors_parameter_tree():
    params = [np.zeros((2, 3), dtype=np.float32), np.zeros(4, dtype=np.float32)]
    state = AdamState.init(params)
    assert [m.shape for m in state.m] == [(2, 3), (4,)]
    assert [v.shape for v in state.v] == [(2, 3), (4,)]
    assert state.t == 0


def test_short_second_moment_list_rejected():
    params = [np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32)]
    state = AdamState.init(params)
    state.v = state.v[:1]
    with pytest.raises(ShapeError, match="counts differ"):
        adam_step(params, [np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)], state)
    assert state.t == 0 and not params[1].any()


def test_second_moment_shape_mismatch_rejected():
    p = np.zeros((2, 3), dtype=np.float32)
    state = AdamState.init([p])
    state.v[0] = np.zeros(6, dtype=np.float32)
    with pytest.raises(ShapeError, match="tensor 0 shape mismatch"):
        adam_step([p], [np.ones_like(p)], state)
    assert state.t == 0


def test_non_contiguous_tensor_rejected():
    # a strided parameter cannot be updated in place through a flat view
    base = np.zeros((4, 6), dtype=np.float32)
    p = base[:, ::2]
    state = AdamState.init([np.zeros((4, 3), dtype=np.float32)])
    with pytest.raises(ShapeError, match="C-contiguous"):
        adam_step([p], [np.ones((4, 3), dtype=np.float32)], state)
    g = np.ones((3, 4), dtype=np.float32).T
    with pytest.raises(ShapeError, match="C-contiguous"):
        adam_step([np.zeros((4, 3), dtype=np.float32)], [g], state)


def unblocked_adam(p, g, m, v, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The whole-tensor update, one numpy pass per operation."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    denom = np.sqrt(v / (1.0 - b2 ** t))
    denom += eps
    step = m / (1.0 - b1 ** t)
    step *= lr
    step /= denom
    p -= step.astype(p.dtype, copy=False)


def test_blocked_update_is_bitwise_the_unblocked_formula():
    n = (1 << 16) + 3                  # one full block and a 3-element tail
    assert optim.BLOCK == 1 << 16
    rng = Rng(31)
    p = rng.uniforms(n, -1, 1).astype(np.float32)
    ref_p, ref_m, ref_v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    state = AdamState.init([p])
    for t in range(1, 4):
        g = rng.uniforms(n, -1, 1).astype(np.float32)
        adam_step([p], [g], state)
        unblocked_adam(ref_p, g, ref_m, ref_v, t)
        assert p.tobytes() == ref_p.tobytes()
        assert state.m[0].tobytes() == ref_m.tobytes()
        assert state.v[0].tobytes() == ref_v.tobytes()
