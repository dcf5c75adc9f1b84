import numpy as np

from expnet.gradcheck import analytic_gradients, build_probe, gradient_check
from expnet.model import TINY_ARCH, Architecture, MultiOutputModel


def test_zero_model_passes_under_floor_rule():
    model = MultiOutputModel.init(TINY_ARCH, 0)
    for arr in model.param_arrays():
        arr[:] = 0
    image = np.full((1, 16, 16), 0.5, dtype=np.float32)
    report = gradient_check(model, image, 1, 2)
    assert report.passed


def test_single_filter_tiny_model_passes():
    arch = Architecture(input_hw=(8, 8), conv_channels=(1,), dense_width=4)
    model = MultiOutputModel.init(arch, 11)
    for name, arr in model.parameters():
        if name.endswith("bias"):
            arr += 0.2
    image = np.linspace(0.1, 0.9, 64, dtype=np.float32).reshape(1, 8, 8)
    report = gradient_check(model, image, 2, 3)
    assert report.passed
    assert max(r.max_rel_err for r in report.rows) < 1e-3


def test_default_probe_passes_with_all_elements_checked():
    model, image, base_label, exp_label = build_probe(4)
    report = gradient_check(model, image, base_label, exp_label)
    assert report.passed
    assert sum(r.n_excluded for r in report.rows) == 0
    assert sum(r.n_checked for r in report.rows) == sum(
        a.size for a in model.param_arrays())


def test_corrupted_gradient_is_flagged():
    model, image, base_label, exp_label = build_probe(4)
    grads = analytic_gradients(model.astype(np.float64), image.astype(np.float64),
                               base_label, exp_label)
    names = [name for name, _ in model.parameters()]
    idx = names.index("dense.bias")
    grads[idx] = grads[idx] + 0.1
    report = gradient_check(model, image, base_label, exp_label, analytic=grads)
    assert not report.passed
    flagged = [r.name for r in report.rows if not r.ok]
    assert flagged == ["dense.bias"]
