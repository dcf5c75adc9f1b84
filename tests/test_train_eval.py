import math

import numpy as np
import pytest

import expnet.train as train_mod
from expnet.datagen import Dataset, GenConfig, generate_dataset
from expnet.evaluate import EvalReport, evaluate, histogram, robustness_sweep
from expnet.model import Architecture, MultiOutputModel, TINY_ARCH
from expnet.optim import AdamState
from expnet.rng import Rng
from expnet.train import EpochRecord, TrainConfig, history_csv, train

SMALL_ARCH = Architecture(input_hw=(64, 64), conv_channels=(4, 8), dense_width=32)


def small_dataset(count, seed, noiseless=False):
    kwargs = dict(count=count, master_seed=seed)
    if noiseless:
        kwargs.update(noise_sigma_range=(0.0, 0.0), blur_sigma_range=(0.0, 0.0))
    return generate_dataset(GenConfig(**kwargs))


def test_training_descends_on_noiseless_data():
    ds = small_dataset(200, 5, noiseless=True)
    cfg = TrainConfig(epochs=5, seed=5)
    result = train(ds, cfg, arch=SMALL_ARCH, init_seed=5)
    assert result.history[-1].train_total < result.history[0].train_total
    best = result.history[result.best_epoch - result.history[0].epoch]
    assert best.val_total <= min(h.val_total for h in result.history) + cfg.early_stop_min_delta
    assert best.val_total < math.log(8) + math.log(10)


def test_early_stop_halts_on_plateau(monkeypatch):
    ds = small_dataset(60, 6)
    script = iter([(1.0, 0.5, 0.5)] * 50)
    monkeypatch.setattr(train_mod, "validation_metrics", lambda *a: next(script))
    cfg = TrainConfig(epochs=10, early_stop_patience=1, seed=1)
    result = train(ds, cfg, arch=SMALL_ARCH)
    assert result.stopped_early
    assert len(result.history) == 2 < cfg.epochs
    assert result.best_epoch == 0


def test_train_clones_only_improving_epochs(monkeypatch):
    # each epoch that improves on the best validation loss clones the model
    # once; nothing is cloned before the first epoch
    ds = small_dataset(40, 6)
    script = iter([(2.0, 0.5, 0.5), (1.0, 0.5, 0.5)])
    monkeypatch.setattr(train_mod, "validation_metrics", lambda *a: next(script))
    clones = []
    clone = train_mod._clone_model
    monkeypatch.setattr(train_mod, "_clone_model", lambda m: clones.append(m) or clone(m))
    result = train(ds, TrainConfig(epochs=2, seed=6), arch=SMALL_ARCH, init_seed=6)
    assert len(clones) == 2 and result.best_epoch == 1 and not result.stopped_early
    for best, final in zip(result.model.param_arrays(), result.final_model.param_arrays()):
        assert np.array_equal(best, final) and not np.shares_memory(best, final)


def test_training_deterministic():
    ds = small_dataset(100, 7)
    cfg = TrainConfig(epochs=2, seed=11)
    a = train(ds, cfg, arch=SMALL_ARCH, init_seed=11)
    b = train(ds, cfg, arch=SMALL_ARCH, init_seed=11)
    assert a.history == b.history
    for pa, pb in zip(a.model.param_arrays(), b.model.param_arrays()):
        assert np.array_equal(pa, pb)
    for pa, pb in zip(a.final_model.param_arrays(), b.final_model.param_arrays()):
        assert np.array_equal(pa, pb)


def test_train_rejects_bad_inputs():
    ds = small_dataset(30, 8)
    with pytest.raises(ValueError, match="no training data"):
        train(ds[:0], TrainConfig(epochs=1))
    ds.exp_labels[3] = 42
    with pytest.raises(ValueError):
        train(ds, TrainConfig(epochs=1), arch=SMALL_ARCH)


def test_train_refuses_negative_label_before_the_first_step(monkeypatch):
    ds = small_dataset(30, 8)
    ds.base_labels[5] = -1

    def no_step(*args, **kwargs):
        raise AssertionError("train() took a step")

    monkeypatch.setattr(train_mod, "batch_loss_and_grads", no_step)
    with pytest.raises(ValueError, match=r"^sample 5 labels \(-1, \d+\) outside the 8 base"):
        train(ds, TrainConfig(epochs=1), arch=SMALL_ARCH)


@pytest.mark.parametrize("start_epoch", [-1, 3])
def test_train_refuses_start_epoch_outside_the_epochs(start_epoch, monkeypatch):
    # -1 would shuffle its epoch with substream 0, the validation split's own stream
    def no_step(*args, **kwargs):
        raise AssertionError("train() took a step")

    monkeypatch.setattr(train_mod, "batch_loss_and_grads", no_step)
    with pytest.raises(ValueError, match=rf"^start_epoch must be in \[0, 3\), got {start_epoch}$"):
        train(small_dataset(30, 8), TrainConfig(epochs=3), arch=SMALL_ARCH,
              start_epoch=start_epoch)


@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("lr", -1.0), ("lr", math.nan), ("lr", math.inf),
    ("beta1", -0.1), ("beta1", 1.0), ("beta1", math.nan),
    ("beta2", 1.0), ("beta2", -1e-9),
    ("adam_eps", 0.0), ("adam_eps", -1e-8), ("adam_eps", math.inf),
])
def test_train_config_rejects_bad_adam_settings(field, value):
    if field == "lr":
        with pytest.raises(ValueError, match="^lr "):
            TrainConfig(epochs=1, lr=value)
        return
    # the betas and eps are no TrainConfig fields; a resumed run's Adam state carries them
    name = field.removeprefix("adam_")
    state = AdamState.init(MultiOutputModel.init(SMALL_ARCH, 0).param_arrays())
    setattr(state, name, value)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        train(small_dataset(30, 8), TrainConfig(epochs=1), arch=SMALL_ARCH, initial_adam=state)


def test_history_csv_round_trips_floats():
    records = [EpochRecord(0, 1.23456789e-3, 0.1, 0.2, 4.5e-7, 0.25, 0.5)]
    text = history_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,train_total,train_base,train_exp,val_total,val_base_acc,val_exp_acc"
    cells = lines[1].split(",")
    assert float(cells[1]) == records[0].train_total
    assert float(cells[4]) == records[0].val_total


def constant_predictor(arch, base_class, exp_class):
    model = MultiOutputModel.init(arch, 0)
    for arr in model.param_arrays():
        arr[:] = 0
    model.base_head.bias[base_class] = 1.0
    model.exp_head.bias[exp_class] = 1.0
    return model


def synthetic_samples(n, seed, hw=(16, 16)):
    rng = Rng(seed)
    labels = (rng.u64(2 * n).reshape(n, 2) % np.array([8, 10], np.uint64)).astype(np.int64)
    return Dataset(np.zeros((n, 1, *hw), dtype=np.uint8), labels[:, 0], labels[:, 1],
                   np.tile(np.array([2.0, 0.0, 0.0], dtype=np.float32), (n, 1)))


def test_evaluate_constant_predictor():
    ds = synthetic_samples(160, 3)
    model = constant_predictor(TINY_ARCH, 0, 4)
    report = evaluate(model, ds)
    base_freq = sum(1 for s in ds if s.base_label == 0) / len(ds)
    exp_freq = sum(1 for s in ds if s.exp_label == 4) / len(ds)
    assert report.base_accuracy == pytest.approx(base_freq)
    assert report.exp_accuracy == pytest.approx(exp_freq)
    assert report.count == 160


def test_evaluate_joint_bounded_and_confusion_conserves():
    ds = synthetic_samples(120, 9)
    model = MultiOutputModel.init(TINY_ARCH, 2)
    report = evaluate(model, ds)
    assert 0.0 <= report.joint_accuracy <= min(report.base_accuracy, report.exp_accuracy)
    base_counts = np.bincount([s.base_label for s in ds], minlength=8)
    exp_counts = np.bincount([s.exp_label for s in ds], minlength=10)
    assert np.array_equal(report.base_confusion.sum(axis=1), base_counts)
    assert np.array_equal(report.exp_confusion.sum(axis=1), exp_counts)
    assert report.base_confusion.sum() == 120


@pytest.mark.parametrize("column, index, label", [("base_labels", 70, 8),
                                                  ("exp_labels", 3, -1)])
def test_evaluate_refuses_labels_outside_the_classes(column, index, label, monkeypatch):
    ds = synthetic_samples(120, 9)
    getattr(ds, column)[index] = label
    model = MultiOutputModel.init(TINY_ARCH, 2)

    def no_forward(*args, **kwargs):
        raise AssertionError("evaluate() ran a forward pass")

    monkeypatch.setattr(model, "forward_batch", no_forward)
    with pytest.raises(ValueError, match=rf"^sample {index} labels \(.*\) outside the 8 base"):
        evaluate(model, ds)


def test_evaluate_empty_dataset_rejected():
    model = MultiOutputModel.init(TINY_ARCH, 0)
    with pytest.raises(ValueError, match="dataset is empty"):
        evaluate(model, synthetic_samples(0, 0))


def test_sweep_contract_and_determinism():
    model = MultiOutputModel.init(SMALL_ARCH, 1)
    cfg = GenConfig(count=1, master_seed=13)
    res = robustness_sweep(model, cfg, "noise", [0.0, 0.4], per_level_count=12)
    assert [lv for lv, _ in res] == [0.0, 0.4]
    assert all(rep.count == 12 for _, rep in res)
    res2 = robustness_sweep(model, cfg, "noise", [0.0, 0.4], per_level_count=12)
    for (_, a), (_, b) in zip(res, res2):
        assert a.base_accuracy == b.base_accuracy
        assert np.array_equal(a.base_confusion, b.base_confusion)
    # same (seed, level) regardless of the level's position in the list
    res3 = robustness_sweep(model, cfg, "noise", [0.4], per_level_count=12)
    assert res3[0][1].mean_loss == res[1][1].mean_loss


def test_sweep_rejects_bad_arguments(monkeypatch):
    model = MultiOutputModel.init(SMALL_ARCH, 1)
    cfg = GenConfig(count=1, master_seed=13)
    with pytest.raises(ValueError):
        robustness_sweep(model, cfg, "rotation", [0.0], 5)
    with pytest.raises(ValueError):
        robustness_sweep(model, cfg, "noise", [0.4, 0.0], 5)
    with pytest.raises(ValueError):
        robustness_sweep(model, cfg, "blur", [-0.1], 5)
    with pytest.raises(ValueError, match="^levels must not be empty$"):
        robustness_sweep(model, cfg, "noise", [], 5)
    # a blur kernel wider than the image is refused before any level is generated
    monkeypatch.setattr("expnet.evaluate.generate_dataset",
                        lambda config: pytest.fail("a level was generated"))
    with pytest.raises(ValueError, match="blur_sigma_range must be finite"):
        robustness_sweep(model, cfg, "blur", [1.0, 30.0], 5)


def test_histogram_categorical():
    assert histogram([2, 2, 3]) == [(2, 2), (3, 1)]


def test_histogram_uniform_binning():
    values = Rng(21).uniforms(1000).tolist()
    buckets = histogram(values, bins=10)
    counts = [c for _, c in buckets]
    assert sum(counts) == 1000
    assert all(60 <= c <= 140 for c in counts)   # 3-sigma band around 100


def test_histogram_conservation_random_bins():
    for seed in range(10):
        rng = Rng(seed)
        n = 50 + int(rng.u64(1)[0] % 200)
        values = rng.uniforms(n, -5, 5).tolist()
        bins = 1 + int(rng.u64(1)[0] % 12)
        assert sum(c for _, c in histogram(values, bins=bins)) == n


def test_histogram_empty_rejected():
    with pytest.raises(ValueError):
        histogram([])
