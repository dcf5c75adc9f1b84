"""Acceptance gate: each test prints one PASS/FAIL line (run with -s to see them).

The desk-scale pipeline (criteria 4-6) is executed once per process via a
module fixture; criterion 6 repeats it from scratch and compares artifacts
byte for byte.
"""

import math
import time

import numpy as np
import pytest

from expnet.checkpoint import read_checkpoint, write_checkpoint
from expnet.dataio import read_dataset, write_dataset
from expnet.datagen import GenConfig, generate_dataset
from expnet.evaluate import evaluate, histogram, robustness_sweep
from expnet.gradcheck import build_probe, gradient_check
from expnet.layers import ConvLayer, conv_forward_batch
from expnet.losses import softmax, softmax_ce_batch
from expnet.model import TINY_ARCH, Architecture, MultiOutputModel
from expnet.rng import Rng
from expnet.tensor import conv2d_naive
from expnet.train import TrainConfig, history_csv, train

DESK_SEED = 42
DESK_TRAIN = 4000
DESK_TEST = 500
DESK_EPOCHS = 8          # <= 15 allowed; validation saturates around epoch 5


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_desk_pipeline(outdir):
    """generate -> write -> read -> train -> checkpoint; returns paths/results."""
    config = GenConfig(count=DESK_TRAIN + DESK_TEST, master_seed=DESK_SEED)
    samples = generate_dataset(config)
    data_path = str(outdir / "desk.bin")
    write_dataset(samples, data_path)
    loaded, _ = read_dataset(data_path)
    train_set, test_set = loaded[:DESK_TRAIN], loaded[DESK_TRAIN:]

    t0 = time.time()
    result = train(train_set, TrainConfig(epochs=DESK_EPOCHS, seed=DESK_SEED),
                   init_seed=DESK_SEED)
    train_minutes = (time.time() - t0) / 60.0

    ckpt_path = str(outdir / "desk.ckpt")
    write_checkpoint(result.model, ckpt_path)
    hist_path = str(outdir / "history.csv")
    with open(hist_path, "w") as f:
        f.write(history_csv(result.history))
    return {
        "config": config,
        "data_path": data_path,
        "ckpt_path": ckpt_path,
        "hist_path": hist_path,
        "result": result,
        "test_set": test_set,
        "train_minutes": train_minutes,
    }


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    return run_desk_pipeline(tmp_path_factory.mktemp("desk"))


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    model, image, base_label, exp_label = build_probe(4)
    n_params = sum(a.size for a in model.param_arrays())
    assert model.arch == TINY_ARCH and n_params <= 5000
    rep = gradient_check(model, image, base_label, exp_label, eps=1e-3, tolerance=1e-3)
    elapsed = time.time() - t0
    worst = max(r.max_rel_err for r in rep.rows)
    report("criterion 1 (gradient correctness)",
           rep.passed and elapsed < 60.0,
           f"{n_params} params, max rel err {worst:.2e} < 1e-3, {elapsed:.1f}s")


def test_criterion_2_conv_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for case in range(200):
        rng = Rng(9000 + case)
        c = 1 + rng.randint(3)
        h = 3 + rng.randint(8)
        w_dim = 3 + rng.randint(8)
        k = 1 + rng.randint(4)
        m = 1 + rng.randint(3)
        n = 1 + rng.randint(3)
        stride = 1 + rng.randint(2)
        pad = rng.randint(2)
        x = rng.uniforms(c * h * w_dim, -1, 1).reshape(c, h, w_dim).astype(np.float32)
        wt = rng.uniforms(k * c * m * n, -1, 1).reshape(k, c, m, n).astype(np.float32)
        b = rng.uniforms(k, -1, 1).astype(np.float32)
        fast, _ = conv_forward_batch(ConvLayer(wt, b, stride, pad), x[:, None])
        diff = np.max(np.abs(fast[:, 0] - conv2d_naive(x, wt, b, stride, pad)))
        worst = max(worst, float(diff))
    elapsed = time.time() - t0
    report("criterion 2 (conv oracle equivalence)",
           worst < 1e-5 and elapsed < 30.0,
           f"200 cases, max |fast - naive| = {worst:.2e} < 1e-5, {elapsed:.1f}s")


def test_criterion_3_analytic_loss_identities():
    worst_sum = 0.0
    for i in range(1000):
        rng = Rng(5000 + i)
        scale = 1000.0 if i % 3 == 0 else 8.0
        v = rng.uniforms(2 + i % 11, -scale, scale).astype(np.float32)
        p = softmax(v)
        worst_sum = max(worst_sum, abs(float(np.sum(p, dtype=np.float64)) - 1.0))
    zero = np.zeros(1, dtype=np.int64)
    base_loss, _ = softmax_ce_batch(np.zeros((1, 8), dtype=np.float32), zero)
    exp_loss, _ = softmax_ce_batch(np.zeros((1, 10), dtype=np.float32), zero)
    uniform = float(base_loss[0] + exp_loss[0])
    expect = math.log(8.0) + math.log(10.0)
    loss_err = abs(uniform - 4.382027)
    report("criterion 3 (analytic loss identities)",
           worst_sum < 1e-6 and loss_err < 1e-4,
           f"max |sum(p)-1| = {worst_sum:.2e} < 1e-6; uniform loss "
           f"{uniform:.6f} vs ln8+ln10 = {expect:.6f} (err {loss_err:.2e})")


@pytest.mark.slow
def test_criterion_4_desk_scale_accuracy(desk):
    rep = evaluate(desk["result"].model, desk["test_set"])
    ok = (rep.base_accuracy >= 0.90 and rep.exp_accuracy >= 0.90
          and rep.joint_accuracy >= 0.85 and desk["train_minutes"] < 15.0)
    report("criterion 4 (desk-scale accuracy)", ok,
           f"base {rep.base_accuracy:.4f} >= 0.90, exp {rep.exp_accuracy:.4f} >= 0.90, "
           f"joint {rep.joint_accuracy:.4f} >= 0.85 on {rep.count} held-out samples; "
           f"{len(desk['result'].history)} epochs in {desk['train_minutes']:.1f} min")


@pytest.mark.slow
def test_criterion_5_noise_robustness(desk):
    t0 = time.time()
    clean = evaluate(desk["result"].model, desk["test_set"])
    sweep = robustness_sweep(desk["result"].model, desk["config"], "noise",
                             [0.0, 0.15, 0.3, 0.6], per_level_count=200)
    elapsed = time.time() - t0
    by_level = {lv: r for lv, r in sweep}
    degraded = by_level[0.6].joint_accuracy < by_level[0.0].joint_accuracy
    near_clean = abs(by_level[0.0].joint_accuracy - clean.joint_accuracy) <= 0.03
    report("criterion 5 (noise robustness)",
           degraded and near_clean and elapsed < 120.0,
           f"joint by level: " +
           ", ".join(f"{lv}: {r.joint_accuracy:.3f}" for lv, r in sweep) +
           f"; clean {clean.joint_accuracy:.3f}; {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_pipeline_determinism(desk, tmp_path):
    rerun = run_desk_pipeline(tmp_path)
    same_data = open(desk["data_path"], "rb").read() == open(rerun["data_path"], "rb").read()
    same_hist = open(desk["hist_path"]).read() == open(rerun["hist_path"]).read()
    same_ckpt = open(desk["ckpt_path"], "rb").read() == open(rerun["ckpt_path"], "rb").read()
    report("criterion 6 (pipeline determinism)",
           same_data and same_hist and same_ckpt,
           f"dataset bytes equal: {same_data}, history equal: {same_hist}, "
           f"checkpoint bytes equal: {same_ckpt}")


def test_criterion_7_distribution_balance():
    ds = generate_dataset(GenConfig(count=10000, master_seed=DESK_SEED))
    base_counts = np.bincount([s.base_label for s in ds], minlength=8)
    exp_counts = np.bincount([s.exp_label for s in ds], minlength=10)
    base_ratio = base_counts.max() / base_counts.min()
    exp_ratio = exp_counts.max() / exp_counts.min()

    # 10 bins, n = 10000, p = 1/10: 3-sigma band 1000 +- 3*30
    lo, hi = 1000 - 90, 1000 + 90
    noise_counts = [c for _, c in histogram([s.meta[1] for s in ds], bins=10)]
    blur_counts = [c for _, c in histogram([s.meta[2] for s in ds], bins=10)]
    noise_ok = all(lo <= c <= hi for c in noise_counts)
    blur_ok = all(lo <= c <= hi for c in blur_counts)
    report("criterion 7 (distribution balance)",
           base_ratio < 1.25 and exp_ratio < 1.25 and noise_ok and blur_ok,
           f"base ratio {base_ratio:.3f} < 1.25, exp ratio {exp_ratio:.3f} < 1.25, "
           f"noise bins {min(noise_counts)}..{max(noise_counts)}, "
           f"blur bins {min(blur_counts)}..{max(blur_counts)} in [{lo}, {hi}]")


def test_criterion_8_persistence_round_trips(tmp_path):
    ds = generate_dataset(GenConfig(count=12, master_seed=8))
    data_path = str(tmp_path / "rt.bin")
    write_dataset(ds, data_path)
    back, _ = read_dataset(data_path)
    labels_ok = all((a.base_label, a.exp_label, a.meta)
                    == (b.base_label, b.exp_label, b.meta)
                    for a, b in zip(ds, back))
    pixels_ok = all(np.max(np.abs(a.image - b.image)) <= 1 / 255
                    for a, b in zip(ds, back))

    model = MultiOutputModel.init(TINY_ARCH, 99)
    ckpt = str(tmp_path / "rt.ckpt")
    write_checkpoint(model, ckpt)
    loaded, _ = read_checkpoint(ckpt)
    ckpt_ok = all(np.array_equal(a, b) for a, b in
                  zip(model.param_arrays(), loaded.param_arrays()))

    arch = Architecture(input_hw=(64, 64), conv_channels=(4, 8), dense_width=32)
    train_ds = generate_dataset(GenConfig(count=90, master_seed=31))
    straight = train(train_ds, TrainConfig(epochs=3, seed=31), arch=arch, init_seed=31)
    leg1 = train(train_ds, TrainConfig(epochs=2, seed=31), arch=arch, init_seed=31)
    mid = str(tmp_path / "mid.ckpt")
    write_checkpoint(leg1.final_model, mid, adam_state=leg1.adam_state)
    loaded_model, loaded_adam = read_checkpoint(mid)
    leg2 = train(train_ds, TrainConfig(epochs=3, seed=31), arch=arch,
                 initial_model=loaded_model, initial_adam=loaded_adam, start_epoch=2)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    write_checkpoint(straight.final_model, p1, adam_state=straight.adam_state)
    write_checkpoint(leg2.final_model, p2, adam_state=leg2.adam_state)
    resume_ok = open(p1, "rb").read() == open(p2, "rb").read()

    report("criterion 8 (persistence round-trips)",
           labels_ok and pixels_ok and ckpt_ok and resume_ok,
           f"dataset labels/meta exact: {labels_ok}, pixels within 1/255: {pixels_ok}, "
           f"checkpoint bitwise: {ckpt_ok}, resume == uninterrupted: {resume_ok}")
