import os
import subprocess
import sys

import numpy as np
import pytest

import expnet
from expnet import model as model_module
from expnet.checkpoint import read_checkpoint, write_checkpoint
from expnet.cli import cli_main
from expnet.dataio import read_dataset
from expnet.losses import softmax
from expnet.model import BASE_DIGITS, EXP_DIGITS, TINY_ARCH, MultiOutputModel


def test_generate_then_hist_conserves_counts(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    hist = str(tmp_path / "h.csv")
    assert cli_main(["generate", "--count", "100", "--seed", "7", "--out", data]) == 0
    assert cli_main(["hist", "--data", data, "--attr", "base", "--out", hist]) == 0
    lines = open(hist).read().strip().splitlines()
    assert lines[0] == "bucket,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8                       # digits 2..9 all present at n=100
    assert sum(int(c) for _, c in rows) == 100
    assert [b for b, _ in rows] == [str(d) for d in range(2, 10)]


def test_generate_deterministic_files(tmp_path):
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert cli_main(["generate", "--count", "30", "--seed", "3", "--out", p1]) == 0
    assert cli_main(["generate", "--count", "30", "--seed", "3", "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_continuous_hist_csv(tmp_path):
    data = str(tmp_path / "d.bin")
    hist = str(tmp_path / "h.csv")
    cli_main(["generate", "--count", "50", "--seed", "9", "--out", data])
    assert cli_main(["hist", "--data", data, "--attr", "noise", "--bins", "5",
                     "--out", hist]) == 0
    lines = open(hist).read().strip().splitlines()
    assert len(lines) == 6
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 50


def test_train_eval_predict_flow(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.ckpt")
    history = str(tmp_path / "hist.csv")
    report = str(tmp_path / "report.csv")
    confusion = str(tmp_path / "conf.csv")
    cli_main(["generate", "--count", "48", "--seed", "5", "--out", data])
    assert cli_main(["train", "--data", data, "--out", model, "--epochs", "1",
                     "--seed", "5", "--history", history]) == 0
    lines = open(history).read().strip().splitlines()
    assert lines[0].startswith("epoch,train_total")
    assert len(lines) == 2

    assert cli_main(["eval", "--model", model, "--data", data,
                     "--report", report, "--confusion", confusion]) == 0
    out = capsys.readouterr().out
    assert "joint accuracy" in out
    rep_lines = open(report).read().strip().splitlines()
    assert rep_lines[0] == "metric,value"
    conf_lines = open(confusion).read().strip().splitlines()
    assert conf_lines[0] == "head,true_class,predicted_class,count"
    total = sum(int(line.split(",")[3]) for line in conf_lines[1:]
                if line.startswith("base,"))
    assert total == 48

    assert cli_main(["predict", "--model", model, "--data", data, "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "predicted:" in out and "^" in out
    assert cli_main(["predict", "--model", model, "--data", data, "--index", "99"]) == 1


def test_predict_runs_the_untraced_forward(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "d.bin")
    ckpt = str(tmp_path / "m.ckpt")
    cli_main(["generate", "--count", "12", "--seed", "6", "--out", data])
    cli_main(["train", "--data", data, "--out", ckpt, "--epochs", "1", "--seed", "6"])
    capsys.readouterr()
    # the lines of the traced forward; predict runs model_forward, the
    # untraced single-image pass that the benchmark's predict phase also
    # times, and must print the same
    net, _ = read_checkpoint(ckpt)
    samples, _ = read_dataset(data)
    sample = samples[3]
    base_logits, exp_logits, _ = net.forward_batch(sample.image[None])
    base_probs, exp_probs = softmax(base_logits[0]), softmax(exp_logits[0])
    b0, e0 = BASE_DIGITS[0], EXP_DIGITS[0]
    expected = "\n".join([
        f"predicted: {b0 + int(np.argmax(base_probs))}^{e0 + int(np.argmax(exp_probs))}"
        f"   (true: {b0 + sample.base_label}^{e0 + sample.exp_label})",
        "base probabilities: " + " ".join(f"{b0 + i}:{p:.3f}" for i, p in enumerate(base_probs)),
        "exp probabilities:  " + " ".join(f"{e0 + i}:{p:.3f}" for i, p in enumerate(exp_probs)),
    ]) + "\n"

    def no_trace(*args, **kwargs):
        raise AssertionError("predict built a ForwardTrace")

    monkeypatch.setattr(model_module, "ForwardTrace", no_trace)
    assert cli_main(["predict", "--model", ckpt, "--data", data, "--index", "3"]) == 0
    assert capsys.readouterr().out == expected


def test_sweep_csv(tmp_path):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.ckpt")
    out = str(tmp_path / "sweep.csv")
    cli_main(["generate", "--count", "40", "--seed", "2", "--out", data])
    cli_main(["train", "--data", data, "--out", model, "--epochs", "1", "--seed", "2"])
    assert cli_main(["sweep", "--model", model, "--attr", "noise",
                     "--levels", "0,0.3", "--count-per-level", "10",
                     "--seed", "4", "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "attr,level,base_acc,exp_acc,joint_acc,mean_loss"
    assert len(lines) == 3
    assert lines[1].startswith("noise,0.0,")


def test_gradcheck_exits_zero(capsys):
    assert cli_main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_missing_required_flag_is_usage_error(capsys):
    code = cli_main(["train", "--out", "m.ckpt"])
    assert code != 0
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_rejected(capsys):
    assert cli_main(["frobnicate"]) != 0


def test_missing_file_reports_path(tmp_path, capsys):
    code = cli_main(["eval", "--model", str(tmp_path / "nope.ckpt"),
                     "--data", str(tmp_path / "nope.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert "nope" in err


def test_train_rejects_bad_lr_before_writing(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    model = tmp_path / "m.ckpt"
    cli_main(["generate", "--count", "20", "--seed", "4", "--out", data])
    for lr in ("-1", "nan"):
        assert cli_main(["train", "--data", data, "--out", str(model), "--epochs", "1",
                         "--lr", lr]) == 1
        assert capsys.readouterr().err.startswith("error: lr ")
        assert not model.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # numpy's overflow warnings
def test_diverging_train_exits_1_without_writing(tmp_path, capsys):
    # lr 1e30 passes TrainConfig's check, then the first step overflows the
    # weights: the next step fails, or validation when the epoch had one step
    data = str(tmp_path / "d.bin")
    model, history = tmp_path / "m.ckpt", tmp_path / "hist.csv"
    cli_main(["generate", "--count", "20", "--seed", "4", "--out", data])
    for batch, where in (("4", "batch 1"), ("32", "validation after batch 0")):
        assert cli_main(["train", "--data", data, "--out", str(model), "--epochs", "2",
                         "--batch", batch, "--lr", "1e30", "--history", str(history)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: training diverged in epoch 0, {where}: ")
        assert "non-finite" in err
        assert not model.exists() and not history.exists()


def test_non_finite_ranges_rejected_before_any_work(tmp_path, capsys):
    data = tmp_path / "d.bin"
    for flag, value, field in (("--blur-max", "inf", "blur_sigma_range"),
                               ("--noise-max", "nan", "noise_sigma_range"),
                               ("--font-min", "0", "font_scale_range")):
        assert cli_main(["generate", "--count", "2", "--seed", "1", "--out", str(data),
                         flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
        assert not data.exists()
    model = str(tmp_path / "m.ckpt")
    write_checkpoint(MultiOutputModel.init(TINY_ARCH, 0), model)
    for levels in ("nan", "0,inf"):
        assert cli_main(["sweep", "--model", model, "--attr", "blur", "--levels", levels,
                         "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: levels must be finite")


def test_bad_image_size_rejected_before_any_work(tmp_path, capsys):
    data = tmp_path / "d.bin"
    for size in ("-3", "0"):
        assert cli_main(["generate", "--count", "2", "--seed", "1", "--out", str(data),
                         "--image-size", size]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: image_size must be >= 1 in each dimension, got ({size}, {size})")
        assert not data.exists()


def test_eval_refuses_other_digit_bounds(tmp_path, capsys):
    data, model = tmp_path / "d.bin", str(tmp_path / "m.ckpt")
    cli_main(["generate", "--count", "2", "--seed", "1", "--out", str(data)])
    blob = data.read_bytes()
    data.write_bytes(blob[:20] + bytes([3]) + blob[21:])
    write_checkpoint(MultiOutputModel.init(TINY_ARCH, 0), model)
    capsys.readouterr()
    assert cli_main(["eval", "--model", model, "--data", str(data)]) == 1
    assert "digit bounds (3, 9, 0, 9) at offset 20" in capsys.readouterr().err


def test_bad_magic_reported_as_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"GARBAGE!")
    assert cli_main(["hist", "--data", str(bad), "--attr", "base",
                     "--out", str(tmp_path / "h.csv")]) == 1
    assert "magic" in capsys.readouterr().err


def test_generated_file_readable_via_api(tmp_path):
    data = str(tmp_path / "d.bin")
    cli_main(["generate", "--count", "12", "--seed", "8", "--out", data,
              "--image-size", "64", "--noise-max", "0.1"])
    samples, header = read_dataset(data)
    assert len(samples) == 12
    assert all(s.meta[1] <= 0.1 + 1e-6 for s in samples)
    assert header.image_size == (64, 64)


def test_python_m_expnet_runs_the_cli():
    # the package runs as a module too, for a checkout without the installed script
    src = os.path.dirname(os.path.dirname(expnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "expnet", "gradcheck", "--seed", "4"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("gradient check: PASS")
