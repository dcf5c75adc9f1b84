"""Command-line interface: generate / train / eval / sweep / hist / predict / gradcheck."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .dataio import read_dataset, write_dataset
from .datagen import GenConfig, generate_dataset
from .errors import ExpnetError
from .evaluate import csv_text, evaluate, histogram, robustness_sweep
from .gradcheck import build_probe, gradient_check
from .losses import softmax
from .model import BASE_DIGITS, EXP_DIGITS, Architecture, model_forward
from .train import TrainConfig, history_csv, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expnet",
                                     description="base^exponent expression CNN toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--noise-max", type=float, default=0.3)
    p.add_argument("--blur-max", type=float, default=2.0)
    p.add_argument("--font-min", type=float, default=2.0)
    p.add_argument("--font-max", type=float, default=3.5)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", help="write per-epoch history CSV here")

    p = sub.add_parser("eval", help="evaluate a model on a dataset file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="write metric,value CSV here")
    p.add_argument("--confusion", help="write per-head confusion CSV here")

    p = sub.add_parser("sweep", help="robustness sweep over noise or blur levels")
    p.add_argument("--model", required=True)
    p.add_argument("--attr", choices=["noise", "blur"], required=True)
    p.add_argument("--levels", required=True, help="comma-separated, ascending")
    p.add_argument("--count-per-level", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("hist", help="histogram of a dataset attribute")
    p.add_argument("--data", required=True)
    p.add_argument("--attr", choices=["base", "exponent", "noise", "blur"], required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="predict one sample and show probabilities")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--seed", type=int, default=4)
    return parser


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _cmd_generate(args) -> int:
    size = (args.image_size, args.image_size)
    config = GenConfig(count=args.count, image_size=size,
                       font_scale_range=(args.font_min, args.font_max),
                       noise_sigma_range=(0.0, args.noise_max),
                       blur_sigma_range=(0.0, args.blur_max),
                       master_seed=args.seed)
    samples = generate_dataset(config)
    write_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    samples, header = read_dataset(args.data)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                         early_stop_patience=args.patience, seed=args.seed)
    result = train(samples, config, arch=Architecture(input_hw=header.image_size),
                   init_seed=args.seed)
    write_checkpoint(result.model, args.out)
    if args.history:
        _write_text(args.history, history_csv(result.history))
    last = result.history[-1]
    print(f"trained {len(result.history)} epochs"
          f"{' (early stop)' if result.stopped_early else ''}; "
          f"best epoch {result.best_epoch}, "
          f"val loss {last.val_total:.4f}, "
          f"val acc base {last.val_base_acc:.3f} exp {last.val_exp_acc:.3f}")
    print(f"wrote model to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model, _ = read_checkpoint(args.model)
    samples, _ = read_dataset(args.data)
    report = evaluate(model, samples)
    print(f"samples: {report.count}")
    print(f"base accuracy:  {report.base_accuracy:.4f}")
    print(f"exp accuracy:   {report.exp_accuracy:.4f}")
    print(f"joint accuracy: {report.joint_accuracy:.4f}")
    print(f"mean loss:      {report.mean_loss:.4f}")
    if args.report:
        names = ("base_accuracy", "exp_accuracy", "joint_accuracy", "mean_loss", "count")
        _write_text(args.report, csv_text(["metric", "value"],
                                          ((name, getattr(report, name)) for name in names)))
    if args.confusion:
        heads = (("base", report.base_confusion), ("exponent", report.exp_confusion))
        _write_text(args.confusion, csv_text(
            ["head", "true_class", "predicted_class", "count"],
            ((head, t, pr, n) for head, conf in heads for (t, pr), n in np.ndenumerate(conf))))
    return 0


def _cmd_sweep(args) -> int:
    model, _ = read_checkpoint(args.model)
    levels = [float(v) for v in args.levels.split(",") if v != ""]
    config = GenConfig(count=1, image_size=model.arch.input_hw, master_seed=args.seed)
    results = robustness_sweep(model, config, args.attr, levels, args.count_per_level)
    _write_text(args.out, csv_text(
        ["attr", "level", "base_acc", "exp_acc", "joint_acc", "mean_loss"],
        ((args.attr, level, rep.base_accuracy, rep.exp_accuracy, rep.joint_accuracy,
          rep.mean_loss) for level, rep in results)))
    for level, rep in results:
        print(f"{args.attr}={level:g}: base {rep.base_accuracy:.3f} "
              f"exp {rep.exp_accuracy:.3f} joint {rep.joint_accuracy:.3f}")
    print(f"wrote sweep to {args.out}")
    return 0


def _cmd_hist(args) -> int:
    dataset, _ = read_dataset(args.data)
    if args.attr == "base":
        buckets = histogram((BASE_DIGITS[0] + dataset.base_labels).tolist())
    elif args.attr == "exponent":
        buckets = histogram((EXP_DIGITS[0] + dataset.exp_labels).tolist())
    else:
        idx = 1 if args.attr == "noise" else 2
        buckets = histogram(dataset.meta[:, idx], bins=args.bins)
    _write_text(args.out, csv_text(["bucket", "count"], (
        (f"[{bucket[0]};{bucket[1]})" if isinstance(bucket, tuple) else bucket, count)
        for bucket, count in buckets)))
    for bucket, count in buckets:
        print(f"{bucket}: {count}")
    return 0


def _cmd_predict(args) -> int:
    model, _ = read_checkpoint(args.model)
    samples, _ = read_dataset(args.data)
    if not 0 <= args.index < len(samples):
        print(f"error: index {args.index} out of range for {len(samples)} samples",
              file=sys.stderr)
        return 1
    sample = samples[args.index]
    base_logits, exp_logits, _ = model_forward(model, sample.image)
    base_probs = softmax(base_logits)
    exp_probs = softmax(exp_logits)
    pred_base = BASE_DIGITS[0] + int(np.argmax(base_probs))
    pred_exp = EXP_DIGITS[0] + int(np.argmax(exp_probs))
    true_base = BASE_DIGITS[0] + sample.base_label
    true_exp = EXP_DIGITS[0] + sample.exp_label
    print(f"predicted: {pred_base}^{pred_exp}   (true: {true_base}^{true_exp})")
    print("base probabilities: " + " ".join(
        f"{BASE_DIGITS[0] + i}:{p:.3f}" for i, p in enumerate(base_probs)))
    print("exp probabilities:  " + " ".join(
        f"{EXP_DIGITS[0] + i}:{p:.3f}" for i, p in enumerate(exp_probs)))
    return 0


def _cmd_gradcheck(args) -> int:
    model, image, base_label, exp_label = build_probe(args.seed)
    report = gradient_check(model, image, base_label, exp_label)
    for row in report.rows:
        status = "pass" if row.ok else "FAIL"
        print(f"{row.name:24s} max_rel_err={row.max_rel_err:.3e} "
              f"checked={row.n_checked} excluded={row.n_excluded} {status}")
    print("gradient check:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "hist": _cmd_hist,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size the flags allow but the machine cannot hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # a directory, a denied permission, a full disk, ...
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except (ExpnetError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
