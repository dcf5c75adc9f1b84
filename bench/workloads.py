"""The three workloads: train, infer and data.

Each is a closed loop from one caller: the next call starts when the previous
one returns. Inputs are synthesised from the workload seed during set-up.
``setup`` builds the inputs; ``measure`` runs the timed calls, checks their
outputs and returns the raw measurements. ``full=False`` (the traced run's
halves) drops the train workload's minimum step count.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from expnet import checkpoint, dataio, datagen, evaluate, model, optim, train
from expnet.datagen import GenConfig
from expnet.rng import Rng

from probes import StepClock
from tracing import Patcher, Tracer, perf_counter


@dataclass(frozen=True)
class Size:
    train_count: int         # samples in the train workload's dataset (10% become validation)
    epochs: int              # epochs per train() call; patience is set to the same value
    min_steps: int           # optimizer steps a train run times at least
    eval_count: int          # held-out samples per evaluate() call
    predicts_per_cycle: int  # batch-1 model_forward calls after each evaluate() call
    gen_chunk: int           # samples per generate_dataset() call in the data workload
    setups: int              # set-ups per run; setup_s is their median


FULL = Size(train_count=178, epochs=2, min_steps=100, eval_count=256, predicts_per_cycle=100,
            gen_chunk=128, setups=5)
TINY = Size(train_count=40, epochs=1, min_steps=1, eval_count=8, predicts_per_cycle=4,
            gen_chunk=4, setups=1)


@dataclass
class Measured:
    samples: int = 0
    seconds: float = 0.0
    throughputs: list[float] = field(default_factory=list)   # samples/s of each timed call
    latencies: list[float] = field(default_factory=list)
    rates: dict[str, list[float]] = field(default_factory=lambda: {   # MB/s of each file call
        "expd_write_mb_per_s": [], "expd_read_mb_per_s": [],
        "expm_write_mb_per_s": [], "expm_read_mb_per_s": []})

    def add(self, samples: int, seconds: float) -> None:
        self.samples += samples
        self.seconds += seconds
        self.throughputs.append(samples / seconds)


class Run:
    """One benchmark process: its seed, sizes, scratch files, counters and tracer."""

    def __init__(self, seed: int, size: Size, out_dir: str):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.patcher = Patcher()
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.files: set[str] = set()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def call(self, name: str, fn, *args, **kwargs):
        """One operation of the workload; a span when tracing."""
        self.attempted += 1
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def phase(self, name: str, fn, *args, **kwargs):
        """A stretch of the workload; a bench.<name> span when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(f"bench.{name}", fn, *args, **kwargs)

    @contextmanager
    def untraced(self):
        """Calls made for checks stay out of the spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def path(self, name: str) -> str:
        """A new scratch file of this process; runs side by side never share one.

        An older file of that name is removed first. Rewriting it in place
        would make ext4 start writing the old contents back to disk on close
        (its replace-via-truncate rule), and the timed calls would then share
        the machine with that disk traffic.
        """
        path = os.path.join(self.out_dir, f"{os.getpid()}-{name}")
        if os.path.exists(path):
            os.remove(path)
        self.files.add(path)
        return path

    def remove_files(self) -> None:
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _quantized(image: np.ndarray) -> np.ndarray:
    """What EXPD stores for a pixel p: round(p*255)/255."""
    return np.round(image * 255.0).astype(np.uint8).astype(np.float32) / 255.0


def _round_trip(run: Run, samples, net, adam, m: Measured) -> None:
    """Write and read back one EXPD and one EXPM file (with Adam state); check both exactly."""
    expd, expm = run.path("bench.expd"), run.path("bench.expm")

    def timed(name, fn, *args):
        t = perf_counter()
        result = run.call(name, fn, *args)
        return result, perf_counter() - t

    _, seconds = timed("dataio.write_dataset", dataio.write_dataset, samples, expd)
    mb = os.path.getsize(expd) / 1e6
    m.rates["expd_write_mb_per_s"].append(mb / seconds)
    (back, header), seconds = timed("dataio.read_dataset", dataio.read_dataset, expd)
    m.rates["expd_read_mb_per_s"].append(mb / seconds)
    run.check(header.count == len(samples) and len(back) == len(samples)
              and all(b.base_label == s.base_label and b.exp_label == s.exp_label
                      and b.meta == s.meta for b, s in zip(back, samples)),
              "EXPD labels and metadata round-trip exactly")
    run.check(all(np.array_equal(b.image, _quantized(s.image)) for b, s in zip(back, samples)),
              "EXPD pixels read back as round(p*255)/255")

    _, seconds = timed("checkpoint.write_checkpoint", checkpoint.write_checkpoint, net, expm, adam)
    mb = os.path.getsize(expm) / 1e6
    m.rates["expm_write_mb_per_s"].append(mb / seconds)
    (net_back, adam_back), seconds = timed("checkpoint.read_checkpoint",
                                           checkpoint.read_checkpoint, expm)
    m.rates["expm_read_mb_per_s"].append(mb / seconds)
    m.latencies.append(seconds)
    run.check(net_back.arch == net.arch and adam_back is not None
              and (adam_back.t, adam_back.lr, adam_back.beta1, adam_back.beta2, adam_back.eps)
              == (adam.t, adam.lr, adam.beta1, adam.beta2, adam.eps)
              and all(np.array_equal(a, b) for a, b in zip(
                  net_back.param_arrays() + adam_back.m + adam_back.v,
                  net.param_arrays() + adam.m + adam.v)),
              "EXPM parameters and Adam state round-trip bitwise")


# --- train: what `expnet train` runs, batch 32 ---

def _train_size(n: int, config: train.TrainConfig) -> int:
    """Training samples left after train()'s validation split."""
    return n - max(1, int(round(config.validation_fraction * n)))


def setup_train(run: Run):
    samples = datagen.generate_dataset(GenConfig(count=run.size.train_count, master_seed=run.seed))
    config = train.TrainConfig(epochs=run.size.epochs, early_stop_patience=run.size.epochs,
                               seed=run.seed)
    return samples, config


def measure_train(run: Run, inputs, seconds: float, full: bool) -> Measured:
    samples, config = inputs
    n_train = _train_size(len(samples), config)
    steps_per_epoch = math.ceil(n_train / config.batch_size)
    steps_per_call = steps_per_epoch * config.epochs
    min_calls = math.ceil(run.size.min_steps / steps_per_call) if full else 1
    clock = StepClock(steps_per_epoch)
    clock.install(run.patcher, train, run.tracer)

    m = Measured()
    digests = set()
    deadline = perf_counter() + seconds
    last = calls = 0
    while calls < min_calls or perf_counter() + last <= deadline:
        clock.reset()
        before = len(clock.durations)
        t = perf_counter()
        result = run.phase("train", run.call, "train.train", train.train,
                           samples, config, init_seed=run.seed)
        last = perf_counter() - t
        m.add(n_train * config.epochs, last)
        calls += 1
        history = result.history
        run.check(len(clock.durations) - before == steps_per_call,
                  f"{steps_per_call} optimizer steps per train() call")
        run.check(len(history) == config.epochs and not result.stopped_early,
                  f"{config.epochs} epochs per train() call")
        run.check(all(math.isfinite(v) for r in history for v in
                      (r.train_total, r.train_base, r.train_exp, r.val_total)),
                  "training and validation losses finite")
        digests.add((_sha256(result.final_model.param_arrays()),
                     hashlib.sha256(train.history_csv(history).encode()).hexdigest()))
    run.check(len(digests) == 1, "every train() call gives the same parameters and history")
    params_sha, history_sha = sorted(digests)[0]
    run.notes += [f"sha256 final parameters {params_sha}", f"sha256 history_csv {history_sha}"]
    m.latencies = clock.durations
    return m


# --- infer: evaluate() at EVAL_CHUNK, then batch-1 model_forward as `expnet predict` ---

def setup_infer(run: Run):
    held_out = datagen.generate_dataset(GenConfig(count=run.size.eval_count, master_seed=run.seed))
    path = run.path("infer.expm")
    checkpoint.write_checkpoint(model.MultiOutputModel.init(model.DEFAULT_ARCH, run.seed), path)
    net, _ = checkpoint.read_checkpoint(path)
    return held_out, net


def measure_infer(run: Run, inputs, seconds: float, full: bool) -> Measured:
    """Cycles of one evaluate() call followed by a run of batch-1 predicts.

    Alternating the phases spreads each one's samples over the whole run, so
    slow spells of a shared machine weigh on both alike.
    """
    held_out, net = inputs
    n = len(held_out)
    order = Rng(run.seed).substream(1).permutation(n)
    probe = {int(i): None for i in order[:16] if i < train.EVAL_CHUNK}
    m = Measured()
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        t = perf_counter()
        report = run.phase("evaluate", run.call, "evaluate.evaluate", evaluate.evaluate,
                           net, held_out)
        m.add(n, perf_counter() - t)
        run.check(report.count == n and int(report.base_confusion.sum()) == n
                  and int(report.exp_confusion.sum()) == n,
                  "confusion matrices sum to the sample count")
        run.check(report.base_accuracy == np.trace(report.base_confusion) / n
                  and report.exp_accuracy == np.trace(report.exp_confusion) / n,
                  "accuracies agree with the confusion diagonals")

        for _ in range(run.size.predicts_per_cycle):
            i = int(order[k % n])
            t = perf_counter()
            base, exp, _ = run.phase("predict", run.call, "model.model_forward",
                                     model.model_forward, net, held_out[i].image)
            m.latencies.append(perf_counter() - t)
            if i in probe and probe[i] is None:
                probe[i] = (base, exp)
            k += 1

    # batch-EVAL_CHUNK logits, as evaluate() computes them, against the batch-1 ones
    images = np.stack([s.image for s in held_out[:train.EVAL_CHUNK]])
    with run.untraced():
        base_b, exp_b, _ = net.forward_batch(images, need_trace=False)
    for i, logits in probe.items():
        if logits is None:
            continue
        for one, batch in zip(logits, (base_b[i], exp_b[i])):
            run.check(np.max(np.abs(one - batch)) <= 1e-5 * np.max(np.abs(batch)),
                      f"batch-{train.EVAL_CHUNK} logits of sample {i} match batch 1 within 1e-5")
    return m


# --- data: synthesis and the two file formats; no CNN math ---

def setup_data(run: Run):
    net = model.MultiOutputModel.init(model.DEFAULT_ARCH, run.seed)
    params = net.param_arrays()
    adam = optim.AdamState.init(params)
    rng = Rng(run.seed).substream(2)
    grads = [rng.normals(p.size).reshape(p.shape).astype(np.float32) for p in params]
    optim.adam_step(params, grads, adam)       # non-zero moments to round-trip
    return net, adam


# generate_dataset() calls per EXPD/EXPM round trip. A round trip takes longer
# than a generate call; one per two calls leaves most of the run to
# generate_dataset() and still times over a hundred reads for the percentiles.
GENS_PER_ROUND_TRIP = 2


def measure_data(run: Run, inputs, seconds: float, full: bool) -> Measured:
    """Cycles of GENS_PER_ROUND_TRIP generate_dataset() calls and one round trip."""
    net, adam = inputs
    chunk = run.size.gen_chunk
    m = Measured()
    deadline = perf_counter() + seconds
    first = None
    i = 0
    while i == 0 or perf_counter() < deadline:
        for _ in range(GENS_PER_ROUND_TRIP):
            config = GenConfig(count=chunk, master_seed=Rng(run.seed).substream(i).key)
            t = perf_counter()
            samples = run.phase("generate", run.call, "datagen.generate_dataset",
                                datagen.generate_dataset, config)
            m.add(chunk, perf_counter() - t)
            run.check(len(samples) == chunk and all(
                s.image.shape == (1, *config.image_size) and 0.0 <= s.image.min()
                and s.image.max() <= 1.0 for s in samples),
                "generated images shaped and in [0, 1]")
            if first is None:
                first = (config, _sha256(s.image for s in samples))
            i += 1
        run.phase("io", _round_trip, run, samples, net, adam, m)
    with run.untraced():
        again = datagen.generate_dataset(first[0])
    run.check(_sha256(s.image for s in again) == first[1], "generate_dataset is deterministic")
    return m


WORKLOADS = {
    "train": (setup_train, measure_train),
    "infer": (setup_infer, measure_infer),
    "data": (setup_data, measure_data),
}
