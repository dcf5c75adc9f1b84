"""Where the traced run wraps expnet, and the per-layer metrics it derives.

Each wrapper replaces a name that one expnet module imports from the layer
below, so the span records exactly the call the module makes. Stage names
(conv0, conv1, pool0, pool1) come from the model being run: conv layers are
matched by identity against ``model.convs``, pool calls by their order within
the enclosing forward or backward pass.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import ATTR, END, NAME, PARENT, STAGE, START, Patcher, Tracer, perf_counter

# Per-layer metrics of a traced run, in BENCHMARK.json order. The suffix says
# how the value is derived from the spans of the key before it:
#   ms / us            mean duration per call, children included
#   self_ms / self_us  mean self time per call (duration minus child spans)
#   calls              number of calls
#   mb                 largest per-call size in MB (1e6 bytes), from array sizes
#   gflops             FLOPs of all calls / their total duration
PER_LAYER = [
    ("machine.sgemm_gflops", "GFLOP/s"),
    ("trace.overhead_share", "ratio"),
    ("tensor.im2col.conv0.ms", "ms"), ("tensor.im2col.conv0.mb", "MB"),
    ("tensor.im2col.conv0.calls", "count"),
    ("tensor.im2col.conv1.ms", "ms"), ("tensor.im2col.conv1.mb", "MB"),
    ("tensor.im2col.conv1.calls", "count"),
    ("tensor.col2im.conv0.ms", "ms"), ("tensor.col2im.conv0.calls", "count"),
    ("tensor.col2im.conv1.ms", "ms"), ("tensor.col2im.conv1.calls", "count"),
    ("layers.conv_forward.conv0.ms", "ms"), ("layers.conv_forward.conv0.gflops", "GFLOP/s"),
    ("layers.conv_forward.conv0.calls", "count"),
    ("layers.conv_forward.conv1.ms", "ms"), ("layers.conv_forward.conv1.gflops", "GFLOP/s"),
    ("layers.conv_forward.conv1.calls", "count"),
    ("layers.conv_backward.conv0.ms", "ms"), ("layers.conv_backward.conv0.gflops", "GFLOP/s"),
    ("layers.conv_backward.conv0.calls", "count"),
    ("layers.conv_backward.conv1.ms", "ms"), ("layers.conv_backward.conv1.gflops", "GFLOP/s"),
    ("layers.conv_backward.conv1.calls", "count"),
    ("layers.pool_forward.pool0.ms", "ms"), ("layers.pool_forward.pool0.calls", "count"),
    ("layers.pool_forward.pool1.ms", "ms"), ("layers.pool_forward.pool1.calls", "count"),
    ("layers.pool_backward.pool0.ms", "ms"), ("layers.pool_backward.pool0.calls", "count"),
    ("layers.pool_backward.pool1.ms", "ms"), ("layers.pool_backward.pool1.calls", "count"),
    ("layers.relu_forward.ms", "ms"), ("layers.relu_forward.calls", "count"),
    ("layers.dense_forward.ms", "ms"), ("layers.dense_forward.calls", "count"),
    ("layers.dense_backward.ms", "ms"), ("layers.dense_backward.calls", "count"),
    ("model.forward_batch.self_ms", "ms"), ("model.forward_batch.calls", "count"),
    ("model.backward_batch.self_ms", "ms"), ("model.backward_batch.calls", "count"),
    ("losses.softmax_ce_batch.ms", "ms"), ("losses.softmax_ce_batch.calls", "count"),
    ("optim.adam_step.ms", "ms"), ("optim.adam_step.mb", "MB"),
    ("optim.adam_step.calls", "count"),
    ("train.step.ms", "ms"), ("train.step.self_ms", "ms"), ("train.step.calls", "count"),
    ("train.validation_metrics.ms", "ms"), ("train.validation_metrics.calls", "count"),
    ("train.clone_model.ms", "ms"), ("train.clone_model.calls", "count"),
    ("evaluate.evaluate.self_ms", "ms"), ("evaluate.evaluate.calls", "count"),
    ("datagen.render_expression.us", "us"), ("datagen.render_expression.calls", "count"),
    ("datagen.gaussian_blur.us", "us"), ("datagen.gaussian_blur.calls", "count"),
    ("datagen.add_gaussian_noise.us", "us"), ("datagen.add_gaussian_noise.calls", "count"),
    ("datagen.generate_sample.self_us", "us"), ("datagen.generate_sample.calls", "count"),
    ("dataio.write_dataset.ms", "ms"), ("dataio.write_dataset.calls", "count"),
    ("dataio.read_dataset.ms", "ms"), ("dataio.read_dataset.calls", "count"),
    ("checkpoint.write_checkpoint.ms", "ms"), ("checkpoint.write_checkpoint.calls", "count"),
    ("checkpoint.read_checkpoint.ms", "ms"), ("checkpoint.read_checkpoint.init_share", "ratio"),
    ("checkpoint.read_checkpoint.calls", "count"),
]

SCALE = {"ms": 1e3, "self_ms": 1e3, "us": 1e6, "self_us": 1e6}

# Spans that split a run into phases: each training step and the benchmark's
# own stretches of work. A per-layer value averages one function's calls in
# the first of these phases it runs in, so training steps and validation, or
# batch-256 evaluate() chunks and batch-1 predicts, are not averaged together.
PHASES = ("train.step", "bench.evaluate", "bench.generate", "bench.io", "bench.train",
          "bench.predict", "bench.setup")


class StepClock:
    """Times optimizer steps through the two names train() calls for them.

    A step runs from the return of the previous step's ``adam_step`` (so the
    batch gather between steps is inside it) to the return of its own
    ``adam_step``. The first step of an epoch starts at entry into
    ``batch_loss_and_grads``, since the gap before it holds the epoch's
    shuffle and the previous epoch's validation.
    """

    def __init__(self, steps_per_epoch: int):
        self.steps_per_epoch = steps_per_epoch
        self.durations: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Call before each train(): its first step begins epoch 0."""
        self.count = 0
        self.start = self.prev_end = 0.0

    def _begin(self) -> float:
        now = perf_counter()
        first = self.count % self.steps_per_epoch == 0
        self.start = now if first else self.prev_end
        self.count += 1
        return self.start

    def _end(self, end: float) -> None:
        self.durations.append(end - self.start)
        self.prev_end = end

    def install(self, patcher: Patcher, train_module, tracer: Tracer | None) -> None:
        def make_loss(fn):
            def batch_loss_and_grads(*args, **kwargs):
                start = self._begin()
                if tracer is None:
                    return fn(*args, **kwargs)
                tracer.open("train.step", start=start)
                return tracer.span("train.batch_loss_and_grads", fn, *args, **kwargs)
            return batch_loss_and_grads

        def make_adam(fn):
            def adam_step(*args, **kwargs):
                if tracer is None:
                    result = fn(*args, **kwargs)
                    self._end(perf_counter())
                    return result
                i = tracer.open("optim.adam_step")
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close()
                tracer.spans[i][ATTR] = 4 * sum(p.nbytes for p in args[0]) / 1e6
                self._end(tracer.close())          # closes train.step
                return result
            return adam_step

        patcher.patch(train_module, "batch_loss_and_grads", make_loss)
        patcher.patch(train_module, "adam_step", make_adam)


class _Stages:
    """Stage names for calls inside one forward or backward pass."""

    def __init__(self):
        self.conv_index: dict[int, int] = {}
        self.n_convs = 0
        self.pools = 0

    def enter(self, args) -> None:
        """Start of a pass: names no stage itself, so returns None."""
        model = args[0]
        self.conv_index = {id(c): i for i, c in enumerate(model.convs)}
        self.n_convs = len(model.convs)
        self.pools = 0

    def conv(self, args) -> str:
        return f"conv{self.conv_index[id(args[0])]}"

    def pool_forward(self, args) -> str:
        self.pools += 1
        return f"pool{self.pools - 1}"

    def pool_backward(self, args) -> str:
        self.pools += 1
        return f"pool{self.n_convs - self.pools}"


def _conv_forward_flops(args, result) -> float:
    _, c, m, n = args[0].weights.shape
    return 2.0 * result[0].size * c * m * n


def _conv_backward_flops(args, result) -> float:
    # grad_w = u @ cols.T and grad_cols = w.T @ u: two GEMMs of the forward's size
    _, c, m, n = args[0].weights.shape
    return 4.0 * args[1].size * c * m * n


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary below the calls the benchmark makes itself."""
    from expnet import datagen, evaluate, layers, model, train

    stages = _Stages()
    wrap = tracer.wrap
    patcher.patch(train, "validation_metrics", wrap("train.validation_metrics"))
    patcher.patch(train, "_clone_model", wrap("train.clone_model"))
    patcher.patch(train, "softmax_ce_batch", wrap("losses.softmax_ce_batch"))
    patcher.patch(evaluate, "softmax_ce_batch", wrap("losses.softmax_ce_batch"))

    cls = model.MultiOutputModel
    patcher.patch(cls, "forward_batch", wrap("model.forward_batch", stages.enter))
    patcher.patch(cls, "backward_batch", wrap("model.backward_batch", stages.enter))
    patcher.patch(cls, "init", wrap("model.init"))
    patcher.patch(model, "conv_forward_batch",
                  wrap("layers.conv_forward", stages.conv, _conv_forward_flops))
    patcher.patch(model, "conv_backward_batch",
                  wrap("layers.conv_backward", stages.conv, _conv_backward_flops))
    patcher.patch(model, "_pool_offsets_batch", wrap("layers.pool_forward", stages.pool_forward))
    patcher.patch(model, "_pool_backward_offsets_batch",
                  wrap("layers.pool_backward", stages.pool_backward))
    patcher.patch(model, "relu_forward", wrap("layers.relu_forward"))
    patcher.patch(model, "dense_forward_batch", wrap("layers.dense_forward"))
    patcher.patch(model, "dense_backward_batch", wrap("layers.dense_backward"))

    current = lambda args: tracer.current_stage()
    patcher.patch(layers, "im2col_batch",
                  wrap("tensor.im2col", current, lambda args, cols: cols.nbytes / 1e6))
    patcher.patch(layers, "col2im_batch", wrap("tensor.col2im", current))

    patcher.patch(datagen, "generate_sample", wrap("datagen.generate_sample"))
    for name in ("render_expression", "gaussian_blur", "add_gaussian_noise"):
        patcher.patch(datagen, name, wrap(f"datagen.{name}"))


def _key(span) -> str:
    return span[NAME] if span[STAGE] is None else f"{span[NAME]}.{span[STAGE]}"


def _phase_of(spans) -> list[int]:
    """Index of each span's nearest enclosing PHASES span (itself if it is one), or -1."""
    phase_of = [-1] * len(spans)
    for i, span in enumerate(spans):         # parents precede their children
        if span[NAME] in PHASES:
            phase_of[i] = i
        elif span[PARENT] >= 0:
            phase_of[i] = phase_of[span[PARENT]]
    return phase_of


def per_layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER value, from the first PHASES phase the function runs in.

    A function never called reads 0 with 0 calls. The phase tables give the
    other phases.
    """
    spans = tracer.spans
    own = tracer.self_times()
    phase_of = _phase_of(spans)
    stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])   # calls, dur, self, attr sum, attr max
    init_in_read = read = 0.0
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        phase = spans[phase_of[i]][NAME] if phase_of[i] >= 0 else None
        st = stats[_key(span), phase]
        st[0] += 1
        st[1] += dur
        st[2] += own[i]
        st[3] += span[ATTR]
        st[4] = max(st[4], span[ATTR])
        if span[NAME] == "checkpoint.read_checkpoint":
            read += dur
        elif span[NAME] == "model.init" and spans[span[PARENT]][NAME] == "checkpoint.read_checkpoint":
            init_in_read += dur
    rank = {phase: r for r, phase in enumerate(PHASES)}
    chosen = {}
    for key, phase in sorted(stats, key=lambda kp: rank.get(kp[1], len(PHASES))):
        chosen.setdefault(key, stats[key, phase])
    derived = {"checkpoint.read_checkpoint.init_share": init_in_read / read if read else 0.0}
    derived.update(extra)

    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
            continue
        key, kind = name.rsplit(".", 1)
        calls, dur, self_time, attr_sum, attr_max = chosen.get(key, (0, 0.0, 0.0, 0.0, 0.0))
        if kind == "calls":
            out[name] = calls
        elif kind == "mb":
            out[name] = attr_max
        elif kind == "gflops":
            out[name] = attr_sum / dur / 1e9 if dur else 0.0
        else:
            total = self_time if kind.startswith("self") else dur
            out[name] = total / calls * SCALE[kind] if calls else 0.0
    return out


def phase_tables(tracer: Tracer) -> list[str]:
    """Self time per call of each phase span, split by the spans inside it.

    A span belongs to its nearest enclosing phase span (a phase nested in
    another, such as train.step inside bench.train, gets its own table), so
    each table's rows sum to the phase's mean duration.
    """
    spans = tracer.spans
    own = tracer.self_times()
    phase_of = _phase_of(spans)
    per_phase = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    for i, span in enumerate(spans):
        if phase_of[i] < 0:
            continue
        phase = spans[phase_of[i]][NAME]
        per_phase[phase][_key(span) if i != phase_of[i] else f"{phase} (self)"] += own[i]
        if i == phase_of[i]:
            counts[phase] += 1
    lines = []
    for phase in sorted(counts, key=lambda p: min(i for i, s in enumerate(spans) if s[NAME] == p)):
        if not counts[phase]:
            continue
        n = counts[phase]
        total = sum(per_phase[phase].values()) / n
        lines.append(f"phase {phase}: {total * 1e3:.3f} ms per call, {n} calls")
        for key, t in sorted(per_phase[phase].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {key:40s} {t / n * 1e3:10.3f} ms {t / n / total:7.1%}")
    return lines
