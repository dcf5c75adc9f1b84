"""Shared-trunk, two-head CNN: architecture description and full passes.

The trunk is conv -> 2x2 max pool -> ReLU repeated per conv stage, then
flatten and one hidden dense + ReLU; two parallel dense heads score the base
digit (8-way) and the exponent digit (10-way).  Forward passes record a
ForwardTrace holding exactly the per-layer caches the backward pass needs, so
parameters stay immutable during a pass and batches can be processed
independently.  A caller-owned Workspace lets consecutive passes reuse their
scratch arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArchitectureMismatchError, ShapeError, StaleTraceError
from .layers import (ConvLayer, DenseLayer, _pool_backward_offsets_batch,
                     _pool_offsets_batch, conv_backward_batch, conv_forward_batch,
                     dense_backward_batch, dense_forward_batch, relu_forward)
from .rng import Rng
from .tensor import DTYPE

BASE_DIGITS = (2, 9)  # the base head's classes: class k is digit BASE_DIGITS[0] + k
EXP_DIGITS = (0, 9)   # the exponent head's classes, likewise
N_BASE_CLASSES = BASE_DIGITS[1] - BASE_DIGITS[0] + 1   # 8
N_EXP_CLASSES = EXP_DIGITS[1] - EXP_DIGITS[0] + 1      # 10
KERNEL = 3            # every conv is 3x3 at stride 1 with padding 1: it keeps H and W

# Samples per trunk slice, in every forward and in the input-gradient fold.
# conv1's im2col matrix takes 1.18 MB per sample of the default architecture,
# so an untraced 8-sample slice holds 9.4 MB of columns.  On a 2-core Xeon
# with OpenBLAS, 8-sample slices ran an untraced 256-image forward in 223 ms
# against 253 ms for 16-sample ones (medians of 8 alternating rounds), with
# bitwise-identical logits and gradients; a batch-32 step took the same time.
# A traced slice writes its columns into the whole batch's buffer, so each
# slice's conv -> pool -> ReLU stays in cache while grad_w = u2 @ cols.T
# still sums over the whole batch in one column order.  Only the trunk is
# sliced: its conv GEMM gives each column the same bits at any batch size,
# while the small head GEMMs do not, so dense and heads run once on the
# whole batch.
TRUNK_CHUNK = 8


def _conv_layout(stage: int, batch: int, h: int, w: int) -> tuple[int, ...]:
    """The sample and position axes of conv stage ``stage``'s h x w output.

    conv0's output and columns are window-major, (4, batch, h // 2, w // 2)
    (see im2col_batch): its one input channel makes those columns cheap to
    build, and its pool then reads and writes four contiguous slabs instead of
    strided views.  Later stages stay row-major, (batch, h, w): building
    C-channel columns window-major costs more than their pool saves.
    """
    return (4, batch, h // 2, w // 2) if stage == 0 else (batch, h, w)


@dataclass(frozen=True)
class Architecture:
    """Static shape plan; enough to rebuild a model without other config.

    Every conv stage is a KERNEL x KERNEL convolution at stride 1 with padding
    1, which keeps H and W, followed by 2x2 max pooling at stride 2, which
    floors an odd map; the heads score N_BASE_CLASSES and N_EXP_CLASSES.  None
    of these has fields: the descriptor's ``kernel 3 stride 1 pad 1``,
    ``pool 2 stride 2`` and ``heads 8 10`` lines record them.  No conv stage,
    a size below 1, or a stage that leaves an empty map, raises ValueError.
    """

    input_hw: tuple[int, int] = (64, 64)
    conv_channels: tuple[int, ...] = (32, 64)
    dense_width: int = 128

    def __post_init__(self):
        if not self.conv_channels:
            raise ValueError("conv_channels is empty; the model needs at least one conv stage")
        if min(*self.input_hw, *self.conv_channels, self.dense_width) < 1:
            raise ValueError(f"a size field is not positive: input_hw {self.input_hw}, "
                             f"conv_channels {self.conv_channels}, dense_width {self.dense_width}")
        if min(min(shape) for shape in self.stage_shapes()) < 1:
            raise ValueError(f"stages {self.stage_shapes()} leave an empty map")

    def stage_shapes(self) -> list[tuple[int, int, int]]:
        """[C, H, W] after the input and after each conv + 2x2 pool stage."""
        h, w = self.input_hw
        shapes = [(1, h, w)]
        for c in self.conv_channels:
            h, w = h // 2, w // 2
            shapes.append((c, h, w))
        return shapes

    def feature_size(self) -> int:
        c, h, w = self.stage_shapes()[-1]
        return c * h * w

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every parameter tensor: each layer's weights then bias.

        This order is the model's parameter order everywhere: gradients,
        Adam moments and checkpoint tensors.
        """
        layers = []
        in_c = 1
        for i, out_c in enumerate(self.conv_channels):
            layers.append((f"conv{i}", (out_c, in_c, KERNEL, KERNEL)))
            in_c = out_c
        layers += [("dense", (self.dense_width, self.feature_size())),
                   ("base_head", (N_BASE_CLASSES, self.dense_width)),
                   ("exp_head", (N_EXP_CLASSES, self.dense_width))]
        shapes = []
        for name, w_shape in layers:
            shapes += [(f"{name}.weights", w_shape), (f"{name}.bias", w_shape[:1])]
        return shapes

    def to_text(self) -> str:
        return "\n".join([
            f"input {self.input_hw[0]} {self.input_hw[1]}",
            f"conv {' '.join(str(c) for c in self.conv_channels)}",
            f"kernel {KERNEL} stride 1 pad 1",
            "pool 2 stride 2",
            f"dense {self.dense_width}",
            f"heads {N_BASE_CLASSES} {N_EXP_CLASSES}",
        ])

    @classmethod
    def from_text(cls, text: str) -> "Architecture":
        """Parse to_text()'s descriptor; raises ArchitectureMismatchError if malformed.

        Only the ``input``, ``conv`` and ``dense`` sizes are read; the
        architecture they build, which checks them, must then write exactly
        ``text``.  Otherwise the error names the first line that differs and
        the line expected there, or the line it cannot read or does not find.
        """
        lines = {line.split()[0]: (number, line)
                 for number, line in enumerate(text.split("\n"), 1) if line.split()}
        sizes = {}
        for key, count in (("input", 2), ("conv", None), ("dense", 1)):
            if key not in lines:
                raise ArchitectureMismatchError(f"architecture descriptor has no {key!r} line")
            number, line = lines[key]
            values = line.split()[1:]
            if count not in (None, len(values)) or not all(map(str.isdecimal, values)):
                raise ArchitectureMismatchError(
                    f"architecture descriptor line {number}: cannot read the sizes in {line!r}")
            sizes[key] = tuple(map(int, values))
        try:
            arch = cls(input_hw=sizes["input"], conv_channels=sizes["conv"],
                       dense_width=sizes["dense"][0])
        except ValueError as exc:
            raise ArchitectureMismatchError(f"unreadable architecture descriptor: {exc}") from exc
        expected = arch.to_text()
        if text != expected:
            # a quoted line never equals the unquoted end marker
            got, want = ([*map(repr, t.split("\n")), "end of text"] for t in (text, expected))
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            raise ArchitectureMismatchError(
                f"architecture descriptor line {i + 1}: got {got[i]}, expected {want[i]}")
        return arch


DEFAULT_ARCH = Architecture()
TINY_ARCH = Architecture(input_hw=(16, 16), conv_channels=(4, 8), dense_width=16)


class Workspace:
    """Scratch arrays that one caller reuses across passes; train() makes one per call.

    ``array(name, shape, dtype)`` returns the buffer kept under (name, dtype),
    viewed at the requested shape and grown when a request outgrows it; its
    contents are whatever the last user left.  Forward passes keep their
    im2col columns here and backward passes their fold scratch, so a step
    allocates neither afresh; a forward given none makes a private one.
    ``forwards`` counts the forward passes served: each one overwrites the
    columns of the traces recorded before it.
    """

    def __init__(self):
        self.forwards = 0
        self.buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self.buffers.get((name, dtype))
        if buf is None or buf.size < size:
            buf = self.buffers[name, dtype] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


@dataclass
class ForwardTrace:
    """Caches recorded by a forward pass, consumed by backward.

    The two lists hold one entry per conv stage, in forward order; the pool
    wrote the routes, channel-major [C, B, H, W] (see layers.DEAD).  The batch
    is len(flat) and the hidden ReLU mask hidden > 0.  A trace holds its im2col
    columns in its forward's workspace and is valid until that workspace serves
    another one.
    """

    cols: list                 # whole-batch im2col columns, [C*3*3, B*H*W] per conv,
                               # conv0's window-major over (cell, sample, window)
    routes: list               # the pool's uint8 window cell per value, DEAD where not > 0
    flat: np.ndarray           # flattened features, the dense input
    hidden: np.ndarray         # hidden activations, the heads' input
    workspace: Workspace       # holds the columns
    forward_index: int         # workspace.forwards just after this forward


class MultiOutputModel:
    """Trunk shared by two classifier heads; parameters in Architecture.param_shapes() order."""

    def __init__(self, arch: Architecture, convs: list[ConvLayer], dense: DenseLayer,
                 base_head: DenseLayer, exp_head: DenseLayer):
        self.arch = arch
        self.convs = convs
        self.dense = dense
        self.base_head = base_head
        self.exp_head = exp_head

    @classmethod
    def from_arrays(cls, arch: Architecture, arrays: list[np.ndarray]) -> "MultiOutputModel":
        """Model over the given tensors (not copied), in arch.param_shapes() order.

        Raises ShapeError if their count or any shape does not fit arch.
        """
        slots = arch.param_shapes()
        if len(arrays) != len(slots):
            raise ShapeError(f"expected {len(slots)} parameter tensors, got {len(arrays)}")
        for (name, shape), arr in zip(slots, arrays):
            if arr.shape != shape:
                raise ShapeError(f"{name}: shape {arr.shape} does not fit architecture "
                                 f"slot of shape {shape}")
        pairs = list(zip(arrays[0::2], arrays[1::2]))
        convs = [ConvLayer(w, b, stride=1, padding=1) for w, b in pairs[:-3]]
        dense, base_head, exp_head = (DenseLayer(w, b) for w, b in pairs[-3:])
        return cls(arch, convs, dense, base_head, exp_head)

    @classmethod
    def init(cls, arch: Architecture, seed: int) -> "MultiOutputModel":
        """Fan-in-scaled uniform weights, zero biases, one substream per layer."""
        rng = Rng(seed)
        shapes = [shape for _, shape in arch.param_shapes()]
        arrays = []
        for layer, (w_shape, b_shape) in enumerate(zip(shapes[0::2], shapes[1::2])):
            fan_in = int(np.prod(w_shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            w = rng.substream(layer).uniforms(int(np.prod(w_shape)), -bound, bound)
            arrays += [w.reshape(w_shape).astype(DTYPE), np.zeros(b_shape, dtype=DTYPE)]
        return cls.from_arrays(arch, arrays)

    def param_arrays(self) -> list[np.ndarray]:
        arrays = []
        for layer in (*self.convs, self.dense, self.base_head, self.exp_head):
            arrays += [layer.weights, layer.bias]
        return arrays

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return [(name, arr) for (name, _), arr in zip(self.arch.param_shapes(),
                                                      self.param_arrays())]

    def astype(self, dtype) -> "MultiOutputModel":
        """Copy of the model with all parameters cast to dtype."""
        return MultiOutputModel.from_arrays(self.arch,
                                            [a.astype(dtype) for a in self.param_arrays()])

    # --- passes ---

    def forward_batch(self, x: np.ndarray, need_trace: bool = True,
                      workspace: Workspace | None = None):
        """[B, 1, H, W] -> (base logits [B, 8], exp logits [B, 10], trace).

        The trunk runs channel-major, [C, B, H, W], TRUNK_CHUNK samples at a
        time; each stage is a conv and then the max pool, which applies the
        ReLU (see _pool_offsets_batch).  Dense and heads see the whole batch.
        Every per-stage array is sized up front from arch.stage_shapes().  A
        traced pass has the pool write each slice's routes, and writes its
        im2col columns, into whole-batch arrays; need_trace=False (inference /
        evaluation) skips the routes and reuses one slice of columns.  The
        columns live in ``workspace``, or in a private one when none is given.
        """
        h, w = self.arch.input_hw
        if x.ndim != 4 or x.shape[0] == 0 or x.shape[1:] != (1, h, w):
            raise ShapeError(f"input: expected [B, 1, {h}, {w}] with B >= 1, got {x.shape}")
        batch = x.shape[0]
        if workspace is None:
            workspace = Workspace()
        workspace.forwards += 1

        shapes = self.arch.stage_shapes()
        dtype = np.result_type(x.dtype, *(conv.weights.dtype for conv in self.convs))
        span = batch if need_trace else min(batch, TRUNK_CHUNK)
        cols = [workspace.array(f"conv{i}.cols", (c, KERNEL, KERNEL, *_conv_layout(i, span, h, w)),
                                x.dtype if i == 0 else dtype)
                for i, (c, h, w) in enumerate(shapes[:-1])]     # a same conv keeps H and W
        routes = [np.empty((k, batch, h2, w2), dtype=np.uint8)
                  for k, h2, w2 in shapes[1:]] if need_trace else []
        flat = np.empty((batch, self.arch.feature_size()), dtype=dtype)

        x = x.transpose(1, 0, 2, 3)
        for lo in range(0, batch, TRUNK_CHUNK):
            part = x[:, lo:lo + TRUNK_CHUNK]
            rows = part.shape[1]
            at = lo if need_trace else 0        # where the slice's columns go
            for i, conv in enumerate(self.convs):
                try:
                    part, _ = conv_forward_batch(conv, part,
                                                 cols=cols[i][..., at:at + rows, :, :])
                except ShapeError as exc:
                    raise ShapeError(f"conv{i}: {exc}") from exc
                part = _pool_offsets_batch(part, routes[i][:, lo:lo + rows] if routes else None)
            flat[lo:lo + rows] = part.transpose(1, 0, 2, 3).reshape(rows, -1)
        hidden = relu_forward(dense_forward_batch(self.dense, flat))
        trace = ForwardTrace([c.reshape(len(c) * KERNEL * KERNEL, -1) for c in cols], routes,
                             flat, hidden, workspace, workspace.forwards) if need_trace else None
        base_logits = dense_forward_batch(self.base_head, hidden)
        exp_logits = dense_forward_batch(self.exp_head, hidden)
        return base_logits, exp_logits, trace

    def backward_batch(self, trace: ForwardTrace, grad_base: np.ndarray,
                       grad_exp: np.ndarray) -> list[np.ndarray]:
        """Gradients summed over the batch, aligned with param_arrays().

        The fold scratch comes from the workspace that recorded the trace.
        Raises StaleTraceError if that workspace has served a later forward,
        which overwrote the trace's im2col columns, and ShapeError if a head
        gradient is not [B, classes] for the trace's batch.
        """
        workspace = trace.workspace
        if workspace.forwards != trace.forward_index:
            raise StaleTraceError(
                f"trace of forward {trace.forward_index} is stale: its workspace has "
                f"since served forward {workspace.forwards}, which overwrote its columns")
        batch = len(trace.flat)
        for name, head, grad in (("base_head", self.base_head, grad_base),
                                 ("exp_head", self.exp_head, grad_exp)):
            if grad.shape != (batch, head.weights.shape[0]):
                raise ShapeError(f"{name}: gradient shape {grad.shape} does not match "
                                 f"[{batch}, {head.weights.shape[0]}] of the trace's batch")
        gw_b, gb_b, gx_b = dense_backward_batch(self.base_head, grad_base, trace.hidden)
        gw_e, gb_e, gx_e = dense_backward_batch(self.exp_head, grad_exp, trace.hidden)
        upstream = (gx_b + gx_e) * (trace.hidden > 0)   # heads meet at the shared trunk
        gw_d, gb_d, upstream = dense_backward_batch(self.dense, upstream, trace.flat)
        grads = [gw_d, gb_d, gw_b, gb_b, gw_e, gb_e]
        shapes = self.arch.stage_shapes()
        upstream = upstream.reshape(batch, *shapes[-1]).transpose(1, 0, 2, 3)
        for i, conv in reversed(list(enumerate(self.convs))):
            c, h, w = shapes[i]
            k = conv.weights.shape[0]
            upstream = _pool_backward_offsets_batch(upstream, trace.routes[i],
                                                    (k, *_conv_layout(i, batch, h, w)))
            gxpad = u2p = None
            if i > 0:
                grid = (h + 2, w + 2)           # the fold's padded grid
                gxpad = workspace.array(f"conv{i}.gxpad", (c, batch, *grid), upstream.dtype)
                u2p = workspace.array(f"conv{i}.u2p", (k, min(batch, TRUNK_CHUNK), *grid),
                                      upstream.dtype)
            gw, gb, upstream = conv_backward_batch(conv, upstream, trace.cols[i], gxpad, u2p)
            grads[:0] = [gw, gb]
        return grads


def model_forward(model: MultiOutputModel, image: np.ndarray):
    """Single image [1, H, W] -> (base logits, exp logits, None): the untraced predict."""
    if image.ndim != 3:
        raise ShapeError(f"image must be [1, H, W], got rank {image.ndim}")
    base, exp, _ = model.forward_batch(image[None], need_trace=False)
    return base[0], exp[0], None
