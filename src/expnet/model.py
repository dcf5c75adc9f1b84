"""Shared-trunk, two-head CNN: architecture description and full passes.

The trunk is conv -> ReLU -> maxpool repeated per conv stage, then flatten and
one hidden dense + ReLU; two parallel dense heads score the base digit (8-way)
and the exponent digit (10-way).  Forward passes record a ForwardTrace holding
exactly the per-layer caches the backward pass needs, so parameters stay
immutable during a pass and batches can be processed independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArchitectureMismatchError, ShapeError
from .layers import (ConvLayer, DenseLayer, _pool_backward_offsets_batch,
                     _pool_offsets_batch, conv_backward_batch, conv_forward_batch,
                     dense_backward_batch, dense_forward_batch, relu_forward)
from .rng import Rng
from .tensor import DTYPE

N_BASE_CLASSES = 8    # digits 2..9
N_EXP_CLASSES = 10    # digits 0..9


@dataclass(frozen=True)
class Architecture:
    """Static shape plan; enough to rebuild a model without other config."""

    input_hw: tuple[int, int] = (64, 64)
    conv_channels: tuple[int, ...] = (32, 64)
    kernel: int = 3
    conv_stride: int = 1
    conv_padding: int = 1
    pool_window: int = 2
    pool_stride: int = 2
    dense_width: int = 128
    n_base: int = N_BASE_CLASSES
    n_exp: int = N_EXP_CLASSES

    def stage_shapes(self) -> list[tuple[int, int, int]]:
        """[C, H, W] after the input and after each conv+pool stage."""
        h, w = self.input_hw
        shapes = [(1, h, w)]
        c = 1
        for k in self.conv_channels:
            h = (h + 2 * self.conv_padding - self.kernel) // self.conv_stride + 1
            w = (w + 2 * self.conv_padding - self.kernel) // self.conv_stride + 1
            h = (h - self.pool_window) // self.pool_stride + 1
            w = (w - self.pool_window) // self.pool_stride + 1
            c = k
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
            layers.append((f"conv{i}", (out_c, in_c, self.kernel, self.kernel)))
            in_c = out_c
        layers += [("dense", (self.dense_width, self.feature_size())),
                   ("base_head", (self.n_base, self.dense_width)),
                   ("exp_head", (self.n_exp, self.dense_width))]
        shapes = []
        for name, w_shape in layers:
            shapes += [(f"{name}.weights", w_shape), (f"{name}.bias", w_shape[:1])]
        return shapes

    def to_text(self) -> str:
        return "\n".join([
            f"input {self.input_hw[0]} {self.input_hw[1]}",
            f"conv {' '.join(str(c) for c in self.conv_channels)}",
            f"kernel {self.kernel} stride {self.conv_stride} pad {self.conv_padding}",
            f"pool {self.pool_window} stride {self.pool_stride}",
            f"dense {self.dense_width}",
            f"heads {self.n_base} {self.n_exp}",
        ])

    @classmethod
    def from_text(cls, text: str) -> "Architecture":
        fields: dict[str, list[str]] = {}
        for line in text.strip().splitlines():
            parts = line.split()
            fields[parts[0]] = parts[1:]
        try:
            return cls(
                input_hw=(int(fields["input"][0]), int(fields["input"][1])),
                conv_channels=tuple(int(c) for c in fields["conv"]),
                kernel=int(fields["kernel"][0]),
                conv_stride=int(fields["kernel"][2]),
                conv_padding=int(fields["kernel"][4]),
                pool_window=int(fields["pool"][0]),
                pool_stride=int(fields["pool"][2]),
                dense_width=int(fields["dense"][0]),
                n_base=int(fields["heads"][0]),
                n_exp=int(fields["heads"][1]),
            )
        except (KeyError, IndexError, ValueError) as exc:
            raise ArchitectureMismatchError(f"unreadable architecture descriptor: {exc}") from exc


DEFAULT_ARCH = Architecture()
TINY_ARCH = Architecture(input_hw=(16, 16), conv_channels=(4, 8), dense_width=16)


@dataclass
class ForwardTrace:
    """Caches recorded by a forward pass, consumed by backward.

    The three lists hold one entry per conv stage, in forward order.
    """

    batch: int
    conv_caches: list          # conv_forward_batch caches
    relu_masks: list           # conv output > 0
    pool_offsets: list         # uint8 window offsets
    flat: np.ndarray           # flattened features, the dense input
    dense_mask: np.ndarray     # dense pre-activation > 0
    hidden: np.ndarray         # hidden activations, the heads' input


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
        convs = [ConvLayer(w, b, arch.conv_stride, arch.conv_padding) for w, b in pairs[:-3]]
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

    def forward_batch(self, x: np.ndarray, need_trace: bool = True):
        """[B, 1, H, W] -> (base logits [B, n_base], exp logits [B, n_exp], trace).

        need_trace=False skips the backward caches (inference / evaluation).
        """
        h, w = self.arch.input_hw
        if x.ndim != 4 or x.shape[1:] != (1, h, w):
            raise ShapeError(f"input: expected [B, 1, {h}, {w}], got {x.shape}")
        conv_caches, relu_masks, pool_offsets = [], [], []
        for i, conv in enumerate(self.convs):
            try:
                x, cache = conv_forward_batch(conv, x)
            except ShapeError as exc:
                raise ShapeError(f"conv{i}: {exc}") from exc
            if need_trace:
                conv_caches.append(cache)
                relu_masks.append(x > 0)
            x = relu_forward(x)
            x, offsets = _pool_offsets_batch(x, self.arch.pool_window, self.arch.pool_stride)
            if need_trace:
                pool_offsets.append(offsets)
        x = x.reshape(x.shape[0], -1)
        if x.shape[1] != self.dense.weights.shape[1]:
            raise ShapeError(
                f"dense: flattened width {x.shape[1]} != expected {self.dense.weights.shape[1]}")
        pre = dense_forward_batch(self.dense, x)
        hidden = relu_forward(pre)
        trace = None
        if need_trace:
            trace = ForwardTrace(x.shape[0], conv_caches, relu_masks, pool_offsets,
                                 x, pre > 0, hidden)
        base_logits = dense_forward_batch(self.base_head, hidden)
        exp_logits = dense_forward_batch(self.exp_head, hidden)
        return base_logits, exp_logits, trace

    def backward_batch(self, trace: ForwardTrace, grad_base: np.ndarray,
                       grad_exp: np.ndarray) -> list[np.ndarray]:
        """Gradients summed over the batch, aligned with param_arrays()."""
        gw_b, gb_b, gx_b = dense_backward_batch(self.base_head, grad_base, trace.hidden)
        gw_e, gb_e, gx_e = dense_backward_batch(self.exp_head, grad_exp, trace.hidden)
        upstream = (gx_b + gx_e) * trace.dense_mask     # heads meet at the shared trunk
        gw_d, gb_d, upstream = dense_backward_batch(self.dense, upstream, trace.flat)
        grads = [gw_d, gb_d, gw_b, gb_b, gw_e, gb_e]
        upstream = upstream.reshape(-1, *self.arch.stage_shapes()[-1])
        window, stride = self.arch.pool_window, self.arch.pool_stride
        for conv, cache, mask, offsets in reversed(list(zip(
                self.convs, trace.conv_caches, trace.relu_masks, trace.pool_offsets))):
            upstream = _pool_backward_offsets_batch(upstream, offsets, mask.shape,
                                                    window, stride)
            upstream = upstream * mask
            gw, gb, upstream = conv_backward_batch(conv, upstream, cache)
            grads[:0] = [gw, gb]
        return grads


def model_forward(model: MultiOutputModel, image: np.ndarray):
    """Single image [1, H, W] -> (base logits, exp logits, trace)."""
    if image.ndim != 3:
        raise ShapeError(f"image must be [1, H, W], got rank {image.ndim}")
    base, exp, trace = model.forward_batch(image[None])
    return base[0], exp[0], trace


def model_backward(model: MultiOutputModel, trace: ForwardTrace,
                   grad_base: np.ndarray, grad_exp: np.ndarray) -> list[np.ndarray]:
    if trace.batch != 1:
        raise ShapeError("trace was recorded for a batch, not a single image")
    return model.backward_batch(trace, grad_base[None], grad_exp[None])
