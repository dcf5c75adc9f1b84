"""Model checkpoints: magic "EXPM", version 1, little-endian.

Layout: magic, u32 version, length-prefixed architecture descriptor text,
u32 tensor count, then each parameter tensor as u32 rank, u32 dims, raw f32
data.  An optional trailer (flag u8 = 1) appends Adam state: f64 lr/beta1/
beta2/eps, u64 step count, then the first- and second-moment tensors in
parameter order.  Parameters round-trip bitwise; the descriptor alone is
enough to rebuild the model.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dataio import ByteReader
from .errors import (ArchitectureMismatchError, BadMagicError, FileFormatError, ShapeError,
                     VersionMismatchError)
from .model import Architecture, MultiOutputModel
from .optim import AdamState, check_adam_settings

MAGIC = b"EXPM"
VERSION = 1


def _pack_tensor(arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f4")
    return (struct.pack("<I", arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape)
            + data.tobytes())


def _read_tensor(reader: ByteReader) -> np.ndarray:
    rank = reader.u32()
    shape = tuple(reader.u32() for _ in range(rank))
    n = math.prod(shape)           # Python ints: a huge shape cannot wrap to a small size
    data = np.frombuffer(reader.data, "<f4", n, reader.skip(4 * n)).astype(np.float32)
    return data.reshape(shape)


def write_checkpoint(model: MultiOutputModel, path: str,
                     adam_state: AdamState | None = None) -> None:
    descriptor = model.arch.to_text().encode()
    params = model.param_arrays()
    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<I", len(descriptor)), descriptor,
             struct.pack("<I", len(params))]
    parts += [_pack_tensor(p) for p in params]
    if adam_state is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<B", 1))
        parts.append(struct.pack("<dddd", adam_state.lr, adam_state.beta1,
                                 adam_state.beta2, adam_state.eps))
        parts.append(struct.pack("<Q", adam_state.t))
        parts += [_pack_tensor(t) for t in adam_state.m]
        parts += [_pack_tensor(t) for t in adam_state.v]
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def read_checkpoint(path: str) -> tuple[MultiOutputModel, AdamState | None]:
    """Rebuild (model, adam state) from a checkpoint file.

    Adam settings that TrainConfig would reject raise FileFormatError naming
    the field.
    """
    with open(path, "rb") as f:
        reader = ByteReader(f.read(), path)
    if reader.take(4) != MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise VersionMismatchError(f"{path}: checkpoint version {version}, expected {VERSION}")
    descriptor = reader.take(reader.u32())
    try:
        text = descriptor.decode()
    except UnicodeDecodeError as exc:
        raise ArchitectureMismatchError(f"{path}: architecture descriptor is not UTF-8: "
                                        f"{exc}") from exc
    arch = Architecture.from_text(text)
    n_tensors = reader.u32()
    n_expected = len(arch.param_shapes())
    if n_tensors != n_expected:
        raise ArchitectureMismatchError(
            f"{path}: {n_tensors} parameter tensors, architecture implies {n_expected}")
    tensors = [_read_tensor(reader) for _ in range(n_tensors)]
    try:
        model = MultiOutputModel.from_arrays(arch, tensors)
    except ShapeError as exc:
        raise ArchitectureMismatchError(f"{path}: {exc}") from exc
    adam = None
    if reader.u8() == 1:
        lr, beta1, beta2, eps = (reader.f64() for _ in range(4))
        try:
            check_adam_settings(lr, beta1, beta2, eps)
        except ValueError as exc:
            raise FileFormatError(f"{path}: Adam state: {exc}") from exc
        t = reader.u64()
        m = [_read_tensor(reader) for _ in range(n_tensors)]
        v = [_read_tensor(reader) for _ in range(n_tensors)]
        for moment, tensors in (("m", m), ("v", v)):
            for (name, shape), tensor in zip(arch.param_shapes(), tensors):
                if tensor.shape != shape:
                    raise ArchitectureMismatchError(
                        f"{path}: Adam {moment} tensor of {name} has shape {tensor.shape}, "
                        f"the parameter has shape {shape}")
        adam = AdamState(m=m, v=v, t=t, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    reader.expect_end()
    return model, adam
