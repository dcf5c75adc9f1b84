"""Model checkpoints: magic "EXPM", version 1, little-endian.

Layout: magic, u32 version, length-prefixed architecture descriptor text
(Architecture.to_text()), u32 tensor count, then each parameter tensor as u32
rank, u32 dims, raw f32 data.  A flag u8 follows: 0 ends the file, and 1
appends Adam state: f64 lr/beta1/beta2/eps, u64 step count, then the first-
and second-moment tensors in parameter order.  Parameters round-trip bitwise.
The descriptor alone is enough to rebuild the model, and it is read back only
if it is exactly the text its architecture writes (Architecture.from_text).
The writer writes each tensor's own buffer and the reader reads each tensor's
data straight into its array, so neither holds a copy of the file.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .dataio import ByteReader
from .errors import ArchitectureMismatchError, FileFormatError
from .model import Architecture, MultiOutputModel
from .optim import AdamState, check_adam_settings

MAGIC = b"EXPM"
VERSION = 1
ADAM = "<4dQ"    # the Adam trailer's lr, beta1, beta2, eps and step count


def _write_tensors(f: BinaryIO, arrays: list[np.ndarray]) -> None:
    for arr in arrays:
        f.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
        f.write(np.ascontiguousarray(arr, "<f4"))   # the tensor's own buffer, not a bytes copy


def _read_tensors(reader: ByteReader, arch: Architecture, what: str) -> list[np.ndarray]:
    """One section of tensors in arch.param_shapes() order, each read into its own array.

    A shape other than the architecture's raises ArchitectureMismatchError
    and a NaN or infinite value FileFormatError, each naming {what}{name}.
    """
    tensors = []
    for name, shape in arch.param_shapes():
        rank = reader.u32()
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        start = reader.skip(4 * math.prod(dims))   # Python ints: no shape wraps to a small size
        if dims != shape:
            raise ArchitectureMismatchError(f"{reader.path}: {what}{name} has shape {dims}, "
                                            f"the architecture implies {shape}")
        arr = reader.fill(np.empty(shape, "<f4"))
        finite = np.isfinite(arr).reshape(-1)
        if not finite.all():
            i = int(finite.argmin())
            raise FileFormatError(f"{reader.path}: {what}{name} holds a non-finite value "
                                  f"({arr.flat[i]}) at offset {start + 4 * i}")
        tensors.append(arr)
    return tensors


def write_checkpoint(model: MultiOutputModel, path: str,
                     adam_state: AdamState | None = None) -> None:
    """Write model (and Adam state) to path.

    A NaN or infinite parameter or Adam moment raises ValueError naming the
    tensor before the file is opened.
    """
    params = model.param_arrays()
    tensors = [("", params)]
    if adam_state is not None:
        tensors += [("Adam m of ", adam_state.m), ("Adam v of ", adam_state.v)]
    for prefix, arrays in tensors:
        for (name, _), arr in zip(model.arch.param_shapes(), arrays):
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: not written: {prefix}{name} holds a non-finite value")
    descriptor = model.arch.to_text().encode()
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<2I", VERSION, len(descriptor)) + descriptor
                + struct.pack("<I", len(params)))
        _write_tensors(f, params)
        if adam_state is None:
            f.write(b"\0")
        else:
            f.write(b"\1" + struct.pack(ADAM, adam_state.lr, adam_state.beta1, adam_state.beta2,
                                         adam_state.eps, adam_state.t))
            _write_tensors(f, adam_state.m)
            _write_tensors(f, adam_state.v)


def read_checkpoint(path: str) -> tuple[MultiOutputModel, AdamState | None]:
    """Rebuild (model, adam state) from a checkpoint file.

    Adam settings that TrainConfig would reject, a tensor holding a NaN or
    an infinity, and an Adam flag other than 0 or 1 raise FileFormatError
    naming the field, the tensor or the flag's offset.
    """
    with open(path, "rb") as f:
        reader = ByteReader(f, path, os.fstat(f.fileno()).st_size)
        reader.expect_header(MAGIC, VERSION, "checkpoint")
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
        params = _read_tensors(reader, arch, "")
        adam = None
        flag = reader.u8()
        if flag > 1:
            raise FileFormatError(f"{path}: Adam flag {flag} at offset {reader.pos - 1}; "
                                  "expected 0 or 1")
        if flag == 1:
            lr, beta1, beta2, eps, t = struct.unpack(ADAM, reader.take(struct.calcsize(ADAM)))
            try:
                check_adam_settings(lr, beta1, beta2, eps)
            except ValueError as exc:
                raise FileFormatError(f"{path}: Adam state: {exc}") from exc
            m = _read_tensors(reader, arch, "Adam m tensor of ")
            v = _read_tensors(reader, arch, "Adam v tensor of ")
            adam = AdamState(m=m, v=v, t=t, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        reader.expect_end()
    return MultiOutputModel.from_arrays(arch, params), adam
