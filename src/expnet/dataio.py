"""Binary dataset files: magic "EXPD", version 1, little-endian throughout.

Layout: magic, u32 version, u32 count, u32 H, u32 W, u8 2 9 0 9 (the only
digit bounds, model.BASE_DIGITS and EXP_DIGITS); then one packed record per
sample (``record_dtype``): H*W pixel bytes, u8 base_label, u8 exp_label (each
the digit minus its lowest), and three f32 metadata values (font_scale,
noise_sigma, blur_sigma), written and read as one record array.  The read
Dataset's pixels and meta columns are views of that array, so a dataset
round-trips exactly and the file's bytes are held once.
ByteReader, with its one magic and version check, serves this reader and the
checkpoint reader.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .datagen import Dataset
from .errors import BadMagicError, FileFormatError, TruncatedFileError, VersionMismatchError
from .model import BASE_DIGITS, EXP_DIGITS, N_BASE_CLASSES, N_EXP_CLASSES

MAGIC = b"EXPD"
VERSION = 1
DIGITS = bytes((*BASE_DIGITS, *EXP_DIGITS))   # the header's digit bounds at offset 20


@dataclass(frozen=True)
class DatasetHeader:
    count: int
    image_size: tuple[int, int]


class ByteReader:
    """Sequential reader of an open binary file of ``size`` bytes.

    Every length is claimed against ``size`` in Python ints before anything
    is allocated for it, so a declared length past the end of the file, or
    one too large for any array, raises TruncatedFileError instead.
    """

    def __init__(self, f: BinaryIO, path: str, size: int):
        self.f = f
        self.path = path
        self.size = size
        self.pos = 0

    def skip(self, n: int) -> int:
        """Claim the next n bytes, to be read by fill(); returns the offset where they start."""
        if n < 0:
            raise FileFormatError(f"{self.path}: negative length {n} at offset {self.pos}")
        if self.pos + n > self.size:
            raise TruncatedFileError(
                f"{self.path}: needed {n} bytes at offset {self.pos}, file has {self.size}")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytearray:
        """Claim and read the next n bytes."""
        self.skip(n)
        return self.fill(bytearray(n))

    def fill(self, arr):
        """Read the bytes the last skip() claimed straight into arr; returns arr."""
        if self.f.readinto(arr) != memoryview(arr).nbytes:
            raise TruncatedFileError(f"{self.path}: file shrank while being read")
        return arr

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def expect_header(self, magic: bytes, version: int, kind: str) -> None:
        """Read the magic and u32 version a file starts with; kind names the file in errors."""
        if self.take(len(magic)) != magic:
            raise BadMagicError(f"{self.path}: not a {kind} file (bad magic)")
        found = self.u32()
        if found != version:
            raise VersionMismatchError(f"{self.path}: {kind} version {found}, expected {version}")

    def expect_end(self) -> None:
        """Raise FileFormatError unless every byte has been read."""
        if self.pos != self.size:
            raise FileFormatError(
                f"{self.path}: {self.size - self.pos} trailing bytes at offset {self.pos}")


def record_dtype(h: int, w: int) -> np.dtype:
    """One sample's packed EXPD record; each field is named after its Dataset column."""
    return np.dtype([("pixels", "u1", (1, h, w)), ("base_labels", "u1"), ("exp_labels", "u1"),
                     ("meta", "<f4", (3,))])


def write_dataset(dataset: Dataset, path: str) -> None:
    if len(dataset) == 0:
        raise ValueError("refusing to write an empty dataset")
    _, _, h, w = dataset.pixels.shape
    dataset.check_labels()
    bad = ~np.isfinite(dataset.meta).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"sample {i} metadata {dataset[i].meta} is not finite")
    records = np.empty(len(dataset), record_dtype(h, w))
    for name in records.dtype.names:
        records[name] = getattr(dataset, name)
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<4I", VERSION, len(dataset), h, w) + DIGITS)
        f.write(records)   # the array's own buffer: no bytes copy of the whole file


def read_dataset(path: str) -> tuple[Dataset, DatasetHeader]:
    """Read an EXPD file's records in one read; the Dataset's pixels and meta view them.

    The file's length is checked against its header before the records are
    allocated; only the labels are copied, widened to int64.
    """
    with open(path, "rb") as f:
        reader = ByteReader(f, path, os.fstat(f.fileno()).st_size)
        reader.expect_header(MAGIC, VERSION, "dataset")
        count = reader.u32()
        if count == 0:
            raise FileFormatError(f"{path}: sample count 0 at offset 8; a dataset is never empty")
        h, w = reader.u32(), reader.u32()
        if h == 0 or w == 0:
            raise FileFormatError(f"{path}: image size {h}x{w} at offset {reader.pos - 8} "
                                  "has a zero dimension")
        if (digits := reader.take(4)) != DIGITS:
            raise FileFormatError(f"{path}: digit bounds {tuple(digits)} at offset 20; only "
                                  f"base {BASE_DIGITS} and exponent {EXP_DIGITS} are supported")
        size = h * w + 14          # Python ints: a huge image size cannot overflow a dtype
        start = reader.skip(count * size)
        reader.expect_end()
        records = reader.fill(np.empty(count, record_dtype(h, w)))
    dataset = Dataset(records["pixels"], records["base_labels"].astype(np.int64),
                      records["exp_labels"].astype(np.int64), records["meta"])
    bad = (dataset.base_labels >= N_BASE_CLASSES) | (dataset.exp_labels >= N_EXP_CLASSES)
    if bad.any():
        i = int(bad.argmax())
        raise FileFormatError(
            f"{path}: sample {i} labels ({dataset.base_labels[i]}, {dataset.exp_labels[i]}) "
            f"at offset {start + i * size + h * w} "
            f"outside the {N_BASE_CLASSES} base / {N_EXP_CLASSES} exp classes")
    bad = ~np.isfinite(dataset.meta).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise FileFormatError(f"{path}: sample {i} metadata {tuple(dataset.meta[i].tolist())} at "
                              f"offset {start + i * size + h * w + 2} is not finite")
    return dataset, DatasetHeader(count, (h, w))
