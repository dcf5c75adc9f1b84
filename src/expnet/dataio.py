"""Binary dataset files: magic "EXPD", version 1, little-endian throughout.

Layout: magic, u32 version, u32 count, u32 H, u32 W, u8 2 9 0 9 (the only
digit bounds, model.BASE_DIGITS and EXP_DIGITS); then one packed record per
sample (``record_dtype``): H*W pixel bytes, u8 base_label, u8 exp_label (each
the digit minus its lowest), and three f32 metadata values (font_scale,
noise_sigma, blur_sigma), written as one record array and read READ_ROWS
records at a time.  Every column is copied as the Dataset holds it, pixels
included, so a dataset round-trips exactly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import BadMagicError, FileFormatError, TruncatedFileError, VersionMismatchError
from .model import BASE_DIGITS, EXP_DIGITS, N_BASE_CLASSES, N_EXP_CLASSES

MAGIC = b"EXPD"
VERSION = 1
READ_ROWS = 1024    # records read at a time: a 4 MB buffer at 64x64
HEADER_SIZE = 24    # magic, four u32 and four u8
DIGITS = bytes((*BASE_DIGITS, *EXP_DIGITS))   # the header's digit bounds at offset 20


@dataclass(frozen=True)
class DatasetHeader:
    count: int
    image_size: tuple[int, int]


class ByteReader:
    """Sequential reader that turns short reads into TruncatedFileError.

    ``size`` is the length of the whole file when ``data`` holds only its
    first bytes; skip() and expect_end() check against it.
    """

    def __init__(self, data: bytes, path: str, size: int | None = None):
        self.data = data
        self.pos = 0
        self.path = path
        self.size = len(data) if size is None else size

    def skip(self, n: int) -> int:
        """Move past n bytes; returns the offset where they start."""
        if n < 0:
            raise FileFormatError(f"{self.path}: negative length {n} at offset {self.pos}")
        if self.pos + n > self.size:
            raise TruncatedFileError(
                f"{self.path}: needed {n} bytes at offset {self.pos}, file has {self.size}")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.data[self.skip(n):self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

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
    """Read an EXPD file, READ_ROWS records at a time into preallocated columns.

    The file's length is checked against its header before any record is
    read, so only one slice of records is ever held besides the columns.
    """
    with open(path, "rb") as f:
        reader = ByteReader(f.read(HEADER_SIZE), path, size=os.fstat(f.fileno()).st_size)
        if reader.take(4) != MAGIC:
            raise BadMagicError(f"{path}: not a dataset file (bad magic)")
        version = reader.u32()
        if version != VERSION:
            raise VersionMismatchError(f"{path}: dataset version {version}, expected {VERSION}")
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
        dataset = Dataset.empty(count, (h, w))
        buffer = np.empty(min(count, READ_ROWS), record_dtype(h, w))
        for lo in range(0, count, READ_ROWS):
            records = buffer[:count - lo]
            if f.readinto(records) != records.nbytes:
                raise TruncatedFileError(f"{path}: file shrank while being read")
            part = dataset[lo:lo + len(records)]     # views of the columns
            for name in records.dtype.names:
                getattr(part, name)[:] = records[name]
            bad = (part.base_labels >= N_BASE_CLASSES) | (part.exp_labels >= N_EXP_CLASSES)
            if bad.any():
                i = int(bad.argmax())
                raise FileFormatError(
                    f"{path}: sample {lo + i} labels ({part.base_labels[i]}, "
                    f"{part.exp_labels[i]}) at offset {start + (lo + i) * size + h * w} "
                    f"outside the {N_BASE_CLASSES} base / {N_EXP_CLASSES} exp classes")
            bad = ~np.isfinite(part.meta).all(axis=1)
            if bad.any():
                i = int(bad.argmax())
                raise FileFormatError(
                    f"{path}: sample {lo + i} metadata {tuple(part.meta[i].tolist())} at "
                    f"offset {start + (lo + i) * size + h * w + 2} is not finite")
    return dataset, DatasetHeader(count, (h, w))
