"""Binary dataset files: magic "EXPD", version 1, little-endian throughout.

Layout: magic, u32 version, u32 count, u32 H, u32 W, u8 base_lo, u8 base_hi,
u8 exp_lo, u8 exp_hi; then per sample H*W pixel bytes (round(p*255)),
u8 base_label, u8 exp_label, and three f32 metadata values (font_scale,
noise_sigma, blur_sigma).  Pixels are quantized to 1/255, far below the
noise scales; labels and metadata round-trip exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .datagen import Sample
from .errors import BadMagicError, FileFormatError, TruncatedFileError, VersionMismatchError

MAGIC = b"EXPD"
VERSION = 1


@dataclass(frozen=True)
class DatasetHeader:
    count: int
    image_size: tuple[int, int]
    base_range: tuple[int, int]
    exp_range: tuple[int, int]


class ByteReader:
    """Sequential reader that turns short reads into TruncatedFileError."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(
                f"{self.path}: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def f32(self) -> float:
        return struct.unpack("<f", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def expect_end(self) -> None:
        """Raise FileFormatError unless every byte has been read."""
        if self.pos != len(self.data):
            raise FileFormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes at offset {self.pos}")


def write_dataset(samples: list[Sample], path: str,
                  base_range: tuple[int, int] = (2, 9),
                  exp_range: tuple[int, int] = (0, 9)) -> None:
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    h, w = samples[0].image.shape[1:]
    parts = [MAGIC,
             struct.pack("<IIII", VERSION, len(samples), h, w),
             struct.pack("<BBBB", base_range[0], base_range[1],
                         exp_range[0], exp_range[1])]
    for s in samples:
        if s.image.shape != (1, h, w):
            raise ValueError(f"sample image shape {s.image.shape} != (1, {h}, {w})")
        pixels = np.round(s.image[0] * 255.0).astype(np.uint8)
        parts.append(pixels.tobytes())
        parts.append(struct.pack("<BB", s.base_label, s.exp_label))
        parts.append(struct.pack("<fff", *s.meta))
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def read_dataset(path: str) -> tuple[list[Sample], DatasetHeader]:
    with open(path, "rb") as f:
        reader = ByteReader(f.read(), path)
    if reader.take(4) != MAGIC:
        raise BadMagicError(f"{path}: not a dataset file (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise VersionMismatchError(f"{path}: dataset version {version}, expected {VERSION}")
    count = reader.u32()
    h, w = reader.u32(), reader.u32()
    base_range = (reader.u8(), reader.u8())
    exp_range = (reader.u8(), reader.u8())
    samples = []
    for i in range(count):
        pixels = np.frombuffer(reader.take(h * w), dtype=np.uint8)
        image = (pixels.astype(np.float32) / 255.0).reshape(1, h, w)
        base_label = reader.u8()
        exp_label = reader.u8()
        if base_label > base_range[1] - base_range[0] or exp_label > exp_range[1] - exp_range[0]:
            raise FileFormatError(
                f"{path}: sample {i} labels ({base_label}, {exp_label}) at offset "
                f"{reader.pos - 2} outside the header's base {base_range} / exp {exp_range}")
        meta = (reader.f32(), reader.f32(), reader.f32())
        samples.append(Sample(image, base_label, exp_label, meta))
    reader.expect_end()
    return samples, DatasetHeader(count, (h, w), base_range, exp_range)
