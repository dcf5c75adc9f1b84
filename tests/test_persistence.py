import dataclasses
import hashlib
import io
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from expnet.checkpoint import read_checkpoint, write_checkpoint
from expnet.dataio import ByteReader, read_dataset, record_dtype, write_dataset
from expnet.datagen import Dataset, GenConfig, generate_dataset
from expnet.errors import (ArchitectureMismatchError, BadMagicError, FileFormatError,
                           TruncatedFileError, VersionMismatchError)
from expnet.model import (BASE_DIGITS, DEFAULT_ARCH, EXP_DIGITS, TINY_ARCH, Architecture,
                          MultiOutputModel)
from expnet.optim import AdamState, adam_step
from expnet.rng import Rng
from expnet.train import TrainConfig, train

SMALL_ARCH = Architecture(input_hw=(64, 64), conv_channels=(4, 8), dense_width=32)


def test_dataset_round_trip(tmp_path):
    ds = generate_dataset(GenConfig(count=10, master_seed=44))
    path = str(tmp_path / "d.bin")
    write_dataset(ds, path)
    back, header = read_dataset(path)
    assert header.count == 10
    assert header.image_size == (64, 64)
    assert open(path, "rb").read()[20:24] == bytes((*BASE_DIGITS, *EXP_DIGITS))
    for a, b in zip(ds, back):
        assert (a.base_label, a.exp_label) == (b.base_label, b.exp_label)
        assert a.meta == b.meta
        assert np.array_equal(a.pixels, b.pixels) and np.array_equal(a.image, b.image)
    assert np.shares_memory(back[3].pixels, back.pixels)
    for key in (slice(2, 7), np.array([9, 0, 4])):
        part = back[key]
        assert isinstance(part, Dataset)
        assert np.array_equal(part.pixels, back.pixels[key])
        assert np.array_equal(part.base_labels, back.base_labels[key])
        assert np.array_equal(part.exp_labels, back.exp_labels[key])
        assert np.array_equal(part.meta, back.meta[key])


def test_dataset_bytes_are_pinned(tmp_path):
    path = tmp_path / "d.bin"
    write_dataset(generate_dataset(GenConfig(count=6, master_seed=44)), str(path))
    blob = path.read_bytes()
    assert len(blob) == 24 + 6 * (64 * 64 + 2 + 12)
    assert blob[:24] == b"EXPD" + struct.pack("<4I4B", 1, 6, 64, 64, 2, 9, 0, 9)
    assert hashlib.sha256(blob).hexdigest() == (
        "5a8bae59541065711df1d54554f4381726ff1d466dc53327805f6582bd13ac53")


def test_generated_dataset_equals_its_file(tmp_path):
    # two chunks of default samples: every pixel, label and metadata value survives the file
    ds = generate_dataset(GenConfig(count=300, master_seed=2024))
    path = str(tmp_path / "d.bin")
    write_dataset(ds, path)
    back, _ = read_dataset(path)
    for column in ("pixels", "base_labels", "exp_labels", "meta"):
        a, b = getattr(ds, column), getattr(back, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column
    assert np.array_equal(ds.images, back.images)


def test_dataset_write_is_deterministic(tmp_path):
    ds = generate_dataset(GenConfig(count=8, master_seed=45))
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    write_dataset(ds, p1)
    write_dataset(ds, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_read_holds_one_slice_of_records(tmp_path):
    # the pixels column views the records read from the file, so the reader
    # never holds the file's bytes beside the pixels
    n = 8192
    r = Rng(12)
    pixels = (r.uniforms(n * 16 * 16) * 256).astype(np.uint8).reshape(n, 1, 16, 16)
    ds = Dataset(pixels, np.arange(n) % 8, np.arange(n) % 10,
                 r.uniforms(3 * n).reshape(n, 3).astype(np.float32))
    path = str(tmp_path / "d.bin")
    write_dataset(ds, path)
    tracemalloc.start()
    try:
        back, _ = read_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.pixels, ds.pixels) and np.array_equal(back.meta, ds.meta)
    assert np.array_equal(back.exp_labels, ds.exp_labels)
    assert peak < back.pixels.nbytes + os.path.getsize(path) // 2


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"XXXX" + b"\0" * 64)
    with pytest.raises(BadMagicError):
        read_dataset(str(path))


def test_dataset_version_mismatch(tmp_path):
    ds = generate_dataset(GenConfig(count=2, master_seed=1))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        read_dataset(str(path))


def test_dataset_truncation_detected(tmp_path):
    ds = generate_dataset(GenConfig(count=4, master_seed=2))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    blob = bytearray(path.read_bytes())
    # claim 5 records while only 4 are present
    blob[8:12] = struct.pack("<I", 5)
    path.write_bytes(bytes(blob))
    with pytest.raises(TruncatedFileError):
        read_dataset(str(path))
    # physically cut the file mid-record
    write_dataset(ds, str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) - 7])
    with pytest.raises(TruncatedFileError):
        read_dataset(str(path))


def test_dataset_trailing_bytes_rejected(tmp_path):
    ds = generate_dataset(GenConfig(count=3, master_seed=3))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0" * 7)
    with pytest.raises(FileFormatError, match=f"d.bin: 7 trailing bytes at offset {size}"):
        read_dataset(str(path))


def test_dataset_label_out_of_range_rejected(tmp_path):
    # the writer refuses such labels, so patch them into a valid file's bytes
    ds = generate_dataset(GenConfig(count=3, master_seed=4))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    whole = path.read_bytes()
    record = 64 * 64 + 2 + 12                 # pixels, two label bytes, three f32
    base_at = 24 + record + 64 * 64           # sample 1's base label
    path.write_bytes(whole[:base_at] + bytes([200]) + whole[base_at + 1:])
    with pytest.raises(FileFormatError, match="sample 1"):
        read_dataset(str(path))
    exp_at = 24 + 2 * record + 64 * 64 + 1    # sample 2's exp label
    path.write_bytes(whole[:base_at] + bytes([7]) + whole[base_at + 1:exp_at]   # base digit 9
                     + bytes([10]) + whole[exp_at + 1:])                       # one past 0..9
    with pytest.raises(FileFormatError, match="sample 2"):
        read_dataset(str(path))


def test_dataset_non_finite_metadata_rejected(tmp_path):
    # the offset named counts every record before sample 1025
    n, i = 1028, 1025
    ds = Dataset(np.zeros((n, 1, 4, 4), np.uint8), np.arange(n) % 8, np.arange(n) % 10,
                 np.ones((n, 3), np.float32))
    path = tmp_path / "d.bin"
    ds.meta[i, 1] = np.nan
    with pytest.raises(ValueError, match=f"sample {i} metadata \\(1.0, nan, 1.0\\) is not"):
        write_dataset(ds, str(path))
    assert not path.exists()
    ds.meta[i, 1] = 1.0
    write_dataset(ds, str(path))
    whole = path.read_bytes()
    meta_at = 24 + i * (4 * 4 + 14) + 4 * 4 + 2
    for bad in (np.nan, np.inf):
        path.write_bytes(whole[:meta_at + 4] + struct.pack("<f", bad) + whole[meta_at + 8:])
        with pytest.raises(FileFormatError, match=f"d.bin: sample {i} metadata \\(1.0, {bad}, "
                                                  f"1.0\\) at offset {meta_at} is not finite"):
            read_dataset(str(path))


def test_dataset_zero_count_rejected(tmp_path):
    ds = generate_dataset(GenConfig(count=1, master_seed=5))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    header = path.read_bytes()[:24]
    path.write_bytes(header[:8] + struct.pack("<I", 0) + header[12:])
    with pytest.raises(FileFormatError, match="d.bin: sample count 0 at offset 8"):
        read_dataset(str(path))


def test_dataset_zero_image_dims_rejected(tmp_path):
    ds = generate_dataset(GenConfig(count=2, master_seed=5))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    whole = path.read_bytes()
    for h, w in ((0, 64), (64, 0), (0, 0)):
        path.write_bytes(whole[:12] + struct.pack("<II", h, w) + whole[20:])
        with pytest.raises(FileFormatError,
                           match=f"d.bin: image size {h}x{w} at offset 12 has a zero"):
            read_dataset(str(path))


def test_dataset_other_digit_bounds_rejected(tmp_path):
    # a file labelled against base digits 3-9 would be scored against heads whose class 0 is 2
    ds = generate_dataset(GenConfig(count=2, master_seed=5))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[:20] + bytes([3]) + whole[21:])
    with pytest.raises(FileFormatError, match=r"d.bin: digit bounds \(3, 9, 0, 9\) at offset 20; "
                                              r"only base \(2, 9\) and exponent \(0, 9\)"):
        read_dataset(str(path))


def test_dataset_huge_image_size_is_truncation(tmp_path):
    # a record this large cannot be a numpy dtype; the length check fails first
    ds = generate_dataset(GenConfig(count=2, master_seed=5))
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    whole = path.read_bytes()
    assert record_dtype(64, 64).itemsize == 64 * 64 + 14
    for h, w in ((2 ** 30, 64), (2 ** 16, 2 ** 16)):
        path.write_bytes(whole[:12] + struct.pack("<II", h, w) + whole[20:])
        with pytest.raises(TruncatedFileError,
                           match=f"d.bin: needed {2 * (h * w + 14)} bytes at offset 24"):
            read_dataset(str(path))


def test_dataset_writer_rejects_out_of_range_label(tmp_path):
    ds = generate_dataset(GenConfig(count=3, master_seed=4))
    path = tmp_path / "d.bin"
    ds.base_labels[1] = 200
    with pytest.raises(ValueError, match="sample 1 labels"):
        write_dataset(ds, str(path))
    assert not path.exists()
    ds.base_labels[1] = 7
    ds.exp_labels[2] = -1
    with pytest.raises(ValueError, match="sample 2 labels"):
        write_dataset(ds, str(path))
    assert not path.exists()
    ds.exp_labels[2] = 9
    write_dataset(ds, str(path))
    assert [s.base_label for s in read_dataset(str(path))[0]][1] == 7
    # rows are read-only views: a write to one would never reach the columns
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds[1].base_label = 3


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = MultiOutputModel.init(DEFAULT_ARCH, 77)
    path = str(tmp_path / "m.ckpt")
    write_checkpoint(model, path)
    back, adam = read_checkpoint(path)
    assert adam is None
    assert back.arch == DEFAULT_ARCH
    for a, b in zip(model.param_arrays(), back.param_arrays()):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)
    # writing the reloaded model reproduces the file byte for byte
    path2 = str(tmp_path / "m2.ckpt")
    write_checkpoint(back, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_with_adam_state(tmp_path):
    model = MultiOutputModel.init(TINY_ARCH, 3)
    params = model.param_arrays()
    state = AdamState.init(params, lr=0.01)
    state.t = 17
    for m in state.m:
        m += 0.25
    path = str(tmp_path / "m.ckpt")
    write_checkpoint(model, path, adam_state=state)
    _, back = read_checkpoint(path)
    assert back is not None
    assert back.t == 17 and back.lr == 0.01
    assert back.beta1 == state.beta1 and back.eps == state.eps
    for a, b in zip(state.m, back.m):
        assert np.array_equal(a, b)
    for a, b in zip(state.v, back.v):
        assert np.array_equal(a, b)


def test_checkpoint_bytes_are_pinned(tmp_path):
    model = MultiOutputModel.init(TINY_ARCH, 5)
    params = model.param_arrays()
    state = AdamState.init(params, lr=0.01)
    r = Rng(6)
    adam_step(params, [r.normals(p.size).reshape(p.shape).astype(np.float32) for p in params],
              state)
    path = tmp_path / "m.ckpt"
    for adam, size, digest in (
            (None, 11037, "8d65ca77fbb9e4a5f34763f1496406c1c59105846048cddd59ce01e20effa430"),
            (state, 32957, "29cd37185b7e864fe4effd8882a8127e7ce80a37e7521d45699cb90504b1e285")):
        write_checkpoint(model, str(path), adam_state=adam)
        blob = path.read_bytes()
        assert len(blob) == size and hashlib.sha256(blob).hexdigest() == digest


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_checkpoint_io_holds_no_copy_of_the_file(tmp_path):
    # the writer streams each tensor's own buffer; the reader fills each tensor from the file
    model = MultiOutputModel.init(DEFAULT_ARCH, 77)
    state = AdamState.init(model.param_arrays())
    path = str(tmp_path / "m.ckpt")
    _, write_peak = _traced_peak(write_checkpoint, model, path, state)
    (back, adam), read_peak = _traced_peak(read_checkpoint, path)
    size = os.path.getsize(path)
    tensors = sum(a.nbytes for a in back.param_arrays() + adam.m + adam.v)
    assert write_peak < size // 4
    assert read_peak < tensors + size // 4


def test_checkpoint_write_refuses_non_finite_tensors(tmp_path):
    # a diverged run must not save NaN weights: the file is never opened
    model = MultiOutputModel.init(TINY_ARCH, 3)
    state = AdamState.init(model.param_arrays(), lr=0.01)
    path = tmp_path / "m.ckpt"
    model.convs[1].weights[2, 0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="conv1.weights holds a non-finite value"):
        write_checkpoint(model, str(path), adam_state=state)
    assert not path.exists()
    model.convs[1].weights[2, 0, 1, 1] = 0.5
    state.v[5][3] = np.inf
    with pytest.raises(ValueError, match="Adam v of dense.bias holds a non-finite value"):
        write_checkpoint(model, str(path), adam_state=state)
    assert not path.exists()
    state.v[5][3] = 0.0
    write_checkpoint(model, str(path), adam_state=state)
    assert path.exists()


def test_checkpoint_non_finite_tensors_rejected_at_read(tmp_path):
    # the writer refuses such values, so patch them into a valid file's bytes
    model = MultiOutputModel.init(TINY_ARCH, 3)
    state = AdamState.init(model.param_arrays(), lr=0.01)
    state.v[5][3] = 0.25
    path = tmp_path / "m.ckpt"
    write_checkpoint(model, str(path), adam_state=state)
    whole = path.read_bytes()
    shapes = [shape for _, shape in TINY_ARCH.param_shapes()]

    def value_at(section, k, i):
        # offset of value i of tensor k; section 0 holds the parameters, 1 Adam m, 2 Adam v
        at = 12 + struct.unpack_from("<I", whole, 8)[0] + 4 + (1 + 40 if section else 0)
        for shape in shapes * section + shapes[:k + 1]:
            at += 4 + 4 * len(shape) + 4 * math.prod(shape)
        return at - 4 * math.prod(shapes[k]) + 4 * i

    weights_at, v_at = value_at(0, 2, 7), value_at(2, 5, 3)
    assert struct.unpack_from("<f", whole, weights_at)[0] == model.convs[1].weights.flat[7]
    assert struct.unpack_from("<f", whole, v_at)[0] == 0.25
    for at, bad, what in ((weights_at, np.nan, "conv1.weights"),
                          (v_at, np.inf, "Adam v tensor of dense.bias")):
        path.write_bytes(whole[:at] + struct.pack("<f", bad) + whole[at + 4:])
        with pytest.raises(FileFormatError, match=f"m.ckpt: {what} holds a non-finite value "
                                                  f"\\({bad}\\) at offset {at}$"):
            read_checkpoint(str(path))


def test_checkpoint_moment_shape_mismatch_rejected_at_read(tmp_path):
    model = MultiOutputModel.init(TINY_ARCH, 3)
    state = AdamState.init(model.param_arrays())
    state.m[0] = np.zeros(3, dtype=np.float32)          # conv0.weights is (4, 1, 3, 3)
    path = str(tmp_path / "m.ckpt")
    write_checkpoint(model, path, adam_state=state)
    with pytest.raises(ArchitectureMismatchError,
                       match=r"m.ckpt: Adam m tensor of conv0.weights has shape \(3,\)"):
        read_checkpoint(path)
    state = AdamState.init(model.param_arrays())
    state.v[-1] = np.zeros((2, 5), dtype=np.float32)
    write_checkpoint(model, path, adam_state=state)
    with pytest.raises(ArchitectureMismatchError, match="Adam v tensor of exp_head.bias"):
        read_checkpoint(path)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(BadMagicError):
        read_checkpoint(str(path))
    model = MultiOutputModel.init(TINY_ARCH, 1)
    write_checkpoint(model, str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[:100])
    with pytest.raises(TruncatedFileError):
        read_checkpoint(str(path))


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(MultiOutputModel.init(TINY_ARCH, 2), str(path))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    with pytest.raises(FileFormatError, match=f"m.ckpt: 4 trailing bytes at offset {size}"):
        read_checkpoint(str(path))


def test_checkpoint_read_builds_model_without_init(tmp_path, monkeypatch):
    model = MultiOutputModel.init(TINY_ARCH, 6)
    path = tmp_path / "m.ckpt"
    write_checkpoint(model, str(path))
    blob = path.read_bytes()

    def no_init(*args, **kwargs):
        raise AssertionError("read_checkpoint must not initialise a model")

    monkeypatch.setattr(MultiOutputModel, "init", no_init)
    back, _ = read_checkpoint(str(path))
    for a, b in zip(model.param_arrays(), back.param_arrays()):
        assert np.array_equal(a, b)

    count_at = 12 + struct.unpack_from("<I", blob, 8)[0]      # after the descriptor
    assert struct.unpack_from("<I", blob, count_at)[0] == 10
    fewer = bytearray(blob)
    struct.pack_into("<I", fewer, count_at, 9)
    path.write_bytes(bytes(fewer))
    with pytest.raises(ArchitectureMismatchError, match="9 parameter tensors"):
        read_checkpoint(str(path))
    # conv0.weights stored as [1, 4, 3, 3] instead of [4, 1, 3, 3]: same size, wrong shape
    swapped = bytearray(blob)
    assert struct.unpack_from("<5I", swapped, count_at + 4) == (4, 4, 1, 3, 3)
    struct.pack_into("<2I", swapped, count_at + 8, 1, 4)
    path.write_bytes(bytes(swapped))
    with pytest.raises(ArchitectureMismatchError, match="conv0.weights"):
        read_checkpoint(str(path))


@pytest.mark.parametrize("corrupt, match", [
    (lambda d: d.replace(b"\nconv", b"\n \nconv"), "unreadable"),
    (lambda d: b"\xff\xfe" + d, "not UTF-8"),
    (lambda d: d.replace(b"kernel 3 stride 1", b"kernel 3 stride 0"),
     "line 3: got 'kernel 3 stride 0 pad 1', expected 'kernel 3 stride 1 pad 1'$"),
    (lambda d: d.replace(b"pool 2", b"pool 0"),
     "line 4: got 'pool 0 stride 2', expected 'pool 2 stride 2'$"),
    (lambda d: d.replace(b"kernel 3", b"kernel 30"),
     "line 3: got 'kernel 30 stride 1 pad 1', expected 'kernel 3 stride 1 pad 1'$"),
    (lambda d: d.replace(b"pool 2 stride 2", b"pool 3 stride 3"),
     "line 4: got 'pool 3 stride 3', expected 'pool 2 stride 2'$"),
    (lambda d: d.replace(b"pool 2 stride 2", b"pool 2 stride 1"),
     "line 4: got 'pool 2 stride 1', expected 'pool 2 stride 2'$"),
    (lambda d: d.replace(b"kernel 3 stride 1 pad 1", b"kernel 5 stride 1 pad 2"),
     "line 3: got 'kernel 5 stride 1 pad 2', expected 'kernel 3 stride 1 pad 1'$"),
    (lambda d: d.replace(b"kernel 3 stride 1 pad 1", b"kernel 3 stride 2 pad 1"),
     "line 3: got 'kernel 3 stride 2 pad 1', expected 'kernel 3 stride 1 pad 1'$"),
    (lambda d: d.replace(b"kernel 3 stride 1 pad 1", b"kernel 3 stride 1 pad 0"),
     "line 3: got 'kernel 3 stride 1 pad 0', expected 'kernel 3 stride 1 pad 1'$"),
    (lambda d: d.replace(b"input 16 16", b"input 16 1"), "empty map"),
    (lambda d: d.replace(b"heads 8 10", b"heads 7 10"),
     "line 6: got 'heads 7 10', expected 'heads 8 10'$"),
    (lambda d: d + b"\ndropout 0.5", "line 7: got 'dropout 0.5', expected end of text$"),
    (lambda d: b"\n".join(reversed(d.split(b"\n"))),
     "line 1: got 'heads 8 10', expected 'input 16 16'$"),
    (lambda d: d.replace(b"pad 1", b"pad 1 bias 0"),
     "line 3: got 'kernel 3 stride 1 pad 1 bias 0', expected 'kernel 3 stride 1 pad 1'$"),
], ids=["blank-line", "not-utf8", "stride-0", "pool-0", "kernel-over-input", "pool-3-stride-3",
        "pool-2-stride-1", "kernel-5-pad-2", "stride-2", "pad-0", "empty-map", "heads-7-10",
        "extra-line", "reversed-lines", "trailing-token"])
def test_checkpoint_malformed_descriptor_rejected(tmp_path, corrupt, match):
    path = tmp_path / "m.ckpt"
    write_checkpoint(MultiOutputModel.init(TINY_ARCH, 8), str(path))
    blob = path.read_bytes()
    end = 12 + struct.unpack_from("<I", blob, 8)[0]
    descriptor = corrupt(blob[12:end])
    assert descriptor != blob[12:end]
    path.write_bytes(blob[:8] + struct.pack("<I", len(descriptor)) + descriptor + blob[end:])
    with pytest.raises(ArchitectureMismatchError, match=match):
        read_checkpoint(str(path))


def test_checkpoint_adam_flag_other_than_0_or_1_rejected(tmp_path):
    model = MultiOutputModel.init(TINY_ARCH, 8)
    path = tmp_path / "m.ckpt"
    write_checkpoint(model, str(path))
    bare = path.read_bytes()
    flag_at = len(bare) - 1              # the flag ends a file without Adam state
    write_checkpoint(model, str(path), adam_state=AdamState.init(model.param_arrays()))
    with_adam = path.read_bytes()
    assert (bare[flag_at], with_adam[flag_at]) == (0, 1)
    for blob in (bare, with_adam):
        path.write_bytes(blob[:flag_at] + b"\2" + blob[flag_at + 1:])
        with pytest.raises(FileFormatError,
                           match=f"m.ckpt: Adam flag 2 at offset {flag_at}; expected 0 or 1$"):
            read_checkpoint(str(path))


@pytest.mark.parametrize("field, value", [
    ("lr", math.nan), ("lr", 0.0), ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
    ("beta2", -0.5), ("beta2", -1e-9), ("beta2", 1.0), ("eps", math.inf), ("eps", 0.0),
    ("eps", -1e-8),
])
def test_checkpoint_unusable_adam_settings_rejected(tmp_path, field, value):
    # Adam with any of these silently turns every parameter NaN or steps it backwards
    model = MultiOutputModel.init(TINY_ARCH, 9)
    state = AdamState.init(model.param_arrays())
    setattr(state, field, value)
    path = tmp_path / "m.ckpt"
    write_checkpoint(model, str(path), adam_state=state)
    with pytest.raises(FileFormatError, match=f"m.ckpt: Adam state: {field} must be"):
        read_checkpoint(str(path))


def test_checkpoint_huge_tensor_dims_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(MultiOutputModel.init(TINY_ARCH, 7), str(path))
    blob = bytearray(path.read_bytes())
    count_at = 12 + struct.unpack_from("<I", blob, 8)[0]
    # conv0.weights dims whose element count wraps an int64 to a negative size
    struct.pack_into("<4I", blob, count_at + 8, 0xFFFFFFFF, 0xFFFFFFFF, 1, 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match=f"m.ckpt: needed {4 * 0xFFFFFFFF ** 2} bytes"):
        read_checkpoint(str(path))


def test_byte_reader_rejects_negative_length():
    reader = ByteReader(io.BytesIO(b"\0" * 8), "f.bin", 8)
    reader.take(3)
    with pytest.raises(FileFormatError, match="f.bin: negative length -1 at offset 3"):
        reader.take(-1)


def test_resume_equals_uninterrupted(tmp_path):
    ds = generate_dataset(GenConfig(count=90, master_seed=31))
    cfg3 = TrainConfig(epochs=3, seed=31)

    straight = train(ds, cfg3, arch=SMALL_ARCH, init_seed=31)

    cfg2 = TrainConfig(epochs=2, seed=31)
    first_leg = train(ds, cfg2, arch=SMALL_ARCH, init_seed=31)
    path = str(tmp_path / "resume.ckpt")
    write_checkpoint(first_leg.final_model, path, adam_state=first_leg.adam_state)
    loaded_model, loaded_adam = read_checkpoint(path)
    assert loaded_model.arch == SMALL_ARCH
    second_leg = train(ds, cfg3, arch=SMALL_ARCH, initial_model=loaded_model,
                       initial_adam=loaded_adam, start_epoch=2)

    for a, b in zip(straight.final_model.param_arrays(),
                    second_leg.final_model.param_arrays()):
        assert np.array_equal(a, b)
    p1, p2 = str(tmp_path / "s.ckpt"), str(tmp_path / "r.ckpt")
    write_checkpoint(straight.final_model, p1, adam_state=straight.adam_state)
    write_checkpoint(second_leg.final_model, p2, adam_state=second_leg.adam_state)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert straight.history[2] == second_leg.history[0]