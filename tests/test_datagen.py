import hashlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from expnet import datagen
from expnet.dataio import write_dataset
from expnet.datagen import (CHUNK, Dataset, GenConfig, add_gaussian_noise, gaussian_blur,
                            generate_dataset, generate_sample, render_expression)
from expnet.errors import LayoutError, ShapeError
from expnet.glyphs import GLYPH_H, GLYPH_W, GLYPHS
from expnet.rng import Rng, normals


def glyph_pixel_count(digit: int, scale: float) -> int:
    """Independent rasterization oracle: count destination pixels per master
    cell via preimage sizes instead of forward-mapping the canvas."""
    h = max(1, round(GLYPH_H * scale))
    w = max(1, round(GLYPH_W * scale))
    row_hits = np.bincount((np.arange(h) * GLYPH_H) // h, minlength=GLYPH_H)
    col_hits = np.bincount((np.arange(w) * GLYPH_W) // w, minlength=GLYPH_W)
    grid = GLYPHS[digit]
    return int(sum(row_hits[r] * col_hits[c]
                   for r in range(GLYPH_H) for c in range(GLYPH_W) if grid[r, c]))


def test_glyphs_well_formed():
    assert len(GLYPHS) == 10
    for digit, grid in GLYPHS.items():
        assert grid.shape == (GLYPH_H, GLYPH_W)
        assert grid.any(), f"glyph {digit} empty"
    flat = {g.tobytes() for g in GLYPHS.values()}
    assert len(flat) == 10   # all distinct


def test_render_pixel_count_matches_oracle():
    for base, exp, scale in [(2, 5, 2.0), (9, 0, 2.5), (4, 7, 3.5), (3, 3, 3.0)]:
        img = render_expression(base, exp, scale)
        count = int((img == 1.0).sum())
        expect = glyph_pixel_count(base, scale) + glyph_pixel_count(exp, 0.6 * scale)
        assert count == expect
        # area scales like s^2 * (popcount_base + 0.36 * popcount_exp)
        analytic = scale ** 2 * (GLYPHS[base].sum() + 0.36 * GLYPHS[exp].sum())
        assert abs(count - analytic) / analytic < 0.2


def test_render_value_range_and_determinism():
    img = render_expression(7, 8, 2.7)
    assert img.shape == (1, 64, 64)
    assert img.min() == 0.0 and img.max() == 1.0
    assert np.array_equal(img, render_expression(7, 8, 2.7))


def test_render_layout_error_when_too_large():
    with pytest.raises(LayoutError):
        render_expression(2, 5, 10.0)
    with pytest.raises(LayoutError):
        render_expression(2, 5, 2.0, (16, 16))


def test_noise_identity_at_zero_sigma():
    img = render_expression(3, 4, 2.0)[None]
    out = add_gaussian_noise(img, [0.0], np.empty((0, img[0].size)))
    assert np.array_equal(out, img)
    assert out is not img


def test_noise_of_each_sample_comes_from_its_own_stream():
    imgs = np.stack([render_expression(3, 4, 2.0), render_expression(5, 6, 2.5),
                     render_expression(7, 8, 3.0)])
    out = add_gaussian_noise(imgs, [0.2, 0.0, 0.1], normals([Rng(1), Rng(3)], 4096))
    for j, sigma in ((0, 0.2), (2, 0.1)):
        assert np.array_equal(out[j:j + 1], add_gaussian_noise(imgs[j:j + 1], [sigma],
                                                                Rng(j + 1).normals(4096)[None]))
    assert np.array_equal(out[1], imgs[1])
    # one row per sample with sigma > 0, of C*H*W values each
    for field in (normals([Rng(1)], 4096), normals([Rng(1), Rng(2), Rng(3)], 4096),
                  normals([Rng(1), Rng(3)], 4095)):
        with pytest.raises(ShapeError, match=r"^noise field must be \[2, 4096\], one row per "):
            add_gaussian_noise(imgs, [0.2, 0.0, 0.1], field)


def test_noise_statistics():
    img = np.full((1, 1, 64, 64), 0.5, dtype=np.float32)
    out = add_gaussian_noise(img, [0.1], Rng(2).normals(4096)[None])
    assert out.shape == img.shape
    std = float(out.std())
    assert 0.08 < std < 0.12       # 3-sigma band for n=4096
    assert abs(float(out.mean()) - 0.5) < 0.01


def test_noise_clamped_to_unit_interval():
    img = render_expression(5, 5, 2.5)[None]
    for sigma in (0.1, 0.5, 2.0):
        out = add_gaussian_noise(img, [sigma], Rng(3).normals(4096)[None])
        assert out.min() >= 0.0 and out.max() <= 1.0
    with pytest.raises(ValueError):
        add_gaussian_noise(img, [-0.1], Rng(4).normals(4096)[None])


@pytest.mark.parametrize("apply, kind", [
    (lambda imgs, sigmas: gaussian_blur(imgs, sigmas), "blur"),
    (lambda imgs, sigmas: add_gaussian_noise(imgs, sigmas, np.zeros((2, 64))), "noise"),
])
@pytest.mark.parametrize("bad", [math.inf, math.nan, -0.5])
def test_non_finite_or_negative_sigma_rejected_naming_the_sample(apply, kind, bad):
    imgs = np.full((3, 1, 8, 8), 0.5, dtype=np.float32)
    with pytest.raises(ValueError,
                       match=f"^{kind} sigma of sample 1 must be finite and >= 0, got"):
        apply(imgs, [0.5, bad, 0.5])


def blur_2d_oracle(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Direct dense 2D convolution with the same kernel definition."""
    radius = math.ceil(3.0 * sigma)
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-0.5 * (offs / sigma) ** 2)
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(plane.astype(np.float64), radius, mode="edge")
    out = np.zeros_like(plane, dtype=np.float64)
    h, w = plane.shape
    for i in range(h):
        for j in range(w):
            out[i, j] = float((padded[i:i + 2 * radius + 1, j:j + 2 * radius + 1] * k2).sum())
    return out


def test_blur_identity_cases():
    img = render_expression(6, 1, 2.2)[None]
    assert np.array_equal(gaussian_blur(img, [0.0]), img)
    assert np.array_equal(gaussian_blur(img, [0.04]), img)   # below threshold
    const = np.full((1, 1, 20, 20), 0.37, dtype=np.float32)
    assert np.allclose(gaussian_blur(const, [1.5]), const, atol=1e-6)
    with pytest.raises(ValueError):
        gaussian_blur(img, [-1.0])


def test_blur_matches_dense_2d_oracle():
    # one batch mixing radii 2, 3, 6 and 3 again and the identity; each sample
    # equals its own batch of one bit for bit
    sigmas = [0.5, 1.0, 2.0, 0.9, 0.04]
    imgs = Rng(5).uniforms(5 * 24 * 24).reshape(5, 1, 24, 24).astype(np.float32)
    ours = gaussian_blur(imgs, sigmas)
    for j, sigma in enumerate(sigmas):
        assert np.array_equal(ours[j:j + 1], gaussian_blur(imgs[j:j + 1], [sigma]))
        if sigma >= 0.05:
            oracle = blur_2d_oracle(imgs[j, 0], sigma)
            assert np.max(np.abs(ours[j, 0].astype(np.float64) - oracle)) < 1e-6


def test_blur_point_mass_conserved_and_peak_drops():
    img = np.zeros((1, 1, 31, 31), dtype=np.float32)
    img[0, 0, 15, 15] = 1.0
    out = gaussian_blur(img, [1.0])
    assert abs(float(out.sum()) - 1.0) < 1e-4   # kernel support well inside
    assert float(out.max()) < 1.0
    assert out.max() == out[0, 0, 15, 15]


def test_generate_dataset_contract():
    cfg = GenConfig(count=80, master_seed=123)
    ds = generate_dataset(cfg)
    assert len(ds) == 80
    for s in ds:
        assert 0 <= s.base_label <= 7
        assert 0 <= s.exp_label <= 9
        assert s.image.shape == (1, 64, 64)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        font, noise, blur = s.meta
        assert 2.0 <= font <= 3.5
        assert 0.0 <= noise <= 0.3
        assert 0.0 <= blur <= 2.0


def test_generate_dataset_deterministic():
    cfg = GenConfig(count=25, master_seed=9)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert (sa.base_label, sa.exp_label, sa.meta) == (sb.base_label, sb.exp_label, sb.meta)


def test_sample_substream_isolation():
    # a worker thread draws each chunk's noise field; a thread switch every
    # microsecond interleaves it with the rendering as finely as it can be
    cfg = GenConfig(count=3 * CHUNK + 5, master_seed=77)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ds = generate_dataset(cfg)
    finally:
        sys.setswitchinterval(interval)
    for i in range(cfg.count):
        alone = generate_sample(cfg, i)
        assert np.array_equal(alone.image, ds[i].image)
        assert alone.meta == ds[i].meta
        assert np.array_equal(alone.image, ds.images[i])
        assert (alone.base_label, alone.exp_label) == (ds.base_labels[i], ds.exp_labels[i])
        assert alone.meta == tuple(ds.meta[i].tolist())


@pytest.mark.parametrize("pixels", [
    np.zeros((4, 1, 8, 8), np.float32),     # float images in [0, 1] would read as [0, 1/255]
    np.zeros((4, 1, 8, 8), np.int64),
    np.zeros((4, 8, 8), np.uint8),
    np.zeros((4, 3, 8, 8), np.uint8),
])
def test_dataset_refuses_pixels_that_are_not_uint8_n1hw(pixels):
    labels, meta = np.zeros(4, np.int64), np.zeros((4, 3), np.float32)
    with pytest.raises(ShapeError, match=r"^pixels must be uint8 \[N, 1, H, W\], got "):
        Dataset(pixels, labels, labels, meta)


def test_images_are_the_pixels_over_255():
    ds = generate_dataset(GenConfig(count=5, master_seed=31))
    expect = ds.pixels.astype(np.float32) / np.float32(255.0)
    assert ds.images.dtype == np.float32 and np.array_equal(ds.images, expect)
    assert np.array_equal(ds[2].image, expect[2]) and np.array_equal(ds[1:4].images, expect[1:4])
    with pytest.raises(AttributeError):
        ds.images = expect


def _digests(ds, tmp_path) -> tuple[str, str]:
    """SHA-256 of the dataset's EXPD file and of its uint8, int64 and float32 columns."""
    path = tmp_path / "d.bin"
    write_dataset(ds, str(path))
    columns = b"".join(a.tobytes() for a in (ds.pixels, ds.base_labels, ds.exp_labels, ds.meta))
    return (hashlib.sha256(path.read_bytes()).hexdigest(), hashlib.sha256(columns).hexdigest())


@pytest.mark.parametrize("config, expd, columns", [
    # 300 samples cross a chunk boundary and reach blur radii 1-6 and sigmas below 0.05
    (GenConfig(count=300, master_seed=2024),
     "7d5bea063f82bf676f167d07d0b14953168612295e1621d5933c80819cf74203",
     "82598ace7eadc0b466e48165ba406a3fe57a7450daac755bed1511d7f9ca4dd6"),
    # no noise draws and the identity blur only
    (GenConfig(count=40, master_seed=5, noise_sigma_range=(0.0, 0.0),
               blur_sigma_range=(0.0, 0.04)),
     "e5f2c5186a95088c0aec73c4ffcb55c3fa5695ed26916e6d506ae774808e2da9",
     "8cb4599d7273277b20c1ff7106a46cbc49f89a377ff3bf8d78f9888ca668deae"),
    # a non-square canvas with an odd pixel count, so each noise field takes one extra draw
    (GenConfig(count=40, master_seed=6, image_size=(33, 47), font_scale_range=(1.2, 1.8)),
     "b83d40d3145faed85fb52d47a67a2c2b725020a67178e49d47680c1d5dc0e4d4",
     "323af60289b6631af535fc17082a5bd97fcaa2675fbf149988cf08a306a6681f"),
])
def test_generated_bytes_are_pinned(config, expd, columns, tmp_path):
    ds = generate_dataset(config)
    if config.count == 300:
        blur = ds.meta[:, 2].astype(np.float64)
        assert set(np.ceil(3.0 * blur[blur >= 0.05]).tolist()) == {1, 2, 3, 4, 5, 6}
        assert (blur < 0.05).any()
    assert _digests(ds, tmp_path) == (expd, columns)


def test_pinned_ranges_produce_exact_levels():
    cfg = GenConfig(count=6, master_seed=3, noise_sigma_range=(0.15, 0.15),
                    blur_sigma_range=(0.5, 0.5))
    for s in generate_dataset(cfg):
        assert s.meta[1] == pytest.approx(0.15, abs=1e-7)
        assert s.meta[2] == pytest.approx(0.5, abs=1e-7)


def test_layout_error_carries_sample_index():
    cfg = GenConfig(count=3, master_seed=1, font_scale_range=(9.0, 9.0))
    with pytest.raises(LayoutError, match="sample 0"):
        generate_dataset(cfg)


def test_layout_error_names_the_first_failing_sample_of_a_later_chunk():
    # only scales above about 3.81 push the exponent off a 64px canvas
    def fits(seed, i):
        stream = Rng(seed).substream(i)
        base, exp = (stream.u64(2) % np.array([8, 10], np.uint64)).tolist()
        scale = float(np.float32(stream.uniforms(1, 2.0, 3.9)[0]))
        try:
            render_expression(2 + base, exp, scale)
        except LayoutError:
            return False
        return True

    # a seed whose first sample that does not fit lies past the first chunk
    for seed in range(100):
        first = next((i for i in range(2 * CHUNK) if not fits(seed, i)), None)
        if first is not None and first >= CHUNK:
            break
    else:
        pytest.fail("no seed below 100 first fails to fit past the first chunk")
    cfg = GenConfig(count=2 * CHUNK, master_seed=seed, font_scale_range=(2.0, 3.9))
    with pytest.raises(LayoutError, match=f"^sample {first}: "):
        generate_dataset(cfg)


def test_layout_error_while_the_worker_draws_leaves_no_thread(monkeypatch):
    drawing, drawn = threading.Event(), threading.Event()

    def slow_normals(*args):
        drawing.set()
        time.sleep(0.2)      # still drawing when the first sample fails to fit
        field = normals(*args)
        drawn.set()
        return field

    def render_once_drawing(*args):
        assert drawing.wait(10)
        assert not drawn.is_set()
        return render_expression(*args)

    monkeypatch.setattr(datagen, "normals", slow_normals)
    monkeypatch.setattr(datagen, "render_expression", render_once_drawing)
    cfg = GenConfig(count=3, master_seed=1, font_scale_range=(9.0, 9.0))
    threads = threading.active_count()
    with pytest.raises(LayoutError, match="^sample 0: "):
        generate_dataset(cfg)
    assert drawn.is_set()    # the call returned only after the worker finished
    assert threading.active_count() == threads


def test_generation_scratch_is_bounded():
    cfg = GenConfig(count=1000, master_seed=8)
    tracemalloc.start()
    try:
        ds = generate_dataset(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in (ds.pixels, ds.base_labels, ds.exp_labels, ds.meta))
    assert peak - output < 24e6, (peak, output)


def test_label_balance_smoke():
    ds = generate_dataset(GenConfig(count=2000, master_seed=2024))
    base_counts = np.bincount([s.base_label for s in ds], minlength=8)
    exp_counts = np.bincount([s.exp_label for s in ds], minlength=10)
    assert base_counts.max() / base_counts.min() < 1.5
    assert exp_counts.max() / exp_counts.min() < 1.5


@pytest.mark.parametrize("field, bounds, rule", [
    ("font_scale_range", (0.0, 3.0), "> 0"), ("font_scale_range", (-1.0, 3.0), "> 0"),
    ("font_scale_range", (2.0, math.inf), "> 0"), ("font_scale_range", (math.nan, 3.0), "> 0"),
    ("noise_sigma_range", (-0.1, 0.3), ">= 0"), ("noise_sigma_range", (0.0, math.nan), ">= 0"),
    ("noise_sigma_range", (math.nan, math.nan), ">= 0"),
    ("blur_sigma_range", (0.0, math.inf), ">= 0"), ("blur_sigma_range", (-math.inf, 1.0), ">= 0"),
])
def test_config_rejects_non_finite_or_negative_ranges(field, bounds, rule):
    with pytest.raises(ValueError, match=f"^{field} must be finite and {rule}, got"):
        GenConfig(**{field: bounds})


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        GenConfig(count=0)
    with pytest.raises(ValueError):
        GenConfig(count=1, noise_sigma_range=(0.3, 0.1))
