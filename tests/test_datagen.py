import math

import numpy as np
import pytest

from expnet.datagen import (GenConfig, add_gaussian_noise, gaussian_blur,
                            generate_dataset, generate_sample, render_expression)
from expnet.errors import LayoutError
from expnet.glyphs import GLYPH_H, GLYPH_W, GLYPHS
from expnet.rng import Rng


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
    img = render_expression(3, 4, 2.0)
    out = add_gaussian_noise(img, 0.0, Rng(1))
    assert np.array_equal(out, img)
    assert out is not img


def test_noise_statistics():
    img = np.full((1, 64, 64), 0.5, dtype=np.float32)
    out = add_gaussian_noise(img, 0.1, Rng(2))
    assert out.shape == img.shape
    std = float(out.std())
    assert 0.08 < std < 0.12       # 3-sigma band for n=4096
    assert abs(float(out.mean()) - 0.5) < 0.01


def test_noise_clamped_to_unit_interval():
    img = render_expression(5, 5, 2.5)
    for sigma in (0.1, 0.5, 2.0):
        out = add_gaussian_noise(img, sigma, Rng(3))
        assert out.min() >= 0.0 and out.max() <= 1.0
    with pytest.raises(ValueError):
        add_gaussian_noise(img, -0.1, Rng(4))


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
    img = render_expression(6, 1, 2.2)
    assert np.array_equal(gaussian_blur(img, 0.0), img)
    assert np.array_equal(gaussian_blur(img, 0.04), img)   # below threshold
    const = np.full((1, 20, 20), 0.37, dtype=np.float32)
    assert np.allclose(gaussian_blur(const, 1.5), const, atol=1e-6)
    with pytest.raises(ValueError):
        gaussian_blur(img, -1.0)


def test_blur_matches_dense_2d_oracle():
    rng = Rng(5)
    img = rng.uniforms(24 * 24).reshape(1, 24, 24).astype(np.float32)
    for sigma in (0.5, 1.0, 2.0):
        ours = gaussian_blur(img, sigma)
        oracle = blur_2d_oracle(img[0], sigma)
        assert np.max(np.abs(ours[0].astype(np.float64) - oracle)) < 1e-6


def test_blur_point_mass_conserved_and_peak_drops():
    img = np.zeros((1, 31, 31), dtype=np.float32)
    img[0, 15, 15] = 1.0
    out = gaussian_blur(img, 1.0)
    assert abs(float(out.sum()) - 1.0) < 1e-4   # kernel support well inside
    assert float(out.max()) < 1.0
    assert out.max() == out[0, 15, 15]


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
    cfg = GenConfig(count=12, master_seed=77)
    ds = generate_dataset(cfg)
    for i in (0, 5, 11):
        alone = generate_sample(cfg, i)
        assert np.array_equal(alone.image, ds[i].image)
        assert alone.meta == ds[i].meta
        assert np.array_equal(alone.image, ds.images[i])
        assert (alone.base_label, alone.exp_label) == (ds.base_labels[i], ds.exp_labels[i])
        assert alone.meta == tuple(ds.meta[i].tolist())


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
