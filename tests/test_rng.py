import hashlib
import tracemalloc

import numpy as np
import pytest

from expnet.errors import ShapeError
from expnet.rng import BLOCK, Rng, normals


def test_same_seed_same_sequence():
    a = Rng(123456789)
    b = Rng(123456789)
    assert np.array_equal(a.u64(10000), b.u64(10000))


def test_scalar_and_bulk_paths_agree():
    r1, r2 = Rng(7), Rng(7)
    vals = np.concatenate([r1.u64(1) for _ in range(64)])
    assert np.array_equal(vals, r2.u64(64))


def test_substream_independent_of_parent_draws():
    fresh = Rng(99).substream(5).u64(20)
    used = Rng(99)
    used.u64(1000)
    used.normals(31)
    assert np.array_equal(fresh, used.substream(5).u64(20))


def test_substreams_differ_from_each_other_and_parent():
    r = Rng(1)
    a = r.substream(0).u64(8)
    b = r.substream(1).u64(8)
    parent = Rng(1).u64(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, parent)


def test_uniform_range_and_mean():
    u = Rng(2).uniforms(50000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    scaled = Rng(2).uniforms(1000, -2.0, 3.0)
    assert scaled.min() >= -2.0 and scaled.max() < 3.0


def test_normals_moments():
    z = Rng(3).normals(100000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert np.all(np.isfinite(z))


def test_normals_odd_count():
    assert Rng(4).normals(7).shape == (7,)


def test_normals_fill_a_given_array():
    # an odd n fills n + 1 columns and returns a view of the first n
    out = np.empty((2, 8))
    field = normals([Rng(1), Rng(2)], 7, out)
    assert field.base is out and np.array_equal(field, normals([Rng(1), Rng(2)], 7))
    for bad in (np.empty((2, 7)), np.empty((3, 8)), np.empty((2, 8), np.float32)):
        with pytest.raises(ShapeError, match=r"^draw fills a \[2, 8\] float64 array, got "):
            normals([Rng(1), Rng(2)], 7, bad)


def test_u64_modulo_bounds_and_coverage():
    # labels are drawn as u64 % classes; the modulo bias is < classes / 2**64
    draws = (Rng(5).u64(4000) % np.uint64(8)).astype(np.int64)
    assert draws.min() == 0 and draws.max() == 7
    counts = np.bincount(draws, minlength=8)
    assert counts.min() > 350    # roughly uniform, expected 500 each


def test_permutation_is_a_permutation():
    perm = Rng(6).permutation(1000)
    assert sorted(perm.tolist()) == list(range(1000))
    assert np.array_equal(perm, Rng(6).permutation(1000))
    assert not np.array_equal(perm, Rng(7).permutation(1000))


def test_permutation_matches_scalar_fisher_yates():
    # the bulk draws are the one-at-a-time u64 stream: output k depends only on (key, k)
    for n in (0, 1, 2, 17, 1000):
        ref, r = list(range(n)), Rng(11)
        for i in range(n - 1, 0, -1):
            j = int(r.u64(1)[0]) % (i + 1)
            ref[i], ref[j] = ref[j], ref[i]
        rng = Rng(11)
        perm = rng.permutation(n)
        assert perm.dtype == np.int64 and perm.tolist() == ref, n
        assert rng.u64(1)[0] == r.u64(1)[0]      # both consumed max(n - 1, 0) draws


@pytest.mark.parametrize("method, digest", [
    ("uniforms", "05aaeca87954405f8f456c66ba252423931637efdd2acc7b1b4a0b88a2114d21"),
    ("normals", "61934f1f52d0a8473945426c3170694bf65cada2c23ed1747fcfa80dfb03e77e"),
])
def test_bulk_draws_are_pinned(method, digest):
    # 2 * BLOCK + 3 draws end in a partial block, and an odd normals(n) takes n + 1
    rng = Rng(2024)
    values = getattr(rng, method)(2 * BLOCK + 3)
    following = rng.u64(3)
    assert hashlib.sha256(values.tobytes() + following.tobytes()).hexdigest() == digest


def test_bulk_draw_scratch_is_bounded():
    tracemalloc.start()
    try:
        u = Rng(0).uniforms(2 ** 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - u.nbytes < 3e6, peak
