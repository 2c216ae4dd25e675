import math

import numpy as np
import pytest

from fracdim import fbm, roughpath as rp
from fracdim.fbm import SamplePath, TimeGrid


def random_group_element(rng, dim=2, depth=2):
    # product of a few segment signatures is a generic group element
    t = rp.segment_signature(rng.normal(size=dim), depth)
    for _ in range(2):
        t = rp.chen_concat(t, rp.segment_signature(rng.normal(size=dim), depth))
    return t


def tensors_close(a, b, tol=1e-12):
    return all(
        np.allclose(la, lb, rtol=tol, atol=tol) for la, lb in zip(a.levels, b.levels)
    )


# ---------------------------------------------------------- segment signature

def test_segment_signature_zero_is_identity():
    t = rp.segment_signature(np.zeros(3), 2)
    assert float(t.levels[0]) == 1.0
    assert all(not lv.any() for lv in t.levels[1:])


def test_segment_signature_1d_values():
    t = rp.segment_signature(np.array([2.0]), 2)
    assert float(t.levels[0]) == 1.0
    assert t.levels[1][0] == 2.0
    assert t.levels[2][0, 0] == 2.0  # 2^2 / 2


def test_segment_signature_diagonal_halves():
    # brute-force midpoint iterated integral over the straight segment
    t = rp.segment_signature(np.array([1.0, 1.0]), 2)
    np.testing.assert_allclose(t.levels[2], 0.5 * np.ones((2, 2)), atol=1e-15)
    anti = t.levels[2] - t.levels[2].T
    assert np.abs(anti).max() == 0.0
    k = 10_000
    mid = np.outer((np.arange(k) + 0.5) / k, [1.0, 1.0])
    riemann = np.einsum("ka,kb->ab", mid, np.full((k, 2), 1.0 / k))
    np.testing.assert_allclose(t.levels[2], riemann, atol=1e-10)


# --------------------------------------------------------------- chen product

def test_chen_identity_neutral():
    rng = np.random.default_rng(0)
    a = random_group_element(rng)
    e = rp.segment_signature(np.zeros(2), 2)
    assert tensors_close(rp.chen_concat(e, a), a, tol=0)
    assert tensors_close(rp.chen_concat(a, e), a, tol=0)


def test_chen_1d_depends_on_total_increment():
    a = rp.segment_signature(np.array([1.0]), 2)
    combined = rp.chen_concat(a, a)
    direct = rp.segment_signature(np.array([2.0]), 2)
    assert tensors_close(combined, direct, tol=1e-15)


def test_chen_associativity_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        a = random_group_element(rng, dim, depth)
        b = random_group_element(rng, dim, depth)
        c = random_group_element(rng, dim, depth)
        left = rp.chen_concat(rp.chen_concat(a, b), c)
        right = rp.chen_concat(a, rp.chen_concat(b, c))
        assert tensors_close(left, right, tol=1e-12)


def test_chen_two_segment_path_matches_riemann_oracle():
    # brute-force second-level double integral, midpoint rule on 1e4 sub-steps
    d1 = np.array([0.7, -0.2])
    d2 = np.array([0.1, 0.9])
    combined = rp.chen_concat(rp.segment_signature(d1, 2), rp.segment_signature(d2, 2))
    k = 10_000
    steps = np.vstack([np.tile(d1 / k, (k, 1)), np.tile(d2 / k, (k, 1))])
    pos = np.cumsum(steps, axis=0)
    mid = pos - steps / 2
    riemann = np.einsum("ka,kb->ab", mid, steps)
    np.testing.assert_allclose(combined.levels[2], riemann, atol=1e-10)
    np.testing.assert_allclose(combined.levels[1], d1 + d2, atol=1e-15)


def test_chen_shape_mismatch_rejected():
    a = rp.segment_signature(np.ones(2), 2)
    b = rp.segment_signature(np.ones(3), 2)
    with pytest.raises(ValueError):
        rp.chen_concat(a, b)


def test_one_dim_level2_degeneracy_after_concat():
    rng = np.random.default_rng(3)
    t = rp.segment_signature(rng.normal(size=1), 2)
    for _ in range(5):
        t = rp.chen_concat(t, rp.segment_signature(rng.normal(size=1), 2))
    assert t.levels[2][0, 0] == pytest.approx(t.levels[1][0] ** 2 / 2, rel=1e-12)


# ------------------------------------------------------------------ lift path

def make_path(values, hurst=None):
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    return SamplePath(TimeGrid(v.shape[0], 0.0, 1.0), v, hurst=hurst)


def test_lift_constant_path_gives_identities():
    sig = rp.lift_path(make_path(np.zeros((5, 2))), 2)
    assert all(not lv.any() for lv in sig.levels)


def test_lift_depth_rules():
    p = fbm.generate_circulant(TimeGrid(9, 0.0, 1.0), 1, 0.5, seed=0)
    rp.lift_path(p, 2)
    rp.lift_path(p, 3)  # over-lifting is allowed
    with pytest.raises(ValueError):
        rp.lift_path(p, 1)
    q = fbm.generate_circulant(TimeGrid(9, 0.0, 1.0), 1, 0.3, seed=0)
    with pytest.raises(ValueError):
        rp.lift_path(q, 2)
    rp.lift_path(q, 3)


def test_malformed_lift_rejected():
    # a depth-3 lift of two levels, or a depth past the cap, would fail deep in
    # a solve or a coarsening
    p = fbm.generate_circulant(TimeGrid(9, 0.0, 1.0), 2, 0.3, seed=0)
    sig = rp.lift_path(p, 3)
    with pytest.raises(ValueError, match="levels 1..3"):
        rp.SignaturePath(sig.grid, sig.dim, 3, sig.levels[:2])
    with pytest.raises(ValueError, match="depth must be"):
        rp.SignaturePath(sig.grid, sig.dim, 7, sig.levels + sig.levels[:1] * 4)
    with pytest.raises(ValueError, match="inconsistent with declared hurst"):
        rp.SignaturePath(sig.grid, sig.dim, 2, sig.levels[:2], hurst=p.hurst)


def test_lift_refinement_consistency():
    # dyadic refinement oracle: coarsened fine lift approaches the coarse lift
    rng = np.random.default_rng(5)
    level2_gaps = []
    for n in (8, 16, 32, 64):
        t = np.linspace(0, 1, 2 * n + 1)
        smooth = np.column_stack([np.sin(2 * np.pi * t), t**2])
        fine = rp.lift_path(make_path(smooth), 2)
        coarse = rp.lift_path(make_path(smooth[::2]), 2)
        folded = rp.coarsen(fine, 2)
        np.testing.assert_allclose(folded.levels[0], coarse.levels[0], atol=1e-13)
        level2_gaps.append(np.abs(folded.levels[1] - coarse.levels[1]).max())
    assert all(b < a for a, b in zip(level2_gaps, level2_gaps[1:]))


def test_lift_multiplicativity_random_triples():
    p = fbm.generate_circulant(TimeGrid(33, 0.0, 1.0), 2, 0.5, seed=9)
    sig = rp.lift_path(p, 2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        i, u, j = sorted(rng.choice(np.arange(33), size=3, replace=False))
        if i == u or u == j:
            continue
        whole = sig.combined(i, j)
        glued = rp.chen_concat(sig.combined(i, u), sig.combined(u, j))
        assert tensors_close(whole, glued, tol=1e-12)


def test_levy_area_mean_zero():
    # Monte Carlo symmetry oracle: mean antisymmetric level-2 part is 0
    n, members = 129, 10_000
    path = fbm.generate_circulant(TimeGrid(n, 0.0, 1.0), 2 * members, 0.5, seed=31)
    vals = path.values.reshape(n, members, 2, order="F")
    # batched closed-form level 2 over [0,1]; cross-checked against the lift below
    delta = np.diff(vals, axis=0)
    start = vals[:-1] - vals[0]
    s2 = np.einsum("kma,kmb->mab", start, delta) + 0.5 * np.einsum(
        "kma,kmb->mab", delta, delta
    )
    one = rp.lift_path(
        SamplePath(TimeGrid(n, 0.0, 1.0), vals[:, 0, :]), 2
    ).combined(0, n - 1)
    np.testing.assert_allclose(one.levels[2], s2[0], atol=1e-12)
    area = 0.5 * (s2[:, 0, 1] - s2[:, 1, 0])
    se = area.std() / math.sqrt(members)
    assert abs(area.mean()) <= 3 * se


def chen_fold(sig, i, j):
    acc = sig.increment(i)
    for k in range(i + 1, j):
        acc = rp.chen_concat(acc, sig.increment(k))
    return acc


@pytest.mark.parametrize("depth", [2, 3])
def test_closed_form_increments_match_chen_fold(depth):
    # combined folds the intervals with coarsen's Chen products; the fold of
    # TruncatedTensor products by chen_concat is the reference
    rng = np.random.default_rng(depth)
    sig = rp.lift_path(make_path(rng.normal(size=(7, 2)).cumsum(axis=0)), depth)
    for i in range(6):
        for j in range(i + 1, 7):
            assert tensors_close(sig.combined(i, j), chen_fold(sig, i, j), tol=1e-12)


def reference_coarsen_levels(sig, factor):
    # the reference: coarsen's Chen products written out level by level, one
    # interval of each block at a time
    n, d = sig.n_intervals, sig.dim
    nb = n // factor
    lead = sig.levels[0].shape[:-2]
    b1 = sig.levels[0].reshape(lead + (nb, factor, d))
    g1 = np.zeros(lead + (nb, d))
    g2 = np.zeros(lead + (nb, d, d)) if sig.depth >= 2 else None
    g3 = np.zeros(lead + (nb, d, d, d)) if sig.depth >= 3 else None
    if sig.depth >= 2:
        b2 = sig.levels[1].reshape(lead + (nb, factor, d, d))
    if sig.depth >= 3:
        b3 = sig.levels[2].reshape(lead + (nb, factor, d, d, d))
    for r in range(factor):
        a1 = b1[..., r, :]
        if sig.depth >= 3:
            g3 += (
                b3[..., r, :, :, :]
                + np.einsum("...i,...jk->...ijk", g1, b2[..., r, :, :])
                + np.einsum("...ij,...k->...ijk", g2, a1)
            )
        if sig.depth >= 2:
            g2 += b2[..., r, :, :] + np.einsum("...i,...j->...ij", g1, a1)
        g1 += a1
    return [g for g in (g1, g2, g3) if g is not None]


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_coarsen_bytes_match_the_three_level_loop(depth, dim, stacked):
    rng = np.random.default_rng(10 * depth + dim)
    grid = TimeGrid(129, 0.0, 1.0)
    paths = [SamplePath(grid, rng.normal(size=(129, dim)).cumsum(axis=0)) for _ in range(3)]
    sig = rp.lift_path(paths if stacked else paths[0], depth)
    for factor in (2, 4, 8, 64, 128):
        coarse = rp.coarsen(sig, factor)
        expected = reference_coarsen_levels(sig, factor)
        assert coarse.grid == TimeGrid(128 // factor + 1, 0.0, 1.0)
        assert len(coarse.levels) == len(expected) == depth
        for got, want in zip(coarse.levels, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
