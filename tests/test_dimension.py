import math

import numpy as np
import pytest

from fracdim import dimension as dm, fbm
from fracdim.dimension import PointCloud
from fracdim.fbm import SamplePath, TimeGrid


def cantor_integer_cloud(depth=8):
    # base-3 digits restricted to {0, 2}: exact integers, exact self-similarity
    pts = []
    for i in range(2**depth):
        val = 0
        for j in range(depth):
            if (i >> j) & 1:
                val += 2 * 3**j
        pts.append(float(val))
    return PointCloud(np.array(pts))


# ------------------------------------------------------------------ box count

def test_box_count_single_point():
    for eps in (0.1, 1.0, 7.3):
        assert dm.box_count(PointCloud(np.array([[0.3, 0.4]])), eps) == 1


def test_box_count_unit_interval():
    cloud = PointCloud(np.linspace(0.0, 1.0, 2**12))
    assert abs(dm.box_count(cloud, 2.0**-6) - 64) <= 1


def test_box_count_cantor_exact_powers():
    cloud = cantor_integer_cloud(8)
    for k in range(1, 9):
        assert dm.box_count(cloud, 3.0 ** (8 - k)) == 2**k


def test_box_count_dyadic_chain():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3):
        cloud = PointCloud(rng.normal(size=(500, dim)))
        for eps in (0.5, 0.21, 0.08):
            n1 = dm.box_count(cloud, eps)
            n2 = dm.box_count(cloud, eps / 2)
            assert n1 <= n2 <= 2**dim * n1


def test_box_count_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        dm.box_count(PointCloud(np.zeros((1, 1))), 0.0)


# -------------------------------------------------------------- box dimension

def test_box_dimension_line_segment():
    cloud = PointCloud(np.linspace(0.0, 1.0, 2**12))
    est = dm.box_dimension(cloud, (1 / 8, 1 / 1024), 8)
    assert abs(est.slope - 1.0) <= 0.05
    assert est.r_squared > 0.99
    assert list(est.scales_used) == sorted(est.scales_used, reverse=True)
    assert est.counts == sorted(est.counts)


def test_box_dimension_cantor():
    # analytic self-similar dimension as oracle
    cloud = cantor_integer_cloud(8)
    est = dm.box_dimension(cloud, (3.0**7, 3.0**0), 8)
    assert abs(est.slope - math.log(2) / math.log(3)) <= 0.05


def test_box_dimension_fbm_image_d2():
    p = fbm.generate_circulant(TimeGrid(2**16 + 1, 0.0, 1.0), 2, 0.75, seed=0)
    cloud = dm.image_cloud(p)
    rng = dm.default_eps_range(cloud)
    est = dm.box_dimension(cloud, rng, max(4, int(round(math.log2(rng[0] / rng[1]))) + 1))
    assert abs(est.slope - 4.0 / 3.0) <= 0.15


def test_box_dimension_degenerate_cloud():
    est = dm.box_dimension(PointCloud(np.zeros((50, 2))), (1.0, 1 / 64), 5)
    assert est.slope == 0.0
    assert est.degenerate
    assert est.r_squared == 1.0


def test_box_dimension_needs_four_scales():
    with pytest.raises(ValueError):
        dm.box_dimension(PointCloud(np.zeros((2, 1))), (1.0, 0.1), 3)


def test_dimension_chain_subset_slope():
    # subset slope <= superset slope + regression tolerance
    p = fbm.generate_circulant(TimeGrid(2**14 + 1, 0.0, 1.0), 2, 0.6, seed=3)
    cloud = dm.image_cloud(p)
    rng_full = dm.default_eps_range(cloud)
    n_sc = max(4, int(round(math.log2(rng_full[0] / rng_full[1]))) + 1)
    idx = np.random.default_rng(1).choice(len(cloud), size=len(cloud) // 4, replace=False)
    sub = PointCloud(cloud.points[np.sort(idx)])
    full = dm.box_dimension(cloud, rng_full, n_sc).slope
    part = dm.box_dimension(sub, rng_full, n_sc).slope
    assert part <= full + 0.05


# --------------------------------------------------------------- anchored slope

def reference_window(cloud, octaves):
    """The saturation search with one box_count per scale: the ladder's (hi, lo)."""
    span = dm.cloud_span(cloud)
    threshold = max(2, int(0.25 * len(cloud)))
    eps = span / 8.0
    lo = eps
    while eps > span / 4096.0:
        if dm.box_count(cloud, eps) >= threshold:
            break
        lo = eps
        eps /= 2.0
    hi = min(span / 8.0, lo * 2.0**octaves)
    if hi <= lo:
        hi = lo * 2.0**octaves
    return hi, lo


def reference_anchored_slope(cloud, octaves):
    est = dm.box_dimension(cloud, reference_window(cloud, octaves), octaves + 1)
    return est.slope, est.r_squared


def fbm_values(d, h, seed, n=2**12):
    return fbm.generate_circulant(TimeGrid(n + 1, 0.0, 1.0), d, h, seed=seed).values


def boundary_cloud():
    # the start point X_0 = 0 is the minimum on the widest axis, so the far
    # point lies exactly on a dyadic cell boundary at every searched scale
    v = fbm_values(2, 0.75, seed=1)
    widest = int(np.argmax(np.ptp(v, axis=0)))
    assert v[0, widest] == v[:, widest].min() == 0.0
    return PointCloud(v)


ANCHORED_CLOUDS = {
    "image_d1": lambda: PointCloud(fbm_values(1, 0.5, seed=11)),
    "image_d2": lambda: PointCloud(fbm_values(2, 0.75, seed=12, n=2**14)),
    "graph_2col": lambda: dm.graph_cloud(fbm.generate_circulant(TimeGrid(2**12 + 1, 0.0, 1.0), 1, 0.5, seed=13)),
    "graph_3col": lambda: dm.graph_cloud(fbm.generate_circulant(TimeGrid(2**12 + 1, 0.0, 1.0), 2, 0.4, seed=14)),
    "exact_boundary": boundary_cloud,
    "negative": lambda: PointCloud(fbm_values(2, 0.6, seed=15) - 3.25),
    "far_offset": lambda: PointCloud(fbm_values(2, 0.6, seed=16) + np.array([1e6, -2.5e5])),
    "saturated": lambda: PointCloud(np.linspace(0.0, 1.0, 12)),
    "two_points": lambda: PointCloud(np.array([[0.0, 0.0], [1.0, 0.5]])),
    # 6 axes of ~12 index bits pass 62 key bits: every scale is counted directly
    "six_axes": lambda: PointCloud(np.random.default_rng(17).normal(size=(2000, 6))),
}


@pytest.mark.parametrize("name", sorted(ANCHORED_CLOUDS))
def test_anchored_slope_matches_direct_counts(name):
    cloud = ANCHORED_CLOUDS[name]()
    for octaves in (3, 4):
        got = np.array(dm._anchored_slope(cloud, octaves))
        want = np.array(reference_anchored_slope(cloud, octaves))
        assert got.tobytes() == want.tobytes()


def test_boundary_cloud_counts_differ_off_the_halvings():
    # the geomspace ladder's interior scales miss the dyadic ones by a few ulps,
    # and on this cloud at least one of them counts a different number of cells
    cloud = boundary_cloud()
    hi, lo = reference_window(cloud, 4)
    assert hi == lo * 2**4
    scales = np.geomspace(hi, lo, 5)
    dyadic = hi * 2.0 ** -np.arange(5)
    assert any(dm.box_count(cloud, s) != dm.box_count(cloud, t) for s, t in zip(scales, dyadic))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nested_counts_equal_box_count(dim):
    rng = np.random.default_rng(dim)
    for points in (rng.normal(size=(3000, dim)), rng.standard_cauchy(size=(3000, dim)) - 40.0):
        cloud = PointCloud(points)
        span = dm.cloud_span(cloud)
        levels = [span / 8.0 / 2**j for j in range(9)]
        assert dm._nested_counts(cloud, levels) == [dm.box_count(cloud, s) for s in levels]


def test_nested_counts_decline_keys_past_62_bits():
    cloud = ANCHORED_CLOUDS["six_axes"]()
    span = dm.cloud_span(cloud)
    assert dm._nested_counts(cloud, [span / 8.0 / 2**j for j in range(9)]) is None


def test_anchored_slope_rejects_zero_span():
    with pytest.raises(ValueError, match="span is 0"):
        dm._anchored_slope(PointCloud(np.full((10, 2), 0.3)), 4)


# ----------------------------------------------------------------- graph cloud

def test_graph_cloud_shape_and_constant_path():
    path = SamplePath(TimeGrid(2**12, 0.0, 1.0), np.full((2**12, 2), 0.7))
    cloud = dm.graph_cloud(path)
    assert cloud.dim_embed == 3
    est = dm.box_dimension(cloud, (1 / 8, 1 / 512), 7)
    assert abs(est.slope - 1.0) <= 0.05


def test_graph_cloud_brownian_dimension():
    p = fbm.generate_circulant(TimeGrid(2**16 + 1, 0.0, 1.0), 1, 0.5, seed=1)
    cloud = dm.graph_cloud(p)
    rng = dm.default_eps_range(cloud)
    est = dm.box_dimension(cloud, rng, max(4, int(round(math.log2(rng[0] / rng[1]))) + 1))
    assert abs(est.slope - 1.5) <= 0.15


# ------------------------------------------------------------------ level sets

def test_level_set_monotone_path():
    n = 2**12 + 1
    path = SamplePath(TimeGrid(n, 0.0, 1.0), np.linspace(0.0, 1.0, n))
    eta = dm.tube_floor(path)
    ls = dm.extract_level_set(path, np.array([0.5]), eta)
    assert ls.times.size >= 1
    assert ls.times.min() >= 0.5 - eta - 1e-12
    assert ls.times.max() <= 0.5 + eta + 1e-12
    # an isolated crossing looks zero-dimensional at scales above the tube
    est = dm.box_dimension(PointCloud(ls.times), (0.5, 8 * eta), 6)
    assert abs(est.slope) <= 0.1


def test_level_set_eta_below_floor_rejected():
    p = fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), 1, 0.5, seed=2)
    floor = dm.tube_floor(p)
    with pytest.raises(ValueError, match="tube floor"):
        dm.extract_level_set(p, np.zeros(1), floor / 10)


def test_level_set_shrinking_tube_is_nested():
    p = fbm.generate_circulant(TimeGrid(2**12 + 1, 0.0, 1.0), 1, 0.5, seed=4)
    floor = dm.tube_floor(p)
    big = dm.extract_level_set(p, np.zeros(1), 4 * floor)
    small = dm.extract_level_set(p, np.zeros(1), 2 * floor)
    assert set(small.times).issubset(set(big.times))


def test_brownian_zero_set_dimension():
    # ensemble median over hitting members around 1 - dH = 0.5
    slopes, hits, total = [], 0, 48
    for seed in range(total):
        p = fbm.generate_circulant(TimeGrid(2**16 + 1, 0.0, 1.0), 1, 0.5, seed=seed)
        sub = p.restrict(0.1, 1.0)
        eta = dm.tube_floor(sub)
        ls = dm.extract_level_set(sub, np.zeros(1), eta)
        if ls.times.size < 32:
            continue
        hits += 1
        cloud = PointCloud(ls.times)
        window = dm.default_eps_range(cloud, 4.0 * eta**2)
        if window is None:
            continue
        est = dm.box_dimension(cloud, window, max(4, int(round(math.log2(window[0] / window[1]))) + 1))
        slopes.append(est.slope)
    assert hits / total >= 0.1
    assert abs(float(np.median(slopes)) - 0.5) <= 0.15


# --------------------------------------------------------------------- energy

def test_energy_line_path_closed_form():
    # exact double integral of |t-s|^(-1/2) over the unit square is 8/3
    n = 2**13 + 1
    path = SamplePath(TimeGrid(n, 0.0, 1.0), np.linspace(0.0, 1.0, n))
    e = dm.energy_integral(path, 0.5, (0.0, 1.0))
    assert abs(e.value - 8.0 / 3.0) / (8.0 / 3.0) <= 0.02


def test_energy_log_kernel_finite():
    p = fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), 2, 0.6, seed=5)
    e = dm.energy_integral(p, 0.0, (0.0, 1.0))
    assert math.isfinite(e.value) and e.value > 0


def test_energy_monotone_in_gamma():
    # r^(-gamma) is pointwise increasing in gamma only below unit separations,
    # so the monotone ladder is checked on a path of sub-unit diameter
    p = fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), 2, 0.6, seed=6)
    diam = np.sqrt(((p.values[:, None] - p.values[None, :]) ** 2).sum(-1)).max()
    path = SamplePath(p.grid, p.values * (0.9 / diam))
    vals = [dm.energy_integral(path, g, (0.0, 1.0)).value for g in np.arange(0.25, 1.75, 0.25)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_energy_coincident_points_sentinel():
    n = 65
    path = SamplePath(TimeGrid(n, 0.0, 1.0), np.zeros((n, 1)))
    assert dm.energy_integral(path, 0.5, (0.0, 1.0)).value == math.inf
    assert np.all(dm.energy_ladder(path, [0.0, 0.5], [8, 4, 2, 1]) == math.inf)


def _energy_direct(path, gamma):
    """The per-call block loop energy_ladder replaced: the oracle for its sums."""
    v = path.values
    n = v.shape[0]
    dt = path.grid.spacing
    w = dm._trapezoid_weights(n, dt)
    total = 0.0
    block = max(1, int(2**22) // n)
    for a in range(0, n, block):
        b = min(a + block, n)
        dist = np.sqrt(((v[a:b, None, :] - v[None, :, :]) ** 2).sum(axis=-1))
        loc = np.arange(b - a)
        dist[loc, loc + a] = 1.0
        if np.any(dist < dm._COINCIDENT_TOL):
            return math.inf
        contrib = dm._kernel(dist, gamma)
        contrib[loc, loc + a] = 0.0
        total += float((w[a:b, None] * w[None, :] * contrib).sum())
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
def test_energy_ladder_matches_direct_sum_on_each_decimation(monkeypatch, d):
    # n = 4097 splits the pairs into many row blocks, whose first rows fall at
    # every offset of the strided levels
    p = fbm.generate_circulant(TimeGrid(4097, 0.0, 1.0), d, 0.6, seed=40 + d)
    gammas, factors = [0.0, 0.5, 1.2, 1.46], [8, 4, 2, 1]
    direct = np.array([[_energy_direct(p.decimate(f), g) for f in factors] for g in gammas])
    for block in (dm._BLOCK_ENTRIES, 2**22):
        monkeypatch.setattr(dm, "_BLOCK_ENTRIES", block)
        ladder = dm.energy_ladder(p, gammas, factors)
        np.testing.assert_allclose(ladder, direct, rtol=1e-12, atol=0)


def test_energy_ladder_sentinel_is_per_level():
    # the only coincident pair is (1, 3): on the fine grid alone
    p = fbm.generate_circulant(TimeGrid(17, 0.0, 1.0), 2, 0.6, seed=11)
    values = p.values.copy()
    values[3] = values[1]
    path = SamplePath(p.grid, values)
    ladder = dm.energy_ladder(path, [0.0, 0.5], [4, 2, 1])
    assert np.all(ladder[:, 2] == math.inf)
    for gi, gamma in enumerate((0.0, 0.5)):
        for fi, f in enumerate((4, 2)):
            coarse = path.decimate(f)
            assert math.isfinite(ladder[gi, fi])
            assert ladder[gi, fi] == pytest.approx(
                dm.energy_integral(coarse, gamma, (0.0, 1.0)).value, rel=1e-12)
            assert ladder[gi, fi] == pytest.approx(_energy_direct(coarse, gamma), rel=1e-12)


def test_energy_ladder_rejects_bad_factor_and_gamma():
    p = fbm.generate_circulant(TimeGrid(17, 0.0, 1.0), 1, 0.6, seed=12)
    with pytest.raises(ValueError, match="divide"):
        dm.energy_ladder(p, [0.5], [3])
    # a factor that is not an integer would fail in the strided slices
    for factors in ([0.5], [2.0], [1, 4.0], [0], [-2]):
        with pytest.raises(ValueError, match="factors must be integers"):
            dm.energy_ladder(p, [0.5], factors)
    assert dm.energy_ladder(p, [0.5], [np.int64(2)]).shape == (1, 1)
    with pytest.raises(ValueError, match="gamma"):
        dm.energy_ladder(p, [-0.5], [1])
    # a NaN or infinite gamma would give a NaN energy, and no gamma no energy at all
    for gammas in ([math.nan], [0.5, math.inf], [-math.inf], []):
        with pytest.raises(ValueError, match="gamma"):
            dm.energy_ladder(p, gammas, [1])
    with pytest.raises(ValueError, match="gamma"):
        dm.energy_integral(p, math.nan, (0.0, 1.0))


# ----------------------------------------------------------------- mu measure

def test_mu_constant_path_at_level():
    n, eps = 2**10 + 1, 0.125  # grid-aligned restriction start
    path = SamplePath(TimeGrid(n, 0.0, 1.0), np.full((n, 1), 0.3))
    for sharp in (4.0, 64.0):
        mass, _ = dm.mu_measure(path, np.array([0.3]), sharp, 0.4, (eps, 1.0))
        # trapezoid of a constant integrand is exact
        expected = (2 * math.pi * sharp) ** 0.5 * (1 - eps)
        assert mass == pytest.approx(expected, rel=1e-9)


def test_mu_constant_path_off_level():
    n, eps, r = 2**10 + 1, 0.125, 0.5
    path = SamplePath(TimeGrid(n, 0.0, 1.0), np.full((n, 1), r))
    sharp = 16.0
    mass, _ = dm.mu_measure(path, np.zeros(1), sharp, 0.4, (eps, 1.0))
    expected = (2 * math.pi * sharp) ** 0.5 * math.exp(-sharp * r * r / 2) * (1 - eps)
    assert mass == pytest.approx(expected, rel=1e-9)


def test_mu_mass_splits_additively():
    p = fbm.generate_circulant(TimeGrid(2**10 + 1, 0.0, 1.0), 1, 0.5, seed=7)
    whole, _ = dm.mu_measure(p, np.zeros(1), 16.0, 0.4, (0.25, 1.0))
    left, _ = dm.mu_measure(p, np.zeros(1), 16.0, 0.4, (0.25, 0.5))
    right, _ = dm.mu_measure(p, np.zeros(1), 16.0, 0.4, (0.5, 1.0))
    assert whole == pytest.approx(left + right, rel=1e-9)


def _mu_direct(path, x, n, gamma, restrict):
    """mu_measure with the dense |t-s| kernel matrix: the oracle for its lag form."""
    sub = path.restrict(*restrict)
    dist2 = ((sub.values - np.atleast_1d(x)[None, :]) ** 2).sum(axis=1)
    f = (2.0 * math.pi * n) ** (sub.dim / 2.0) * np.exp(-0.5 * n * dist2)
    w = dm._trapezoid_weights(sub.grid.n_points, sub.grid.spacing)
    g = w * f
    t = sub.grid.points
    gap = np.abs(t[:, None] - t[None, :])
    keep = gap >= sub.grid.spacing * (1 - 1e-9)
    kern = np.zeros_like(gap)
    kern[keep] = dm._kernel(gap[keep], gamma)
    return float(w @ f), float(g @ kern @ g)


@pytest.mark.parametrize("restrict", [(0.1, 1.0), (0.125, 1.0), (0.25, 0.75)])
def test_mu_lag_form_matches_dense_kernel(restrict):
    p = fbm.generate_circulant(TimeGrid(1025, 0.0, 1.0), 1, 0.5, seed=13)
    for gamma in (0.0, 0.4):
        for sharp in (4.0, 16.0, 64.0, 256.0):
            got = dm.mu_measure(p, np.zeros(1), sharp, gamma, restrict)
            want = _mu_direct(p, np.zeros(1), sharp, gamma, restrict)
            assert got == pytest.approx(want, rel=1e-12)


def test_mu_requires_positive_epsilon():
    p = fbm.generate_circulant(TimeGrid(65, 0.0, 1.0), 1, 0.5, seed=8)
    with pytest.raises(ValueError):
        dm.mu_measure(p, np.zeros(1), 4.0, 0.4, (0.0, 1.0))


@pytest.mark.parametrize("n, gamma, name", [(math.nan, 0.4, "sharpness"), (math.inf, 0.4, "sharpness"),
                                            (0.0, 0.4, "sharpness"), (4.0, math.nan, "gamma"),
                                            (4.0, math.inf, "gamma")])
def test_mu_rejects_non_finite_sharpness_and_gamma(n, gamma, name):
    # each would return a NaN mass or energy
    p = fbm.generate_circulant(TimeGrid(65, 0.0, 1.0), 1, 0.5, seed=8)
    with pytest.raises(ValueError, match=name):
        dm.mu_measure(p, np.zeros(1), n, gamma, (0.25, 1.0))


@pytest.mark.parametrize("restrict", [(0.1, math.nan), (math.nan, 1.0)])
def test_mu_rejects_a_nan_window_end(restrict):
    p = fbm.generate_circulant(TimeGrid(65, 0.0, 1.0), 1, 0.5, seed=8)
    with pytest.raises(ValueError, match="window end is NaN"):
        dm.mu_measure(p, np.zeros(1), 4.0, 0.4, restrict)


# ------------------------------------------------------------------- plumbing

def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf]]))


def test_tube_floor_dominates_single_steps():
    p = fbm.generate_circulant(TimeGrid(2**10 + 1, 0.0, 1.0), 2, 0.4, seed=9)
    steps = np.sqrt((np.diff(p.values, axis=0) ** 2).sum(axis=1))
    assert dm.tube_floor(p) >= steps.max() - 1e-12
