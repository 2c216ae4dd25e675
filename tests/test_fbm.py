import io
import math
import struct

import numpy as np
import pytest
from scipy import integrate, stats

from fracdim import fbm
from fracdim.fbm import HurstParam, SamplePath, TimeGrid


def unit_grid(n):
    return TimeGrid(n, 0.0, 1.0)


# ---------------------------------------------------------------- covariance

def test_covariance_at_t1_is_one_for_any_hurst():
    for h in (0.3, 0.5, 0.75, 0.99):
        assert fbm.covariance(1.0, 1.0, h) == pytest.approx(1.0, abs=0)


def test_covariance_brownian_case_is_min():
    assert fbm.covariance(0.3, 0.7, 0.5) == pytest.approx(0.3, abs=1e-15)
    rng = np.random.default_rng(0)
    for s, t in rng.uniform(0, 2, size=(50, 2)):
        assert fbm.covariance(s, t, 0.5) == pytest.approx(min(s, t), rel=1e-12)


def test_covariance_hand_value_h075():
    # s^2H and |t-s|^2H cancel at (0.5, 1.0)
    assert fbm.covariance(0.5, 1.0, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_covariance_symmetric_exactly():
    rng = np.random.default_rng(1)
    for s, t in rng.uniform(0, 3, size=(100, 2)):
        for h in (0.3, 0.6, 0.9):
            assert fbm.covariance(s, t, h) == fbm.covariance(t, s, h)


def test_covariance_diagonal_is_power_law():
    for h in (0.3, 0.5, 0.8):
        for t in (0.1, 0.5, 1.3):
            assert fbm.covariance(t, t, h) == pytest.approx(t ** (2 * h), rel=1e-15)


def test_covariance_rejects_negative_times():
    with pytest.raises(ValueError):
        fbm.covariance(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        fbm.covariance(0.1, math.inf, 0.5)


def test_hurst_param_range_enforced():
    with pytest.raises(ValueError):
        HurstParam(0.25)
    with pytest.raises(ValueError):
        HurstParam(1.0)
    with pytest.raises(ValueError):
        fbm.covariance(0.5, 0.5, 0.2)


# --------------------------------------------------------------------- kernel

def test_kernel_brownian_is_indicator():
    for s, t in ((0.1, 0.2), (0.5, 0.9), (0.01, 1.0)):
        assert fbm.kernel_kh(t, s, 0.5) == 1.0


def test_kernel_rejects_bad_order():
    with pytest.raises(ValueError):
        fbm.kernel_kh(0.5, 0.5, 0.7)
    with pytest.raises(ValueError):
        fbm.kernel_kh(0.5, 0.9, 0.7)
    with pytest.raises(ValueError):
        fbm.kernel_kh(0.5, 0.0, 0.7)


def _isometry_relative_error(s, t, h):
    # independent oracle: adaptive quadrature of the kernel product
    val, _ = integrate.quad(
        lambda u: fbm.kernel_kh(t, u, h) * fbm.kernel_kh(s, u, h),
        0.0,
        min(s, t),
        limit=200,
    )
    target = fbm.covariance(s, t, h)
    return abs(val - target) / abs(target)


def test_kernel_covariance_identity_spot():
    assert _isometry_relative_error(0.4, 0.9, 0.7) < 1e-3


@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
def test_kernel_covariance_identity_grid(h):
    pts = (0.2, 0.4, 0.6, 0.8, 1.0)
    for s in pts:
        for t in pts:
            if s >= t:
                continue
            assert _isometry_relative_error(s, t, h) < 1e-3


@pytest.mark.parametrize("h,sign", [(0.7, 1.0), (0.3, -1.0)])
def test_kernel_near_diagonal_power(h, sign):
    gaps = np.array([1e-2, 1e-3, 1e-4])
    ks = np.array([fbm.kernel_kh(1.0, 1.0 - g, h) for g in gaps])
    slope = np.polyfit(np.log(gaps), np.log(ks), 1)[0]
    assert slope == pytest.approx(h - 0.5, abs=0.01)
    # H > 1/2 vanishes at the diagonal, H < 1/2 blows up
    assert sign * (ks[0] - ks[-1]) > 0


# ------------------------------------------------------------ covariance grid

def test_build_covariance_grid_brownian_2x2():
    grid = TimeGrid(2, 0.5, 1.0)
    cov = fbm.build_covariance_grid(grid, 0.5)
    np.testing.assert_allclose(cov.entries, [[0.5, 0.5], [0.5, 1.0]], atol=1e-15)


def test_build_covariance_grid_drops_origin():
    cov = fbm.build_covariance_grid(unit_grid(9), 0.7)
    assert cov.grid.n_points == 8
    assert cov.grid.t_start == pytest.approx(1 / 8)
    diag = np.diag(cov.entries)
    np.testing.assert_allclose(diag, cov.grid.points ** 1.4, rtol=1e-12)


def test_build_covariance_grid_psd_low_hurst():
    cov = fbm.build_covariance_grid(unit_grid(65), 0.3)
    # eigen-solve oracle
    assert np.linalg.eigvalsh(cov.entries).min() >= -1e-10
    assert np.array_equal(cov.entries, cov.entries.T)


# ------------------------------------------------------------------- cholesky

def test_cholesky_deterministic_and_pinned():
    grid = unit_grid(33)
    a = fbm.generate_cholesky(grid, 2, 0.4, seed=99)
    b = fbm.generate_cholesky(grid, 2, 0.4, seed=99)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values[0] == 0.0)
    c = fbm.generate_cholesky(grid, 2, 0.4, seed=100)
    assert not np.array_equal(a.values, c.values)


def test_cholesky_rejects_oversized_grid():
    with pytest.raises(ValueError):
        fbm.generate_cholesky(unit_grid(fbm.CHOLESKY_MAX_N + 1), 1, 0.5, seed=0)


def test_cholesky_terminal_variance():
    # components of one seed are independent samples
    p = fbm.generate_cholesky(unit_grid(64), 10_000, 0.7, seed=5)
    v = p.values[-1, :].var()
    assert abs(v - 1.0) <= 3 * math.sqrt(2 / 10_000)


def test_cholesky_stationary_increment_variance():
    # Monte Carlo oracle for Var(B_t - B_s) = |t-s|^(2H)
    h = 0.7
    p = fbm.generate_cholesky(unit_grid(64), 10_000, h, seed=5)
    i, j = 20, 45
    target = (p.grid.points[j] - p.grid.points[i]) ** (2 * h)
    v = (p.values[j, :] - p.values[i, :]).var()
    assert abs(v - target) <= 3 * target * math.sqrt(2 / 10_000)


def test_cholesky_grid_not_starting_at_zero_unpinned():
    p = fbm.generate_cholesky(TimeGrid(8, 0.5, 1.0), 1, 0.6, seed=1)
    assert p.values.shape == (8, 1)
    assert p.values[0, 0] != 0.0


# ------------------------------------------------------------------ circulant

def test_circulant_deterministic():
    grid = unit_grid(129)
    a = fbm.generate_circulant(grid, 3, 0.35, seed=77)
    b = fbm.generate_circulant(grid, 3, 0.35, seed=77)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values[0] == 0.0)


@pytest.mark.parametrize(
    "n, d, streams",
    [(65, 1, None), (257, 2, None), (257, 2, 6), (65, 3, 2), (2**15 + 1, 2, None),
     (2**16 + 1, 1, None)],
    ids=["one-group", "one-group-d2", "groups-of-3", "components-2+1", "alone-d2", "alone"],
)
def test_circulant_seed_list_matches_one_call_per_seed(monkeypatch, n, d, streams):
    # the default groups hold every seed at n = 64 and 256 and one component
    # from 2^15 steps; 6 streams at d = 2 are groups of 3 seeds, which leave a
    # short last group, and 2 streams at d = 3 split each seed's components 2 + 1
    grid = unit_grid(n)
    if streams is not None:
        size = fbm._embedding_eigenvalues(0.4, n - 1).size
        monkeypatch.setattr(fbm, "_GROUP_VALUES", streams * size)
    seeds = [0, 7, 3, 7040, 2**64 - 1, 12, 5]
    paths = fbm.generate_circulant(grid, d, 0.4, seeds)
    assert [p.seed for p in paths] == seeds
    for seed, path in zip(seeds, paths):
        alone = fbm.generate_circulant(grid, d, 0.4, seed)
        assert path.values.tobytes() == alone.values.tobytes()


def formula_draw(grid, d, h, seeds):
    """The circulant draw as a formula over whole arrays: the stacked normals,
    the complex Hermitian vector, one transform of every stream, and a scaled copy."""
    m = grid.n_points - 1
    lam = fbm._embedding_eigenvalues(h, m)
    M, half = lam.size, lam.size // 2
    draws = fbm._stream_normals(seeds, d, M)
    z = np.empty(draws.shape, dtype=complex)
    z[..., 0] = draws[..., 0]
    z[..., half] = draws[..., 1]
    z[..., 1:half] = (draws[..., 2 : half + 1] + 1j * draws[..., half + 1 :]) / math.sqrt(2.0)
    z[..., half + 1 :] = np.conj(z[..., 1:half][..., ::-1])
    z = np.fft.ifft(z * np.sqrt(lam), axis=-1) * math.sqrt(M)
    values = np.zeros((len(seeds), m + 1, d))
    np.cumsum(z.real[..., :m] * grid.spacing**h, axis=-1, out=values[:, 1:].transpose(0, 2, 1))
    return values


@pytest.mark.parametrize(
    "n, d, streams",
    [(65, 1, None), (257, 2, None), (2**14 + 1, 2, None), (65, 3, 2), (2**16 + 1, 2, None)],
    ids=["grouped-d1", "grouped-d2", "seed-per-transform", "components-2+1", "longer-than-budget"],
)
def test_circulant_draw_bytes_match_the_formula(monkeypatch, n, d, streams):
    # the draw builds each stream's vector inside its transform's buffer; its
    # bytes are the formula's, however the streams are grouped
    grid = unit_grid(n)
    if streams is not None:
        size = fbm._embedding_eigenvalues(0.35, n - 1).size
        monkeypatch.setattr(fbm, "_GROUP_VALUES", streams * size)
    seeds = [3, 2**64 - 1, 7040] if n < 2**14 else [3, 2**64 - 1]
    got = fbm._circulant_values(grid, d, 0.35, seeds)
    assert got.tobytes() == formula_draw(grid, d, 0.35, seeds).tobytes()


def test_embedding_eigenvalues_own_their_data():
    # a view of the complex FFT output would keep twice the cached bytes alive
    for h, m in ((0.35, 64), (0.75, 4096)):
        lam = fbm._embedding_eigenvalues(h, m)
        assert lam.flags.owndata and lam.base is None


def test_circulant_draw_working_set():
    # at 2^16 steps one transform holds one stream, a complex row of M = 2^17
    # values; the draw needs the values, sqrt(lambda) and that row, no more
    import tracemalloc

    grid = unit_grid(2**16 + 1)
    fbm._circulant_values(grid, 2, 0.6, [0])  # fills the eigenvalue cache
    M = fbm._embedding_eigenvalues(0.6, 2**16).size
    tracemalloc.start()
    try:
        values = fbm._circulant_values(grid, 2, 0.6, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = values.nbytes + 8 * M + 16 * M + 2**20
    assert peak < bound, f"peak {peak / 2**20:.2f} MB, bound {bound / 2**20:.2f} MB"


def test_circulant_requires_zero_start():
    # a spec's grid always starts at 0; a grid built directly may not
    with pytest.raises(ValueError, match="starting at 0"):
        fbm.generate_circulant(TimeGrid(8, 0.5, 1.0), 1, 0.5, seed=0)


def test_circulant_brownian_increments_iid():
    grid = unit_grid(257)
    p = fbm.generate_circulant(grid, 4000, 0.5, seed=3)
    inc = np.diff(p.values, axis=0)
    m = inc.size
    assert abs(inc.var() - grid.spacing) <= 3 * grid.spacing * math.sqrt(2 / m)
    lag1 = np.mean(inc[1:, :] * inc[:-1, :]) / inc.var()
    assert abs(lag1) <= 3 / math.sqrt(inc[1:, :].size)


def test_circulant_matches_cholesky_marginal():
    # Cholesky generator is the distributional oracle
    grid = unit_grid(65)
    a = fbm.generate_circulant(grid, 10_000, 0.35, seed=7).values[-1, :]
    b = fbm.generate_cholesky(grid, 10_000, 0.35, seed=8).values[-1, :]
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_circulant_covariance_matches_analytic():
    # Monte Carlo vs analytic covariance, 8-point grid, 1e5 samples
    grid = unit_grid(9)
    h = 0.7
    p = fbm.generate_circulant(grid, 100_000, h, seed=1234)
    x = p.values[1:, :]
    emp = (x @ x.T) / x.shape[1]
    ana = fbm.build_covariance_grid(grid, h).entries
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / x.shape[1])
    assert (np.abs(emp - ana) / se).max() < 3.0


@pytest.mark.parametrize("h", [0.35, 0.55, 0.75])
def test_generated_paths_have_declared_regularity(h):
    path = fbm.generate_circulant(unit_grid(2**14 + 1), 1, h, seed=2)
    est = fbm.empirical_holder_exponent(path)
    assert h - 0.05 <= est <= h + 0.05


def test_component_streams_differ():
    a = fbm.component_rng(7, 0).standard_normal(8)
    b = fbm.component_rng(7, 1).standard_normal(8)
    c = fbm.component_rng(7, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


@pytest.mark.parametrize("size", [513, 8], ids=["odd", "even"])
def test_rekeyed_streams_match_a_generator_per_stream(size):
    # each stream after the first is drawn right after another; at an odd
    # length that one leaves the generator's buffer part used
    seeds = [0, 1, 2**64 - 1]
    draws = fbm._stream_normals(seeds, 3, size)
    for k, seed in enumerate(seeds):
        for j in range(3):
            want = fbm.component_rng(seed, j).standard_normal(size)
            assert draws[k, j].tobytes() == want.tobytes()


# ------------------------------------------------------------------- file I/O

def test_path_binary_roundtrip():
    p = fbm.generate_circulant(unit_grid(17), 2, 0.6, seed=11)
    buf = io.BytesIO()
    fbm.write_path(p, buf)
    q = fbm.read_path(io.BytesIO(buf.getvalue()))
    assert np.array_equal(p.values, q.values)
    assert q.grid == p.grid
    assert q.hurst == p.hurst
    assert q.seed == 11


def test_path_binary_layout():
    grid = TimeGrid(2, 0.0, 1.0)
    p = SamplePath(grid, np.array([[0.0], [1.0]]), hurst=None, seed=None)
    buf = io.BytesIO()
    fbm.write_path(p, buf)
    raw = buf.getvalue()
    assert raw[:4] == b"FRD1"
    assert int.from_bytes(raw[4:8], "little") == 2  # version
    assert math.isnan(np.frombuffer(raw[8:16], "<f8")[0])  # untagged hurst
    assert int.from_bytes(raw[16:20], "little") == 1  # d
    assert int.from_bytes(raw[20:28], "little") == 2  # n_points
    assert int.from_bytes(raw[52:56], "little") == 0  # has_seed
    assert len(raw) == 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8 + 4 + 2 * 8


@pytest.mark.parametrize("seed", [0, None, 11])
def test_path_binary_roundtrip_keeps_seed(seed):
    p = SamplePath(TimeGrid(3, 0.0, 1.0), np.array([[0.0], [0.5], [-1.0]]), seed=seed)
    buf = io.BytesIO()
    fbm.write_path(p, buf)
    assert fbm.read_path(io.BytesIO(buf.getvalue())).seed == seed


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2^64"])
def test_path_binary_rejects_seed_outside_u64(seed):
    # the header stores a u64; -1 used to be written (and read back) as 2^64 - 1
    p = SamplePath(TimeGrid(3, 0.0, 1.0), np.zeros((3, 1)), seed=seed)
    with pytest.raises(ValueError, match="seed"):
        fbm.write_path(p, io.BytesIO())


def test_path_binary_reads_version_1():
    values = np.array([[0.0], [0.5], [-1.0]])
    for seed, expected in ((0, None), (11, 11)):  # v1 wrote an untagged seed as 0
        header = struct.pack("<IdIQddQ", 1, 0.6, 1, 3, 0.0, 1.0, seed)
        q = fbm.read_path(io.BytesIO(b"FRD1" + header + values.astype("<f8").tobytes()))
        assert q.seed == expected
        assert q.hurst.value == 0.6
        assert q.grid == TimeGrid(3, 0.0, 1.0)
        assert np.array_equal(q.values, values)


def test_path_binary_rejects_payload_length_mismatch():
    buf = io.BytesIO()
    fbm.write_path(fbm.generate_circulant(unit_grid(17), 2, 0.6, seed=11), buf)
    raw = buf.getvalue()
    with pytest.raises(ValueError, match="payload"):
        fbm.read_path(io.BytesIO(raw + b"\x00"))
    with pytest.raises(ValueError, match="payload"):
        fbm.read_path(io.BytesIO(raw[:-8]))


# ---------------------------------------------------------------- path object

def test_sample_path_shape_validation():
    with pytest.raises(ValueError):
        SamplePath(unit_grid(4), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SamplePath(unit_grid(4), np.array([[0.0], [1.0], [np.nan], [0.0]]))


def test_sample_path_restrict_and_decimate():
    p = fbm.generate_circulant(unit_grid(9), 1, 0.5, seed=0)
    r = p.restrict(0.25, 0.75)
    assert r.grid.n_points == 5
    assert r.grid.t_start == pytest.approx(0.25)
    d = p.decimate(2)
    assert d.grid.n_points == 5
    assert np.array_equal(d.values, p.values[::2])
    with pytest.raises(ValueError):
        p.decimate(3)
    with pytest.raises(ValueError, match=r"integer .* 2\.0"):
        p.decimate(2.0)  # divides the 8 intervals, but is no integer


@pytest.mark.parametrize("grid", [unit_grid(9), TimeGrid(257, 0.5, 1.0), TimeGrid(100, 0.0, 3.0)],
                         ids=["unit9", "late257", "long100"])
@pytest.mark.parametrize(
    "t_lo, t_hi",
    [(0.25, 0.75), (0.5, 1.0), (0.0, 3.0), (0.13, 0.77), (0.1, 0.9),
     (0.75 - 5e-13, 0.875 + 5e-13), (0.75 + 5e-12, 1.0), (0.6, 0.61), (-1.0, 0.5)],
)
def test_window_keeps_the_points_restrict_kept(grid, t_lo, t_hi):
    # the oracle is the mask restrict applied before the window existed
    pts = grid.points
    idx = np.nonzero((pts >= t_lo - 1e-12) & (pts <= t_hi + 1e-12))[0]
    path = SamplePath(grid, np.arange(2.0 * grid.n_points).reshape(-1, 2), seed=3)
    if idx.size < 2:
        for keep in (lambda: grid.window(t_lo, t_hi), lambda: path.restrict(t_lo, t_hi)):
            with pytest.raises(ValueError, match="fewer than two grid points"):
                keep()
        return
    assert np.array_equal(np.arange(grid.n_points)[grid.window(t_lo, t_hi)], idx)
    sub = path.restrict(t_lo, t_hi)
    assert np.array_equal(sub.values, path.values[idx])
    assert sub.grid == TimeGrid(idx.size, float(pts[idx[0]]), float(pts[idx[-1]]))
    assert sub.seed == 3


@pytest.mark.parametrize("t_lo, t_hi", [(np.nan, 1.0), (0.25, np.nan), (np.nan, np.nan)])
def test_window_rejects_a_nan_end(t_lo, t_hi):
    # every comparison with NaN is false, so the mask alone would read it as an empty window
    path = fbm.generate_circulant(unit_grid(9), 1, 0.5, seed=0)
    for keep in (lambda: path.grid.window(t_lo, t_hi), lambda: path.restrict(t_lo, t_hi)):
        with pytest.raises(ValueError, match="window end is NaN"):
            keep()


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        TimeGrid(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        TimeGrid(4, -0.5, 1.0)
    g = TimeGrid(5, 0.0, 1.0)
    assert g.spacing == pytest.approx(0.25)
    assert np.all(np.diff(g.points) > 0)
