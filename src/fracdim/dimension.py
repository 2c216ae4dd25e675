"""Fractal estimators: box counting, level sets, energy integrals, mollified
occupation measures.

Box counts use origin-anchored cells (a constant-factor proxy for ball
coverings that leaves log-log slopes unchanged).  The harness's slope search
floors a cloud once, at its finest dyadic scale, and sorts one Morton
(bit-interleaved) key per point: cells of twice the side nest, so every
coarser dyadic count is one pass over the sorted keys (Liebovitch & Toth,
Phys. Lett. A 141, 1989).  The regression ladder stays on ``np.geomspace``,
whose interior scales sit a few ulps off the halvings; such a scale reuses a
dyadic count only where it floors every point into the same cell.

Energies use trapezoid quadrature with a one-spacing diagonal cut.
``energy_ladder`` gives the energies of every gamma and decimation from one
pass over the pairs, and ``mu_measure`` sums its energy over time lags (the
Toeplitz form of its |t-s| kernel on a uniform grid).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import SamplePath, empirical_holder_exponent

__all__ = [
    "DimensionEstimate",
    "EnergyValue",
    "LevelSet",
    "PointCloud",
    "box_count",
    "box_dimension",
    "cloud_span",
    "default_eps_range",
    "energy_integral",
    "energy_ladder",
    "extract_level_set",
    "graph_cloud",
    "image_cloud",
    "mu_measure",
    "tube_floor",
]

#: counts at scales resolving more than this fraction of the points are not trusted
_SATURATION_FRACTION = 0.25
_COINCIDENT_TOL = 1e-14
#: entries of one row block in energy_ladder: its two float64 buffers (1 MB) stay
#: in a core's L2 cache, where 2^22-entry blocks made the sum memory-bound and 2.4x slower;
#: the same budget sizes density's KDE blocks and the solver's time-loop segments
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class PointCloud:
    """Finite point set in R^dim_embed."""

    points: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.points, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        if p.ndim != 2 or p.shape[0] == 0:
            raise ValueError("cloud must be a non-empty (k, dim) array")
        if not np.all(np.isfinite(p)):
            raise ValueError("cloud points must be finite")
        object.__setattr__(self, "points", p)

    @property
    def dim_embed(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DimensionEstimate:
    """log-log regression output of a box-count ladder."""

    slope: float
    intercept: float
    r_squared: float
    scales_used: list[float]
    counts: list[int]
    degenerate: bool = False


@dataclass(frozen=True)
class LevelSet:
    """Grid times where the path stays within tube_radius of the level."""

    level: np.ndarray
    tube_radius: float
    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "level", np.atleast_1d(np.asarray(self.level, float)))


@dataclass(frozen=True)
class EnergyValue:
    gamma: float
    value: float
    diagonal_cut: float


def image_cloud(path: SamplePath) -> PointCloud:
    """The set of visited states X([t_start, t_end])."""
    return PointCloud(path.values)


def graph_cloud(path: SamplePath) -> PointCloud:
    """(t, X_t) pairs; the time axis is left unscaled."""
    return PointCloud(np.column_stack([path.grid.points, path.values]))


def box_count(cloud: PointCloud, epsilon: float) -> int:
    """Occupied origin-anchored cells of side epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    idx = np.floor(cloud.points / epsilon).astype(np.int64)
    # column by column, as in cloud_span: a narrow axis-0 reduction is slow
    idx -= [idx[:, j].min() for j in range(idx.shape[1])]
    spread = int(idx.max()) + 1 if idx.size else 1
    if cloud.dim_embed * math.log2(max(spread, 2)) < 62:
        # pack cell coordinates into one integer; unique on int64 sorts fast
        key = idx[:, 0].copy()
        for j in range(1, cloud.dim_embed):
            key *= spread
            key += idx[:, j]
        return int(np.unique(key).size)
    return int(np.unique(idx, axis=0).shape[0])


def cloud_span(cloud: PointCloud) -> float:
    """Largest axis-aligned extent; 0 for a single point."""
    p = cloud.points
    # column by column: numpy reduces a narrow (k, dim) array along axis 0 3-10x slower
    return max(float(p[:, j].max() - p[:, j].min()) for j in range(p.shape[1]))


def default_eps_range(cloud: PointCloud, floor_hint: float = 0.0) -> tuple[float, float] | None:
    """Scale window (span/8 down to max(floor_hint, span/1024)).

    None when no scale is left: the cloud is one point, or the floor reaches span/8.
    """
    span = cloud_span(cloud)
    hi = span / 8.0
    lo = max(floor_hint, span / 1024.0)
    return (hi, lo) if lo < hi else None


def box_dimension(
    cloud: PointCloud, eps_range: tuple[float, float], n_scales: int
) -> DimensionEstimate:
    """Least-squares slope of log N against -log eps over a geometric ladder.

    Scales whose counts resolve more than a quarter of the points are dropped
    from the regression (the estimator's validity window); a fully degenerate
    cloud reports slope 0 with the degenerate flag set.
    """
    if n_scales < 4:
        raise ValueError("need at least 4 scales")
    hi, lo = max(eps_range), min(eps_range)
    if lo <= 0:
        raise ValueError("scales must be positive")
    scales = np.geomspace(hi, lo, n_scales)
    return _ladder_fit(scales, np.array([box_count(cloud, e) for e in scales]), len(cloud))


def _ladder_fit(scales: np.ndarray, counts: np.ndarray, n_points: int) -> DimensionEstimate:
    """box_dimension's regression of the counts at ``scales`` of an n_points cloud."""
    valid = counts < max(2, int(_SATURATION_FRACTION * n_points))
    if valid.sum() < 2:
        valid = np.ones_like(valid, dtype=bool)
    xs = -np.log(scales[valid])
    ys = np.log(counts[valid].astype(float))
    if np.ptp(ys) == 0.0:
        return DimensionEstimate(
            0.0, float(ys[0]), 1.0, list(scales), list(map(int, counts)), degenerate=True
        )
    slope, intercept, r2 = _line_fit(xs, ys)
    return DimensionEstimate(slope, intercept, r2, list(scales), list(map(int, counts)))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, y): (slope, intercept, R^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float((resid**2).sum()) / float(((y - y.mean()) ** 2).sum())
    return float(slope), float(intercept), r2


def _nested_counts(cloud: PointCloud, levels: list[float]) -> list[int] | None:
    """box_count at each scale of ``levels`` (exact halvings, coarsest first), from one sort.

    Points are floored once at the finest scale.  Each axis's indices are
    shifted down to a multiple of 2^m (m = len(levels) - 1), so the cells
    ``idx >> k`` are still box_count's origin-anchored cells at 2^k times the
    side.  Interleaving the index bits gives a Morton key whose ``key >> d*k``
    is that coarser cell; sorting keeps that order, so each count is one plus
    the changes of ``key >> d*k`` along the sorted keys.  None when the key
    needs more than 62 bits.
    """
    d, m = cloud.dim_embed, len(levels) - 1
    idx = np.floor(np.ascontiguousarray(cloud.points.T) / levels[-1]).astype(np.int64)
    idx -= ((idx.min(axis=1) >> m) << m)[:, None]  # (d, k): one contiguous row per axis
    bits = int(idx.max()).bit_length()
    if d * bits > 62:
        return None
    byte = np.arange(256, dtype=np.int64)
    spread = np.zeros(256, dtype=np.int64)  # bit b of a byte moved to bit d*b
    for b in range(8):
        spread |= ((byte >> b) & 1) << (d * b)
    key = np.zeros(len(cloud), dtype=np.int64)
    for a in range(d):
        for b in range(0, bits, 8):
            key |= (spread << (d * b + a))[(idx[a] >> b) & 255]
    key.sort()
    steps = key[1:] ^ key[:-1]
    steps = steps[steps != 0]  # one per pair of neighbouring finest cells
    return [1 + int(np.count_nonzero(steps >> (d * (m - j)))) for j in range(m + 1)]


def _anchored_slope(cloud: PointCloud, octaves: int) -> tuple[float, float]:
    """Slope and R^2 over the finest trusted octaves (counts below saturation).

    The saturation search halves the scale from span/8 while it stays above
    span/4096; its counts all come from one sort (``_nested_counts``).  The
    ladder then ends at the finest unsaturated scale and is box_dimension's
    ``np.geomspace`` over ``octaves``.  Its interior scales sit 1-4 ulps off the
    halvings, so where a point lies exactly on a dyadic cell boundary (the
    start point at the minimum of the widest axis puts the far point on one)
    they can count a cell more or fewer; a ladder scale therefore takes its
    nearest searched count only when it floors every point into the same
    cell, and is otherwise counted directly.  The result equals
    box_dimension's over the same window.
    """
    if octaves < 3:
        raise ValueError("need at least 4 scales")
    span = cloud_span(cloud)
    levels = []
    eps = span / 8.0
    while eps > span / 4096.0:
        levels.append(eps)
        eps /= 2.0
    if not levels:
        raise ValueError(f"cloud span is {span:g}: its {len(cloud)} points leave no box-count scale")
    counts = _nested_counts(cloud, levels)
    if counts is None:
        counts = [box_count(cloud, s) for s in levels]
    threshold = max(2, int(_SATURATION_FRACTION * len(cloud)))
    finest = 0
    for j, count in enumerate(counts):
        if count >= threshold:
            break
        finest = j
    lo = levels[finest]
    hi = min(span / 8.0, lo * 2.0**octaves)
    if hi <= lo:  # saturated at the coarsest scale already (degenerate cloud)
        hi = lo * 2.0**octaves
    scales = np.geomspace(hi, lo, octaves + 1)
    p = cloud.points
    ladder = []
    for s in scales:
        j = round(math.log2(levels[0] / s))
        if 0 <= j < len(levels) and (
            s == levels[j] or np.array_equal(np.floor(p / s), np.floor(p / levels[j]))
        ):
            ladder.append(counts[j])
        else:
            ladder.append(box_count(cloud, s))
    est = _ladder_fit(scales, np.array(ladder), len(cloud))
    return est.slope, est.r_squared


def tube_floor(path: SamplePath) -> float:
    """Smallest meaningful tube radius: empirical modulus times spacing^gamma.

    gamma is 0.9 H (declared or estimated); the modulus is taken over dyadic
    lags so the floor dominates one-step wander.
    """
    h = path.hurst.value if path.hurst is not None else empirical_holder_exponent(path)
    gamma = 0.9 * h
    v = path.values
    n = v.shape[0]
    dt = path.grid.spacing
    norm_gamma = 0.0
    lag = 1
    while lag <= max(1, n // 4):
        mx = float(np.sqrt(((v[lag:] - v[:-lag]) ** 2).sum(axis=1)).max())
        norm_gamma = max(norm_gamma, mx / (lag * dt) ** gamma)
        lag *= 2
    return norm_gamma * dt**gamma


def extract_level_set(path: SamplePath, x: np.ndarray, eta: float) -> LevelSet:
    """Grid times with |X_t - x| <= eta; eta must be at least tube_floor."""
    floor = tube_floor(path)
    if eta < floor:
        raise ValueError(f"eta {eta:g} is below the tube floor {floor:g}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dist = np.sqrt(((path.values - x[None, :]) ** 2).sum(axis=1))
    times = path.grid.points[dist <= eta]
    return LevelSet(x, eta, times)


def _kernel(r: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == 0.0:
        return np.log(math.e / np.minimum(r, 1.0))
    return r**-gamma


def _trapezoid_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def energy_ladder(path: SamplePath, gammas, factors) -> np.ndarray:
    """Energies of ``path.decimate(f)`` for every gamma and factor f, in one pass.

    Returns a (len(gammas), len(factors)) array of what ``energy_integral``
    gives on each decimation.  The upper triangle of the fine pairs is walked
    once in row blocks: log r^2 is taken once per pair and exponentiated once
    per gamma, and each factor sums its strided sub-grid of that kernel.  On a
    decimated grid the one-spacing cut is the diagonal.  A coincident pair
    makes its kernel entry inf, so exactly the levels whose own pairs hold one
    read the +inf sentinel.
    """
    gammas = [float(g) for g in gammas]
    if not gammas or not all(0 <= g < math.inf for g in gammas):
        raise ValueError(f"gammas must hold at least one gamma, each finite and >= 0: {gammas}")
    v = path.values
    n = v.shape[0]
    if any(f < 1 or (n - 1) % f for f in factors):
        raise ValueError("factor must divide the number of grid intervals")
    c = _trapezoid_weights(n, 1.0)  # c[::f] weights decimate(f) in units of its spacing
    sums = np.zeros((len(gammas), len(factors)))
    a = 0
    while a < n:
        b = min(n, a + max(1, _BLOCK_ENTRIES // (n - a)))
        r2 = np.zeros((b - a, n - a))  # rows [a, b) against columns [a, n)
        kern = np.empty_like(r2)
        for k in range(v.shape[1]):  # one coordinate at a time: no (rows, n, d) temporary
            np.subtract(v[a:b, k, None], v[None, a:, k], out=kern)
            kern *= kern
            r2 += kern
        loc = np.arange(b - a)
        r2[loc, loc] = 1.0  # the diagonal, zeroed in the kernel below
        r2[r2 < _COINCIDENT_TOL**2] = 0.0
        with np.errstate(divide="ignore"):
            np.log(r2, out=r2)  # coincident pairs: -inf, so their kernel is inf
        # columns left of b form a square holding each pair twice; the rest hold it once
        col_weights = c[a:].copy()
        col_weights[b - a:] *= 2.0
        for gi, gamma in enumerate(gammas):
            if gamma == 0.0:  # log(e / min(r, 1))
                np.minimum(r2, 0.0, out=kern)
                kern *= -0.5
                kern += 1.0
            else:
                np.multiply(r2, -0.5 * gamma, out=kern)
                np.exp(kern, out=kern)
            kern[loc, loc] = 0.0
            for fi, f in enumerate(factors):
                s = -a % f  # the first row and column of the block on the f-grid
                sub = kern[s::f, s::f]
                sums[gi, fi] += c[a + s:b:f] @ (sub @ col_weights[s::f])
        a = b
    spacing = np.array([(path.grid.t_end - path.grid.t_start) / ((n - 1) // f) for f in factors])
    return sums * spacing**2


def energy_integral(
    path: SamplePath, gamma: float, restrict: tuple[float, float]
) -> EnergyValue:
    """Trapezoid double integral of |X_t - X_s|^-gamma over restrict^2.

    Pairs closer than one grid spacing in time are excluded (the diagonal
    cut); gamma = 0 switches to the bounded logarithmic kernel.  Coincident
    states off the diagonal yield the +inf sentinel.
    """
    sub = path.restrict(*restrict)
    value = energy_ladder(sub, [gamma], [1])[0, 0]
    return EnergyValue(gamma, float(value), sub.grid.spacing)


def mu_measure(
    path: SamplePath,
    x: np.ndarray,
    n: float,
    gamma: float,
    restrict: tuple[float, float],
) -> tuple[float, float]:
    """Mollified occupation measure around level x at sharpness n.

    Returns (mass, gamma_energy): the trapezoid mass of the density
    (2 pi n)^(d/2) exp(-n |X_t - x|^2 / 2) over the restricted window, and the
    double-integral energy of that measure against |t-s|^-gamma with the same
    one-spacing diagonal cut as energy_integral.
    """
    if not 0 < n < math.inf:
        raise ValueError(f"sharpness n must be finite and positive, not {n}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, not {gamma}")
    if restrict[0] <= 0:
        raise ValueError("restriction must start at epsilon > 0")
    sub = path.restrict(*restrict)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = sub.dim
    dist2 = ((sub.values - x[None, :]) ** 2).sum(axis=1)
    f = (2.0 * math.pi * n) ** (d / 2.0) * np.exp(-0.5 * n * dist2)
    w = _trapezoid_weights(sub.grid.n_points, sub.grid.spacing)
    mass = float(w @ f)
    g = w * f
    # g.K.g with K = k(|t-s|) off the diagonal depends only on the lag m >= 1
    lags = sub.grid.spacing * np.arange(1, g.size)
    energy = 2.0 * float(_kernel(lags, gamma) @ np.correlate(g, g, "full")[g.size:])
    return mass, energy
