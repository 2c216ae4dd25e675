"""Monte Carlo distribution checks: sup-increment tails and kernel density
estimates of increments and joint vectors.

All constants in the underlying decay statements are existential, so every
check here is about functional form: which exponent fits, which scalings
hold.  Kernel densities use the reference bandwidth 1.06 sigma m^(-1/(4+D))
per coordinate with D the estimation-space dimension.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ExperimentSpec, solve_block
from .config import solve_member  # noqa: F401  bound for the benchmark's tracer (bench/spans.py)
from .dimension import _BLOCK_ENTRIES, _line_fit

__all__ = [
    "DensityEstimate",
    "TailCurve",
    "fit_tail_exponent",
    "kde_bivariate_decay",
    "kde_increment",
    "sup_increment",
    "tail_curve",
    "upper_envelope_fit",
]

_MIN_TAIL_ENSEMBLE = 1_000
_MIN_KDE_ENSEMBLE = 10_000
_MIN_BIVARIATE_ENSEMBLE = 100_000


@dataclass(frozen=True)
class TailCurve:
    """Empirical exceedance curve of a sup-increment statistic."""

    xi_values: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi_values, dtype=float)
        lp = np.asarray(self.log_probs, dtype=float)
        if xi.ndim != 1 or xi.shape != lp.shape:
            raise ValueError("xi_values and log_probs must be matching 1-d arrays")
        if np.any(np.diff(xi) <= 0):
            raise ValueError("xi_values must be strictly increasing")
        finite = lp[np.isfinite(lp)]
        if np.any(np.diff(finite) > 1e-12):
            raise ValueError("log_probs must be non-increasing in xi")
        object.__setattr__(self, "xi_values", xi)
        object.__setattr__(self, "log_probs", lp)

    @property
    def all_sentinel(self) -> bool:
        return bool(np.all(np.isinf(self.log_probs)))


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density values at requested centers."""

    centers: np.ndarray
    values: np.ndarray
    bandwidth: float

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != c.shape[0] or np.any(v < 0):
            raise ValueError("values must be nonnegative, one per center")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "values", v)


def sup_increment(values: np.ndarray) -> float:
    """sup over pairs of |X_v - X_u| = diameter of the visited point set."""
    if values.shape[1] == 1:
        col = values[:, 0]
        return float(col.max() - col.min())
    from scipy.spatial import ConvexHull, QhullError  # here, so the run path loads no scipy
    try:
        hull = values[ConvexHull(values).vertices]
    except QhullError:  # degenerate (collinear) clouds
        hull = values
    diff = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


# No run path calls this; it stays only because the benchmark's tracer
# (bench/spans.py) patches it by name.
def _ensemble_samples_at(spec: ExperimentSpec, times: tuple[float, ...]) -> np.ndarray:
    """State samples at the requested times for each member, shape (m, len(times), d)."""
    grid = spec.grid
    idx = [int(round((t - grid.t_start) / grid.spacing)) for t in times]
    out = np.empty((spec.ensemble, len(times), spec.dim))
    for done, states, failed in solve_block(spec, range(spec.ensemble)):
        for exc in failed.values():
            raise exc
        out[done] = states[:, idx]
    return out


def tail_curve(
    sups: np.ndarray,
    xi_grid: np.ndarray | None = None,
    ensemble: int | None = None,
) -> TailCurve:
    """Empirical P(sup |X_v - X_u| >= xi) from per-member sups over one window.

    With xi_grid omitted, a quantile ladder of the realized statistics is
    used.  Exceedance zero yields the -inf sentinel; an all-sentinel curve is
    reported with a warning (the xi grid was too coarse).  The ensemble floor
    applies to ``ensemble``, the members requested (default: one per sup), so
    a run that lost a few members to failures still yields its curve.
    """
    sups = np.asarray(sups, dtype=float)
    if (sups.size if ensemble is None else ensemble) < _MIN_TAIL_ENSEMBLE:
        raise ValueError(f"tail curves need an ensemble of at least {_MIN_TAIL_ENSEMBLE}")
    if xi_grid is None:
        qs = np.linspace(0.05, 0.99, 24)
        xi_grid = np.unique(np.quantile(sups, qs))
    xi = np.asarray(xi_grid, dtype=float)
    probs = (sups[None, :] >= xi[:, None]).mean(axis=1)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    curve = TailCurve(xi, log_probs)
    if curve.all_sentinel:
        warnings.warn("no exceedances at any xi; the xi grid is too coarse")
    return curve


def fit_tail_exponent(
    curve: TailCurve, candidate_exponents: list[float]
) -> tuple[float, list[float], list[float]]:
    """Per-candidate linear fit of log_prob against xi^a; best = argmax R^2."""
    usable = np.isfinite(curve.log_probs)
    if usable.sum() < 5:
        raise ValueError("need at least 5 finite curve points")
    xi = curve.xi_values[usable]
    y = curve.log_probs[usable]
    if np.ptp(y) == 0.0:
        raise ValueError("degenerate curve: all probabilities equal")
    slopes, r2s = [], []
    for a in candidate_exponents:
        slope, _, r2 = _line_fit(xi**a, y)
        r2s.append(r2)
        slopes.append(slope)
    best = candidate_exponents[int(np.argmax(r2s))]
    return best, slopes, r2s


def _bandwidths(samples: np.ndarray) -> np.ndarray:
    m, dim = samples.shape
    sigma = samples.std(axis=0, ddof=1)
    if np.any(sigma == 0.0):
        raise ValueError("bandwidth collapse: a coordinate has zero spread")
    return 1.06 * sigma * m ** (-1.0 / (4 + dim))


def _kde_at(samples: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product-Gaussian KDE of samples evaluated at points; returns (values, bandwidths).

    The kernel is evaluated in place for a block of points at a time: each
    block holds about ``_BLOCK_ENTRIES`` (point, sample, coordinate) entries,
    and at least one point.  A point's value is the mean of its kernel row
    over every sample, so it does not depend on the block it is evaluated in.
    """
    m, dim = samples.shape
    b = _bandwidths(samples)
    norm = float(np.prod(b)) * (2 * math.pi) ** (dim / 2.0)
    vals = np.empty(points.shape[0])
    block = max(1, _BLOCK_ENTRIES // (m * dim))
    z = np.empty((min(block, points.shape[0]), m, dim))
    r2 = np.empty(z.shape[:2])
    for a in range(0, points.shape[0], block):
        pts = points[a:a + block]
        z_a, r2_a = z[:len(pts)], r2[:len(pts)]
        np.subtract(pts[:, None, :], samples[None, :, :], out=z_a)
        z_a /= b
        np.square(z_a, out=z_a)
        np.sum(z_a, axis=-1, out=r2_a)
        r2_a *= -0.5
        np.exp(r2_a, out=r2_a)
        vals[a:a + block] = r2_a.mean(axis=1) / norm
    return vals, b


def kde_increment(
    samples: np.ndarray,
    interval: tuple[float, float],
    centers: np.ndarray,
    ensemble: int | None = None,
) -> DensityEstimate:
    """Kernel density of X_t - X_s at the given centers.

    ``samples`` holds each member's states at (s, t), shape (m, 2, d).  The
    ensemble floor applies to ``ensemble``, the members requested (default:
    one per sample), as in ``tail_curve``.
    """
    s, t = interval
    if s < 0.1 - 1e-12:
        raise ValueError("increment densities are estimated away from 0 (s >= 0.1)")
    m, _, d = samples.shape
    if (m if ensemble is None else ensemble) < _MIN_KDE_ENSEMBLE:
        raise ValueError(f"kde_increment needs an ensemble of at least {_MIN_KDE_ENSEMBLE}")
    inc = samples[:, 1, :] - samples[:, 0, :]
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    if pts.shape[1] != d:
        pts = pts.reshape(-1, d)
    vals, b = _kde_at(inc, pts)
    return DensityEstimate(pts, vals, float(np.mean(b)))


def kde_bivariate_decay(
    samples: np.ndarray,
    s: float,
    t: float,
    offsets: np.ndarray,
    ensemble: int | None = None,
) -> list[tuple[float, float]]:
    """Joint KDE of (X_s, X_t) at pairs (z, z + offset), z the median of X_s.

    ``samples`` holds each member's states at (s, t), shape (m, 2, d); the
    ensemble floor applies to ``ensemble`` as in ``kde_increment``.
    Returns (|offset|, joint density) pairs, the raw material for decay
    profiles in |offset|^(2 gamma).
    """
    if not (0.1 <= s < t):
        raise ValueError("need 0.1 <= s < t")
    m, _, d = samples.shape
    if (m if ensemble is None else ensemble) < _MIN_BIVARIATE_ENSEMBLE:
        raise ValueError(
            f"kde_bivariate_decay needs an ensemble of at least {_MIN_BIVARIATE_ENSEMBLE}"
        )
    joint = samples.reshape(m, 2 * d)
    z1 = np.median(samples[:, 0, :], axis=0)
    offs = np.atleast_2d(np.asarray(offsets, dtype=float))
    if offs.shape[1] != d:
        offs = offs.reshape(-1, d)
    points = np.column_stack([np.tile(z1, (offs.shape[0], 1)), z1[None, :] + offs])
    vals, _ = _kde_at(joint, points)
    return [
        (float(np.sqrt((off**2).sum())), float(v)) for off, v in zip(offs, vals)
    ]


def upper_envelope_fit(
    z_norms: np.ndarray,
    values: np.ndarray,
    exponent: float,
) -> tuple[float, float, float]:
    """Regression of the log upper-decile envelope against |z|^exponent.

    Decay statements bound densities from above, so within each of 10 equal
    |z| bins only the top decile of values is informative; returns (slope,
    intercept, r2).
    """
    z = np.asarray(z_norms, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = v > 0
    z, v = z[keep], v[keep]
    edges = np.linspace(z.min(), z.max(), 11)
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (z >= lo) & (z <= hi)
        if sel.sum() < 1:
            continue
        xs.append(float(np.mean(z[sel] ** exponent)))
        ys.append(float(np.log(np.quantile(v[sel], 0.9))))
    if len(xs) < 3:
        raise ValueError("too few populated bins for an envelope fit")
    return _line_fit(np.array(xs), np.array(ys))
