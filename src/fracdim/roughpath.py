"""Truncated tensor algebra over discrete paths.

Segment signatures, Chen concatenation, the per-interval signature lift of a
sampled path and its Chen coarsening onto coarser grids.  Depth is capped at
3, which covers every Hurst index above 1/4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fbm import HurstParam, SamplePath, TimeGrid

__all__ = [
    "SignaturePath",
    "TruncatedTensor",
    "chen_concat",
    "coarsen",
    "lift_path",
    "required_depth",
    "segment_signature",
]

MAX_DEPTH = 3


@dataclass(frozen=True)
class TruncatedTensor:
    """Element of the truncated tensor algebra, levels 0..depth.

    ``levels[m]`` has shape (dim,) * m; level 0 is the scalar unit slot and
    equals 1 for group elements (signatures).
    """

    dim: int
    depth: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be 1..{MAX_DEPTH}")
        if len(self.levels) != self.depth + 1:
            raise ValueError("levels must run from 0 to depth")
        fixed = []
        for m, lv in enumerate(self.levels):
            arr = np.asarray(lv, dtype=float)
            if arr.shape != (self.dim,) * m:
                raise ValueError(f"level {m} must have shape {(self.dim,) * m}")
            if not np.all(np.isfinite(arr)):
                raise ValueError("tensor entries must be finite")
            fixed.append(arr)
        object.__setattr__(self, "levels", tuple(fixed))


@dataclass(frozen=True)
class SignaturePath:
    """Per-interval truncated signatures of a piecewise-linear path.

    ``levels[m-1]`` stacks the level-m tensors of all intervals with shape
    (n_intervals, dim, ..., dim).  Chen-consistency across adjacent intervals
    holds by construction.
    """

    grid: TimeGrid
    dim: int
    depth: int
    levels: tuple[np.ndarray, ...]
    hurst: HurstParam | None = None

    def __post_init__(self) -> None:
        n = self.grid.n_points - 1
        for m, lv in enumerate(self.levels, start=1):
            if lv.shape != (n,) + (self.dim,) * m:
                raise ValueError(f"level {m} array has wrong shape {lv.shape}")

    @property
    def n_intervals(self) -> int:
        return self.grid.n_points - 1

    def increment(self, k: int) -> TruncatedTensor:
        """Signature of the k-th grid interval."""
        return TruncatedTensor(
            self.dim,
            self.depth,
            (np.array(1.0),) + tuple(lv[k] for lv in self.levels),
        )

    def combined(self, i: int, j: int) -> TruncatedTensor:
        """Signature over [t_i, t_j], in closed form from the running signatures."""
        if not 0 <= i < j <= self.n_intervals:
            raise ValueError("need 0 <= i < j <= n_intervals")
        levels = _between(_cumulative(self), i, j)
        return TruncatedTensor(self.dim, self.depth, (np.array(1.0), *levels))


def segment_signature(increment: np.ndarray, depth: int) -> TruncatedTensor:
    """Signature exp(increment) of a linear segment: level m is Delta^(x)m / m!."""
    delta = np.asarray(increment, dtype=float).reshape(-1)
    d = delta.size
    levels: list[np.ndarray] = [np.array(1.0)]
    if depth >= 1:
        levels.append(delta.copy())
    if depth >= 2:
        levels.append(np.multiply.outer(delta, delta) / 2.0)
    if depth >= 3:
        levels.append(np.multiply.outer(np.multiply.outer(delta, delta), delta) / 6.0)
    return TruncatedTensor(d, depth, tuple(levels))


def chen_concat(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product; the composition law of signatures."""
    if a.dim != b.dim or a.depth != b.depth:
        raise ValueError("tensors must share dim and depth")
    levels = []
    for m in range(a.depth + 1):
        acc = np.zeros((a.dim,) * m)
        for i in range(m + 1):
            acc = acc + np.multiply.outer(a.levels[i], b.levels[m - i])
        levels.append(acc)
    return TruncatedTensor(a.dim, a.depth, tuple(levels))


def required_depth(h: HurstParam | float) -> int:
    """Signature depth needed for the lift: 2 above H = 1/3, else 3."""
    H = h.value if isinstance(h, HurstParam) else float(h)
    return 2 if H > 1.0 / 3.0 else 3


def lift_path(path: SamplePath, depth: int) -> SignaturePath:
    """Per-interval signatures of the sampled path, read as piecewise linear.

    For a path tagged with a Hurst index the depth must be at least the lift
    requirement (2 for H > 1/3, 3 for 1/4 < H <= 1/3).
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be 1..{MAX_DEPTH}")
    if path.hurst is not None and depth < required_depth(path.hurst):
        raise ValueError(
            f"depth {depth} inconsistent with declared hurst {path.hurst.value}"
            f" (needs >= {required_depth(path.hurst)})"
        )
    delta = np.diff(path.values, axis=0)
    levels = [delta]
    if depth >= 2:
        levels.append(0.5 * np.einsum("ki,kj->kij", delta, delta))
    if depth >= 3:
        levels.append(np.einsum("ki,kj,kl->kijl", delta, delta, delta) / 6.0)
    return SignaturePath(path.grid, path.dim, depth, tuple(levels), hurst=path.hurst)


def coarsen(sig: SignaturePath, factor: int) -> SignaturePath:
    """Chen-combine consecutive intervals in blocks of ``factor``."""
    n = sig.n_intervals
    if factor < 1 or n % factor:
        raise ValueError("factor must divide the interval count")
    if factor == 1:
        return sig
    nb = n // factor
    d = sig.dim
    b1 = sig.levels[0].reshape(nb, factor, d)
    g1 = np.zeros((nb, d))
    g2 = np.zeros((nb, d, d)) if sig.depth >= 2 else None
    g3 = np.zeros((nb, d, d, d)) if sig.depth >= 3 else None
    if sig.depth >= 2:
        b2 = sig.levels[1].reshape(nb, factor, d, d)
    if sig.depth >= 3:
        b3 = sig.levels[2].reshape(nb, factor, d, d, d)
    for r in range(factor):
        a1 = b1[:, r]
        if sig.depth >= 3:
            g3 += (
                b3[:, r]
                + np.einsum("bi,bjk->bijk", g1, b2[:, r])
                + np.einsum("bij,bk->bijk", g2, a1)
            )
        if sig.depth >= 2:
            g2 += b2[:, r] + np.einsum("bi,bj->bij", g1, a1)
        g1 += a1
    grid = TimeGrid(nb + 1, sig.grid.t_start, sig.grid.t_end)
    levels = [g1] + ([g2] if g2 is not None else []) + ([g3] if g3 is not None else [])
    return SignaturePath(grid, d, sig.depth, tuple(levels), hurst=sig.hurst)


def _cumulative(sig: SignaturePath) -> list[np.ndarray]:
    """Running signatures g_k over [t_0, t_k] for k = 0..n_intervals."""
    n, d = sig.n_intervals, sig.dim
    b1 = sig.levels[0]
    g1 = np.zeros((n + 1, d))
    np.cumsum(b1, axis=0, out=g1[1:])
    out = [g1]
    if sig.depth >= 2:
        b2 = sig.levels[1]
        inc2 = b2 + np.einsum("ki,kj->kij", g1[:-1], b1)
        g2 = np.zeros((n + 1, d, d))
        np.cumsum(inc2, axis=0, out=g2[1:])
        out.append(g2)
    if sig.depth >= 3:
        b3 = sig.levels[2]
        inc3 = (
            b3
            + np.einsum("ki,kjl->kijl", g1[:-1], b2)
            + np.einsum("kij,kl->kijl", g2[:-1], b1)
        )
        g3 = np.zeros((n + 1, d, d, d))
        np.cumsum(inc3, axis=0, out=g3[1:])
        out.append(g3)
    return out


def _between(cum: list[np.ndarray], i: int, j: int) -> list[np.ndarray]:
    """Levels 1..depth of g_i^-1 (x) g_j, the signature over [t_i, t_j].

    ``cum`` holds the running signatures of ``_cumulative``.
    """
    a1 = cum[0][i]
    l1 = cum[0][j] - a1
    out = [l1]
    if len(cum) >= 2:
        a2 = cum[1][i]
        d2 = cum[1][j] - a2
        out.append(d2 - np.einsum("...i,...j->...ij", a1, l1))
    if len(cum) >= 3:
        out.append(
            cum[2][j]
            - cum[2][i]
            - np.einsum("...ij,...l->...ijl", a2, l1)
            - np.einsum("...i,...jl->...ijl", a1, d2)
            + np.einsum("...i,...j,...l->...ijl", a1, a1, l1)
        )
    return out


