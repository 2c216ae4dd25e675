"""Truncated tensor algebra over discrete paths.

Segment signatures, Chen concatenation, the per-interval signature lift of a
sampled path and its Chen coarsening onto coarser grids.  Depth is capped at
3, which covers every Hurst index above 1/4.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fbm import HurstParam, SamplePath, TimeGrid

__all__ = [
    "LinearLift",
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
        _check_depth(self.depth, None)
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
    (n_intervals, dim, ..., dim).  The lift of a block of paths on one grid
    puts a leading member axis before it: (members, n_intervals, dim, ..., dim).
    Chen-consistency across adjacent intervals holds by construction.  The
    depth is checked against the Hurst index as ``lift_path`` checks it.
    """

    grid: TimeGrid
    dim: int
    depth: int
    levels: tuple[np.ndarray, ...]
    hurst: HurstParam | None = None

    def __post_init__(self) -> None:
        _check_depth(self.depth, self.hurst)
        if len(self.levels) != self.depth:
            raise ValueError(f"a depth-{self.depth} lift holds levels 1..{self.depth}")
        n = self.grid.n_points - 1
        lead = self.levels[0].shape[:-2]
        for m, lv in enumerate(self.levels, start=1):
            if len(lead) > 1 or lv.shape != lead + (n,) + (self.dim,) * m:
                raise ValueError(f"level {m} array has wrong shape {lv.shape}")

    @property
    def n_intervals(self) -> int:
        return self.grid.n_points - 1

    @property
    def members(self) -> int | None:
        """Paths in a stacked lift; None for the lift of one path."""
        return self.levels[0].shape[0] if self.levels[0].ndim == 3 else None

    def increment(self, k: int) -> TruncatedTensor:
        """Signature of the k-th grid interval."""
        self._require_one_path()
        return TruncatedTensor(
            self.dim,
            self.depth,
            (np.array(1.0),) + tuple(lv[k] for lv in self.levels),
        )

    def combined(self, i: int, j: int) -> TruncatedTensor:
        """Signature over [t_i, t_j]: the Chen product of intervals i..j-1."""
        self._require_one_path()
        if not 0 <= i < j <= self.n_intervals:
            raise ValueError("need 0 <= i < j <= n_intervals")
        levels = _fold([lv[i:j] for lv in self.levels], j - i)
        return TruncatedTensor(self.dim, self.depth, (np.array(1.0), *(lv[0] for lv in levels)))

    def _require_one_path(self) -> None:
        if self.members is not None:
            raise ValueError("interval signatures are read from the lift of one path")

    def read(self, a: int, b: int, depth: int) -> list[np.ndarray]:
        """Levels 1..depth of intervals [a, b), copied out time-major.

        Level m has shape (b - a, members, dim, ..., dim), one member for the
        lift of one path.
        """
        stacked = self.levels if self.members is not None else [lv[None] for lv in self.levels]
        return [np.ascontiguousarray(lv[:, a:b].swapaxes(0, 1)) for lv in stacked[:depth]]


@dataclass(frozen=True)
class LinearLift:
    """The signature lift of a stack of piecewise-linear paths, held as their values.

    ``values`` has shape (members, n_points, dim), the paths on one grid.
    Nothing beyond the values is stored: ``read`` forms an interval's levels
    when they are needed, with ``lift_path``'s products, so they equal the
    stored lift's byte for byte.  The depth is checked against the Hurst
    index as ``lift_path`` checks it.
    """

    grid: TimeGrid
    values: np.ndarray
    depth: int
    hurst: HurstParam | None = None

    def __post_init__(self) -> None:
        _check_depth(self.depth, self.hurst)
        v = self.values
        if v.ndim != 3 or v.shape[1] != self.grid.n_points:
            raise ValueError(f"values must be (members, {self.grid.n_points}, dim), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def n_intervals(self) -> int:
        return self.grid.n_points - 1

    @property
    def members(self) -> int:
        return self.values.shape[0]

    def read(self, a: int, b: int, depth: int) -> list[np.ndarray]:
        """Levels 1..depth of intervals [a, b), formed time-major from the increments.

        Level m has shape (b - a, members, dim, ..., dim).
        """
        inc = np.empty((b - a, self.members, self.dim))
        np.subtract(self.values[:, a + 1:b + 1], self.values[:, a:b], out=inc.swapaxes(0, 1))
        return [lv.reshape(inc.shape + lv.shape[2:])
                for lv in _linear_levels(inc.reshape(-1, self.dim), depth)]


def segment_signature(increment: np.ndarray, depth: int) -> TruncatedTensor:
    """Signature exp(increment) of a linear segment: level m is Delta^(x)m / m!."""
    delta = np.array(increment, dtype=float).reshape(1, -1)
    levels = [lv[0] for lv in _linear_levels(delta, depth)]
    return TruncatedTensor(delta.shape[1], depth, (np.array(1.0), *levels))


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


def _check_depth(depth: int, hurst: HurstParam | None) -> None:
    """Reject a depth outside 1..MAX_DEPTH, or below the lift requirement of ``hurst``."""
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be 1..{MAX_DEPTH}")
    if hurst is not None and depth < required_depth(hurst):
        raise ValueError(
            f"depth {depth} inconsistent with declared hurst {hurst.value}"
            f" (needs >= {required_depth(hurst)})"
        )


def _linear_levels(flat: np.ndarray, depth: int) -> list[np.ndarray]:
    """Levels 1..depth of the linear segments with increments ``flat`` (k, d).

    Δ itself, then ½Δ⊗Δ of shape (k, d, d) and Δ⊗Δ⊗Δ/6 of shape (k, d, d, d),
    each entry one product of increments in a fixed order and then the
    scaling, whatever the layout of ``flat``.
    """
    levels = [flat]
    if depth >= 2:
        levels.append(0.5 * np.einsum("ki,kj->kij", flat, flat))
    if depth >= 3:
        levels.append(np.einsum("ki,kj,kl->kijl", flat, flat, flat) / 6.0)
    return levels


def lift_path(path: SamplePath | Sequence[SamplePath], depth: int) -> SignaturePath:
    """Per-interval signatures of the sampled path, read as piecewise linear.

    A sequence of paths on one grid is lifted at once into stacked levels with
    a leading member axis; member j's levels equal the lift of path j alone.
    For a path tagged with a Hurst index the depth must be at least the lift
    requirement (2 for H > 1/3, 3 for 1/4 < H <= 1/3).
    """
    paths = [path] if isinstance(path, SamplePath) else list(path)
    first = paths[0]
    # component-major storage, as np.diff leaves a sampler's path, keeps the
    # products below on long contiguous runs
    n, d = first.grid.n_points - 1, first.dim
    delta = np.empty((d, len(paths), n)).transpose(1, 2, 0)
    for out, p in zip(delta, paths):
        if (p.grid, p.dim, p.hurst) != (first.grid, first.dim, first.hurst):
            raise ValueError("stacked paths must share grid, dimension and Hurst index")
        np.subtract(p.values[1:], p.values[:-1], out=out)
    flat = delta.reshape(-1, d)  # members and intervals on one axis, still a view
    higher = _linear_levels(flat, depth)[1:]
    levels = [delta] + [lv.reshape(delta.shape + lv.shape[2:]) for lv in higher]
    if isinstance(path, SamplePath):
        levels = [lv[0] for lv in levels]
    return SignaturePath(first.grid, first.dim, depth, tuple(levels), hurst=first.hurst)


def coarsen(sig: SignaturePath, factor: int) -> SignaturePath:
    """Chen-combine consecutive intervals in blocks of ``factor`` (of each member of a stack)."""
    n = sig.n_intervals
    if factor < 1 or n % factor:
        raise ValueError("factor must divide the interval count")
    if factor == 1:
        return sig
    grid = TimeGrid(n // factor + 1, sig.grid.t_start, sig.grid.t_end)
    return SignaturePath(grid, sig.dim, sig.depth, tuple(_fold(sig.levels, factor)), hurst=sig.hurst)


def _fold(levels: Sequence[np.ndarray], factor: int) -> list[np.ndarray]:
    """Levels 1..depth of the Chen products of consecutive intervals in blocks of ``factor``.

    Level m holds the intervals on the axis before its m tensor axes, after
    any member axis; the blocks take their place, folded interval by interval.
    """
    *lead, n, d = levels[0].shape
    blocks = (*lead, n // factor)
    b = [lv.reshape(blocks + (factor,) + (d,) * m) for m, lv in enumerate(levels, start=1)]
    g = [np.zeros(blocks + (d,) * m) for m in range(1, len(levels) + 1)]
    for r in range(factor):
        a1 = b[0][..., r, :]
        if len(g) >= 3:
            g[2] += (
                b[2][..., r, :, :, :]
                + np.einsum("...i,...jk->...ijk", g[0], b[1][..., r, :, :])
                + np.einsum("...ij,...k->...ijk", g[1], a1)
            )
        if len(g) >= 2:
            g[1] += b[1][..., r, :, :] + np.einsum("...i,...j->...ij", g[0], a1)
        g[0] += a1
    return g
