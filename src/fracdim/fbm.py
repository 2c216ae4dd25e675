"""Fractional Brownian motion synthesis and covariance structure.

Exact Gaussian samplers (dense Cholesky and circulant embedding), the fBm
covariance function, the Volterra kernel representation, uniform time grids,
and the shared binary path format used by the rest of the package.
"""
from __future__ import annotations

import functools
import math
import numbers
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np
# numpy imports these at first use; import them here, so that the first draw of a
# run, or of each forked pool worker, does not pay for it inside the run
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

__all__ = [
    "CHOLESKY_MAX_N",
    "CovarianceGrid",
    "HurstParam",
    "SamplePath",
    "SynthesisError",
    "TimeGrid",
    "build_covariance_grid",
    "component_rng",
    "covariance",
    "empirical_holder_exponent",
    "generate_cholesky",
    "generate_circulant",
    "kernel_kh",
    "read_path",
    "write_path",
]

CHOLESKY_MAX_N = 8192
#: smallest eigenvalue tolerated before any jitter is attempted
TOL_PSD = 1e-10
#: tolerated relative mass of clipped negative circulant eigenvalues
NEG_EIG_TOL = 1e-8
_JITTER_ROUNDS = 3
_JITTER_BASE = 1e-12
#: most circulant embedding values one FFT of ``generate_circulant`` holds, counted
#: in whole streams of M values: whole seeds when they fit, else as many of a seed's
#: components as fit; from 2^15 steps (M = 2^16) each component is one FFT alone
_GROUP_VALUES = 2**16

PATH_MAGIC = b"FRD1"
PATH_VERSION = 2
# version, hurst, d, n_points, t_start, t_end, seed, has_seed (1 if tagged)
_HEADER = struct.Struct("<IdIQddQI")
_HEADER_V1 = struct.Struct("<IdIQddQ")  # as v2 without has_seed; seed 0 meant untagged


class SynthesisError(RuntimeError):
    """Exact Gaussian synthesis could not be completed."""


@dataclass(frozen=True)
class HurstParam:
    """Hurst regularity index, restricted to the liftable range (1/4, 1)."""

    value: float

    def __post_init__(self) -> None:
        if not (0.25 < self.value < 1.0):
            raise ValueError(f"hurst must lie in (0.25, 1), got {self.value}")


def _hurst_value(h: HurstParam | float) -> float:
    if isinstance(h, HurstParam):
        return h.value
    return HurstParam(float(h)).value


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_points inclusive endpoints."""

    n_points: int
    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError("grid needs at least two points")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValueError("grid requires 0 <= t_start < t_end")

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        pts = self.t_start + self.spacing * np.arange(self.n_points)
        pts[-1] = self.t_end
        return pts

    def window(self, t_lo: float, t_hi: float) -> slice:
        """Index slice of the grid points inside [t_lo, t_hi], each end widened by 1e-12."""
        if math.isnan(t_lo) or math.isnan(t_hi):
            raise ValueError(f"a window end is NaN: [{t_lo}, {t_hi}]")
        pts = self.points
        idx = np.nonzero((pts >= t_lo - 1e-12) & (pts <= t_hi + 1e-12))[0]
        if idx.size < 2:
            raise ValueError("restriction keeps fewer than two grid points")
        return slice(int(idx[0]), int(idx[-1]) + 1)


@dataclass(frozen=True)
class SamplePath:
    """A d-dimensional discretized path on a uniform grid.

    ``values`` has one row per grid point.  ``hurst`` and ``seed`` are
    provenance tags carried through transformations where they stay valid.
    """

    grid: TimeGrid
    values: np.ndarray
    hurst: HurstParam | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise ValueError(
                f"values must be (n_points, d), got {v.shape} for n_points={self.grid.n_points}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def restrict(self, t_lo: float, t_hi: float) -> "SamplePath":
        """Contiguous sub-path with grid times inside [t_lo, t_hi] (``TimeGrid.window``)."""
        window = self.grid.window(t_lo, t_hi)
        pts = self.grid.points
        sub = TimeGrid(window.stop - window.start, float(pts[window.start]),
                       float(pts[window.stop - 1]))
        return SamplePath(sub, self.values[window], hurst=self.hurst, seed=self.seed)

    def decimate(self, factor: int) -> "SamplePath":
        """Keep every factor-th point; factor must divide the interval count."""
        n = self.grid.n_points - 1
        if not isinstance(factor, numbers.Integral) or factor < 1 or n % factor:
            raise ValueError(f"factor must be an integer dividing the {n} grid intervals: {factor!r}")
        sub = TimeGrid(n // factor + 1, self.grid.t_start, self.grid.t_end)
        return SamplePath(sub, self.values[::factor], hurst=self.hurst, seed=self.seed)


@dataclass(frozen=True)
class CovarianceGrid:
    """Covariance matrix of one fBm component over the positive grid points."""

    grid: TimeGrid
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.grid.n_points:
            raise ValueError("entries must be square and match the grid")
        if not np.array_equal(m, m.T):
            raise ValueError("covariance matrix must be exactly symmetric")
        object.__setattr__(self, "entries", m)


def component_rng(seed: int, component: int = 0) -> np.random.Generator:
    """Counter-based Philox stream for one path component.

    Streams keyed by distinct (seed, component) pairs are independent, which
    keeps parallel ensembles reproducible regardless of execution order.
    """
    key = np.array([seed % 2**64, component % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fill_normals(rows: np.ndarray, streams: Iterable[tuple[int, int]]) -> None:
    """Fill each row of ``rows`` with what ``component_rng(seed, j).standard_normal``
    draws, for each (seed, j) of ``streams`` in turn.

    Philox is counter-based and keyed, so one generator re-keyed for each
    stream, with counter 0 and an empty buffer, replaces a generator per stream.
    """
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    normal = np.random.Generator(bits).standard_normal
    empty = np.zeros(4, dtype=np.uint64)
    for row, (s, j) in zip(rows, streams):
        key = np.array([s % 2**64, j], dtype=np.uint64)
        bits.state = {"bit_generator": "Philox", "state": {"counter": empty, "key": key},
                      "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        normal(out=row)


def _stream_normals(seeds: Sequence[int], d: int, size: int) -> np.ndarray:
    """(len(seeds), d, size) standard normals; row (k, j) is ``component_rng(seeds[k], j)``'s."""
    out = np.empty((len(seeds), d, size))
    _fill_normals(out.reshape(-1, size), ((s, j) for s in seeds for j in range(d)))
    return out


def covariance(s: float, t: float, h: HurstParam | float) -> float:
    """fBm covariance (s^2H + t^2H - |t-s|^2H) / 2 of one component."""
    H = _hurst_value(h)
    if not (math.isfinite(s) and math.isfinite(t)) or s < 0 or t < 0:
        raise ValueError("times must be finite and nonnegative")
    e = 2.0 * H
    return 0.5 * (s**e + t**e - abs(t - s) ** e)


def kernel_kh(t: float, s: float, h: HurstParam | float) -> float:
    """Volterra kernel K_H(t, s) of the moving-average representation, 0 < s < t.

    Normalized so that int_0^(s^t) K_H(t,u) K_H(s,u) du reproduces covariance(s, t).
    The H = 1/2 kernel is the plain indicator of u < t.
    """
    H = _hurst_value(h)
    if not (0.0 < s < t):
        raise ValueError("kernel requires 0 < s < t")
    if H == 0.5:
        return 1.0
    from scipy import integrate, special  # here, so the run path loads no scipy
    if H > 0.5:
        c = math.sqrt(H * (2.0 * H - 1.0) / special.beta(2.0 - 2.0 * H, H - 0.5))
        # integrand (u-s)^(H-3/2) u^(H-1/2); the algebraic endpoint weight is exact in QUADPACK
        integral, _ = integrate.quad(
            lambda u: u ** (H - 0.5), s, t, weight="alg", wvar=(H - 1.5, 0.0)
        )
        return c * s ** (0.5 - H) * integral
    c = math.sqrt(2.0 * H / ((1.0 - 2.0 * H) * special.beta(1.0 - 2.0 * H, H + 0.5)))
    head = c * (s / t) ** (0.5 - H) * (t - s) ** (H - 0.5)
    integral, _ = integrate.quad(
        lambda u: u ** (H - 1.5), s, t, weight="alg", wvar=(H - 0.5, 0.0)
    )
    return head + c * (0.5 - H) * s ** (0.5 - H) * integral


def _positive_subgrid(grid: TimeGrid) -> TimeGrid:
    """Grid without the pinned t=0 point."""
    if grid.t_start == 0.0:
        return TimeGrid(grid.n_points - 1, grid.spacing, grid.t_end)
    return grid


def _covariance_matrix(pos: np.ndarray, H: float) -> np.ndarray:
    e = 2.0 * H
    p = pos**e
    return 0.5 * (p[:, None] + p[None, :] - np.abs(pos[:, None] - pos[None, :]) ** e)


@functools.lru_cache(maxsize=16)
def _grid_factorization(grid: TimeGrid, H: float) -> tuple[np.ndarray, np.ndarray]:
    """(entries, cholesky factor) over the positive points, jittered if needed."""
    sub = _positive_subgrid(grid)
    if sub.n_points < 2:
        raise ValueError("need at least two positive grid points")
    M = _covariance_matrix(sub.points, H)
    jitter = _JITTER_BASE * np.trace(M) / M.shape[0]
    for attempt in range(_JITTER_ROUNDS + 1):
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            if attempt == 0 and np.linalg.eigvalsh(M).min() < -TOL_PSD:
                raise SynthesisError(
                    "covariance matrix is not PSD beyond floating-point tolerance"
                ) from None
            if attempt == _JITTER_ROUNDS:
                raise SynthesisError("Cholesky failed after exhausting the jitter budget") from None
            M = M + jitter * np.eye(M.shape[0])
        else:
            M.flags.writeable = False
            L.flags.writeable = False
            return M, L
    raise AssertionError("unreachable")


def build_covariance_grid(grid: TimeGrid, h: HurstParam | float) -> CovarianceGrid:
    """Covariance matrix over the positive grid points (t=0 row is dropped)."""
    H = _hurst_value(h)
    sub = _positive_subgrid(grid)
    entries, _ = _grid_factorization(grid, H)
    return CovarianceGrid(sub, entries.copy())


def generate_cholesky(
    grid: TimeGrid, d: int, h: HurstParam | float, seed: int
) -> SamplePath:
    """Exact d-dimensional fBm sample via dense Cholesky factorization.

    Components are independent streams of the same seed; the path is pinned to
    zero at t=0 when the grid starts there.  Deterministic for a fixed seed.
    """
    H = _hurst_value(h)
    if d < 1:
        raise ValueError("d must be >= 1")
    if grid.n_points > CHOLESKY_MAX_N:
        raise ValueError(f"grid exceeds {CHOLESKY_MAX_N} points; use generate_circulant")
    _, L = _grid_factorization(grid, H)
    v = L @ _stream_normals([seed], d, L.shape[0])[0].T.copy()
    if grid.t_start == 0.0:
        v = np.vstack([np.zeros((1, d)), v])
    return SamplePath(grid, v, hurst=HurstParam(H), seed=seed)


@functools.lru_cache(maxsize=16)
def _embedding_eigenvalues(H: float, m: int) -> np.ndarray:
    """FFT eigenvalues of the circulant embedding of unit-spacing fGn, m increments."""

    def eigs(mm: int) -> np.ndarray:
        k = np.arange(mm + 1, dtype=float)
        gamma = 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
        row = np.concatenate([gamma[:-1], [gamma[mm]], gamma[mm - 1 : 0 : -1]], dtype=complex)
        del k, gamma  # the transform's peak holds the row alone
        return np.fft.fft(row, out=row).real.copy()  # owns its data, not a view of row

    lam = eigs(m)
    for doubled in (False, True):
        neg = lam < 0
        if not neg.any():
            break
        if -lam[neg].sum() <= NEG_EIG_TOL * np.abs(lam).sum():
            lam = np.clip(lam, 0.0, None)
            break
        if doubled:
            raise SynthesisError("circulant embedding stayed indefinite after doubling")
        lam = eigs(2 * m)
    lam.flags.writeable = False
    return lam


def _circulant_values(
    grid: TimeGrid, d: int, h: HurstParam | float, seeds: Sequence[int]
) -> np.ndarray:
    """The circulant draws of ``seeds`` as one (len(seeds), n_points, d) array.

    Each (seed, component) stream is ``component_rng``'s, drawn into its row of
    one complex buffer, where its Hermitian vector is built and transformed in
    place.  A transform holds ``_GROUP_VALUES // M`` streams, at least one: whole
    seeds, else a long seed's components one or more at a time.  Each row is
    bit-identical to a draw of its seed alone.
    """
    H = _hurst_value(h)
    if d < 1:
        raise ValueError("d must be >= 1")
    if grid.t_start != 0.0:
        raise ValueError("circulant synthesis requires a grid starting at 0")
    m = grid.n_points - 1
    lam = _embedding_eigenvalues(H, m)
    M = lam.size
    half = M // 2
    scale = np.sqrt(lam)
    step = grid.spacing**H
    per = max(1, _GROUP_VALUES // M)  # streams per transform
    size, width = (per // d, d) if per >= d else (1, per)
    buf = np.empty(min(size, len(seeds)) * width * M, dtype=complex)
    values = np.zeros((len(seeds), m + 1, d))
    for a in range(0, len(seeds), size):
        group = seeds[a:a + size]
        for c in range(0, d, width):
            comps = range(c, min(d, c + width))
            z = buf[:len(group) * len(comps) * M].reshape(len(group), len(comps), M)
            # each stream's M normals fill the float upper half of its row
            zf = z.view(float)
            _fill_normals(zf.reshape(-1, 2 * M)[:, M:], ((s, j) for s in group for j in comps))
            ends = zf[..., M:M + 2].copy()  # normals 0 and 1: entries 0 and half
            zf[..., 2:M:2] = zf[..., M + 2:M + half + 1]  # real parts: normals 2..half
            zf[..., 3:M:2] = zf[..., M + half + 1:]  # imaginary parts: normals half+1..M-1
            z[..., 1:half] /= math.sqrt(2.0)
            z[..., [0, half]] = ends
            np.conjugate(z[..., half - 1:0:-1], out=z[..., half + 1:])
            z *= scale
            np.fft.ifft(z, axis=-1, out=z)
            z *= math.sqrt(M)
            re = z.real[..., :m]
            re *= step
            out = values[a:a + len(group), 1:, c:c + len(comps)].transpose(0, 2, 1)
            np.cumsum(re, axis=-1, out=out)
    return values


def generate_circulant(
    grid: TimeGrid, d: int, h: HurstParam | float, seed: int | Sequence[int]
) -> SamplePath | list[SamplePath]:
    """O(n log n) fBm sample via circulant embedding of the increment covariance.

    Distributionally equivalent to generate_cholesky; requires a grid starting
    at zero so increments form stationary fractional Gaussian noise.  A
    sequence of seeds gives one path per seed, each bit-identical to its own
    call (see ``_circulant_values``).
    """
    H = _hurst_value(h)
    seeds = [seed] if isinstance(seed, numbers.Integral) else list(seed)
    values = _circulant_values(grid, d, H, seeds)
    paths = [SamplePath(grid, v, hurst=HurstParam(H), seed=s) for s, v in zip(seeds, values)]
    return paths[0] if isinstance(seed, numbers.Integral) else paths


def empirical_holder_exponent(path: SamplePath) -> float:
    """Regularity estimate: slope of the log root-mean-square increment against
    log lag, over dyadic lags up to 64 and below n/8.  The RMS increment scales
    exactly like lag^H for stationary-increment paths.
    """
    v = path.values
    n = v.shape[0]
    lags = 2 ** np.arange(7)
    lags = lags[lags < n // 8]
    ys = []
    for lag in lags:
        sizes = np.sqrt(((v[lag:] - v[:-lag]) ** 2).sum(axis=1))
        ys.append(math.log(float(np.sqrt((sizes**2).mean()))))
    xs = np.log(lags * path.grid.spacing)
    slope, _ = np.polyfit(xs, np.array(ys), 1)
    return float(slope)


def write_path(path: SamplePath, dest: str | Path | BinaryIO) -> None:
    """Serialize in the shared binary path format (magic FRD1, little-endian)."""
    hurst = path.hurst.value if path.hurst is not None else math.nan
    seed = path.seed if path.seed is not None else 0
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} does not fit the format's u64 field [0, 2^64)")
    header = PATH_MAGIC + _HEADER.pack(
        PATH_VERSION,
        hurst,
        path.dim,
        path.grid.n_points,
        path.grid.t_start,
        path.grid.t_end,
        seed,
        path.seed is not None,
    )
    body = np.ascontiguousarray(path.values, dtype="<f8").tobytes()
    if hasattr(dest, "write"):
        dest.write(header)
        dest.write(body)
    else:
        with open(dest, "wb") as fh:
            fh.write(header)
            fh.write(body)


def read_path(src: str | Path | BinaryIO) -> SamplePath:
    """Read a path serialized by write_path, in format version 2 or 1."""
    if hasattr(src, "read"):
        raw = src.read()
    else:
        raw = Path(src).read_bytes()
    if raw[:4] != PATH_MAGIC:
        raise ValueError("not a path file (bad magic)")
    version = struct.unpack_from("<I", raw, 4)[0]
    header = {1: _HEADER_V1, PATH_VERSION: _HEADER}.get(version)
    if header is None:
        raise ValueError(f"unsupported path format version {version}")
    _, hurst, d, n, t0, t1, seed, *has_seed = header.unpack_from(raw, 4)
    has_seed = has_seed[0] if has_seed else seed != 0  # v1 wrote an untagged seed as 0
    offset = 4 + header.size
    if len(raw) - offset != 8 * n * d:
        raise ValueError(
            f"payload is {len(raw) - offset} bytes; the header declares {n}x{d} float64 values"
        )
    values = np.frombuffer(raw, dtype="<f8", count=n * d, offset=offset).reshape(n, d)
    return SamplePath(
        TimeGrid(n, t0, t1),
        values.copy(),
        hurst=None if math.isnan(hurst) else HurstParam(hurst),
        seed=seed if has_seed else None,
    )
