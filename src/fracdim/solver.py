"""Rough-differential-equation stepping driven by lifted paths.

Two Taylor-type increment schemes consume the signature lift: a step-2 update
(level-1 and level-2 contractions) valid for H > 1/3 and a step-3 update that
adds level-3 contractions with second derivatives for 1/4 < H <= 1/3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fbm import HurstParam, SamplePath, TimeGrid
from .fields import VectorFieldSet
from .roughpath import SignaturePath, required_depth

__all__ = [
    "EllipticityReport",
    "SolverError",
    "SolverScheme",
    "check_ellipticity",
    "scheme_for",
    "solve",
]

OVERFLOW_GUARD = 1e12
_SCHEME_DEPTH = {"step2_davie": 2, "step3": 3}


class SolverError(RuntimeError):
    """State blow-up or inconsistent solver configuration."""


@dataclass(frozen=True)
class SolverScheme:
    """Increment scheme choice."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _SCHEME_DEPTH:
            raise ValueError(f"unknown scheme kind '{self.kind}'")

    @property
    def depth(self) -> int:
        return _SCHEME_DEPTH[self.kind]


def scheme_for(h: HurstParam | float, kind: str = "auto") -> SolverScheme:
    """Checked scheme for Hurst index h.

    ``auto`` resolves to step2_davie above H = 1/3 and step3 at or below;
    step2_davie is rejected for H <= 1/3.
    """
    depth = required_depth(h)
    if kind == "auto":
        kind = "step2_davie" if depth == 2 else "step3"
    scheme = SolverScheme(kind)
    if scheme.depth < depth:
        raise ValueError("step3 is required for H <= 1/3")
    return scheme


@dataclass(frozen=True)
class EllipticityReport:
    lambda_min_observed: float
    sample_points: list[np.ndarray]
    requested_lambda: float
    passed: bool


def check_ellipticity(
    fields: VectorFieldSet, lam: float, sample_points: list[np.ndarray]
) -> EllipticityReport:
    """Smallest eigenvalue of V V* over the sampled states versus lambda."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if fields.dim_state != fields.dim_noise:
        raise ValueError(
            "uniform ellipticity requires a square system (state dim == noise dim)"
        )
    if not sample_points:
        raise ValueError("sample_points must be non-empty")
    worst = np.inf
    pts = [np.asarray(p, dtype=float) for p in sample_points]
    for x in pts:
        v = fields.v(x)
        worst = min(worst, float(np.linalg.eigvalsh(v @ v.T).min()))
    return EllipticityReport(worst, pts, lam, worst >= lam)


def _validate_shapes(fields: VectorFieldSet, x0: np.ndarray, depth: int) -> None:
    n, d = fields.dim_state, fields.dim_noise
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    if fields.v0(x0).shape != (n,):
        raise ValueError("v0 must return shape (n,)")
    if fields.v(x0).shape != (n, d):
        raise ValueError("v must return shape (n, d)")
    if fields.first_derivatives(x0).shape != (n, n, d):
        raise ValueError("first derivatives must have shape (n, n, d)")
    if depth >= 3 and fields.second_derivatives(x0).shape != (n, n, n, d):
        raise ValueError("second derivatives must have shape (n, n, n, d)")


def _constant_field_path(
    fields: VectorFieldSet, x0: np.ndarray, path: np.ndarray, grid: TimeGrid
) -> np.ndarray:
    """Exact solution for state-independent fields: x0 + path V^T + (t - t0) V0."""
    out = x0[None, :] + path @ fields.v(x0).T
    v0 = fields.v0(x0)
    if np.any(v0):
        out = out + np.outer(grid.points - grid.t_start, v0)
    return out


def solve(
    fields: VectorFieldSet,
    x0: np.ndarray,
    driver: SignaturePath,
    scheme: SolverScheme,
) -> SamplePath:
    """One state per grid point of the driver.

    The step-2 update contracts level-1/level-2 driver increments against V
    and its first derivatives (plus the drift Taylor pair V0 dt and
    DV0 V0 dt^2/2); step-3 adds level-3 contractions with second derivatives.
    Deterministic given its inputs; aborts with the step index if the state
    passes the overflow guard or turns NaN.
    """
    x0 = np.asarray(x0, dtype=float)
    if driver.dim != fields.dim_noise:
        raise ValueError("driver dimension must match the noise dimension")
    if driver.depth < scheme.depth:
        raise ValueError(
            f"{scheme.kind} needs driver depth >= {scheme.depth}, got {driver.depth}"
        )
    if driver.hurst is not None:
        scheme_for(driver.hurst, scheme.kind)
    _validate_shapes(fields, x0, scheme.depth)

    grid = driver.grid
    b1 = driver.levels[0]
    if fields.constant:
        # state-independent fields: derivative contractions vanish identically
        path = np.concatenate([np.zeros((1, driver.dim)), np.cumsum(b1, axis=0)], axis=0)
        return SamplePath(grid, _constant_field_path(fields, x0, path, grid), hurst=driver.hurst)

    b2 = driver.levels[1] if scheme.depth >= 2 else None
    b3 = driver.levels[2] if scheme.depth >= 3 else None
    n_steps = driver.n_intervals
    out = np.empty((n_steps + 1, fields.dim_state))
    out[0] = x0
    x = x0
    dt = grid.spacing
    half_dt2 = 0.5 * dt * dt
    for k in range(n_steps):
        v0x = fields.v0(x)
        vx = fields.v(x)
        dvx = fields.first_derivatives(x)
        dx = v0x * dt + fields.drift_derivatives(x) @ v0x * half_dt2 + vx @ b1[k]
        c = vx @ b2[k]
        dx += np.tensordot(dvx, c, 2)
        if b3 is not None:
            d2vx = fields.second_derivatives(x)
            t1 = np.tensordot(vx, b3[k], axes=(1, 0))
            inner = np.tensordot(dvx, t1, axes=([1, 2], [0, 1]))
            dx += np.tensordot(dvx, inner, 2)
            u = np.einsum("lb,mbc->mlc", vx, t1)
            dx += np.tensordot(d2vx, u, 3)
        x = x + dx
        if not (np.abs(x).max() <= OVERFLOW_GUARD):  # also catches NaN
            raise SolverError(f"state overflow at step {k + 1}")
        out[k + 1] = x
    return SamplePath(grid, out, hurst=driver.hurst)
