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
    lead = x0.shape[:-1]
    if x0.shape[-1:] != (n,) or len(lead) > 1:
        raise ValueError(f"x0 must have shape ({n},), or (members, {n}) for a stacked driver")
    if fields.v0(x0).shape != lead + (n,):
        raise ValueError("v0 must return shape (..., n)")
    if fields.v(x0).shape != lead + (n, d):
        raise ValueError("v must return shape (..., n, d)")
    if fields.first_derivatives(x0).shape != lead + (n, n, d):
        raise ValueError("first derivatives must have shape (..., n, n, d)")
    if depth >= 3 and fields.second_derivatives(x0).shape != lead + (n, n, n, d):
        raise ValueError("second derivatives must have shape (..., n, n, n, d)")


def _constant_field_path(
    fields: VectorFieldSet, x0: np.ndarray, path: np.ndarray, grid: TimeGrid
) -> np.ndarray:
    """Exact solution for state-independent fields: x0 + path V^T + (t - t0) V0.

    ``x0`` of shape (..., n) takes ``path`` of shape (..., n_points, d).
    """
    out = path @ fields.v(x0).swapaxes(-1, -2)
    out += x0[..., None, :]
    v0 = fields.v0(x0)
    if np.any(v0):
        out += (grid.points - grid.t_start)[:, None] * v0[..., None, :]
    return out


def _steps(
    fields: VectorFieldSet, x0: np.ndarray, levels: tuple[np.ndarray, ...], dt: float
) -> np.ndarray:
    """States (members, n_steps + 1, n) of the members, advanced together in one time loop.

    The contractions are batched matrix products, one small product per member,
    so a member's states do not depend on the block it is solved in.  A member
    whose state passes the overflow guard goes on, possibly as inf or NaN;
    ``solve`` finds its step afterwards.
    """
    b1, b2 = levels[0], levels[1]
    b3 = levels[2] if len(levels) >= 3 else None
    m, n_steps, d = b1.shape
    n = fields.dim_state
    out = np.empty((m, n_steps + 1, n))
    out[:, 0] = x0
    x = x0
    half_dt2 = 0.5 * dt * dt
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            v0x = fields.v0(x)
            vx = fields.v(x)
            dvx = fields.first_derivatives(x).reshape(m, n, n * d)
            dx = (v0x * dt + (fields.drift_derivatives(x) @ v0x[..., None])[..., 0] * half_dt2
                  + (vx @ b1[:, k, :, None])[..., 0])
            c = vx @ b2[:, k]
            dx += (dvx @ c.reshape(m, n * d, 1))[..., 0]
            if b3 is not None:
                d2vx = fields.second_derivatives(x).reshape(m, n, n * n * d)
                t1 = (vx @ b3[:, k].reshape(m, d, d * d)).reshape(m, n, d, d)
                inner = dvx @ t1.reshape(m, n * d, d)
                dx += (dvx @ inner.reshape(m, n * d, 1))[..., 0]
                u = np.einsum("...lb,...mbc->...mlc", vx, t1)
                dx += (d2vx @ u.reshape(m, n * n * d, 1))[..., 0]
            x = x + dx
            out[:, k + 1] = x
    return out


def solve(
    fields: VectorFieldSet,
    x0: np.ndarray,
    driver: SignaturePath,
    scheme: SolverScheme,
) -> SamplePath | list[SamplePath | SolverError]:
    """One state per grid point of the driver.

    The step-2 update contracts level-1/level-2 driver increments against V
    and its first derivatives (plus the drift Taylor pair V0 dt and
    DV0 V0 dt^2/2); step-3 adds level-3 contractions with second derivatives.
    Deterministic given its inputs; raises SolverError with the step index if
    the state passes the overflow guard or turns NaN.

    A stacked driver (``driver.members`` paths) takes starts ``x0`` of shape
    (members, n) and is solved in one time loop.  It returns one entry per
    member: its solution, or the SolverError that names the step where its
    state failed the guard.  Member j's solution equals the solve of member j
    alone, bit for bit.
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
    stacked = driver.members is not None
    if x0.shape[:-1] != ((driver.members,) if stacked else ()):
        raise ValueError("x0 needs one start per member of the driver")
    starts = x0 if stacked else x0[None]
    levels = tuple(lv if stacked else lv[None] for lv in driver.levels[:scheme.depth])

    grid = driver.grid
    if fields.constant:
        # state-independent fields: derivative contractions vanish identically
        path = np.zeros(levels[0].shape[:1] + (grid.n_points, driver.dim))
        np.cumsum(levels[0], axis=1, out=path[:, 1:])
        states = _constant_field_path(fields, starts, path, grid)
    else:
        states = _steps(fields, starts, levels, grid.spacing)
    # the guard, also against NaN: a member fails at its first bad step
    bad = ~(np.abs(states[:, 1:]) <= OVERFLOW_GUARD).all(axis=2)
    out = [SolverError(f"state overflow at step {int(np.argmax(row)) + 1}") if row.any()
           else SamplePath(grid, values, hurst=driver.hurst) for values, row in zip(states, bad)]
    if stacked:
        return out
    if isinstance(out[0], SolverError):
        raise out[0]
    return out[0]
