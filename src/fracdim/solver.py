"""Rough-differential-equation stepping driven by lifted paths.

Two Taylor-type increment schemes consume the signature lift: a step-2 update
(level-1 and level-2 contractions) valid for H > 1/3 and a step-3 update that
adds level-3 contractions with second derivatives for 1/4 < H <= 1/3.
``_solve_states``, the one core, also takes constant sets' exact path and guards every member.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dimension import _BLOCK_ENTRIES
from .fbm import HurstParam, SamplePath
from .fields import VectorFieldSet
from .roughpath import LinearLift, SignaturePath, required_depth

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
    for x in sample_points:
        v = fields.v(np.asarray(x, dtype=float))
        worst = min(worst, float(np.linalg.eigvalsh(v @ v.T).min()))
    return EllipticityReport(worst, worst >= lam)


def _validate_shapes(fields: VectorFieldSet, x0: np.ndarray) -> None:
    """The starts' shape, and the drift's at them; the jet's shapes are the table's."""
    n = fields.dim_state
    lead = x0.shape[:-1]
    if x0.shape[-1:] != (n,) or len(lead) > 1:
        raise ValueError(f"x0 must have shape ({n},), or (members, {n}) for a stacked driver")
    if fields.drift is not None:
        for piece, value, shape in zip(("V0", "DV0"), fields.drift(x0), ((n,), (n, n))):
            if np.shape(value) != lead + shape:
                raise ValueError(f"{piece} must have shape {lead + shape}, got {np.shape(value)}")


def _constant_field_path(fields: VectorFieldSet, x0: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Exact solution for state-independent fields without a drift: x0 + (path - path_0) V^T.

    ``x0`` (..., n) takes ``path`` (..., n_points, d); a path from 0 adds no rounding to x0 + path V^T.
    """
    out = path @ fields.v(x0).swapaxes(-1, -2)
    out += x0[..., None, :] - out[..., :1, :]
    return out


def _steps(
    fields: VectorFieldSet, x0: np.ndarray, driver: SignaturePath | LinearLift, depth: int,
    dt: float,
) -> np.ndarray:
    """States (members, n_steps + 1, n) of the members, advanced together in one time loop.

    Every buffer is allocated here, once per solve: the states, the features,
    the flat jet with its V, DV and D²V views, one output per contraction,
    and the time-major states of one segment.  The driver's first ``depth`` levels
    are read a segment of up to ``_BLOCK_ENTRIES // (members d^depth)`` steps
    at a time, time-major (``read``: a stored lift's are copied out, a
    ``LinearLift``'s are formed from its increments), so the loop holds no
    more of the lift than one segment.  Each step writes the features, takes
    one product with the field table into the jet, adds the base row, and
    contracts with ``np.matmul(..., out=)`` (step 3's V·b3 product with
    ``np.einsum(..., out=)``) against the segment's next rows, writing the
    new state into the segment's next state row.  So a step allocates no
    array, apart from a drift's (V0, DV0) and their Taylor pair.  Each
    contraction is a batched product over the members' own small matrices,
    so a member's states do not depend on the block it is solved in.  A
    member whose state passes the overflow guard goes on, possibly as inf
    or NaN; ``_solve_states`` finds its step afterwards.
    """
    m, n, d = x0.shape[0], fields.dim_state, driver.dim
    n_steps = driver.n_intervals
    seg = max(1, min(n_steps, _BLOCK_ENTRIES // (m * d**depth)))
    xs = np.empty((seg, m, n))
    coef, base = fields.cuts[depth - 1]
    feats = np.zeros((m, coef.shape[0]))
    write = fields.features(feats) if fields.features is not None else None
    flat = np.empty((m, coef.shape[1]))
    vx, dv, *d2v = fields.views(flat, depth)
    dvx = dv.reshape(m, n, n * d)
    col, term = np.empty((m, n, 1)), np.empty((m, n, 1))
    dx, term_dx = col[..., 0], term[..., 0]
    c = np.empty((m, n, d))
    c_col = c.reshape(m, n * d, 1)
    if depth >= 3:
        d2vx = d2v[0].reshape(m, n, n * n * d)
        t1 = np.empty((m, n, d * d))
        t1_blocks, t1_rows = t1.reshape(m, n, d, d), t1.reshape(m, n * d, d)
        inner = np.empty((m, n, d))
        inner_col = inner.reshape(m, n * d, 1)
        u = np.empty((m, n, n, d))
        u_col = u.reshape(m, n * n * d, 1)
    out = np.empty((m, n_steps + 1, n))
    out[:, 0] = x0
    x = np.array(x0)
    half_dt2 = 0.5 * dt * dt
    drift = fields.drift
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, n_steps, seg):
            b1, b2, *b3 = driver.read(a, min(n_steps, a + seg), depth)
            size = len(b1)
            b3 = b3[0].reshape(size, m, d, d * d) if b3 else itertools.repeat(None)
            for b1k, b2k, b3k, xk in zip(b1[..., None], b2, b3, xs):
                if write is not None:
                    write(x)
                np.matmul(feats, coef, out=flat)
                flat += base
                np.matmul(vx, b1k, out=col)
                if drift is not None:
                    v0x, dv0x = drift(x)
                    dx += v0x * dt + (dv0x @ v0x[..., None])[..., 0] * half_dt2
                np.matmul(vx, b2k, out=c)
                np.matmul(dvx, c_col, out=term)
                dx += term_dx
                if depth >= 3:
                    np.matmul(vx, b3k, out=t1)
                    np.matmul(dvx, t1_rows, out=inner)
                    np.matmul(dvx, inner_col, out=term)
                    dx += term_dx
                    np.einsum("...lb,...mbc->...mlc", vx, t1_blocks, out=u)
                    np.matmul(d2vx, u_col, out=term)
                    dx += term_dx
                x = np.add(x, dx, out=xk)
            out[:, a + 1:a + 1 + size] = xs[:size].swapaxes(0, 1)
    return out


def _solve_states(
    fields: VectorFieldSet, starts: np.ndarray, driver: SignaturePath | LinearLift, depth: int
) -> tuple[np.ndarray, dict[int, SolverError]]:
    """The states (members, n_points, n) of ``starts`` and the guard's {row: SolverError}.

    A constant set takes the exact path of ``driver.path()``, any other
    ``_steps``.  A member fails at its first step past the guard or NaN.
    """
    if fields.constant:
        # state-independent fields: derivative contractions vanish identically
        states = _constant_field_path(fields, starts, driver.path())
    else:
        states = _steps(fields, starts, driver, depth, driver.grid.spacing)
    # a block of members at a time, so the temporaries stay near _BLOCK_ENTRIES
    failed, size = {}, max(1, _BLOCK_ENTRIES // states[0].size)
    for a in range(0, len(states), size):
        bad = ~(np.abs(states[a:a + size, 1:]) <= OVERFLOW_GUARD).all(axis=2)
        for j in np.flatnonzero(bad.any(axis=1)):
            failed[a + int(j)] = SolverError(f"state overflow at step {int(np.argmax(bad[j])) + 1}")
    return states, failed


def solve(
    fields: VectorFieldSet,
    x0: np.ndarray,
    driver: SignaturePath | LinearLift,
    scheme: SolverScheme,
) -> SamplePath | list[SamplePath | SolverError]:
    """One state per grid point of the driver.

    The step-2 update contracts level-1/level-2 driver increments against V
    and its first derivatives, evaluated together as one product of the
    field's features with its coefficient table per step, into buffers the
    solve allocates once, plus the drift Taylor pair V0 dt and DV0 V0 dt^2/2
    when the set has a drift; step-3 adds level-3 contractions with second
    derivatives.  A set with no features and no drift (``fields.constant``)
    takes the exact path x0 + (B - B_0) V^T instead, B a ``LinearLift``'s
    values or a stored lift's summed increments.
    Deterministic given its inputs; raises SolverError with the step index if
    the state passes the overflow guard or turns NaN.

    The driver is a stored lift (``lift_path``, ``coarsen``) or a
    ``LinearLift``, which holds only the path and forms its levels a segment
    at a time; the two give the same states, byte for byte, except at
    rounding on a constant set.  A stacked driver (``driver.members`` paths)
    takes starts ``x0`` of shape (members, n) and is solved in one time loop.
    It returns one entry per member: its solution, or the SolverError that
    names the step where its state failed the guard.  Member j's solution
    equals the solve of member j alone, bit for bit.
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
    _validate_shapes(fields, x0)
    stacked = driver.members is not None
    if x0.shape[:-1] != ((driver.members,) if stacked else ()):
        raise ValueError("x0 needs one start per member of the driver")
    states, failed = _solve_states(fields, x0 if stacked else x0[None], driver, scheme.depth)
    if not stacked and failed:
        raise failed[0]
    out = [failed[j] if j in failed else SamplePath(driver.grid, values, hurst=driver.hurst)
           for j, values in enumerate(states)]
    return out if stacked else out[0]
