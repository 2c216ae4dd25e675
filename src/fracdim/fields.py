"""Vector-field sets for the driven state equation, plus a named catalog.

The diffusion matrix convention is V(x)[i, j] = i-th component of the j-th
noise field.  A set's ``jet(x, order)`` returns the first ``order`` items of
(V, DV, D²V), evaluated together, laid out as:

* ``V[i, j]``
* ``DV[i, l, j]``     = d V[i, j] / d x_l
* ``D²V[i, m, l, j]`` = d^2 V[i, j] / (d x_m d x_l)

Its ``drift(x)`` returns (V0, DV0) with ``DV0[i, l]`` = d V0[i] / d x_l, or
is None when V0 is identically zero.

Both take stacked states: ``x`` of shape (..., n) gives V of shape
(..., n, d), DV of shape (..., n, n, d), and so on, one slice per state, so
the solver can advance a block of members at once.

``elliptic_sin_2d``'s jet is one product of the features (sin x, cos x)
with a coefficient table: one row per feature, one column per slot of V,
DV and D²V in that order, each block in C order.  The derivative columns
are V's columns differentiated, so the three cannot drift apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FIELD_CATALOG",
    "VectorFieldSet",
    "make_drift_only",
    "make_elliptic_sin_2d",
    "make_geometric_1d",
    "make_identity",
    "resolve_fields",
]


@dataclass(frozen=True)
class VectorFieldSet:
    """Diffusion fields V1..Vd as a jet, and an optional drift V0.

    ``constant`` marks state-independent V0 and V, which lets the solver take
    its exact cumulative-sum path.
    """

    dim_state: int
    dim_noise: int
    jet: Callable[[np.ndarray, int], tuple[np.ndarray, ...]]
    drift: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    constant: bool = False
    name: str = ""

    def v(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 1)[0]

    def first_derivatives(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 2)[1]

    def second_derivatives(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 3)[2]

    def v0(self, x: np.ndarray) -> np.ndarray:
        """The drift V0 at ``x``; zeros for a set without a drift."""
        if self.drift is None:
            return _zeros(x, self.dim_state)
        return self.drift(x)[0]


def _zeros(x: np.ndarray, *shape: int) -> np.ndarray:
    """Zeros of shape (..., *shape) for the stacked states ``x`` of shape (..., n)."""
    return np.zeros(x.shape[:-1] + shape)


def _zero_derivatives(x: np.ndarray, order: int, dim: int) -> tuple[np.ndarray, ...]:
    """The zero DV, D²V of a state-independent square V, up to ``order``."""
    return tuple(_zeros(x, *(dim,) * (k + 2)) for k in range(1, order))


def make_identity(dim: int) -> VectorFieldSet:
    """Zero drift, identity diffusion: the solution is x0 + B."""
    eye = np.eye(dim)
    return VectorFieldSet(
        dim_state=dim,
        dim_noise=dim,
        jet=lambda x, order: (_zeros(x, dim, dim) + eye,) + _zero_derivatives(x, order, dim),
        constant=True,
        name="identity",
    )


def make_geometric_1d(sigma: float = 1.0) -> VectorFieldSet:
    """dX = sigma X dB in one dimension; the Doss-Sussmann flow x0 exp(sigma B_t).

    For a piecewise-linear driver this closed form is exact at every H.
    """

    def jet(x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        v = np.empty(x.shape[:-1] + (1, 1))
        v[..., 0, 0] = sigma * x[..., 0]
        return (v, _zeros(x, 1, 1, 1) + sigma, _zeros(x, 1, 1, 1, 1))[:order]

    return VectorFieldSet(dim_state=1, dim_noise=1, jet=jet, name="geometric_1d")


def _sincos_derivatives(cols: np.ndarray) -> np.ndarray:
    """Differentiate coefficient columns over the features (sin x, cos x).

    ``cols`` of shape (2n, n, ...) gives shape (2n, n, n, ...), with the new
    axis 2 the coordinate l: d/dx_l moves sin x_l's coefficient to cos x_l
    and minus cos x_l's to sin x_l.
    """
    n = cols.shape[0] // 2
    out = np.zeros(cols.shape[:2] + (n,) + cols.shape[2:])
    for l in range(n):
        out[n + l, :, l] = cols[l]
        out[l, :, l] -= cols[n + l]
    return out


def make_elliptic_sin_2d() -> VectorFieldSet:
    """Identity plus a 0.1-amplitude sine perturbation with unit row norms.

    The perturbation spectral norm is at most 0.1 sqrt(2), so the diffusion
    stays uniformly elliptic with lambda >= (1 - 0.1 sqrt(2))^2.

    The jet is one product of the features t = (sin x0, sin x1, cos x0,
    cos x1) with a (4, 28) coefficient table whose columns, in C order, are
    V[i, j] (4), DV[i, l, j] (8) and D²V[i, m, l, j] (16); the DV and D²V
    columns are V's differentiated.  V's two 1.0 entries are added after the
    product, as in 1.0 + 0.1 sin x: a constant feature would let the product
    fuse them into one rounding.  Each slot has one nonzero coefficient, so
    the product rounds as the slot expression does, and the added +0.0 makes
    every zero slot +0.0 whatever order BLAS sums in, also at a coordinate
    of exactly 0.0, where -0.1 * sin(0.0) is -0.0.
    """
    v = np.zeros((4, 2, 2))  # V[i, j]'s coefficient on each feature
    v[1, 0, 0] = v[3, 0, 1] = v[0, 1, 0] = v[2, 1, 1] = 0.1
    dv = _sincos_derivatives(v)
    table = np.concatenate([c.reshape(4, -1) for c in (v, dv, _sincos_derivatives(dv))], axis=1)
    base = np.zeros(table.shape[1])
    base[[0, 3]] = 1.0
    shapes = ((2, 2), (2, 2, 2), (2, 2, 2, 2))
    ends = (0, 4, 12, 28)
    cuts = [(table[:, :w], base[:w]) for w in ends[1:]]

    def jet(x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        lead = x.shape[:-1]
        t = np.empty(lead + (4,))
        np.sin(x, out=t[..., :2])
        np.cos(x, out=t[..., 2:])
        coef, ones = cuts[order - 1]
        flat = t @ coef
        flat += ones
        return tuple(flat[..., ends[k]:ends[k + 1]].reshape(lead + shapes[k]) for k in range(order))

    return VectorFieldSet(dim_state=2, dim_noise=2, jet=jet, name="elliptic_sin_2d")


def make_drift_only(dim: int) -> VectorFieldSet:
    """Pure smooth bounded drift, zero diffusion; the deterministic benchmark."""

    def drift(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v0 = 0.5 * np.sin(np.roll(x, -1, axis=-1)) + 0.3 * np.cos(x)
        dv0 = _zeros(x, dim, dim)
        rolled = 0.5 * np.cos(np.roll(x, -1, axis=-1))
        sin_x = np.sin(x)
        for i in range(dim):
            dv0[..., i, (i + 1) % dim] += rolled[..., i]
            dv0[..., i, i] += -0.3 * sin_x[..., i]
        return v0, dv0

    return VectorFieldSet(
        dim_state=dim,
        dim_noise=dim,
        jet=lambda x, order: (_zeros(x, dim, dim),) + _zero_derivatives(x, order, dim),
        drift=drift,
        name="drift_only",
    )


FIELD_CATALOG: dict[str, Callable[[int], VectorFieldSet]] = {
    "identity": make_identity,
    "geometric_1d": lambda dim: _fixed_dim(make_geometric_1d(), dim),
    "elliptic_sin_2d": lambda dim: _fixed_dim(make_elliptic_sin_2d(), dim),
    "drift_only": make_drift_only,
}


def _fixed_dim(fs: VectorFieldSet, dim: int) -> VectorFieldSet:
    if dim != fs.dim_state:
        raise ValueError(
            f"field catalog '{fs.name}' requires dim={fs.dim_state}, got {dim}"
        )
    return fs


def resolve_fields(name: str, dim: int) -> VectorFieldSet:
    """Look up a catalog entry by name for the requested dimension."""
    try:
        factory = FIELD_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown field catalog name '{name}'") from None
    return factory(dim)
