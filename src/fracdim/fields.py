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


def make_elliptic_sin_2d() -> VectorFieldSet:
    """Identity plus a 0.1-amplitude sine perturbation with unit row norms.

    The perturbation spectral norm is at most 0.1 sqrt(2), so the diffusion
    stays uniformly elliptic with lambda >= (1 - 0.1 sqrt(2))^2.
    """

    def jet(x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        s, c = np.sin(x), np.cos(x)
        v = np.empty(x.shape[:-1] + (2, 2))
        v[..., 0, 0] = 1.0 + 0.1 * s[..., 1]
        v[..., 0, 1] = 0.1 * c[..., 1]
        v[..., 1, 0] = 0.1 * s[..., 0]
        v[..., 1, 1] = 1.0 + 0.1 * c[..., 0]
        if order < 2:
            return (v,)
        dv = _zeros(x, 2, 2, 2)
        dv[..., 0, 1, 0] = 0.1 * c[..., 1]
        dv[..., 0, 1, 1] = -0.1 * s[..., 1]
        dv[..., 1, 0, 0] = 0.1 * c[..., 0]
        dv[..., 1, 0, 1] = -0.1 * s[..., 0]
        if order < 3:
            return v, dv
        d2v = _zeros(x, 2, 2, 2, 2)
        d2v[..., 0, 1, 1, 0] = -0.1 * s[..., 1]
        d2v[..., 0, 1, 1, 1] = -0.1 * c[..., 1]
        d2v[..., 1, 0, 0, 0] = -0.1 * s[..., 0]
        d2v[..., 1, 0, 0, 1] = -0.1 * c[..., 0]
        return v, dv, d2v

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
