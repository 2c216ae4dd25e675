"""Vector-field sets for the driven state equation, plus a named catalog.

The diffusion matrix convention is V(x)[i, j] = i-th component of the j-th
noise field.  Every set supplies its derivatives, laid out as:

* ``first_derivatives(x)[i, l, j]``     = d V[i, j] / d x_l
* ``second_derivatives(x)[i, m, l, j]`` = d^2 V[i, j] / (d x_m d x_l)
* ``drift_derivatives(x)[i, l]``        = d V0[i] / d x_l
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
    """Drift V0 and diffusion fields V1..Vd with their analytic derivatives.

    ``constant`` marks state-independent V0 and V, which lets the solver take
    its exact cumulative-sum path.
    """

    dim_state: int
    dim_noise: int
    v0: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    first_derivatives: Callable[[np.ndarray], np.ndarray]
    second_derivatives: Callable[[np.ndarray], np.ndarray]
    drift_derivatives: Callable[[np.ndarray], np.ndarray]
    constant: bool = False
    name: str = ""


def make_identity(dim: int) -> VectorFieldSet:
    """Zero drift, identity diffusion: the solution is x0 + B."""
    eye = np.eye(dim)
    zero_n = np.zeros(dim)
    zero_dv = np.zeros((dim, dim, dim))
    zero_d2v = np.zeros((dim, dim, dim, dim))
    zero_dv0 = np.zeros((dim, dim))
    return VectorFieldSet(
        dim_state=dim,
        dim_noise=dim,
        v0=lambda x: zero_n,
        v=lambda x: eye,
        first_derivatives=lambda x: zero_dv,
        second_derivatives=lambda x: zero_d2v,
        drift_derivatives=lambda x: zero_dv0,
        constant=True,
        name="identity",
    )


def make_geometric_1d(sigma: float = 1.0) -> VectorFieldSet:
    """dX = sigma X dB in one dimension; the Doss-Sussmann flow x0 exp(sigma B_t).

    For a piecewise-linear driver this closed form is exact at every H.
    """
    return VectorFieldSet(
        dim_state=1,
        dim_noise=1,
        v0=lambda x: np.zeros(1),
        v=lambda x: np.array([[sigma * x[0]]]),
        first_derivatives=lambda x: np.array([[[sigma]]]),
        second_derivatives=lambda x: np.zeros((1, 1, 1, 1)),
        drift_derivatives=lambda x: np.zeros((1, 1)),
        name="geometric_1d",
    )


def make_elliptic_sin_2d() -> VectorFieldSet:
    """Identity plus a 0.1-amplitude sine perturbation with unit row norms.

    The perturbation spectral norm is at most 0.1 sqrt(2), so the diffusion
    stays uniformly elliptic with lambda >= (1 - 0.1 sqrt(2))^2.
    """

    def v(x: np.ndarray) -> np.ndarray:
        s1, c1 = np.sin(x[0]), np.cos(x[0])
        s2, c2 = np.sin(x[1]), np.cos(x[1])
        return np.array([[1.0 + 0.1 * s2, 0.1 * c2], [0.1 * s1, 1.0 + 0.1 * c1]])

    def dv(x: np.ndarray) -> np.ndarray:
        s1, c1 = np.sin(x[0]), np.cos(x[0])
        s2, c2 = np.sin(x[1]), np.cos(x[1])
        out = np.zeros((2, 2, 2))
        out[0, 1, 0] = 0.1 * c2
        out[0, 1, 1] = -0.1 * s2
        out[1, 0, 0] = 0.1 * c1
        out[1, 0, 1] = -0.1 * s1
        return out

    def d2v(x: np.ndarray) -> np.ndarray:
        s1, c1 = np.sin(x[0]), np.cos(x[0])
        s2, c2 = np.sin(x[1]), np.cos(x[1])
        out = np.zeros((2, 2, 2, 2))
        out[0, 1, 1, 0] = -0.1 * s2
        out[0, 1, 1, 1] = -0.1 * c2
        out[1, 0, 0, 0] = -0.1 * s1
        out[1, 0, 0, 1] = -0.1 * c1
        return out

    return VectorFieldSet(
        dim_state=2,
        dim_noise=2,
        v0=lambda x: np.zeros(2),
        v=v,
        first_derivatives=dv,
        second_derivatives=d2v,
        drift_derivatives=lambda x: np.zeros((2, 2)),
        name="elliptic_sin_2d",
    )


def make_drift_only(dim: int) -> VectorFieldSet:
    """Pure smooth bounded drift, zero diffusion; the deterministic benchmark."""

    def v0(x: np.ndarray) -> np.ndarray:
        return 0.5 * np.sin(np.roll(x, -1)) + 0.3 * np.cos(x)

    def dv0(x: np.ndarray) -> np.ndarray:
        out = np.zeros((dim, dim))
        rolled = 0.5 * np.cos(np.roll(x, -1))
        for i in range(dim):
            out[i, (i + 1) % dim] += rolled[i]
            out[i, i] += -0.3 * np.sin(x[i])
        return out

    zero_v = np.zeros((dim, dim))
    return VectorFieldSet(
        dim_state=dim,
        dim_noise=dim,
        v0=v0,
        v=lambda x: zero_v,
        first_derivatives=lambda x: np.zeros((dim, dim, dim)),
        second_derivatives=lambda x: np.zeros((dim, dim, dim, dim)),
        drift_derivatives=dv0,
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
