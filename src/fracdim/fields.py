"""Vector-field sets for the driven state equation, plus a named catalog.

The diffusion matrix convention is V(x)[i, j] = i-th component of the j-th
noise field.  Derivative layouts:

* ``dv(x)[i, l, j]``   = d V[i, j] / d x_l
* ``d2v(x)[i, m, l, j]`` = d^2 V[i, j] / (d x_m d x_l)
* ``dv0(x)[i, l]``     = d V0[i] / d x_l
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

_FD_STEP = 1e-5


@dataclass(frozen=True)
class VectorFieldSet:
    """Drift V0 and diffusion fields V1..Vd with derivative evaluations.

    Analytic derivatives are preferred; missing ones fall back to central
    finite differences (step 1e-5 * (1 + |x|)) and set ``uses_fd_derivatives``.
    ``constant`` marks state-independent V0 and V, which lets the solver take
    its exact cumulative-sum path.
    """

    dim_state: int
    dim_noise: int
    v0: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    dv: Callable[[np.ndarray], np.ndarray] | None = None
    d2v: Callable[[np.ndarray], np.ndarray] | None = None
    dv0: Callable[[np.ndarray], np.ndarray] | None = None
    smoothness_order: int = 2
    constant: bool = False
    name: str = ""

    @property
    def uses_fd_derivatives(self) -> bool:
        return self.dv is None or self.dv0 is None or (
            self.smoothness_order >= 2 and self.d2v is None
        )

    def first_derivatives(self, x: np.ndarray) -> np.ndarray:
        if self.dv is not None:
            return self.dv(x)
        n, d = self.dim_state, self.dim_noise
        out = np.empty((n, n, d))
        h = _FD_STEP * (1.0 + float(np.abs(x).max()))
        for l in range(n):
            e = np.zeros(n)
            e[l] = h
            out[:, l, :] = (self.v(x + e) - self.v(x - e)) / (2 * h)
        return out

    def second_derivatives(self, x: np.ndarray) -> np.ndarray:
        if self.d2v is not None:
            return self.d2v(x)
        n, d = self.dim_state, self.dim_noise
        out = np.empty((n, n, n, d))
        h = _FD_STEP * (1.0 + float(np.abs(x).max()))
        for m in range(n):
            em = np.zeros(n)
            em[m] = h
            for l in range(n):
                el = np.zeros(n)
                el[l] = h
                out[:, m, l, :] = (
                    self.v(x + em + el)
                    - self.v(x + em - el)
                    - self.v(x - em + el)
                    + self.v(x - em - el)
                ) / (4 * h * h)
        return out

    def drift_derivatives(self, x: np.ndarray) -> np.ndarray:
        if self.dv0 is not None:
            return self.dv0(x)
        n = self.dim_state
        out = np.empty((n, n))
        h = _FD_STEP * (1.0 + float(np.abs(x).max()))
        for l in range(n):
            e = np.zeros(n)
            e[l] = h
            out[:, l] = (self.v0(x + e) - self.v0(x - e)) / (2 * h)
        return out


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
        dv=lambda x: zero_dv,
        d2v=lambda x: zero_d2v,
        dv0=lambda x: zero_dv0,
        constant=True,
        name="identity",
    )


def make_geometric_1d(sigma: float = 1.0) -> VectorFieldSet:
    """dX = sigma X dB in one dimension; closed form x0 exp(sigma B) at H=1/2."""
    return VectorFieldSet(
        dim_state=1,
        dim_noise=1,
        v0=lambda x: np.zeros(1),
        v=lambda x: np.array([[sigma * x[0]]]),
        dv=lambda x: np.array([[[sigma]]]),
        d2v=lambda x: np.zeros((1, 1, 1, 1)),
        dv0=lambda x: np.zeros((1, 1)),
        smoothness_order=3,
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
        dv=dv,
        d2v=d2v,
        dv0=lambda x: np.zeros((2, 2)),
        smoothness_order=3,
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
        dv=lambda x: np.zeros((dim, dim, dim)),
        d2v=lambda x: np.zeros((dim, dim, dim, dim)),
        dv0=dv0,
        smoothness_order=3,
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
