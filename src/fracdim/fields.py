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

Every set gives its jet in one form: a feature map t(x) of F features, a
(F, W) coefficient table and a base row of W entries, one column per slot
of V, DV and D²V in that order, each block in C order.  The jet is the
product t(x) @ table + base, read as V, DV and D²V through views of the
one flat row, so a caller that owns the buffers (the solver's time loop)
can refill them in place.  A feature map takes the feature buffer and
returns the writer that fills it, so that caller binds its buffer once.  A
set with no features has a constant jet, the base row alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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

#: binds a feature buffer of shape (..., F) and returns the writer that fills
#: it with the features of the states x of shape (..., n)
FeatureMap = Callable[[np.ndarray], Callable[[np.ndarray], object]]


@dataclass(frozen=True, eq=False)
class VectorFieldSet:
    """Diffusion fields V1..Vd as a coefficient table over features, and an optional drift V0.

    ``table`` (F, W) and ``base`` (W,) hold one column per slot of V, DV and
    D²V, W = n·d·(1 + n + n²); ``features`` is None exactly when F = 0.  Both
    are copied read-only at construction, and ``cuts[order - 1]`` is their
    (table, base) columns of the first ``order`` blocks.  A set with no
    features and no drift is ``constant``, which lets the solver take its
    exact cumulative-sum path.
    """

    dim_state: int
    dim_noise: int
    table: np.ndarray
    base: np.ndarray
    features: FeatureMap | None = None
    drift: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    name: str = ""
    _shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    _ends: tuple[int, ...] = field(init=False, repr=False)
    cuts: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, d = self.dim_state, self.dim_noise
        shapes = ((n, d), (n, n, d), (n, n, n, d))
        ends = tuple(itertools.accumulate((math.prod(s) for s in shapes), initial=0))
        table, base = np.array(self.table, dtype=float), np.array(self.base, dtype=float)
        if table.ndim != 2 or table.shape[1] != ends[-1] or base.shape != (ends[-1],):
            raise ValueError(
                f"table must have shape (F, {ends[-1]}) and base ({ends[-1]},), one column per "
                f"slot of V, DV and D2V; got {table.shape} and {base.shape}"
            )
        if (self.features is None) != (table.shape[0] == 0):
            raise ValueError("a table needs a feature map exactly when it has feature rows")
        table.flags.writeable = base.flags.writeable = False
        cuts = tuple((table[:, :w], base[:w]) for w in ends[1:])
        for key, value in (("table", table), ("base", base), ("cuts", cuts), ("_shapes", shapes),
                           ("_ends", ends)):
            object.__setattr__(self, key, value)

    @property
    def constant(self) -> bool:
        return self.features is None and self.drift is None

    def views(self, flat: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """V, DV, D²V (the first ``order``) as views of a flat jet, one column per slot."""
        lead, ends = flat.shape[:-1], self._ends
        return tuple(flat[..., ends[k]:ends[k + 1]].reshape(lead + self._shapes[k])
                     for k in range(order))

    def jet(self, x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """The first ``order`` of (V, DV, D²V) at the stacked states ``x``, from one product."""
        coef, base = self.cuts[order - 1]
        t = np.zeros(x.shape[:-1] + coef.shape[:1])
        if self.features is not None:
            self.features(t)(x)
        flat = t @ coef
        flat += base
        return self.views(flat, order)

    def v(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 1)[0]

    def first_derivatives(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 2)[1]

    def second_derivatives(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 3)[2]

    def v0(self, x: np.ndarray) -> np.ndarray:
        """The drift V0 at ``x``; zeros for a set without a drift."""
        if self.drift is None:
            return np.zeros(x.shape[:-1] + (self.dim_state,))
        return self.drift(x)[0]


def _constant_jet(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The featureless table and base row of the state-independent V of shape (n, d)."""
    n = v.shape[0]
    base = np.zeros(v.size * (1 + n + n * n))
    base[: v.size] = v.ravel()
    return np.zeros((0, base.size)), base


def make_identity(dim: int) -> VectorFieldSet:
    """Zero drift, identity diffusion: the solution is x0 + B."""
    return VectorFieldSet(dim, dim, *_constant_jet(np.eye(dim)), name="identity")


def _coordinates(t: np.ndarray) -> Callable[[np.ndarray], object]:
    """The feature map t(x) = x."""
    return lambda x: np.copyto(t, x)


def make_geometric_1d(sigma: float = 1.0) -> VectorFieldSet:
    """dX = sigma X dB in one dimension; the Doss-Sussmann flow x0 exp(sigma B_t).

    For a piecewise-linear driver this closed form is exact at every H.  The
    jet is x times the row (sigma, 0, 0) plus the base row (0, sigma, 0).
    """
    return VectorFieldSet(1, 1, np.array([[sigma, 0.0, 0.0]]), np.array([0.0, sigma, 0.0]),
                          features=_coordinates, name="geometric_1d")


def _sin_cos(t: np.ndarray) -> Callable[[np.ndarray], object]:
    """The feature map t(x) = (sin x, cos x), into the halves of ``t``."""
    n = t.shape[-1] // 2
    sin, cos = t[..., :n], t[..., n:]

    def write(x: np.ndarray) -> None:
        np.sin(x, out=sin)
        np.cos(x, out=cos)

    return write


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

    The features are t = (sin x0, sin x1, cos x0, cos x1), and the (4, 28)
    table's columns, in C order, are V[i, j] (4), DV[i, l, j] (8) and
    D²V[i, m, l, j] (16); the DV and D²V columns are V's differentiated.
    V's two 1.0 entries sit in the base row, added after the product, as in
    1.0 + 0.1 sin x: a constant feature would let the product fuse them
    into one rounding.  Each slot has one nonzero coefficient, so the product
    rounds as the slot expression does, and the base row's +0.0 makes every
    zero slot +0.0 whatever order BLAS sums in, also at a coordinate of
    exactly 0.0, where -0.1 * sin(0.0) is -0.0.
    """
    v = np.zeros((4, 2, 2))  # V[i, j]'s coefficient on each feature
    v[1, 0, 0] = v[3, 0, 1] = v[0, 1, 0] = v[2, 1, 1] = 0.1
    dv = _sincos_derivatives(v)
    table = np.concatenate([c.reshape(4, -1) for c in (v, dv, _sincos_derivatives(dv))], axis=1)
    base = np.zeros(table.shape[1])
    base[[0, 3]] = 1.0
    return VectorFieldSet(2, 2, table, base, features=_sin_cos, name="elliptic_sin_2d")


def make_drift_only(dim: int) -> VectorFieldSet:
    """Pure smooth bounded drift, zero diffusion; the deterministic benchmark."""

    def drift(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v0 = 0.5 * np.sin(np.roll(x, -1, axis=-1)) + 0.3 * np.cos(x)
        dv0 = np.zeros(x.shape[:-1] + (dim, dim))
        rolled = 0.5 * np.cos(np.roll(x, -1, axis=-1))
        sin_x = np.sin(x)
        for i in range(dim):
            dv0[..., i, (i + 1) % dim] += rolled[..., i]
            dv0[..., i, i] += -0.3 * sin_x[..., i]
        return v0, dv0

    return VectorFieldSet(dim, dim, *_constant_jet(np.zeros((dim, dim))), drift=drift,
                          name="drift_only")


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
