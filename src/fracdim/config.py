"""Experiment specifications: the declarative description of one run.

Configs are flat ``key = value`` text with one optional ``[task]`` section per
estimator carrying its parameters.  ``TASK_PARAMS`` is the one table of every
section key, with its type and default; a spec rejects an unknown or wrongly
typed section key, however it was built.  Parsing fills defaults, resolves
``scheme = auto`` against the Hurst index, and rejects unknown keys with
distinct messages.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fbm import (CHOLESKY_MAX_N, HurstParam, SamplePath, TimeGrid, generate_cholesky,
                  generate_circulant)
from .fields import VectorFieldSet, resolve_fields
from .roughpath import lift_path
from .solver import SolverScheme, _constant_field_path, scheme_for, solve

__all__ = [
    "ALL_TASKS",
    "ConfigError",
    "ExperimentSpec",
    "TASK_PARAMS",
    "generate_driver",
    "member_seed",
    "parse_spec",
    "parse_spec_file",
    "solve_member",
]


#: task -> section key -> default; a key's value must have its default's type
#: (int, float, or a tuple of ints written comma-separated).  A callable default
#: depends on the spec and gives a float.  Keys that bound a verdict are its
#: window; the rest set up the estimator.
TASK_PARAMS: dict[str, dict] = {
    "generate": {},
    "solve": {},
    "dim_image": {"octaves": 4, "slope_tol": 0.15},
    "dim_graph": {"octaves": 4, "slope_tol": 0.15},
    "levelset": {"t_lo": 0.1, "t_hi": lambda spec: float(spec.t_range[1]), "halvings": 4,
                 "slope_tol": 0.15, "levelset_hit_floor": 0.10, "levelset_min_points": 32},
    "tail": {"s": lambda spec: float(spec.t_range[0]), "t": lambda spec: float(spec.t_range[1]),
             "halvings": 4, "xi_quantile": 0.9,
             "tail_r2_floor": 0.9, "tail_delta_r2": 0.02, "tail_rank_corr": 0.8},
    "density": {"s": 0.1, "t": lambda spec: 0.9 * spec.t_range[1],
                "envelope_r2_increment": 0.85, "kde_mode_rel_tol": 0.10},
    "bivariate": {"s": 0.25, "t": 0.75,
                  "envelope_r2_bivariate": 0.80, "bivariate_oracle_rel_tol": 0.15},
    "energy": {"gamma_offset": 0.13, "levels": 4,
               "energy_stable_growth": 1.07, "energy_grow_last": 1.10, "energy_grow_total": 1.35},
    "mu": {"delta": 0.2, "sharpness": (4, 16, 64, 256), "t_lo": 0.1,
           "mu_mass_floor": 0.5, "mu_final_growth": 1.35},
}

ALL_TASKS = tuple(TASK_PARAMS)

_GENERATORS = ("cholesky", "circulant")


def _as_type_of(default, value):
    """``value`` converted to the type of ``default``; ValueError if it has another."""
    if isinstance(default, tuple) and isinstance(value, (numbers.Integral, str)):
        try:
            return tuple(int(v) for v in str(value).split(","))
        except ValueError:
            pass
    elif isinstance(default, int) and isinstance(value, numbers.Integral):
        return int(value)
    elif not isinstance(default, (int, tuple)) and isinstance(value, numbers.Real):
        return float(value)
    kind = {tuple: "comma-separated integers", int: "an integer"}.get(type(default), "a number")
    raise ValueError(f"expected {kind}")


def _names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


#: top-level key -> converter from its text; t_start and t_end form t_range
_TOP_LEVEL = {
    "name": str, "hurst": float, "dim": int, "n_points": int, "t_start": float, "t_end": float,
    "generator": str, "fields": _names, "scheme": str, "ensemble": int, "base_seed": int,
    "output_dir": str, "tasks": _names,
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Full declarative description of one run."""

    name: str
    hurst: float
    dim: int = 1
    n_points: int = 4096
    t_range: tuple[float, float] = (0.0, 1.0)
    generator: str = "circulant"
    fields: tuple[str, ...] = ("identity",)
    scheme: str = "auto"
    ensemble: int = 1
    base_seed: int = 0
    estimator_params: dict = field(default_factory=dict)
    output_dir: str | None = None
    tasks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("name is required")
        try:
            HurstParam(self.hurst)
            object.__setattr__(self, "scheme", scheme_for(self.hurst, self.scheme).kind)
        except ValueError as exc:  # hurst out of range, unknown or too weak scheme
            raise ConfigError(str(exc)) from None
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.n_points < 2 or self.n_points & (self.n_points - 1):
            raise ConfigError("n_points must be a power of two")
        if self.t_range[1] <= self.t_range[0] or self.t_range[0] < 0:
            raise ConfigError("t_range must satisfy 0 <= start < end")
        if self.generator not in _GENERATORS:
            raise ConfigError(f"unknown generator '{self.generator}'")
        if self.generator == "circulant" and self.t_range[0] != 0.0:
            raise ConfigError("circulant generator requires t_start = 0")
        if self.generator == "cholesky" and self.n_points + 1 > CHOLESKY_MAX_N:
            raise ConfigError(f"cholesky grids hold at most {CHOLESKY_MAX_N} points (n_points + 1)")
        if self.ensemble < 1:
            raise ConfigError("ensemble must be >= 1")
        if self.base_seed < 0 or self.base_seed + self.ensemble - 1 >= 2**64:
            raise ConfigError("member seeds (base_seed + member index) must lie in [0, 2^64)")
        for fname in self.fields:
            try:
                resolve_fields(fname, self.dim)
            except ValueError as exc:  # unknown name or dimension mismatch
                raise ConfigError(str(exc)) from None
        for task in self.tasks:
            if task not in ALL_TASKS:
                raise ConfigError(f"unknown task '{task}'")
        for task in self.estimator_params:
            self.task_settings(task)  # rejects an unknown or wrongly typed key

    @property
    def grid(self) -> TimeGrid:
        # n_points counts sampling steps; the grid adds the pinned origin
        return TimeGrid(self.n_points + 1, self.t_range[0], self.t_range[1])

    def task_settings(self, task: str) -> dict:
        """Every parameter and window of the task: the section over the table's defaults."""
        if task not in TASK_PARAMS:
            raise ConfigError(f"unknown task section '[{task}]'")
        params = self.estimator_params.get(task, {})
        unknown = sorted(params.keys() - TASK_PARAMS[task].keys())
        if unknown:
            known = ", ".join(TASK_PARAMS[task]) or "none"
            raise ConfigError(f"unknown key '{unknown[0]}' in [{task}] (known: {known})")
        settings = {}
        for key, default in TASK_PARAMS[task].items():
            if key not in params:
                settings[key] = default(self) if callable(default) else default
                continue
            try:
                settings[key] = _as_type_of(default, params[key])
            except ValueError as exc:
                raise ConfigError(f"[{task}] {key} = {params[key]!r}: {exc}") from None
        return settings

    def resolved_output_dir(self) -> Path:
        root = self.output_dir or os.environ.get("FRACDIM_OUT") or "out"
        return Path(root) / self.name


def _parse_scalar(raw: str):
    for convert in (int, float):
        try:
            return convert(raw)
        except ValueError:
            pass
    return raw


def parse_spec(text: str) -> ExperimentSpec:
    """Parse a configuration document; unknown keys are rejected."""
    top: dict = {}
    sections: dict[str, dict] = {}
    current: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' (line {lineno})")
        key, raw = (part.strip() for part in line.split("=", 1))
        if current is not None:
            current[key] = _parse_scalar(raw)
            continue
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        try:
            top[key] = _TOP_LEVEL[key](raw)
        except ValueError:
            raise ConfigError(f"{key} = {raw!r} is not a valid value (line {lineno})") from None
    for key in ("name", "hurst"):
        if key not in top:
            raise ConfigError(f"{key} is required")
    t_range = (top.pop("t_start", 0.0), top.pop("t_end", 1.0))
    return ExperimentSpec(**top, t_range=t_range, estimator_params=sections)


def parse_spec_file(path: str | Path) -> ExperimentSpec:
    return parse_spec(Path(path).read_text(encoding="utf-8"))


def member_seed(spec: ExperimentSpec, index: int) -> int:
    """Member seeds are base_seed + member index; execution order never matters."""
    return spec.base_seed + index


def generate_driver(spec: ExperimentSpec, index: int) -> SamplePath:
    seed = member_seed(spec, index)
    if spec.generator == "cholesky":
        return generate_cholesky(spec.grid, spec.dim, spec.hurst, seed)
    return generate_circulant(spec.grid, spec.dim, spec.hurst, seed)


def solve_member(
    spec: ExperimentSpec,
    index: int,
    fields_name: str | None = None,
    x0=None,
) -> SamplePath:
    """Full pipeline for one member: generate -> lift -> solve, seed-tagged.

    Constant field sets (identity) skip the lift, which is exact for them.
    """
    name = fields_name or spec.fields[0]
    fs: VectorFieldSet = resolve_fields(name, spec.dim)
    driver = generate_driver(spec, index)
    start = np.zeros(fs.dim_state) if x0 is None else np.asarray(x0, dtype=float)
    if fs.constant:
        values = _constant_field_path(fs, start, driver.values, driver.grid)
        return SamplePath(driver.grid, values, hurst=driver.hurst, seed=driver.seed)
    scheme = SolverScheme(spec.scheme)
    sol = solve(fs, start, lift_path(driver, scheme.depth), scheme)
    return replace(sol, seed=driver.seed)
