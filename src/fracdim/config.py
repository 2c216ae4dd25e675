"""Experiment specifications: the declarative description of one run.

Configs are flat ``key = value`` text with one optional ``[task]`` section per
estimator carrying its parameters.  Parsing fills defaults, resolves
``scheme = auto`` against the Hurst index, and rejects unknown keys with
distinct messages.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fbm import HurstParam, SamplePath, TimeGrid, generate_cholesky, generate_circulant
from .fields import VectorFieldSet, resolve_fields
from .roughpath import lift_path
from .solver import SolverScheme, _constant_field_path, scheme_for, solve

__all__ = [
    "ALL_TASKS",
    "ConfigError",
    "ExperimentSpec",
    "generate_driver",
    "member_seed",
    "parse_spec",
    "parse_spec_file",
    "solve_member",
]

ALL_TASKS = (
    "generate",
    "solve",
    "dim_image",
    "dim_graph",
    "levelset",
    "tail",
    "density",
    "bivariate",
    "energy",
    "mu",
)

_GENERATORS = ("cholesky", "circulant")
_TOP_KEYS = {
    "name",
    "hurst",
    "dim",
    "n_points",
    "t_start",
    "t_end",
    "generator",
    "fields",
    "scheme",
    "ensemble",
    "base_seed",
    "output_dir",
    "tasks",
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
        if self.ensemble < 1:
            raise ConfigError("ensemble must be >= 1")
        for fname in self.fields:
            try:
                resolve_fields(fname, self.dim)
            except ValueError as exc:  # unknown name or dimension mismatch
                raise ConfigError(str(exc)) from None
        for task in self.tasks:
            if task not in ALL_TASKS:
                raise ConfigError(f"unknown task '{task}'")

    @property
    def grid(self) -> TimeGrid:
        # n_points counts sampling steps; the grid adds the pinned origin
        return TimeGrid(self.n_points + 1, self.t_range[0], self.t_range[1])

    def task_params(self, task: str) -> dict:
        return dict(self.estimator_params.get(task, {}))

    def resolved_output_dir(self) -> Path:
        root = self.output_dir or os.environ.get("FRACDIM_OUT") or "out"
        return Path(root) / self.name


def _parse_scalar(raw: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
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
            task = line[1:-1].strip()
            if task not in ALL_TASKS:
                raise ConfigError(f"unknown task section '[{task}]' (line {lineno})")
            current = sections.setdefault(task, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' (line {lineno})")
        key, raw = (part.strip() for part in line.split("=", 1))
        if current is not None:
            current[key] = _parse_scalar(raw)
            continue
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        top[key] = raw
    if "name" not in top:
        raise ConfigError("name is required")
    if "hurst" not in top:
        raise ConfigError("hurst is required")
    kwargs: dict = {
        "name": top["name"],
        "hurst": float(top["hurst"]),
        "estimator_params": sections,
    }
    if "dim" in top:
        kwargs["dim"] = int(top["dim"])
    if "n_points" in top:
        kwargs["n_points"] = int(top["n_points"])
    t0 = float(top.get("t_start", 0.0))
    t1 = float(top.get("t_end", 1.0))
    kwargs["t_range"] = (t0, t1)
    if "generator" in top:
        kwargs["generator"] = top["generator"]
    if "fields" in top:
        kwargs["fields"] = tuple(f.strip() for f in top["fields"].split(",") if f.strip())
    if "scheme" in top:
        kwargs["scheme"] = top["scheme"]
    if "ensemble" in top:
        kwargs["ensemble"] = int(top["ensemble"])
    if "base_seed" in top:
        kwargs["base_seed"] = int(top["base_seed"])
    if "output_dir" in top:
        kwargs["output_dir"] = top["output_dir"]
    if "tasks" in top:
        kwargs["tasks"] = tuple(t.strip() for t in top["tasks"].split(",") if t.strip())
    return ExperimentSpec(**kwargs)


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
