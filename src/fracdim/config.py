"""Experiment specifications: the declarative description of one run.

Configs are flat ``key = value`` text with one optional ``[task]`` section per
estimator carrying its parameters.  ``TASK_PARAMS`` is the one table of every
section key, with its type and default; a spec rejects an unknown or wrongly
typed section key, however it was built, and rejects settings that one of
its tasks cannot use (``_TASK_RULES``), an empty ``fields``, more than one field
set for a task that solves one, or a name listed twice in ``fields`` or
``tasks``.  Parsing fills defaults and rejects unknown or repeated keys with
distinct messages.  Every grid runs from 0, where each solution starts, to 1,
the paper's horizon.  The sampler and the solver scheme are not keys: drivers
are drawn by the circulant sampler, and the scheme is the one the Hurst index
needs.  ``solve_block`` is the one way a task gets its members: drawn and
solved by the solver's one core, a chunk of ``_BLOCK_STATES`` member-steps at a time.
"""
from __future__ import annotations

import math
import numbers
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fbm import HurstParam, SamplePath, TimeGrid, _circulant_values
from .fbm import generate_cholesky, generate_circulant  # noqa: F401  bound for the benchmark's tracer (bench/spans.py)
from .fields import VectorFieldSet, resolve_fields
from .roughpath import LinearLift
from .roughpath import lift_path  # noqa: F401  bound for the benchmark's tracer (bench/spans.py)
from .solver import SolverScheme, _solve_states, scheme_for
from .solver import solve  # noqa: F401  bound for the benchmark's tracer (bench/spans.py)

__all__ = [
    "ALL_TASKS",
    "ConfigError",
    "ExperimentSpec",
    "TASK_PARAMS",
    "generate_driver",
    "member_seed",
    "parse_spec",
    "parse_spec_file",
    "solve_block",
    "solve_member",
]


#: task -> section key -> default; a key's value must have its default's type
#: (int, float, or a tuple of ints written comma-separated).  ``slope_tol`` is
#: the one window a section sets; the rest set up the estimator, and every other
#: pass threshold is fixed in ``harness`` and printed in its verdict's window.
TASK_PARAMS: dict[str, dict] = {
    "generate": {},
    "solve": {},
    "dim_image": {"octaves": 4, "slope_tol": 0.15},
    "dim_graph": {"octaves": 4, "slope_tol": 0.15},
    "levelset": {"t_lo": 0.1, "t_hi": 1.0, "halvings": 4, "slope_tol": 0.15},
    "tail": {"s": 0.0, "t": 1.0, "halvings": 4, "xi_quantile": 0.9},
    "density": {"s": 0.125, "t": 0.875},
    "bivariate": {"s": 0.25, "t": 0.75},
    "energy": {"gamma_offset": 0.13, "levels": 4},
    "mu": {"delta": 0.2, "sharpness": (4, 16, 64, 256), "t_lo": 0.1},
}

ALL_TASKS = tuple(TASK_PARAMS)

#: most member-steps (members x intervals) one chunk holds, for every field
#: set, which bounds its memory: the draw and the states, d + n floats per
#: member-step, with no stored lift; 2^20 is 16 members of the 2^16-step configs
_BLOCK_STATES = 2**20


def _increasing_positive(values) -> bool:
    return len(values) >= 2 and values[0] > 0 and all(b > a for a, b in zip(values, values[1:]))


def _grid_time(key: str) -> tuple:
    """The rule that setting ``key`` is a time of the spec's grid; its need names the nearest two."""
    def on_grid(p, spec):
        k = p[key] * spec.n_points
        return abs(k - round(k)) <= 1e-9

    def need(p, spec):
        k = math.floor(p[key] * spec.n_points)
        near = (k / spec.n_points, (k + 1) / spec.n_points)
        return f"a grid time, a multiple of 1 / n_points (nearest {near[0]!r} and {near[1]!r})"

    return (key, on_grid, need)


def _tail_window(p, spec) -> tuple[float, float, bool]:
    """Tail's narrowest window [s, s + w], w = (t - s) / 2^(halvings-1): (w, the grid spacing,
    whether it keeps two grid points), counted by arithmetic as ``TimeGrid.window`` counts."""
    w, h = (p["t"] - p["s"]) / 2 ** (p["halvings"] - 1), 1 / spec.n_points
    return w, h, math.floor((p["s"] + w + 1e-12) / h) > math.ceil((p["s"] - 1e-12) / h)


#: the KDE tasks read each member's state at grid times s < t, away from 0
_KDE_TIMES = (
    ("s", lambda p, spec: 0.1 <= p["s"] < p["t"], "0.1 <= s < t"),
    ("t", lambda p, spec: p["t"] <= 1, "t <= 1"),
    _grid_time("s"),
    _grid_time("t"),
)

#: ``dimension._anchored_slope`` fits at least 4 scales
_OCTAVES = (
    ("octaves", lambda p, spec: p["octaves"] >= 3, "at least 3 octaves, 4 box-count scales"),
)

#: task -> (key, test of its settings and the spec, what the test needs, or a
#: callable of both that says it); a task whose settings fail is rejected before
#: it solves a member
_TASK_RULES: dict[str, tuple] = {
    "dim_image": _OCTAVES,
    "dim_graph": _OCTAVES,
    "energy": (
        ("levels", lambda p, spec: p["levels"] >= 2, "at least 2 refinement levels"),
        ("levels", lambda p, spec: 2 ** (p["levels"] - 1) <= spec.n_points,
         "2^(levels-1) <= n_points, the coarsest decimation factor"),
        ("gamma_offset", lambda p, spec: 0 < p["gamma_offset"] < min(spec.dim, 1 / spec.hurst),
         "0 < gamma_offset < min(d, 1/H), an order on each side of it and both positive"),
    ),
    "mu": (
        ("sharpness", lambda p, spec: _increasing_positive(p["sharpness"]),
         "at least 2 strictly increasing positive values"),
        ("t_lo", lambda p, spec: 0 < p["t_lo"] < 1, "0 < t_lo < 1"),
    ),
    # the windows read each member on [t_lo, 1], [t_lo, t_hi] and [s, t], inside the grid
    "levelset": (
        ("t_lo", lambda p, spec: 0 <= p["t_lo"] < p["t_hi"], "0 <= t_lo < t_hi"),
        ("t_hi", lambda p, spec: p["t_hi"] <= 1, "t_hi <= 1"),
        ("halvings", lambda p, spec: p["halvings"] >= 2, "at least 2 tube widths to compare"),
    ),
    "tail": (
        ("s", lambda p, spec: 0 <= p["s"] < p["t"], "0 <= s < t"),
        ("t", lambda p, spec: p["t"] <= 1, "t <= 1"),
        ("halvings", lambda p, spec: p["halvings"] >= 3,
         "at least 3 windows, the fewest the scaling fit reads"),
        ("halvings", lambda p, spec: _tail_window(p, spec)[2], lambda p, spec:
         "two grid points in the narrowest window, (t - s) / 2^(halvings-1) = {!r} at spacing {!r}"
         .format(*_tail_window(p, spec)[:2])),
        ("xi_quantile", lambda p, spec: 0 <= p["xi_quantile"] <= 1, "0 <= xi_quantile <= 1"),
    ),
    "density": _KDE_TIMES,
    "bivariate": _KDE_TIMES,
}


def _as_type_of(default, value):
    """``value`` converted to the type of ``default``; ValueError if it has another,
    or is a float that is not finite."""
    if isinstance(default, tuple) and isinstance(value, (numbers.Integral, str)):
        try:
            return tuple(int(v) for v in str(value).split(","))
        except ValueError:
            pass
    elif isinstance(default, int) and isinstance(value, numbers.Integral):
        return int(value)
    elif not isinstance(default, (int, tuple)) and isinstance(value, numbers.Real):
        if math.isfinite(value):
            return float(value)
    kinds = {tuple: "comma-separated integers", int: "an integer"}
    kind = kinds.get(type(default), "a finite number")
    raise ValueError(f"expected {kind}")


def _names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


#: top-level key -> converter from its text
_TOP_LEVEL = {
    "name": str, "hurst": float, "dim": int, "n_points": int,
    "fields": _names, "ensemble": int, "base_seed": int, "output_dir": str, "tasks": _names,
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_unique(key: str, names: Sequence[str]) -> None:
    """Reject a name listed twice in ``key``: it would run, and be reported, twice."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"duplicate name '{name}' in {key}")


def _check_tasks(tasks: Sequence[str]) -> None:
    """Reject a task listed twice or not in ``ALL_TASKS``."""
    _check_unique("tasks", tasks)
    for task in tasks:
        if task not in ALL_TASKS:
            raise ConfigError(f"unknown task '{task}'")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full declarative description of one run.

    The grid has ``n_points`` steps from 0 to 1, and every member's
    solution starts at 0 at time 0.  ``scheme`` is derived, not set:
    ``step2_davie`` for H > 1/3, else ``step3``.
    """

    name: str
    hurst: float
    dim: int = 1
    n_points: int = 4096
    fields: tuple[str, ...] = ("identity",)
    scheme: str = field(init=False)
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
        except ValueError as exc:  # hurst out of range
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "scheme", scheme_for(self.hurst).kind)
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.n_points < 2 or self.n_points & (self.n_points - 1):
            raise ConfigError("n_points must be a power of two")
        if self.ensemble < 1:
            raise ConfigError("ensemble must be >= 1")
        if self.base_seed < 0 or self.base_seed + self.ensemble - 1 >= 2**64:
            raise ConfigError("member seeds (base_seed + member index) must lie in [0, 2^64)")
        if not self.fields:
            raise ConfigError("fields must name at least one field set")
        _check_unique("fields", self.fields)
        _check_tasks(self.tasks)
        for fname in self.fields:
            try:
                resolve_fields(fname, self.dim)
            except ValueError as exc:  # unknown name or dimension mismatch
                raise ConfigError(str(exc)) from None
        for task in self.estimator_params:
            self.task_settings(task)  # rejects an unknown or wrongly typed key
        for task in self.tasks:
            self.check_task(task)

    @property
    def grid(self) -> TimeGrid:
        # n_points counts sampling steps; the grid adds the pinned origin
        return TimeGrid(self.n_points + 1)

    def task_settings(self, task: str) -> dict:
        """Every parameter and window of the task: the section over the table's defaults."""
        if task not in TASK_PARAMS:
            raise ConfigError(f"unknown task section '[{task}]'")
        params = self.estimator_params.get(task, {})
        unknown = sorted(params.keys() - TASK_PARAMS[task].keys())
        if unknown:
            known = ", ".join(TASK_PARAMS[task]) or "none"
            raise ConfigError(f"unknown key '{unknown[0]}' in [{task}] (known: {known})")
        settings = dict(TASK_PARAMS[task])
        for key, value in params.items():
            try:
                settings[key] = _as_type_of(settings[key], value)
            except ValueError as exc:
                raise ConfigError(f"[{task}] {key} = {value!r}: {exc}") from None
        return settings

    def check_task(self, task: str) -> None:
        """Reject settings the task's estimator cannot use, naming the section and key,
        and a task that solves one field set while ``fields`` names more."""
        single = ("levelset", "tail", "density", "bivariate", "energy", "mu")
        if task in single and len(self.fields) > 1:
            raise ConfigError(f"task {task} solves one field set, but fields names "
                              f"{len(self.fields)}: {', '.join(self.fields)}")
        settings = self.task_settings(task)
        for key, usable, need in _TASK_RULES.get(task, ()):
            if not usable(settings, self):
                value = settings[key]
                shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
                need = need(settings, self) if callable(need) else need
                raise ConfigError(f"[{task}] {key} = {shown}: needs {need}")

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
    """Parse a configuration document; unknown and repeated keys are rejected."""
    top: dict = {}
    sections: dict[str, dict] = {}
    section = None  # the [task] being read; None at the top level
    first_line: dict[tuple, int] = {}  # (section, key) -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' (line {lineno})")
        key, raw = (part.strip() for part in line.split("=", 1))
        earlier = first_line.setdefault((section, key), lineno)
        if earlier != lineno:
            where = f" in [{section}]" if section is not None else ""
            raise ConfigError(f"duplicate key '{key}'{where} (lines {earlier} and {lineno})")
        if section is not None:
            sections[section][key] = _parse_scalar(raw)
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
    return ExperimentSpec(**top, estimator_params=sections)


def parse_spec_file(path: str | Path) -> ExperimentSpec:
    return parse_spec(Path(path).read_text(encoding="utf-8"))


def member_seed(spec: ExperimentSpec, index: int) -> int:
    """Member seeds are base_seed + member index; execution order never matters."""
    return spec.base_seed + index


def generate_driver(spec: ExperimentSpec, indices: Sequence[int]) -> np.ndarray:
    """The drivers of members ``indices``, their values stacked as one
    (k, n_points, d) array, drawn in one circulant call; each row is
    bit-identical to its member's own draw.
    """
    seeds = [member_seed(spec, i) for i in indices]
    return _circulant_values(spec.grid, spec.dim, spec.hurst, seeds)


def _draw_chunk(spec: ExperimentSpec, chunk: list[int]) -> tuple[list[int], np.ndarray, dict]:
    """The chunk's drivers as (drawn indices, (k, n_points, d) values, {index: exception}).

    If the one draw raises, each member is drawn alone, so a failing draw fails
    its member alone.
    """
    try:
        return chunk, generate_driver(spec, chunk), {}
    except Exception:  # redrawn member by member below
        pass
    drawn, rows, failed = [], [], {}
    for i in chunk:
        try:
            rows.append(generate_driver(spec, [i])[0])
            drawn.append(i)
        except Exception as exc:  # this member fails; the block goes on
            failed[i] = exc
    return drawn, np.array(rows).reshape(len(rows), spec.grid.n_points, spec.dim), failed


def _solve_chunk(
    spec: ExperimentSpec, fs: VectorFieldSet, chunk: list[int]
) -> tuple[list[int], np.ndarray, dict]:
    """One chunk's (surviving indices, their (k, n_points, d) states, {index: exception})."""
    drawn, paths, failed = _draw_chunk(spec, chunk)
    if not drawn:
        return drawn, paths, failed
    # the driver reads the draws: no lift of the chunk is stored
    depth = SolverScheme(spec.scheme).depth
    driver = LinearLift(spec.grid, paths, depth, HurstParam(spec.hurst))
    states, bad = _solve_states(fs, np.zeros((len(drawn), fs.dim_state)), driver, depth)
    if bad:
        failed.update((drawn[j], exc) for j, exc in bad.items())
        kept = [j for j in range(len(drawn)) if j not in bad]
        states, drawn = states[kept], [drawn[j] for j in kept]
    return drawn, states, failed


def solve_block(
    spec: ExperimentSpec, indices, fields_name: str | None = None
) -> Iterator[tuple[list[int], np.ndarray, dict]]:
    """Generate -> solve from 0 for each member, a chunk at a time, in index order.

    The field set is ``fields_name``, by default the spec's first.  Yields one
    triple per chunk: the surviving indices, their states as one
    (k, n_points, d) array, and {index: exception} for the members that failed
    alone.  A chunk is up to ``_BLOCK_STATES`` member-steps: one driver draw,
    then one solve of the draw's ``LinearLift`` through ``solver``'s one core,
    the guard included.  Each member's states are bit-identical to its solve
    alone; on a set that is not constant, also to the solve of its stored lift.
    """
    fs = resolve_fields(fields_name or spec.fields[0], spec.dim)
    indices = list(indices)
    size = max(1, _BLOCK_STATES // spec.n_points)  # n_points counts the intervals
    for a in range(0, len(indices), size):
        yield _solve_chunk(spec, fs, indices[a:a + size])


def solve_member(
    spec: ExperimentSpec,
    index: int,
    fields_name: str | None = None,
) -> SamplePath:
    """One member's solution, the one-member case of ``solve_block``; raises what failed it."""
    fs = resolve_fields(fields_name or spec.fields[0], spec.dim)
    _, states, failed = _solve_chunk(spec, fs, [index])
    if failed:
        raise failed[index]
    return SamplePath(spec.grid, states[0], hurst=HurstParam(spec.hurst),
                      seed=member_seed(spec, index))
