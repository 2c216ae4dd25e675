"""Command-line entry point: experiment verbs over configuration files.

Each verb loads a config, overlays the global flags, runs the mapped tasks,
prints the verdict table, and exits 0 only if nothing failed.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import ConfigError, parse_spec_file
from .harness import RunError, report_render, run

_VERB_TASKS = {
    "gen": ("generate",),
    "solve": ("solve",),
    "dim": ("dim_image", "dim_graph"),
    "levelset": ("levelset",),
    "tail": ("tail",),
    "density": ("density", "bivariate"),
    "energy": ("energy",),
    "mu": ("mu",),
    "repro": None,  # tasks come from the config
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdim",
        description="Simulate rough differential equations driven by fractional "
        "Brownian motion and check their fractal and distributional behavior.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, tasks in _VERB_TASKS.items():
        p = sub.add_parser(
            verb,
            help=(
                "run the tasks declared in the config"
                if verb == "repro"
                else f"run {', '.join(tasks)}"
            ),
        )
        p.add_argument("config", help="experiment configuration file")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes, at least 1 (default: the usable cores)")
        p.add_argument("--out", default=None, help="override the output directory root")
    return parser


def _usable_cores() -> int:
    """The cores this process may run on, where the platform says; else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_spec_file(args.config)
        if args.seed is not None:
            spec = replace(spec, base_seed=args.seed)
        if args.out is not None:
            spec = replace(spec, output_dir=args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tasks = _VERB_TASKS[args.verb] or spec.tasks
    if not tasks:
        print("error: repro needs a 'tasks = ...' line in the config", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs is not None else _usable_cores()
    try:
        report = run(spec, tasks=tasks, jobs=jobs)
    except (RunError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text, _ = report_render(report)
    print(text, end="")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
