"""Spans around the calls into each fracdim layer, recorded from outside.

A span is (layer, name, parent, start, end).  Spans are kept in memory and
summarised when the traced run ends; a layer's self time is the duration of its
spans minus the part their child spans cover.  Names are patched where they are
looked up, because modules bind imported names at import time (harness and
density call ``solve_member`` through their own globals, config calls
``generate_circulant``, ``lift_path`` and ``solve`` through its globals).  The
traced run uses ``jobs = 1`` so that every span is recorded in this process.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, parent index, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, result)`` adds work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [layer, name, parent, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = time.perf_counter()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def patch(self, module, attr: str, layer: str, count=None) -> None:
        setattr(module, attr, self.wrap(layer, attr, getattr(module, attr), count))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: self time (s) and number of calls."""
        child_time = [0.0] * len(self.spans)
        for layer, name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for (layer, name, parent, start, end), inner in zip(self.spans, child_time):
            out[layer]["self_s"] += (end - start) - inner
            out[layer]["calls"] += 1
        return dict(out)


def _public_functions(module) -> list[str]:
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


def _count_steps(counts, args, result) -> None:
    counts["solver.steps"] += args[2].n_intervals  # solve(fields, x0, driver, scheme)


def _count_member_map(counts, args, result) -> None:
    counts["harness.members"] += len(args[2])  # _member_map(worker, spec, indices, ...)
    counts["harness.member_failures"] += len(result[1])


def _count_samples(counts, args, result) -> None:
    counts["harness.members"] += result.shape[0]


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the harness crosses."""
    from fracdim import config, density, dimension, harness

    tracer.patch(harness, "run", "harness")
    # _member_map is the harness's dispatch boundary; it sees every member
    # failure, including those the levelset/tail/energy/mu tasks drop
    tracer.patch(harness, "_member_map", "harness", _count_member_map)
    for module in (harness, density):
        tracer.patch(module, "solve_member", "config")
    tracer.patch(config, "generate_driver", "config")
    tracer.patch(config, "generate_circulant", "fbm")
    tracer.patch(config, "generate_cholesky", "fbm")
    tracer.patch(config, "lift_path", "roughpath")
    tracer.patch(config, "solve", "solver", _count_steps)
    for name in _public_functions(dimension):
        tracer.patch(dimension, name, "dimension")
    for name in _public_functions(density):
        tracer.patch(density, name, "density")
    # the harness samples density ensembles through this private helper
    tracer.patch(density, "_ensemble_samples_at", "density", _count_samples)
