"""One benchmark process: set-up, a workload repetition, or the microbenchmarks.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and BLAS
threads pinned to 1.  It prints ``ready`` once set-up (interpreter start,
``import fracdim``, parsing and validating the derived configs) is done, then
one JSON line with its result.

    python3 bench/worker.py setup WORKLOAD SEED
    python3 bench/worker.py run WORKLOAD SEED JOBS TRACED
    python3 bench/worker.py micro
    python3 bench/worker.py reference JOBS   # rewrite bench/reference.json at seed 7040

``reference`` is for when the workload sizes change; run it on the commit the
benchmark was defined against, never to absorb a changed result.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from fracdim import harness
from fracdim.config import parse_spec_file

import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_run")


def derived_specs(workload: str, seed: int) -> list:
    specs = []
    for run in workloads.WORKLOADS[workload]:
        spec = parse_spec_file(Path("configs") / run["config"])
        overrides = {
            "ensemble": run["ensemble"],
            "base_seed": seed,
            "output_dir": str(OUT_DIR / workload),
        }
        if "tasks" in run:
            overrides["tasks"] = tuple(run["tasks"])
        specs.append(replace(spec, **overrides))  # replace re-validates the spec
    return specs


def _peak_rss_mb() -> float:
    """Largest resident set of this process and of every reaped descendant (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def run_workload(specs: list, jobs: int, tracer=None) -> dict:
    runs = []
    t0 = time.perf_counter()
    for spec in specs:
        try:
            report = harness.run(spec, jobs=jobs)
        except Exception as exc:  # a raised run fails all its operations; keep measuring
            runs.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        runs.append(
            {
                "members": workloads.members_attempted(spec),
                "verdicts": [v.verdict for v in report.verdicts],
                "estimates": workloads.key_estimates(report.results, spec.hurst),
                "member_failures": workloads.member_failures(report.results),
            }
        )
    out = {"wall_s": time.perf_counter() - t0, "runs": runs}
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
    return out


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    mode = argv[0]
    OUT_DIR.mkdir(exist_ok=True)
    if mode == "setup":
        derived_specs(argv[1], int(argv[2]))
        _ready()
        return 0
    if mode == "run":
        workload, seed, jobs, traced = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1"
        specs = derived_specs(workload, seed)
        _ready()
        tracer = None
        if traced:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        doc = run_workload(specs, jobs, tracer)
        doc["peak_rss_mb"] = _peak_rss_mb()
        _emit(doc)
        return 0
    if mode == "micro":
        import micro

        _ready()
        _emit(micro.run_micro(OUT_DIR))
        return 0
    if mode == "reference":
        jobs = int(argv[1])
        ref = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
        for workload in workloads.WORKLOADS:
            specs = derived_specs(workload, workloads.REFERENCE_SEED)
            doc = run_workload(specs, jobs)
            for run in doc["runs"]:
                if "error" in run or run["member_failures"] or set(run["verdicts"]) != {"pass"}:
                    raise SystemExit(f"{workload}: reference run is not clean: {run}")
            ref["workloads"][workload] = {"definition": workloads.WORKLOADS[workload], "runs": doc["runs"]}
        (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
