"""fracdim benchmark: end-to-end and per-layer metrics over seeded ensembles.

    python3 bench/run.py --workload rde_image --seed 7040 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh child
process (bench/worker.py) that imports fracdim from the checkout's ``src``
with BLAS threads pinned to 1; children run one at a time, each with at most
``nproc`` pool workers.

--trace 0 repeats the workload at ``jobs = nproc`` until ``--seconds`` have
passed (at least MIN_REPS times) and reports medians of
  wall_s       first harness.run call to last report written,
  setup_s      spawn to "ready": interpreter start, import, config parsing,
  peak_rss_mb  largest resident set of any process of the repetition.
--trace 1 runs the workload untraced at jobs = 1, traced at jobs = 1 and
untraced at jobs = nproc, then the layer microbenchmarks, and reports
per-layer self times, call counts and microbenchmark figures.

Every repetition is checked: at seed 7040 against bench/reference.json, at
other seeds for finite estimates and no raised run.  The last line of stdout
is one JSON object; the exit code is 1 when the check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
MIN_REPS = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
LAYERS = ("fbm", "roughpath", "solver", "dimension", "density", "config", "harness")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_ENV)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to "ready", its JSON result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        start_new_session=True,  # its pool workers share its process group
    )
    ready = None
    lines: list[bytes] = []
    buf = b""
    fd = proc.stdout.fileno()
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"worker {args[0]} overran the run deadline")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line == b"ready" and ready is None:
                    ready = time.perf_counter() - t0
                elif line.strip():
                    lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {args[0]} exited with code {code}")
    return ready, (json.loads(lines[-1]) if lines else None)


def environment(threads: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_ENV,
        "caches": caches,
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float, jobs: int):
    setups, walls, rss, reps = [], [], [], []
    start = time.monotonic()
    while len(walls) < MIN_REPS or time.monotonic() - start < seconds:
        if walls and time.monotonic() + 1.5 * max(walls) + 5.0 > deadline:
            break
        setup, doc = spawn(["run", workload, str(seed), str(jobs), "0"], deadline)
        setups.append(setup)
        walls.append(doc["wall_s"])
        rss.append(doc["peak_rss_mb"])
        reps.append(doc)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(["setup", workload, str(seed)], deadline)[0])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    return metrics, samples, reps


def per_layer(workload: str, seed: int, deadline: float, jobs: int):
    _, serial = spawn(["run", workload, str(seed), "1", "0"], deadline)
    _, traced = spawn(["run", workload, str(seed), "1", "1"], deadline)
    _, parallel = spawn(["run", workload, str(seed), str(jobs), "0"], deadline)
    _, micro = spawn(["micro"], deadline)
    metrics = {}
    for layer in LAYERS:
        info = traced["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = (info["self_s"], "s")
        metrics[f"{layer}.calls"] = (info["calls"], "count")
    counts = traced["counts"]
    steps = counts.get("solver.steps", 0)
    metrics["solver.steps"] = (steps, "count")
    # 0 when the workload solves nothing step by step (constant fast path)
    metrics["solver.us_per_step"] = (1e6 * metrics["solver.self_s"][0] / steps if steps else 0.0, "us")
    metrics["harness.members"] = (counts.get("harness.members", 0), "count")
    metrics["harness.member_failures"] = (counts.get("harness.member_failures", 0), "count")
    metrics["harness.speedup"] = (serial["wall_s"] / parallel["wall_s"], "ratio")
    metrics["harness.wall_s.jobs1"] = (serial["wall_s"], "s")
    metrics["harness.wall_s.traced"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - serial["wall_s"], "s")
    for name, value in micro.items():
        metrics[name] = (value, _unit(name))
    return metrics, [serial, traced, parallel]


def _unit(name: str) -> str:
    """Unit from a microbenchmark name: ``dimension.energy_s.n8192`` is in s."""
    tokens = name.split(".")[1].split("_")
    if "computed" in tokens:
        return "count"
    return next(t for t in tokens if t in ("ms", "us", "s"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into SystemExit so that spawn() kills the running child's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (Path("src/fracdim/__init__.py").is_file() and Path("configs").is_dir()):
        print("error: run from the root of a fracdim checkout (src/fracdim and configs/)", file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    jobs = nproc()
    try:
        if args.trace:
            metrics, reps = per_layer(args.workload, args.seed, deadline, jobs)
            samples = {}
        else:
            metrics, samples, reps = end_to_end(args.workload, args.seed, args.seconds, deadline, jobs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    for rep in reps:
        a, f, problems = workloads.check_rep(args.workload, args.seed, rep, reference)
        attempted += a
        failed += f
        for p in problems:
            print(f"check: {p}", file=sys.stderr)
    env = environment(jobs)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {len(reps)} repetitions")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out = Path(".bench_run") / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**result, "samples": samples, "env": env}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
