"""Workload definitions, key-estimate extraction and the correctness check.

Standard library only: the orchestrator (run.py) and the self-test import this
module without importing fracdim.  A workload is a list of runs; each run is a
shipped config with its ensemble (and, where noted, its task list) overridden
so that one repetition fits the benchmark's run length.  ``n_points``, ``hurst``,
``dim``, ``fields`` and the generator stay as shipped, so per-member work
matches the acceptance suite.  The seed is a benchmark argument and becomes the
runs' ``base_seed``.
"""
from __future__ import annotations

import math

REFERENCE_SEED = 7040  # the shipped base_seed; the stored reference is taken here
REL_TOL = 1e-6  # estimates must match the reference to rounding level
ABS_TOL = 1e-12

WORKLOADS: dict[str, list[dict]] = {
    # step-2 solves of elliptic_sin_2d dominate: a few heavy members
    "rde_image": [
        {"config": "repro_thm_main.cfg", "ensemble": 4},
    ],
    # all-identity fields (constant fast path): time goes to the O(n^2)
    # energy integral and the dense mu_measure kernel
    "estimators": [
        {"config": "repro_energy.cfg", "ensemble": 2},
        {"config": "repro_mu.cfg", "ensemble": 20},
    ],
    # tiny members in large numbers: per-member fixed costs and dispatch
    "many_members": [
        {"config": "repro_tail.cfg", "ensemble": 5_000},
        {"config": "repro_density.cfg", "ensemble": 10_000, "tasks": ["density"]},
    ],
}

# member passes per ensemble member, by task (energy runs once per gamma)
_PASSES = {"energy": 2, "mu": 1, "tail": 1, "density": 1}


def members_attempted(spec) -> int:
    """Ensemble members a derived spec dispatches (dim_image runs once per field)."""
    total = 0
    for task in spec.tasks:
        passes = len(spec.fields) if task == "dim_image" else _PASSES[task]
        total += passes * spec.ensemble
    return total


def key_estimates(results: dict, hurst: float) -> dict[str, float]:
    """The estimates the reference pins, flattened to name -> value.

    Median slopes, energy medians, mu means, tail R^2 (at the expected
    exponent) and the KDE envelope slope and R^2.
    """
    out: dict[str, float] = {}
    for fname, info in results.get("dim_image", {}).items():
        out[f"dim_image.{fname}.median_slope"] = info["median_slope"]
    for label, info in results.get("energy", {}).items():
        for j, v in enumerate(info["medians"]):
            out[f"energy.{label}.median.{j}"] = v
    if "mu" in results:
        for key in ("mass_means", "mass2_means", "energy_means"):
            for j, v in enumerate(results["mu"][key]):
                out[f"mu.{key}.{j}"] = v
    if "tail" in results:
        tail = results["tail"]
        expected = min(2.0 * hurst + 1.0, 2.0)
        out["tail.r2_expected"] = tail["r2_by_exponent"][str(expected)]
        out["tail.rank_corr"] = tail["rank_corr"]
    if "density" in results:
        out["density.envelope_slope"] = results["density"]["envelope_slope"]
        out["density.envelope_r2"] = results["density"]["envelope_r2"]
    return out


def member_failures(results: dict) -> int:
    """Member failures the report exposes.

    Only the dim tasks put ``failures`` into their results; levelset, tail,
    energy and mu drop what the harness's member map returns, so failures there
    are invisible to an untraced run.
    """
    return sum(len(info["failures"]) for info in results.get("dim_image", {}).values())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def check_rep(workload: str, seed: int, rep: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one repetition of a workload.

    ``rep`` is what the worker returns: per run, either ``error`` or the
    resolved members, verdict list and key estimates.  An operation is one
    ensemble member, one verdict or one key estimate.  At the reference seed
    verdicts and estimates must match the stored reference; at any other seed
    estimates must be finite.  A run that raised fails all its operations.
    """
    attempted = failed = 0
    problems: list[str] = []
    ref_runs = None
    if seed == REFERENCE_SEED:
        stored = reference["workloads"][workload]
        if stored["definition"] != WORKLOADS[workload]:
            return 1, 1, ["workload definition differs from the stored reference"]
        ref_runs = stored["runs"]
    for i, run in enumerate(rep["runs"]):
        ref = ref_runs[i] if ref_runs is not None else None
        if "error" in run:
            n_ops = ref["members"] + len(ref["verdicts"]) + len(ref["estimates"]) if ref else 1
            attempted += n_ops
            failed += n_ops
            problems.append(f"run {i} raised: {run['error']}")
            continue
        attempted += run["members"] + len(run["verdicts"]) + len(run["estimates"])
        failed += run["member_failures"]
        if run["member_failures"]:
            problems.append(f"run {i}: {run['member_failures']} member failures")
        if ref is None:
            for name, value in run["estimates"].items():
                if not math.isfinite(value):
                    failed += 1
                    problems.append(f"run {i}: {name} = {value} is not finite")
            continue
        if run["members"] != ref["members"]:
            problems.append(f"run {i}: {run['members']} members, reference has {ref['members']}")
            failed += run["members"]
        for j, (got, want) in enumerate(zip(run["verdicts"], ref["verdicts"])):
            if got != want:
                failed += 1
                problems.append(f"run {i}: verdict {j} is {got}, reference {want}")
        if len(run["verdicts"]) != len(ref["verdicts"]):
            failed += abs(len(run["verdicts"]) - len(ref["verdicts"]))
            problems.append(f"run {i}: {len(run['verdicts'])} verdicts, reference has {len(ref['verdicts'])}")
        for name, want in ref["estimates"].items():
            got = run["estimates"].get(name, math.nan)
            if not _close(got, want):
                failed += 1
                problems.append(f"run {i}: {name} = {got!r}, reference {want!r}")
    return attempted, failed, problems
