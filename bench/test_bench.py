"""Self-test of the benchmark's correctness check: tampering must raise failed_frac.

    python3 -m pytest -q bench/test_bench.py

Needs no fracdim import: it feeds the stored reference back through the check.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))
SEED = workloads.REFERENCE_SEED


def _rep(workload: str) -> dict:
    return {"runs": copy.deepcopy(REFERENCE["workloads"][workload]["runs"])}


def test_reference_rep_is_clean_for_every_workload():
    assert set(REFERENCE["workloads"]) == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        attempted, failed, problems = workloads.check_rep(workload, SEED, _rep(workload), REFERENCE)
        assert attempted > 0 and failed == 0, problems


def test_tampered_verdict_is_a_failure():
    rep = _rep("rde_image")
    rep["runs"][0]["verdicts"][1] = "fail"
    _, failed, problems = workloads.check_rep("rde_image", SEED, rep, REFERENCE)
    assert failed == 1 and "verdict 1" in problems[0]


def test_tampered_estimate_is_a_failure():
    for workload in workloads.WORKLOADS:
        rep = _rep(workload)
        estimates = rep["runs"][-1]["estimates"]
        name = sorted(estimates)[0]
        estimates[name] *= 1.0 + 1e-4
        _, failed, problems = workloads.check_rep(workload, SEED, rep, REFERENCE)
        assert failed == 1 and name in problems[0]


def test_rounding_level_change_is_not_a_failure():
    rep = _rep("estimators")
    estimates = rep["runs"][0]["estimates"]
    for name in estimates:
        estimates[name] *= 1.0 + 1e-12
    assert workloads.check_rep("estimators", SEED, rep, REFERENCE)[1] == 0


def test_member_failures_and_raised_runs_are_failures():
    rep = _rep("rde_image")
    rep["runs"][0]["member_failures"] = 2
    assert workloads.check_rep("rde_image", SEED, rep, REFERENCE)[1] == 2
    rep = _rep("estimators")
    rep["runs"][1] = {"error": "RunError: 3 member failures"}
    attempted, failed, _ = workloads.check_rep("estimators", SEED, rep, REFERENCE)
    ref_run = REFERENCE["workloads"]["estimators"]["runs"][1]
    assert failed == ref_run["members"] + len(ref_run["verdicts"]) + len(ref_run["estimates"])
    assert failed < attempted


def test_other_seeds_check_finiteness_not_values():
    rep = _rep("many_members")
    for run in rep["runs"]:
        run["verdicts"] = ["fail"] * len(run["verdicts"])  # verdicts may differ at other seeds
        for name in run["estimates"]:
            run["estimates"][name] += 0.5
    assert workloads.check_rep("many_members", SEED + 1, rep, REFERENCE)[1] == 0
    rep["runs"][0]["estimates"]["tail.rank_corr"] = math.nan
    assert workloads.check_rep("many_members", SEED + 1, rep, REFERENCE)[1] == 1


def test_changed_workload_definition_needs_a_new_reference():
    stale = copy.deepcopy(REFERENCE)
    stale["workloads"]["rde_image"]["definition"][0]["ensemble"] += 1
    assert workloads.check_rep("rde_image", SEED, _rep("rde_image"), stale)[1] > 0


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
