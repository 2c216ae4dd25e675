import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracdim
from fracdim import cli
from fracdim.config import ConfigError, ExperimentSpec, parse_spec
from fracdim.harness import RunError, Verdict, report_render, run


def small_spec(tmp_path, **kw):
    base = dict(
        name="small",
        hurst=0.5,
        dim=1,
        n_points=1024,
        ensemble=4,
        base_seed=11,
        output_dir=str(tmp_path),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_generate_is_byte_stable(tmp_path):
    spec = small_spec(tmp_path, ensemble=1)
    run(spec, tasks=("generate",))
    first = (tmp_path / "small" / "paths" / "member_000000.frd").read_bytes()
    run(spec, tasks=("generate",))
    second = (tmp_path / "small" / "paths" / "member_000000.frd").read_bytes()
    assert first == second


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dim", [1, 2], ids=["circulant-d1", "circulant-d2"])
def test_generate_writes_each_members_draw(tmp_path, dim, jobs):
    # gen writes the identity solution from 0, which must be the draw bit for bit
    from fracdim import fbm

    spec = small_spec(tmp_path, dim=dim, n_points=256, ensemble=5)
    run(spec, tasks=("generate",), jobs=jobs)
    for k in range(spec.ensemble):
        own = tmp_path / f"draw_{k}.frd"
        fbm.write_path(fbm.generate_circulant(spec.grid, dim, spec.hurst, spec.base_seed + k), own)
        written = tmp_path / "small" / "paths" / f"member_{k:06d}.frd"
        assert written.read_bytes() == own.read_bytes()


@pytest.mark.parametrize("hurst", [0.75, 0.3], ids=["step2", "step3"])
def test_every_solution_starts_at_zero_and_gen_writes_the_identity_one(tmp_path, hurst):
    # every path a run reads or writes starts at 0 at time 0, whichever way it is solved
    from fracdim import fbm
    from fracdim.config import solve_member
    from fracdim.fields import FIELD_CATALOG

    for fname in FIELD_CATALOG:
        dim = 1 if fname == "geometric_1d" else 2
        spec = small_spec(tmp_path, name=fname, hurst=hurst, dim=dim, n_points=64, ensemble=3,
                          fields=(fname,))
        run(spec, tasks=("generate",))
        for k in range(spec.ensemble):
            sol = solve_member(spec, k, fname)
            assert sol.grid.t_start == 0.0 and (sol.values[0] == 0.0).all()
            own = tmp_path / f"{fname}_{k}.frd"
            fbm.write_path(solve_member(spec, k, "identity"), own)
            written = tmp_path / fname / "paths" / f"member_{k:06d}.frd"
            assert written.read_bytes() == own.read_bytes()


def test_artifacts_stay_under_named_directory(tmp_path):
    spec = small_spec(tmp_path, ensemble=2)
    run(spec, tasks=("generate", "solve"))
    top = {p.name for p in tmp_path.iterdir()}
    assert top == {"small"}
    inner = {p.name for p in (tmp_path / "small").iterdir()}
    assert {"paths", "solutions_identity", "report.json", "report.txt"} <= inner


def test_dim_task_verdict_and_csv(tmp_path):
    spec = small_spec(tmp_path, n_points=4096, ensemble=4)
    report = run(spec, tasks=("dim_image",))
    assert len(report.verdicts) == 1
    v = report.verdicts[0]
    assert "min(d, 1/H)" in v.claim
    assert v.verdict in ("pass", "fail")
    csv = (tmp_path / "small" / "estimates.csv").read_text().splitlines()
    assert csv[0] == "estimator,H,d,n_points,seed,param,slope,r2,value"
    assert len(csv) == 1 + spec.ensemble
    doc = json.loads((tmp_path / "small" / "report.json").read_text())
    assert doc["verdicts"][0]["theorem"] == v.claim
    assert "numpy" in doc["versions"]


def test_report_reruns_bit_identical(tmp_path):
    spec = small_spec(tmp_path, n_points=4096, ensemble=4)
    a = run(spec, tasks=("dim_image",)).as_dict()
    b = run(spec, tasks=("dim_image",)).as_dict()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


# every task that maps members over the ensemble, at small sizes:
# (task, spec overrides); the levelset cases cover dH < 1 and dH > 1
MEMBER_TASKS = {
    "dim_image": ("dim_image", dict(n_points=4096, ensemble=4)),
    "dim_graph": ("dim_graph", dict(n_points=1024, ensemble=4)),
    "levelset_d1": ("levelset", dict(n_points=1024, ensemble=8)),
    "levelset_d2": ("levelset", dict(hurst=0.6, dim=2, n_points=1024, ensemble=8)),
    "tail": ("tail", dict(n_points=64, ensemble=1000)),
    "energy": ("energy", dict(hurst=0.75, dim=2, n_points=256, ensemble=4)),
    "mu": ("mu", dict(n_points=256, ensemble=8)),
    "density": ("density", dict(n_points=64, ensemble=10_000)),
    "bivariate": ("bivariate", dict(n_points=64, ensemble=100_000)),
}


# the tasks that write one .frd file per member; 9 members split unevenly into blocks
FILE_TASKS = {
    "generate": ("generate", dict(n_points=256, ensemble=9)),
    "solve": ("solve", dict(dim=2, fields=("identity", "elliptic_sin_2d"), n_points=256, ensemble=9)),
    "solve_step3": ("solve", dict(hurst=0.3, dim=2, fields=("elliptic_sin_2d",), n_points=256,
                                  ensemble=9)),
}


def _frd_bytes(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*.frd"))}


@pytest.mark.parametrize("case", list(MEMBER_TASKS) + list(FILE_TASKS))
def test_jobs_do_not_change_results(tmp_path, case):
    task, overrides = {**MEMBER_TASKS, **FILE_TASKS}[case]
    spec = small_spec(tmp_path, **overrides)
    a = run(spec, tasks=(task,), jobs=1)
    files = _frd_bytes(tmp_path)
    b = run(spec, tasks=(task,), jobs=2)
    assert a.results == b.results
    assert _frd_bytes(tmp_path) == files  # the files written at jobs 2 are byte-identical
    if task in FILE_TASKS:
        assert len(files) == spec.ensemble * (len(spec.fields) if task == "solve" else 1)


# each judged task's windows, in verdict order: the pass thresholds are fixed in
# the harness, and slope_tol is at its default
WINDOWS = {
    "levelset_d1": ["[0.3500, 0.6500]", ">= 0.1"],
    "tail": ["R2 >= 0.9 and dR2 >= -0.02", "rank corr >= 0.8, at most one monotonicity inversion"],
    "density": ["slope < 0 and R2 >= 0.85", "relative error <= 0.1"],
    "bivariate": ["slope < 0 and R2 >= 0.8", "<= 0.15"],
    "energy": ["growth factors non-increasing (0.01 slack), last <= 1.07",
               "last growth >= 1.1, total >= 1.35"],
    "mu": [">= 0.5 at every sharpness", "growth factors decreasing, final <= 1.35",
           "growth factors decreasing, final <= 1.35"],
}


@pytest.mark.parametrize("case", list(WINDOWS))
def test_verdict_windows_print_the_fixed_thresholds(tmp_path, case):
    task, overrides = MEMBER_TASKS[case]
    report = run(small_spec(tmp_path, **overrides), tasks=(task,))
    assert [v.window for v in report.verdicts] == WINDOWS[case]


def test_run_requires_known_tasks(tmp_path):
    spec = small_spec(tmp_path)
    with pytest.raises(ConfigError, match="unknown task 'warp'"):
        run(spec, tasks=("warp",))
    with pytest.raises(RunError):
        run(spec, tasks=())
    with pytest.raises(ConfigError, match="duplicate name 'tail' in tasks"):
        run(spec, tasks=("tail", "tail"))


def test_report_render_empty_banner():
    from fracdim.harness import RunReport

    empty = RunReport(spec={"name": "x"}, results={}, verdicts=[], wall_time=0.1, versions={})
    text, doc = report_render(empty)
    assert "no claims tested" in text
    assert doc["verdicts"] == []


def test_report_render_orders_failures_first():
    from fracdim.harness import RunReport

    report = RunReport(
        spec={"name": "x"},
        results={},
        verdicts=[
            Verdict("good claim", "1", "[0,2]", "pass"),
            Verdict("bad claim", "9", "[0,2]", "fail"),
        ],
        wall_time=0.0,
        versions={},
    )
    text, _ = report_render(report)
    lines = [l for l in text.splitlines() if l.startswith("[")]
    assert lines[0].startswith("[FAIL")
    assert lines[1].startswith("[PASS")
    assert not report.passed


# ----------------------------------------------------------------------- CLI

def write_config(tmp_path, body):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(body, encoding="utf-8")
    return str(cfg)


def test_cli_gen_roundtrip(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"name = cli_demo\nhurst = 0.5\nn_points = 256\nensemble = 1\n"
        f"output_dir = {tmp_path}\n",
    )
    rc = cli.main(["gen", cfg, "--jobs", "1"])
    assert rc == 0
    assert (tmp_path / "cli_demo" / "paths" / "member_000000.frd").exists()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_config(
        tmp_path,
        f"name = cli_demo\nhurst = 0.5\nn_points = 256\nensemble = 1\n"
        f"output_dir = {tmp_path}\n",
    )
    cli.main(["gen", cfg, "--jobs", "1"])
    first = (tmp_path / "cli_demo" / "paths" / "member_000000.frd").read_bytes()
    cli.main(["gen", cfg, "--jobs", "1", "--seed", "99"])
    second = (tmp_path / "cli_demo" / "paths" / "member_000000.frd").read_bytes()
    assert first != second


def test_cli_out_of_range_seed_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, f"name = x\nhurst = 0.5\nn_points = 256\noutput_dir = {tmp_path}\n")
    assert cli.main(["gen", cfg, "--jobs", "1", "--seed", "-1"]) == 2
    assert "2^64" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_bad_config_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "name = x\nhurst = 0.1\n")
    assert cli.main(["gen", cfg]) == 2
    assert "hurst" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [0, -4])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    # was run serially without a word
    spec = small_spec(tmp_path, name="x", ensemble=1)
    with pytest.raises(RunError, match=f"jobs must be >= 1, not {jobs}"):
        run(spec, tasks=("generate",), jobs=jobs)
    cfg = write_config(tmp_path, f"name = x\nhurst = 0.5\nn_points = 256\noutput_dir = {tmp_path}\n")
    assert cli.main(["gen", cfg, "--jobs", str(jobs)]) == 2
    assert f"jobs must be >= 1, not {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_default_jobs_are_the_usable_cores(tmp_path, monkeypatch):
    # a process pinned to fewer cores than the host has runs that many workers
    seen = []

    def fake_run(spec, tasks, jobs):
        seen.append(jobs)
        raise RunError("stop")

    monkeypatch.setattr(cli, "run", fake_run)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    cfg = write_config(tmp_path, f"name = x\nhurst = 0.5\nn_points = 256\noutput_dir = {tmp_path}\n")
    assert cli.main(["gen", cfg]) == 2
    monkeypatch.delattr(cli.os, "sched_getaffinity")  # a platform without it
    assert cli.main(["gen", cfg]) == 2
    assert seen == [1, 64]


def test_cli_failing_verdict_exit_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"name = doomed\nhurst = 0.5\nn_points = 1024\nensemble = 2\n"
        f"output_dir = {tmp_path}\n[dim_image]\nslope_tol = 0.00001\n",
    )
    rc = cli.main(["dim", cfg, "--jobs", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[FAIL" in out


def test_cli_repro_uses_config_tasks(tmp_path):
    cfg = write_config(
        tmp_path,
        f"name = rep\nhurst = 0.5\nn_points = 1024\nensemble = 1\n"
        f"output_dir = {tmp_path}\ntasks = generate\n",
    )
    assert cli.main(["repro", cfg, "--jobs", "1"]) == 0
    assert (tmp_path / "rep" / "paths").exists()


def test_cli_repro_without_tasks_errors(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"name = rep\nhurst = 0.5\nn_points = 1024\noutput_dir = {tmp_path}\n",
    )
    assert cli.main(["repro", cfg]) == 2


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACDIM_OUT", str(tmp_path / "envroot"))
    spec = ExperimentSpec(name="envy", hurst=0.5, n_points=256, ensemble=1)
    run(spec, tasks=("generate",))
    assert (tmp_path / "envroot" / "envy" / "paths").exists()


def test_shipped_configs_parse():
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in cfg_dir.glob("*.cfg"))
    assert len(names) >= 10
    for p in cfg_dir.glob("*.cfg"):
        spec = parse_spec(p.read_text())
        assert spec.tasks


def test_member_failure_rate_policy(tmp_path):
    from fracdim.harness import RunError, _member_map

    spec = small_spec(tmp_path)  # base_seed 11

    def flaky(spec, indices, states):
        if any(i % 10 == 0 for i in indices):
            raise ValueError("boom")
        return indices

    with pytest.raises(RunError, match="member failures"):
        _member_map(flaky, spec, range(100), 1)

    def one_bad(spec, indices, states):
        if 0 in indices:
            raise ValueError("boom")
        return indices

    res, fails = _member_map(one_bad, spec, range(200), 1)
    assert len(res) == 199
    assert fails == {11: "ValueError: boom"}  # keyed by the member's seed


def _dies_on_member_3(spec, indices, states):
    if 3 in indices:
        os._exit(1)  # the worker process dies, as under an out-of-memory kill
    return indices


def test_dead_worker_process_fails_its_block(tmp_path):
    from fracdim.harness import _member_map

    with pytest.raises(RunError, match="member failures.*BrokenProcessPool"):
        _member_map(_dies_on_member_3, small_spec(tmp_path), range(16), 2)


def test_pool_starts_one_process_per_block(tmp_path, monkeypatch):
    # a forking pool starts max_workers processes at its first submit
    from concurrent.futures import ProcessPoolExecutor

    from fracdim import harness

    sizes = []

    def spy(max_workers):
        sizes.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", spy)
    out, failures = harness._member_map(harness._pair_worker, small_spec(tmp_path), range(2), 8,
                                        [0, 1])
    assert sizes == [2]
    assert list(out) == [0, 1] and not failures


@pytest.mark.parametrize("dim", [1, 2])
def test_tail_chunk_reduction_is_sup_increment_per_member(dim):
    from fracdim import density as dl
    from fracdim.config import solve_block
    from fracdim.harness import _sup_worker

    spec = ExperimentSpec(name="x", hurst=0.4, dim=dim, n_points=64, ensemble=300, base_seed=3)
    windows = [spec.grid.window(0.0, 1.0), spec.grid.window(0.25, 0.5)]
    for done, states, _ in solve_block(spec, range(spec.ensemble)):
        sups = np.asarray(_sup_worker(spec, done, states, windows))
        want = [[dl.sup_increment(row[w]) for w in windows] for row in states]
        assert sups.tobytes() == np.array(want).tobytes()


def _sups_failing_member_5(spec, indices, states, windows):
    from fracdim.harness import _sup_worker

    if 5 in indices:
        raise ValueError("boom")
    return _sup_worker(spec, indices, states, windows)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_raising_on_one_row_fails_that_member_alone(tmp_path, jobs):
    from fracdim.harness import _member_map, _sup_worker

    spec = small_spec(tmp_path, n_points=64, ensemble=300)  # base_seed 11
    windows = [spec.grid.window(0.0, 1.0)]
    clean, _ = _member_map(_sup_worker, spec, range(300), jobs, windows, fields="identity")
    out, failures = _member_map(_sups_failing_member_5, spec, range(300), jobs, windows,
                                fields="identity")
    assert failures == {16: "ValueError: boom"}
    assert list(out) == [k for k in range(300) if k != 5]
    assert all(np.array_equal(out[k], clean[k]) for k in out)


def test_tail_task_writes_curve_csv(tmp_path):
    spec = small_spec(tmp_path, name="tailsmall", n_points=64, ensemble=1000)
    report = run(spec, tasks=("tail",))
    csv = (tmp_path / "tailsmall" / "tail_curve.csv").read_text().splitlines()
    assert csv[0] == "xi,log_prob"
    assert len(csv) > 5
    assert "tail" in report.results


def test_solve_task_files_roundtrip(tmp_path):
    from fracdim.fbm import read_path

    spec = small_spec(tmp_path, name="solset", n_points=256, ensemble=2)
    run(spec, tasks=("solve",))
    p = read_path(tmp_path / "solset" / "solutions_identity" / "member_000001.frd")
    assert p.grid.n_points == 257
    assert p.seed == spec.base_seed + 1


def test_mu_task_untestable_when_level_sets_empty(tmp_path):
    # dH = 1.2 > 1: the measure bounds have no regime to test
    spec = small_spec(tmp_path, name="muempty", hurst=0.6, dim=2, n_points=256, ensemble=2)
    report = run(spec, tasks=("mu",))
    assert [v.verdict for v in report.verdicts] == ["untestable"]
    assert report.passed  # untestable keeps the exit contract green


def _failure_maps(node):
    """Every ``failures`` mapping in a results tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "failures":
                yield value
            else:
                yield from _failure_maps(value)


@pytest.mark.parametrize(
    "task, n_points, ensemble",
    [("generate", 256, 100), ("dim_image", 256, 100), ("levelset", 1024, 100), ("tail", 64, 1001),
     ("energy", 64, 100), ("mu", 256, 100), ("solve", 256, 100),
     ("density", 64, 10_000), ("bivariate", 64, 100_000)],
)
def test_member_failure_is_reported_under_its_seed(tmp_path, monkeypatch, task, n_points, ensemble):
    from fracdim import config

    real = config.generate_driver

    def member_1_fails(spec, indices):
        # a chunk holding member 1 fails its draw, then is drawn member by member
        if 1 in indices:
            raise ValueError("boom")
        return real(spec, indices)

    monkeypatch.setattr(config, "generate_driver", member_1_fails)
    spec = small_spec(tmp_path, n_points=n_points, ensemble=ensemble, base_seed=500)
    report = run(spec, tasks=(task,), jobs=1)
    maps = list(_failure_maps(report.results))
    assert maps and all(m == {501: "ValueError: boom"} for m in maps)
    csv = tmp_path / "small" / "estimates.csv"
    seeds = [int(line.split(",")[4]) for line in csv.read_text().splitlines()[1:]] if csv.exists() else []
    survivors = {500 + k for k in range(ensemble) if k != 1}
    assert set(seeds) <= survivors
    if task in ("dim_image", "energy"):  # one row per surviving member
        assert set(seeds) == survivors
    if task == "levelset":
        assert seeds  # some members hit the level


def test_member_failing_the_guard_in_its_block_fails_alone(tmp_path, monkeypatch):
    # member 1's driver jumps by 1e13 at step 40, so its state passes the
    # overflow guard there, inside a block with the 99 other members
    from fracdim import config
    from fracdim.fbm import read_path
    from fracdim.solver import SolverError

    real = config.generate_driver

    def jump_on_member_1(spec, indices):
        drivers = real(spec, indices)
        if 1 in indices:  # the stacked values of a chunk
            drivers[list(indices).index(1), 40:] += 1e13
        return drivers

    monkeypatch.setattr(config, "generate_driver", jump_on_member_1)
    spec = small_spec(tmp_path, hurst=0.75, dim=2, n_points=64, ensemble=100, base_seed=500,
                      fields=("elliptic_sin_2d",))
    report = run(spec, tasks=("solve",), jobs=1)
    info = report.results["solve"]["elliptic_sin_2d"]
    assert info["failures"] == {501: "SolverError: state overflow at step 40"}
    with pytest.raises(SolverError, match="step 40"):
        config.solve_member(spec, 1)
    files = sorted((tmp_path / "small" / "solutions_elliptic_sin_2d").iterdir())
    assert len(files) == 99
    for k in (0, 2, 99):
        written = read_path(tmp_path / "small" / "solutions_elliptic_sin_2d" / f"member_{k:06d}.frd")
        assert written.values.tobytes() == config.solve_member(spec, k).values.tobytes()


def _without_failures(results):
    if isinstance(results, dict):
        return {k: _without_failures(v) for k, v in results.items() if k != "failures"}
    return results


def _outputs(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.suffix in (".csv", ".frd")}


@pytest.mark.parametrize("injection", ["jump", "nan"])
@pytest.mark.parametrize(
    "task, fields, overrides",
    [("solve", "identity", dict(n_points=64, ensemble=100)),
     ("tail", "identity", dict(n_points=64, ensemble=1001)),
     ("density", "identity", dict(n_points=64, ensemble=10_000)),
     ("energy", "identity", dict(n_points=64, ensemble=100)),
     ("dim_image", "identity", dict(n_points=256, ensemble=100)),
     ("solve", "elliptic_sin_2d", dict(hurst=0.75, dim=2, n_points=64, ensemble=100))],
    ids=["solve", "tail", "density", "energy", "dim_image", "solve-elliptic"],
)
def test_every_field_set_fails_a_guarded_member_alone(tmp_path, monkeypatch, task, fields,
                                                      overrides, injection):
    # member 1's driver jumps by 1e13 from step 40, or is NaN at step 40, so its
    # state leaves the guard there; the other members' outputs are those of a
    # run where member 1 fails its draw instead
    from fracdim import config

    real = config.generate_driver

    def inject(spec, indices):
        drivers = real(spec, indices)
        if 1 in indices:
            row = drivers[list(indices).index(1)]
            if injection == "jump":
                row[40:] += 1e13
            else:
                row[40] = np.nan
        return drivers

    def draw_fails(spec, indices):
        if 1 in indices:
            raise ValueError("boom")
        return real(spec, indices)

    spec = small_spec(tmp_path, base_seed=500, fields=(fields,), **overrides)
    reports, outputs = {}, {}
    for name, driver in (("guard", inject), ("draw", draw_fails)):
        monkeypatch.setattr(config, "generate_driver", driver)
        reports[name] = run(spec, tasks=(task,), jobs=1).results
        outputs[name] = _outputs(tmp_path)
    maps = list(_failure_maps(reports["guard"]))
    assert maps and all(m == {501: "SolverError: state overflow at step 40"} for m in maps)
    assert all(m == {501: "ValueError: boom"} for m in _failure_maps(reports["draw"]))
    assert _without_failures(reports["guard"]) == _without_failures(reports["draw"])
    assert outputs["guard"] and outputs["guard"] == outputs["draw"]


def _count_solves(monkeypatch, failing=()):
    """Count the driver draws of every solve per member; a draw holding a member
    in ``failing`` raises (a failed chunk is then drawn again member by member)."""
    from collections import Counter

    from fracdim import config

    real = config.generate_driver
    calls = Counter()

    def counted(spec, indices):
        calls.update(indices)
        if set(failing) & set(indices):
            raise ValueError("boom")
        return real(spec, indices)

    monkeypatch.setattr(config, "generate_driver", counted)
    return calls


@pytest.mark.parametrize("case", list(MEMBER_TASKS))
def test_each_member_is_solved_once(tmp_path, monkeypatch, case):
    task, overrides = MEMBER_TASKS[case]
    calls = _count_solves(monkeypatch)
    spec = small_spec(tmp_path, **overrides)
    run(spec, tasks=(task,), jobs=1)
    assert calls == {k: 1 for k in range(spec.ensemble)}


@pytest.mark.parametrize("task", ["levelset", "tail", "density", "bivariate", "energy", "mu"])
def test_single_field_task_rejects_a_second_field_set(tmp_path, monkeypatch, task):
    # the task solves one field set: it would drop the second without a word
    message = rf"task {task} solves one field set, but fields names 2: elliptic_sin_2d, identity"
    text = "name = x\nhurst = 0.5\ndim = 2\nfields = elliptic_sin_2d, identity\ntasks = "
    with pytest.raises(ConfigError, match=message):
        parse_spec(text + task)
    calls = _count_solves(monkeypatch)
    spec = small_spec(tmp_path, dim=2, n_points=256, ensemble=100_000,
                      fields=("elliptic_sin_2d", "identity"))
    with pytest.raises(ConfigError, match=message):
        run(spec, tasks=(task,))
    assert not calls  # rejected before any member is solved
    # the tasks that loop over the field sets, or write the identity driver, take both
    parse_spec(text + "generate, solve, dim_image, dim_graph")


@pytest.mark.parametrize(
    "task, floor", [("tail", 1000), ("density", 10_000), ("bivariate", 100_000)],
    ids=["tail", "density", "bivariate"],
)
def test_tail_floor_is_on_the_requested_ensemble(tmp_path, monkeypatch, task, floor):
    calls = _count_solves(monkeypatch, failing={1})
    if task == "tail":
        report = run(small_spec(tmp_path, n_points=64, ensemble=1000), tasks=("tail",))
        assert len(report.verdicts) == 2  # 999 survivors, within the 1% failure cap
        assert report.results["tail"]["failures"] == {12: "ValueError: boom"}
        calls.clear()
    with pytest.raises(RunError, match=f"{task} needs at least {floor} members, not {floor - 1}"):
        run(small_spec(tmp_path, n_points=64, ensemble=floor - 1), tasks=(task,))
    assert not calls  # rejected before any member is solved


@pytest.mark.parametrize(
    "module", ["fracdim"] + [f"fracdim.{m.name}" for m in pkgutil.iter_modules(fracdim.__path__)]
)
def test_every_public_name_resolves(module):
    # a stale __all__ entry breaks `from ... import *` and every getattr over __all__
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, 2.0, 3.0, 5.0, 4.0], [0.3, 0.1, 0.7, 0.2, 0.9, 0.5]),  # ties in x
    ([0.3, 0.1, 0.7, 0.2, 0.9, 0.5], [1.0, 2.0, 2.0, 3.0, 2.0, 4.0]),  # ties in y
    ([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 0.5], [4.0, 2.0, 2.0, 1.0, 4.0, 4.0, 1.0]),  # ties in both
    ([0.1, 0.5, 2.0, 7.0], [-3.0, 1.0, 1.5, 40.0]),  # monotone
    ([0.1, 0.5, 2.0, 7.0, 9.0], [40.0, 1.5, 1.0, -3.0, -3.5]),  # anti-monotone
], ids=["ties-x", "ties-y", "ties-both", "monotone", "anti-monotone"])
def test_rank_corr_is_spearmanr(x, y):
    from scipy import stats

    from fracdim.harness import _rank_corr

    x, y = np.array(x), np.array(y)
    expected = np.float64(stats.spearmanr(x, y).statistic)
    assert np.float64(_rank_corr(x, y)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("x, y", [
    ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),
    ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, 2.0, np.nan]),
], ids=["constant-x", "constant-y", "nan-x", "nan-y"])
def test_rank_corr_is_nan_where_spearmanr_is(x, y):
    from fracdim.harness import _rank_corr

    assert math.isnan(_rank_corr(np.array(x), np.array(y)))


def test_run_path_imports_no_scipy_submodule():
    # scipy.stats alone adds about 0.9 s to the start of every fresh fracdim process;
    # the numpy modules a run needs are loaded up front, not inside the first run
    code = "import sys, fracdim.harness, fracdim.cli; print(*[m for m in sys.argv[1:] if m in sys.modules])"
    lazy = ["scipy.stats", "scipy.spatial", "scipy.integrate", "scipy.special"]
    eager = ["numpy.fft", "numpy.ma", "numpy.random"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    loaded = subprocess.run([sys.executable, "-c", code, *lazy, *eager], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == eager
