"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line; the shipped configs under configs/ pin every seed, so
reruns are bit-identical.
"""
import json
import math
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from fracdim import density as dl, dimension as dm, fbm, fields, roughpath as rp, solver
from fracdim.config import parse_spec_file, solve_member
from fracdim.fbm import SamplePath, TimeGrid
from fracdim.harness import run
from fracdim.solver import SolverScheme

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def run_config(name, tmp_path):
    spec = parse_spec_file(CONFIG_DIR / name)
    spec = replace(spec, output_dir=str(tmp_path))
    return run(spec)


def test_criterion_01_covariance_and_kernel():
    with criterion(1, "covariance of exact samples and the kernel identity"):
        grid = TimeGrid(64, 0.0, 1.0)
        for h in (0.3, 0.7):
            p = fbm.generate_cholesky(grid, 10_000, h, seed=42)
            x = p.values[1:, :]
            emp = (x @ x.T) / x.shape[1]
            ana = fbm.build_covariance_grid(grid, h).entries
            se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / x.shape[1])
            assert (np.abs(emp - ana) / se).max() < 3.0
        pts = (0.2, 0.4, 0.6, 0.8, 1.0)
        for h in (0.3, 0.5, 0.7):
            for s in pts:
                for t in pts:
                    if s >= t:
                        continue
                    val, _ = integrate.quad(
                        lambda u: fbm.kernel_kh(t, u, h) * fbm.kernel_kh(s, u, h),
                        0.0,
                        s,
                        limit=200,
                    )
                    target = fbm.covariance(s, t, h)
                    assert abs(val - target) / abs(target) < 1e-3


def test_criterion_02_algebra_exactness():
    with criterion(2, "Chen identities exact to 1e-12, 1-d degeneracy exact"):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            depth = int(rng.integers(2, 4))
            segs = [rp.segment_signature(rng.normal(size=dim), depth) for _ in range(3)]
            a, b, c = segs
            left = rp.chen_concat(rp.chen_concat(a, b), c)
            right = rp.chen_concat(a, rp.chen_concat(b, c))
            for la, lb in zip(left.levels, right.levels):
                assert np.allclose(la, lb, rtol=1e-12, atol=1e-12)
        path = fbm.generate_circulant(TimeGrid(17, 0.0, 1.0), 2, 0.5, seed=3)
        sig = rp.lift_path(path, 2)
        whole = sig.combined(0, 16)
        glued = rp.chen_concat(sig.combined(0, 7), sig.combined(7, 16))
        for la, lb in zip(whole.levels, glued.levels):
            assert np.allclose(la, lb, rtol=1e-12, atol=1e-12)
        t = rp.segment_signature(np.array([1.3]), 2)
        for _ in range(5):
            t = rp.chen_concat(t, rp.segment_signature(np.array([-0.4]), 2))
        assert t.levels[2][0, 0] == pytest.approx(t.levels[1][0] ** 2 / 2, rel=1e-12)


def test_criterion_03_solver_floor():
    with criterion(3, "identity solve exact; geometric strong order >= 0.4"):
        path = fbm.generate_circulant(TimeGrid(2**10 + 1, 0.0, 1.0), 2, 0.5, seed=5)
        sig = rp.lift_path(path, 2)
        x0 = np.array([0.3, -0.7])
        sol = solver.solve(fields.make_identity(2), x0, sig, SolverScheme("step2_davie"))
        assert np.abs(sol.values - (x0 + path.values)).max() < 1e-12
        sigma = 0.8
        geo = fields.make_geometric_1d(sigma)
        grids = (8, 9, 10, 11, 12)
        drivers = [
            fbm.generate_circulant(TimeGrid(2**12 + 1, 0.0, 1.0), 1, 0.5, seed=10_000 + m)
            for m in range(256)
        ]
        exact = [math.exp(sigma * driver.values[-1, 0]) for driver in drivers]
        dsig = rp.lift_path(drivers, 2)  # the 256 members stacked, solved in one loop per grid
        means = []
        for j in grids:
            s = rp.coarsen(dsig, 2 ** (12 - j))
            outs = solver.solve(geo, np.ones((256, 1)), s, SolverScheme("step2_davie"))
            means.append(float(np.mean([abs(out.values[-1, 0] - e) for out, e in zip(outs, exact)])))
        assert all(b < a for a, b in zip(means, means[1:]))
        order = -np.polyfit(list(grids), np.log2(means), 1)[0]
        assert order >= 0.4


def test_criterion_04_image_dimension(tmp_path):
    with criterion(4, "image dimension min(d, 1/H) at (2, 0.75) and (1, 0.5)"):
        report = run_config("repro_thm_main.cfg", tmp_path)
        assert report.passed
        for fname in ("identity", "elliptic_sin_2d"):
            med = report.results["dim_image"][fname]["median_slope"]
            assert 1.18 <= med <= 1.48
        report1 = run_config("repro_dim_d1.cfg", tmp_path)
        assert report1.passed
        med = report1.results["dim_image"]["identity"]["median_slope"]
        assert 0.9 <= med <= 1.1


def test_criterion_05_graph_dimension(tmp_path):
    with criterion(5, "graph dimension (1-H)d+1 at (1, 0.5) and (2, 0.4)"):
        report1 = run_config("repro_graph_d1.cfg", tmp_path)
        assert report1.passed
        med1 = report1.results["dim_graph"]["identity"]["median_slope"]
        assert 1.35 <= med1 <= 1.65
        report2 = run_config("repro_graph_d2.cfg", tmp_path)
        assert report2.passed
        med2 = report2.results["dim_graph"]["identity"]["median_slope"]
        assert 2.0 <= med2 <= 2.4


def test_criterion_06_level_sets(tmp_path):
    with criterion(6, "level-set dimension 1-dH with positive probability; empty for dH>1"):
        report1 = run_config("repro_levelset_d1.cfg", tmp_path)
        assert report1.passed
        res = report1.results["levelset"]
        assert 0.35 <= res["median_slope"] <= 0.65
        assert res["hit_fraction"] >= 0.10
        report2 = run_config("repro_levelset_d2.cfg", tmp_path)
        assert report2.passed
        fracs = report2.results["levelset"]["hit_fractions"]
        assert len(fracs) == 4
        assert all(b < a for a, b in zip(fracs, fracs[1:]))


def test_criterion_07_sup_increment_tails(tmp_path):
    with criterion(7, "tail exponent ladder, R2 floor, and time scaling"):
        report = run_config("repro_tail.cfg", tmp_path)
        assert report.passed
        res = report.results["tail"]
        assert res["best_exponent"] == 2.0
        assert res["r2_by_exponent"]["2.0"] >= 0.9
        assert res["rank_corr"] >= 0.8
        report4 = run_config("repro_tail_h04.cfg", tmp_path)
        assert report4.passed
        res4 = report4.results["tail"]
        delta = res4["r2_by_exponent"]["1.8"] - res4["r2_by_exponent"]["2.0"]
        assert delta >= -0.02
        assert res4["rank_corr"] >= 0.8


def test_criterion_08_density_decay(tmp_path):
    with criterion(8, "Gaussian-case KDE within 10%; envelope R2 floors 0.85/0.80"):
        report = run_config("repro_density.cfg", tmp_path)
        assert report.passed
        dens = report.results["density"]
        assert dens["mode_rel_error"] <= 0.10
        assert dens["envelope_r2"] >= 0.85
        biv = report.results["bivariate"]
        assert biv["profile_r2"] >= 0.80
        assert biv["oracle_worst_rel"] <= 0.15


def test_criterion_09_energy_and_mu(tmp_path):
    with criterion(9, "line energy within 2%; refinement dichotomy; mu bounds"):
        n = 2**13 + 1
        line = SamplePath(TimeGrid(n, 0.0, 1.0), np.linspace(0.0, 1.0, n))
        e = dm.energy_integral(line, 0.5, (0.0, 1.0))
        assert abs(e.value - 8.0 / 3.0) / (8.0 / 3.0) <= 0.02
        report = run_config("repro_energy.cfg", tmp_path)
        assert report.passed
        below = report.results["energy"]["below"]
        above = report.results["energy"]["above"]
        assert below["growth"][-1] <= 1.07
        assert above["growth"][-1] >= 1.10
        report_mu = run_config("repro_mu.cfg", tmp_path)
        assert report_mu.passed
        res = report_mu.results["mu"]
        assert min(res["mass_means"]) >= 0.5
        for seq in (res["mass2_means"], res["energy_means"]):
            growth = [b / a for a, b in zip(seq, seq[1:])]
            assert all(b < a for a, b in zip(growth, growth[1:]))
            assert growth[-1] <= 1.35


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "same seeds reproduce every numeric bit-exactly"):
        grid = TimeGrid(257, 0.0, 1.0)
        a = fbm.generate_cholesky(TimeGrid(65, 0.0, 1.0), 3, 0.7, seed=9)
        b = fbm.generate_cholesky(TimeGrid(65, 0.0, 1.0), 3, 0.7, seed=9)
        assert np.array_equal(a.values, b.values)
        c = fbm.generate_circulant(grid, 2, 0.4, seed=9)
        d = fbm.generate_circulant(grid, 2, 0.4, seed=9)
        assert np.array_equal(c.values, d.values)
        sig = rp.lift_path(c, 2)
        geo = fields.make_elliptic_sin_2d()
        s1 = solver.solve(geo, np.zeros(2), sig, SolverScheme("step2_davie"))
        s2 = solver.solve(geo, np.zeros(2), sig, SolverScheme("step2_davie"))
        assert np.array_equal(s1.values, s2.values)
        spec = parse_spec_file(CONFIG_DIR / "repro_tail.cfg")
        spec = replace(spec, output_dir=str(tmp_path), ensemble=1000, n_points=64)
        sups1 = [dl.sup_increment(solve_member(spec, k).values) for k in range(50)]
        sups2 = [dl.sup_increment(solve_member(spec, k).values) for k in range(50)]
        assert sups1 == sups2
        e1 = dm.energy_integral(c, 1.2, (0.0, 1.0)).value
        e2 = dm.energy_integral(c, 1.2, (0.0, 1.0)).value
        assert e1 == e2
        m1 = dm.mu_measure(c, np.zeros(2), 16.0, 0.3, (0.25, 1.0))
        m2 = dm.mu_measure(c, np.zeros(2), 16.0, 0.3, (0.25, 1.0))
        assert m1 == m2
        small = replace(spec, name="repro_check", ensemble=4, n_points=2048)
        r1 = run(small, tasks=("dim_image",)).as_dict()
        r2 = run(small, tasks=("dim_image",)).as_dict()
        r1.pop("wall_time")
        r2.pop("wall_time")
        assert r1 == r2
        doc = json.loads((tmp_path / "repro_check" / "report.json").read_text())
        assert doc["spec"]["base_seed"] == small.base_seed
