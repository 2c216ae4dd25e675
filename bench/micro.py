"""Layer microbenchmarks at fixed sizes and seeds.

Each timing is the median of repeats in one fresh process.  "Cold" figures
clear the generator's lazily filled cache before every call (the 2^22 one is a
single first call); the others are warm.  Figures ending in ``_computed`` are
work counts computed from the sizes, not measured.  Items that take a second
or more per call get two or three repeats, light ones five.
"""
from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from fracdim import density as dl
from fracdim import dimension as dm
from fracdim import fbm
from fracdim.config import parse_spec_file, solve_member
from fracdim.fields import resolve_fields
from fracdim.roughpath import coarsen, lift_path
from fracdim.solver import SolverScheme, solve

SEED = 1


def _times(fn, repeats: int, before=None) -> list[float]:
    out = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _median(fn, repeats: int = 5, before=None) -> float:
    return statistics.median(_times(fn, repeats, before))


def _grid(n: int) -> fbm.TimeGrid:
    return fbm.TimeGrid(n + 1, 0.0, 1.0)


def run_micro(scratch: Path) -> dict[str, float]:
    m: dict[str, float] = {}

    # fbm: circulant at 2^16 (d = 2, H = 0.75 as in repro_thm_main) and 2^22
    # (d = 2, H = 0.4 as in repro_graph_d2); Cholesky at 1024 points
    g16 = _grid(2**16)
    circ16 = lambda: fbm.generate_circulant(g16, 2, 0.75, SEED)  # noqa: E731
    clear_eigs = fbm._embedding_eigenvalues.cache_clear
    m["fbm.circulant_cold_ms.n16"] = 1e3 * _median(circ16, before=clear_eigs)
    m["fbm.circulant_ms.n16"] = 1e3 * _median(circ16)
    g22 = _grid(2**22)
    circ22 = lambda: fbm.generate_circulant(g22, 2, 0.4, SEED)  # noqa: E731
    clear_eigs()
    t0 = time.perf_counter()
    path22 = circ22()
    m["fbm.circulant_cold_s.n22"] = time.perf_counter() - t0
    m["fbm.circulant_s.n22"] = _median(circ22, 2)
    g1024 = _grid(1024)
    chol = lambda: fbm.generate_cholesky(g1024, 1, 0.5, SEED)  # noqa: E731
    m["fbm.cholesky_setup_ms.n1024"] = 1e3 * _median(
        chol, 3, before=fbm._grid_factorization.cache_clear
    )
    m["fbm.cholesky_ms.n1024"] = 1e3 * _median(chol)
    path16 = circ16()
    dest = scratch / "micro.frd"
    m["fbm.write_path_ms.n16"] = 1e3 * _median(lambda: fbm.write_path(path16, dest))
    m["fbm.read_path_ms.n16"] = 1e3 * _median(lambda: fbm.read_path(dest))
    m["fbm.frd_bytes_computed.n16"] = 4 + fbm._HEADER.size + path16.values.size * 8

    # roughpath: depth-2 and depth-3 lifts, Chen coarsening of the depth-3 lift
    m["roughpath.lift2_ms.n16"] = 1e3 * _median(lambda: lift_path(path16, 2))
    m["roughpath.lift3_ms.n16"] = 1e3 * _median(lambda: lift_path(path16, 3))
    sig3 = lift_path(path16, 3)
    m["roughpath.coarsen_ms.n16"] = 1e3 * _median(lambda: coarsen(sig3, 4))

    # fields and solver: elliptic_sin_2d, step-2 at H = 0.75 (2^12 steps) and
    # step-3 at H = 0.3 (2^14 steps), which no shipped config exercises
    fs = resolve_fields("elliptic_sin_2d", 2)
    x = np.array([0.3, -0.2])

    def evals() -> None:
        for _ in range(1000):
            fs.v(x)
            fs.first_derivatives(x)
            fs.second_derivatives(x)

    m["fields.elliptic_us_per_eval"] = 1e6 * _median(evals) / 1000
    x0 = np.zeros(2)
    for label, h, n, scheme, depth, reps in (
        ("step2", 0.75, 2**12, "step2_davie", 2, 3),
        ("step3", 0.3, 2**14, "step3", 3, 2),
    ):
        sig = lift_path(fbm.generate_circulant(_grid(n), 2, h, SEED), depth)
        sec = _median(lambda: solve(fs, x0, sig, SolverScheme(scheme)), reps)
        m[f"solver.{label}_us_per_step"] = 1e6 * sec / n
        m[f"solver.{label}_steps_computed"] = n

    # dimension: box counting, the 2^22 graph, energy at 8192, mu at 1024
    cloud16 = dm.image_cloud(path16)
    eps16 = dm.cloud_span(cloud16) / 64.0
    m["dimension.box_count_ms.n16d2"] = 1e3 * _median(lambda: dm.box_count(cloud16, eps16))
    graph22 = dm.graph_cloud(path22)
    del path22
    span22 = dm.cloud_span(graph22)
    m["dimension.box_dimension_s.n22graph"] = _median(
        lambda: dm.box_dimension(graph22, (span22 / 8.0, span22 / 128.0), 5), 2
    )
    del graph22
    p8192 = fbm.generate_circulant(_grid(8192), 2, 0.75, SEED)
    gamma = 1.0 / 0.75 - 0.13
    m["dimension.energy_s.n8192"] = _median(lambda: dm.energy_integral(p8192, gamma, (0.0, 1.0)), 2)
    m["dimension.energy_pairs_computed.n8192"] = 8193**2
    p1024 = fbm.generate_circulant(_grid(1024), 1, 0.5, SEED)
    m["dimension.mu_ms.n1024"] = 1e3 * _median(
        lambda: dm.mu_measure(p1024, np.zeros(1), 64, 0.4, (0.1, 1.0))
    )

    # density: the KDE kernel (10^5 samples at 81 centres) and the 2-d sup-increment
    rng = np.random.default_rng(SEED)
    samples = rng.standard_normal((100_000, 1))
    centers = np.linspace(-4.0, 4.0, 81).reshape(-1, 1)
    m["density.kde_ms.1e5x81"] = 1e3 * _median(lambda: dl._kde_at(samples, centers))
    m["density.kde_evals_computed.1e5x81"] = samples.shape[0] * centers.shape[0]
    v256 = fbm.generate_circulant(_grid(256), 2, 0.5, SEED).values

    def sups() -> None:
        for _ in range(200):
            dl.sup_increment(v256)

    m["density.sup_increment_us.n256d2"] = 1e6 * _median(sups) / 200

    # config: one full member of the density config (n = 64, identity)
    spec = parse_spec_file("configs/repro_density.cfg")

    def members() -> None:
        for k in range(500):
            solve_member(spec, k)

    m["config.solve_member_us.n64"] = 1e6 * _median(members) / 500
    bad = {k: v for k, v in m.items() if not (math.isfinite(v) and v > 0)}
    if bad:
        raise RuntimeError(f"microbenchmark gave no positive finite figure: {bad}")
    return m
