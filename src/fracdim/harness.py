"""Experiment runner: executes estimator tasks over seeded ensembles,
aggregates, renders verdicts, and persists reports.

Every verdict names the mathematical claim it tests and the window applied.
Each task reads its parameters as one dict, ``spec.task_settings(task)``: the
config section over the defaults of ``config.TASK_PARAMS``, which lists every
section key; a spec rejects an unknown or wrongly typed key, and ``run``
rejects settings a requested task cannot use (``spec.check_task``) before any
member is solved.  Every pass threshold but ``slope_tol`` is fixed in the task
that judges by it, and printed in its verdict's window.
``_member_map`` runs the members of every task, and aborts once more than
1% fail (``MEMBER_FAILURE_RATE``, not configurable).
It sends one contiguous block of members to each of the ``jobs`` workers; a
block is drawn and solved a chunk at a time (``config.solve_block``: one
driver draw, then one solve through ``solver``'s one core, whose guard fails
a member alone), and each chunk's surviving states go to the task's worker
as one (members, n_points, d) array.  Every task takes its members this way;
``generate`` writes the ``identity`` solution from 0, which is the driver bit
for bit.  Tail, density and bivariate reduce or slice the array; the other
workers read it row by row.  Member seeds are base_seed + index, and a
member's solution does not depend on the block or chunk it is solved in, so
parallel execution order can never change a result.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.ma  # noqa: F401  np.quantile imports it at first use, inside a run; load it up front
import scipy  # for its version only: the run path loads no scipy submodule

from . import __version__, density as dl, dimension as dm
from .config import ExperimentSpec, _check_tasks, member_seed, solve_block
from .config import solve_member  # noqa: F401  bound for the benchmark's tracer (bench/spans.py)
from .fbm import HurstParam, SamplePath, write_path
from .fields import resolve_fields
from .solver import check_ellipticity

__all__ = ["MEMBER_FAILURE_RATE", "RunError", "RunReport", "Verdict", "report_render", "run"]

#: largest share of an ensemble that may fail before the run aborts
MEMBER_FAILURE_RATE = 0.01

#: task -> the fewest members its estimator accepts, checked before any solve
_ENSEMBLE_FLOORS = {"tail": dl._MIN_TAIL_ENSEMBLE, "density": dl._MIN_KDE_ENSEMBLE,
                    "bivariate": dl._MIN_BIVARIATE_ENSEMBLE}


class RunError(RuntimeError):
    """Run-level failure (too many member failures, no task, too few members, jobs < 1)."""


@dataclass(frozen=True)
class Verdict:
    claim: str
    measured: str
    window: str
    verdict: str  # pass | fail | untestable
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        doc = {
            "theorem": self.claim,
            "measured": self.measured,
            "window": self.window,
            "verdict": self.verdict,
        }
        doc.update(self.extras)
        return doc


def _judged(claim: str, measured: str, window: str, ok, **extras) -> Verdict:
    """The verdict on a claim: pass when ``ok``, else fail."""
    return Verdict(claim, measured, window, "pass" if ok else "fail", extras)


@dataclass
class RunReport:
    spec: dict
    results: dict
    verdicts: list[Verdict]
    wall_time: float
    versions: dict

    @property
    def passed(self) -> bool:
        return all(v.verdict in ("pass", "untestable") for v in self.verdicts)

    def as_dict(self) -> dict:
        return {
            "spec": self.spec,
            "results": self.results,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "wall_time": self.wall_time,
            "versions": self.versions,
        }


def _run_block(worker, spec: ExperimentSpec, indices, args, fields=None):
    """``worker`` over the members of one block: ([(indices, results)], {seed: error}).

    The block is solved under the field set ``fields`` (by default the spec's
    first) a chunk at a time (``solve_block``), and the worker is called as
    ``worker(spec, indices, states, *args)`` on each chunk's survivors with
    their (k, n_points, d) states; it returns one result per index.  If a call
    raises, the worker is called again on each of its members alone, so a
    failure is tallied under its member only.
    Results stay as the worker returned them, one entry per call, which keeps a
    chunk's array one object when it is sent back from a worker process.
    """
    parts, failures = [], {}

    def fail(i, exc):
        failures[member_seed(spec, i)] = f"{type(exc).__name__}: {exc}"

    for done, states, failed in solve_block(spec, indices, fields):
        for i, exc in failed.items():
            fail(i, exc)
        try:
            parts.append((done, worker(spec, done, states, *args)))
        except Exception:  # called again member by member, so a failure is its member's alone
            for r, i in enumerate(done):
                try:
                    parts.append(([i], worker(spec, [i], states[r:r + 1], *args)))
                except Exception as exc:  # tallied, aborts only past the rate cap
                    fail(i, exc)
    return parts, failures


def _member_map(worker, spec: ExperimentSpec, indices, jobs: int, *args, fields=None):
    """Failure-tallied map of a member worker over the ensemble (see ``_run_block``).

    At ``jobs > 1`` the pool runs min(members, jobs) contiguous blocks, one per
    worker process; it is sized to the blocks, because a forking pool starts
    all its processes at the first submit.  Returns ({member index: result},
    {member seed: error}), both in index order.
    """
    indices = list(indices)
    if jobs <= 1:
        parts, failures = _run_block(worker, spec, indices, args, fields)
    else:
        n_blocks = min(len(indices), jobs)
        q, r = divmod(len(indices), n_blocks)  # the first r blocks take one member more
        bounds = [j * q + min(j, r) for j in range(n_blocks + 1)]
        blocks = [indices[a:b] for a, b in zip(bounds, bounds[1:])]
        parts, failures = [], {}
        with ProcessPoolExecutor(max_workers=n_blocks) as pool:
            futures = [pool.submit(_run_block, worker, spec, b, args, fields) for b in blocks]
            for block, fut in zip(blocks, futures):
                try:
                    block_parts, block_failures = fut.result()
                    parts += block_parts
                except Exception as exc:  # its process died: each member of the block fails
                    error = f"{type(exc).__name__}: {exc}"
                    block_failures = {member_seed(spec, i): error for i in block}
                failures.update(block_failures)
    results = {i: result for done, out in parts for i, result in zip(done, out)}
    failures = dict(sorted(failures.items()))  # a chunk's draw failures precede its worker's
    if len(failures) > MEMBER_FAILURE_RATE * max(len(indices), 1):
        sample = list(failures.items())[:3]
        raise RunError(f"{len(failures)} member failures, e.g. {sample}")
    return results, failures


# ----------------------------------------------------------- member workers

def _paths(spec, indices, states):
    """Each row of ``states`` as its member's seed-tagged path."""
    hurst = HurstParam(spec.hurst)
    return (SamplePath(spec.grid, row, hurst=hurst, seed=member_seed(spec, k))
            for k, row in zip(indices, states))


def _write_worker(spec, indices, states, dest_dir):
    """Write each member's solution as .frd."""
    files = []
    for k, path in zip(indices, _paths(spec, indices, states)):
        files.append(str(dest_dir / f"member_{k:06d}.frd"))
        write_path(path, files[-1])
    return files


def _dim_worker(spec, indices, states, octaves, kind):
    to_cloud = dm.image_cloud if kind == "dim_image" else dm.graph_cloud
    return [dm._anchored_slope(to_cloud(sol), octaves) for sol in _paths(spec, indices, states)]


def _levelset_worker(spec, indices, states, restrict):
    level = np.zeros(spec.dim)  # the start point of the pinned system
    out = []
    for sol in _paths(spec, indices, states):
        sol = sol.restrict(*restrict)
        eta = dm.tube_floor(sol)
        out.append((dm.extract_level_set(sol, level, eta), eta))
    return out


def _hit_worker(spec, indices, states, restrict):
    """Each member's closest approach to the level, and its tube floor."""
    out = []
    for sol in _paths(spec, indices, states):
        sol = sol.restrict(*restrict)
        out.append((np.sqrt((sol.values**2).sum(axis=1)).min(), dm.tube_floor(sol)))
    return out


def _energy_worker(spec, indices, states, gammas, factors):
    return [dm.energy_ladder(sol, gammas, factors) for sol in _paths(spec, indices, states)]


def _mu_worker(spec, indices, states, gamma, sharpness, restrict):
    level = np.zeros(spec.dim)
    return [[dm.mu_measure(sol, level, n, gamma, restrict) for n in sharpness]
            for sol in _paths(spec, indices, states)]


# ----------------------------------------------------------------- the tasks

def _row(spec, estimator, k, param, slope, r2, value) -> dict:
    """One estimates.csv row, for member k (the base seed for an ensemble estimate)."""
    return dict(estimator=estimator, H=spec.hurst, d=spec.dim, n_points=spec.n_points,
                seed=member_seed(spec, k), param=param, slope=slope, r2=r2, value=value)


def _write_csv(path, header: str, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in (header, *lines)), encoding="utf-8")

def _task_generate(spec, jobs, out_dir, results, verdicts, rows):
    path_dir = out_dir / "paths"
    path_dir.mkdir(parents=True, exist_ok=True)
    # the identity solution from 0 is the driver itself, bit for bit
    files, failures = _member_map(_write_worker, spec, range(spec.ensemble), jobs, path_dir,
                                  fields="identity")
    results["generate"] = {"files": list(files.values()), "failures": failures}


def _task_solve(spec, jobs, out_dir, results, verdicts, rows):
    info = {}
    for fname in spec.fields:
        sol_dir = out_dir / f"solutions_{fname}"
        sol_dir.mkdir(parents=True, exist_ok=True)
        files, failures = _member_map(
            _write_worker, spec, range(spec.ensemble), jobs, sol_dir, fields=fname
        )
        fs = resolve_fields(fname, spec.dim)
        rep = None
        if fs.dim_state == fs.dim_noise:
            pts = [np.zeros(spec.dim), np.ones(spec.dim) * 0.5]
            rep = check_ellipticity(fs, 1e-6, pts).lambda_min_observed
        info[fname] = {"files": list(files.values()), "lambda_min_sample": rep,
                       "failures": failures}
    results["solve"] = info


def _dim_task(kind, spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings(kind)
    tol = p["slope_tol"]
    if kind == "dim_image":
        target = min(spec.dim, 1.0 / spec.hurst)
        claim_base = f"image dimension = min(d, 1/H) = {target:.4g}"
    else:
        target = min((1.0 - spec.hurst) * spec.dim + 1.0, 1.0 / spec.hurst)
        claim_base = f"graph dimension = min((1-H)d+1, 1/H) = {target:.4g}"
    info = {}
    for fname in spec.fields:
        pairs, failures = _member_map(
            _dim_worker, spec, range(spec.ensemble), jobs, p["octaves"], kind, fields=fname
        )
        slopes = [s for s, _ in pairs.values()]
        med = float(np.median(slopes))
        verdicts.append(_judged(f"{claim_base} [{fname}]", f"median slope {med:.4f}",
                                f"[{target - tol:.4f}, {target + tol:.4f}]",
                                abs(med - target) <= tol))
        info[fname] = {"median_slope": med, "slopes": slopes, "failures": failures}
        rows += [_row(spec, kind, k, fname, s, r2, med) for k, (s, r2) in pairs.items()]
    results[kind] = info


def _task_levelset(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("levelset")
    restrict = (p["t_lo"], p["t_hi"])
    dh = spec.dim * spec.hurst
    hit_floor, min_points, tol = 0.10, 32, p["slope_tol"]
    if dh < 1.0:
        target = 1.0 - dh
        out, failures = _member_map(_levelset_worker, spec, range(spec.ensemble), jobs, restrict)
        slopes = []
        hits = 0
        for k, (times, eta) in out.items():
            if times.size < min_points:
                continue
            hits += 1
            cloud = dm.PointCloud(times)
            window = dm.default_eps_range(cloud, 4.0 * eta ** (1.0 / spec.hurst))
            if window is None:
                continue
            hi, floor = window
            n_scales = max(4, int(round(math.log2(hi / floor))) + 1)
            est = dm.box_dimension(cloud, window, n_scales)
            slopes.append(est.slope)
            rows.append(_row(spec, "levelset", k, f"eta={eta:.3g}", est.slope, est.r_squared,
                             times.size))
        frac = hits / max(len(out), 1)
        med = float(np.median(slopes)) if slopes else math.nan
        verdicts.append(_judged(
            f"level-set dimension = 1 - dH = {target:.4g} (positive probability)",
            f"median slope {med:.4f} over {len(slopes)} hitting members",
            f"[{target - tol:.4f}, {target + tol:.4f}]", slopes and abs(med - target) <= tol))
        verdicts.append(_judged("level-set hitting occurs with positive probability",
                                f"hit fraction {frac:.3f}", f">= {hit_floor}", frac >= hit_floor))
        results["levelset"] = {"hit_fraction": frac, "median_slope": med, "slopes": slopes,
                               "failures": failures}
    else:
        out, failures = _member_map(_hit_worker, spec, range(spec.ensemble), jobs, restrict)
        eta0 = 8.0 * next(iter(out.values()))[1]  # the lowest-index survivor's tube floor
        etas = [eta0 / 2**j for j in range(p["halvings"])]
        fracs = [float(np.mean([dist <= e for dist, _ in out.values()])) for e in etas]
        decreasing = all(b < a for a, b in zip(fracs, fracs[1:]))
        verdicts.append(_judged("level set empty a.s. for dH > 1: tube-hit fraction vanishes",
                                f"hit fractions {[round(f, 4) for f in fracs]}",
                                "strictly decreasing across eta halvings", decreasing))
        results["levelset"] = {"hit_fractions": fracs, "etas": etas,
                               "failures": failures}


def _sup_worker(spec, indices, states, windows):
    """Each member's sup-increment over each window; for d = 1, the range along
    the chunk's time axis, as ``dl.sup_increment`` takes it member by member."""
    if spec.dim > 1:
        return [[dl.sup_increment(row[w]) for w in windows] for row in states]
    cols = [states[:, w, 0] for w in windows]
    return np.column_stack([col.max(axis=1) - col.min(axis=1) for col in cols])


def _pair_worker(spec, indices, states, idx):
    return states[:, idx]


def _states_at(spec, jobs, s, t):
    """The surviving members' states at (s, t), shape (m, 2, d) in index order;
    the spread of the first members' increments; the failures."""
    grid = spec.grid
    idx = [int(round((u - grid.t_start) / grid.spacing)) for u in (s, t)]
    out, failures = _member_map(_pair_worker, spec, range(spec.ensemble), jobs, idx)
    samples = np.array(list(out.values())).reshape(len(out), 2, spec.dim)
    pilot = samples[:256]  # the first members set the scale of the evaluation grid
    sd = float((pilot[:, 1, :] - pilot[:, 0, :]).std())
    return samples, sd, failures


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, ties given the mean of the ranks they share."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]
    group = np.cumsum(first) - 1  # tie group of each sorted value
    bounds = np.flatnonzero(np.r_[first, True])  # group g holds sorted slots bounds[g]..bounds[g+1]-1
    ranks = np.empty(len(x))
    ranks[order] = (0.5 * (bounds[:-1] + bounds[1:] + 1))[group]
    return ranks


def _rank_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rank correlation, as scipy.stats.spearmanr computes it: nan when
    an input is constant or holds a NaN, else the Pearson correlation of the
    average ranks."""
    if any(len(v) < 2 or (v == v[0]).all() or np.isnan(v).any() for v in (x, y)):
        return math.nan
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def _task_tail(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("tail")
    s, t = p["s"], p["t"]
    expected = min(2.0 * spec.hurst + 1.0, 2.0)
    ladder = [1.6, 1.8, 2.0, 2.2]
    if expected not in ladder:
        ladder = sorted(set(ladder + [expected]))
    r2_floor, delta_max, rank_floor = 0.9, 0.02, 0.8
    halvings = p["halvings"]
    widths = [(t - s) / 2**j for j in range(halvings)]
    windows = [spec.grid.window(s, s + w) for w in widths]
    out, failures = _member_map(_sup_worker, spec, range(spec.ensemble), jobs, windows)
    sups = np.array(list(out.values()))  # (m, halvings)

    curve = dl.tail_curve(sups[:, 0], ensemble=spec.ensemble)
    best, slopes, r2s = dl.fit_tail_exponent(curve, ladder)
    r2_by_exp = dict(zip(ladder, r2s))
    delta = r2_by_exp[expected] - max(r2s)
    verdicts.append(_judged(
        f"sup-increment tail decays like exp(-c xi^a), a = (2H+1) min 2 = {expected:.3g}",
        f"best exponent {best}, R2(expected) {r2_by_exp[expected]:.4f}, dR2 {delta:.4f}",
        f"R2 >= {r2_floor} and dR2 >= -{delta_max}",
        r2_by_exp[expected] >= r2_floor and delta >= -delta_max,
        exponent_tested=expected, slope=slopes[ladder.index(expected)],
        r2=r2_by_exp[expected]))
    rows += [_row(spec, "tail", 0, f"a={a}", s, r, float(best))
             for a, s, r in zip(ladder, slopes, r2s)]

    xi_fixed = float(np.quantile(sups[:, -1], p["xi_quantile"]))
    ps = [float((sups[:, j] >= xi_fixed).mean()) for j in range(halvings)]
    finite = [(w, math.log(p)) for w, p in zip(widths, ps) if p > 0]
    if len(finite) >= 3:
        xs = np.array([w ** (-2.0 * spec.hurst) * xi_fixed**2 for w, _ in finite])
        ys = np.array([-lp for _, lp in finite])
        rank = _rank_corr(xs, ys)
        inversions = sum(b >= a for a, b in zip(ps, ps[1:]))
        ok = rank >= rank_floor and inversions <= 1
        measured = f"rank corr {rank:.3f}, exceedances {[round(p, 4) for p in ps]}"
    else:
        rank = math.nan
        ok = False
        measured = f"exceedances {[round(p, 4) for p in ps]} (too many empty)"
    verdicts.append(_judged("tail probability scales with (t-s)^(-2H) in the exponent", measured,
                            f"rank corr >= {rank_floor}, at most one monotonicity inversion", ok))
    results["tail"] = {
        "best_exponent": best,
        "r2_by_exponent": {str(a): r for a, r in r2_by_exp.items()},
        "xi": curve.xi_values.tolist(),
        "log_probs": curve.log_probs.tolist(),
        "scaling_exceedances": ps,
        "rank_corr": rank,
        "failures": failures,
    }
    _write_csv(out_dir / "tail_curve.csv", "xi,log_prob",
               (f"{x:.17g},{lp:.17g}" for x, lp in zip(curve.xi_values, curve.log_probs)))


def _task_density(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("density")
    s, t = p["s"], p["t"]
    expected = min(2.0 * spec.hurst + 1.0, 2.0)
    env_floor, mode_tol = 0.85, 0.10

    samples, sd, failures = _states_at(spec, jobs, s, t)
    if spec.dim == 1:
        centers = np.linspace(-4 * sd, 4 * sd, 81).reshape(-1, 1)
    else:
        g = np.linspace(-3 * sd, 3 * sd, 15)
        mesh = np.meshgrid(*([g] * spec.dim), indexing="ij")
        centers = np.column_stack([m.ravel() for m in mesh])
    est = dl.kde_increment(samples, (s, t), centers, ensemble=spec.ensemble)
    z = np.sqrt((est.centers**2).sum(axis=1))
    keep = z > 0.5 * sd
    slope, _, r2 = dl.upper_envelope_fit(z[keep], est.values[keep], expected)
    verdicts.append(_judged(
        f"increment density decays like exp(-|z|^{expected:.3g} / (C (t-s)^2H))",
        f"envelope slope {slope:.4f}, R2 {r2:.4f}", f"slope < 0 and R2 >= {env_floor}",
        slope < 0 and r2 >= env_floor, exponent_tested=expected, slope=slope, r2=r2))
    info = {"envelope_slope": slope, "envelope_r2": r2, "bandwidth": est.bandwidth,
            "failures": failures}
    if spec.fields[0] == "identity" and spec.hurst == 0.5 and spec.dim == 1:
        exact = 1.0 / math.sqrt(2 * math.pi * (t - s))
        mid = float(est.values[int(np.argmin(z))])
        rel = abs(mid - exact) / exact
        verdicts.append(_judged(
            "Brownian-case increment density matches the exact Gaussian at the mode",
            f"kde {mid:.4f} vs exact {exact:.4f} (rel {rel:.4f})",
            f"relative error <= {mode_tol}", rel <= mode_tol))
        info["mode_rel_error"] = rel
    results["density"] = info
    _write_csv(out_dir / "density_increment.csv",
               ",".join(f"z{j + 1}" for j in range(spec.dim)) + ",value",
               (",".join(f"{x:.17g}" for x in (*c, v)) for c, v in zip(est.centers, est.values)))


def _task_bivariate(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("bivariate")
    s, t = p["s"], p["t"]
    gamma = 0.9 * spec.hurst
    env_floor, oracle_tol = 0.80, 0.15

    samples, sd, failures = _states_at(spec, jobs, s, t)
    mags = np.linspace(0.0, 3.5 * sd, 8)
    offsets = np.zeros((mags.size, spec.dim))
    offsets[:, 0] = mags
    pairs = dl.kde_bivariate_decay(samples, s, t, offsets, ensemble=spec.ensemble)
    rs = np.array([r for r, _ in pairs])
    vs = np.array([v for _, v in pairs])
    sl, _, r2 = dm._line_fit(rs ** (2 * gamma), np.log(np.maximum(vs, 1e-300)))
    verdicts.append(_judged(
        "joint density decays like exp(-|z1-z2|^(2 gamma) / (C (t-s)^(2 gamma^2))), gamma = 0.9 H",
        f"profile slope {sl:.4f}, R2 {r2:.4f}", f"slope < 0 and R2 >= {env_floor}",
        sl < 0 and r2 >= env_floor, exponent_tested=2 * gamma, slope=sl, r2=r2))
    info = {"profile_slope": sl, "profile_r2": r2, "pairs": [[r, v] for r, v in pairs],
            "failures": failures}
    if spec.fields[0] == "identity" and spec.hurst == 0.5 and spec.dim == 1:
        worst = 0.0
        for off, (_, v) in zip(mags, pairs):
            exact = (1.0 / math.sqrt(2 * math.pi * s)) * math.exp(
                -(off**2) / (2 * (t - s))
            ) / math.sqrt(2 * math.pi * (t - s))
            worst = max(worst, abs(v - exact) / exact)
        verdicts.append(_judged(
            "Brownian-case joint density matches the product of Gaussian factors",
            f"worst relative error {worst:.4f} over {mags.size} offsets", f"<= {oracle_tol}",
            worst <= oracle_tol))
        info["oracle_worst_rel"] = worst
    results["bivariate"] = info
    _write_csv(out_dir / "density_bivariate.csv", "offset,value",
               (f"{r:.17g},{v:.17g}" for r, v in pairs))


def _task_energy(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("energy")
    crit = min(spec.dim, 1.0 / spec.hurst)
    gammas = (crit - p["gamma_offset"], crit + p["gamma_offset"])
    levels = p["levels"]
    factors = [2 ** (levels - 1 - j) for j in range(levels)]  # coarse to fine
    stable_cap, grow_last, grow_total = 1.07, 1.10, 1.35
    out, failures = _member_map(_energy_worker, spec, range(spec.ensemble), jobs, gammas, factors)
    info = {}
    for i, (label, gamma) in enumerate(zip(("below", "above"), gammas)):
        arr = np.array([values[i] for values in out.values()])  # (m, levels)
        med = np.median(arr, axis=0)
        # paired per-member refinement ratios cancel member-to-member scale
        growth = [float(np.median(arr[:, j + 1] / arr[:, j])) for j in range(arr.shape[1] - 1)]
        if label == "below":
            # shrinking refinement gains, with slack for median noise
            shrinking = all(g <= growth[0] + 0.01 for g in growth[1:])
            ok = shrinking and growth[-1] <= stable_cap
            claim = f"energy stabilizes under refinement for gamma = {gamma:.4g} < min(d, 1/H)"
            window = f"growth factors non-increasing (0.01 slack), last <= {stable_cap}"
        else:
            total = float(np.median(arr[:, -1] / arr[:, 0]))
            ok = growth[-1] >= grow_last and total >= grow_total
            claim = f"energy grows without stabilizing for gamma = {gamma:.4g} > min(d, 1/H)"
            window = f"last growth >= {grow_last}, total >= {grow_total}"
        verdicts.append(_judged(claim, f"medians {[round(float(v), 3) for v in med]}, "
                                f"growth {[round(g, 4) for g in growth]}", window, ok))
        info[label] = {"gamma": gamma, "medians": med.tolist(), "growth": growth,
                       "failures": failures}
        rows += [_row(spec, "energy", k, f"gamma={gamma:.4g}", math.nan, math.nan,
                      float(values[i][-1])) for k, values in out.items()]
    results["energy"] = info


def _task_mu(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("mu")
    gamma = 1.0 - (1.0 + p["delta"]) * spec.dim * spec.hurst
    if gamma <= 0:
        verdicts.append(Verdict("mollified level-set measure bounds (need dH < 1)",
                                f"gamma = {gamma:.4g} <= 0", "dH < 1", "untestable"))
        return
    sharpness = list(p["sharpness"])
    restrict = (p["t_lo"], 1.0)
    mass_floor, final_cap = 0.5, 1.35
    out, failures = _member_map(
        _mu_worker, spec, range(spec.ensemble), jobs, gamma, sharpness, restrict
    )
    arr = np.array(list(out.values()))  # (m, len(sharpness), 2)
    mass_means = arr[:, :, 0].mean(axis=0)
    mass2_means = (arr[:, :, 0] ** 2).mean(axis=0)
    energy_means = arr[:, :, 1].mean(axis=0)
    verdicts.append(_judged("mollified level-set measures keep mass bounded below",
                            f"mean mass {[round(float(v), 3) for v in mass_means]}",
                            f">= {mass_floor} at every sharpness", mass_means.min() >= mass_floor))
    for label, seq in (("second moment", mass2_means), ("gamma-energy", energy_means)):
        growth = [float(b / a) for a, b in zip(seq, seq[1:])]
        decreasing = all(b < a for a, b in zip(growth, growth[1:]))
        verdicts.append(_judged(
            f"mollified level-set measure {label} stays bounded in the sharpness limit",
            f"means {[round(float(v), 3) for v in seq]}, growth {[round(g, 4) for g in growth]}",
            f"growth factors decreasing, final <= {final_cap}",
            decreasing and growth[-1] <= final_cap))
    results["mu"] = {
        "gamma": gamma,
        "sharpness": sharpness,
        "mass_means": mass_means.tolist(),
        "mass2_means": mass2_means.tolist(),
        "energy_means": energy_means.tolist(),
        "failures": failures,
    }


_TASK_RUNNERS = {
    "generate": _task_generate,
    "solve": _task_solve,
    "dim_image": lambda *a: _dim_task("dim_image", *a),
    "dim_graph": lambda *a: _dim_task("dim_graph", *a),
    "levelset": _task_levelset,
    "tail": _task_tail,
    "density": _task_density,
    "bivariate": _task_bivariate,
    "energy": _task_energy,
    "mu": _task_mu,
}


def run(spec: ExperimentSpec, tasks: tuple[str, ...] | None = None, jobs: int = 1) -> RunReport:
    """Execute the requested tasks and write report + CSVs under output_dir/name."""
    tasks = tuple(tasks or spec.tasks)
    if not tasks:
        raise RunError("no tasks requested")
    if jobs < 1:
        raise RunError(f"jobs must be >= 1, not {jobs}")
    _check_tasks(tasks)
    for task in tasks:
        floor = _ENSEMBLE_FLOORS.get(task, 1)
        if spec.ensemble < floor:
            raise RunError(f"{task} needs at least {floor} members, not {spec.ensemble}")
        spec.check_task(task)
    t0 = time.time()
    out_dir = spec.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict = {}
    verdicts: list[Verdict] = []
    rows: list[dict] = []
    for task in tasks:
        _TASK_RUNNERS[task](spec, jobs, out_dir, results, verdicts, rows)
    report = RunReport(
        spec={k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(spec).items()},
        results=results,
        verdicts=verdicts,
        wall_time=time.time() - t0,
        versions={
            "fracdim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    text, doc = report_render(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    if rows:
        _write_csv(out_dir / "estimates.csv", ",".join(rows[0]),
                   (",".join(f"{value}" for value in r.values()) for r in rows))
    return report


def report_render(report: RunReport) -> tuple[str, dict]:
    """Human-readable table (failing rows first) plus the machine document."""
    lines = [f"experiment: {report.spec.get('name')}"]
    if not report.verdicts:
        lines.append("no claims tested")
    else:
        order = {"fail": 0, "untestable": 1, "pass": 2}
        ranked = sorted(report.verdicts, key=lambda v: order[v.verdict])
        width = max(len(v.claim) for v in ranked)
        for v in ranked:
            lines.append(f"[{v.verdict.upper():10s}] {v.claim:<{width}}  measured: {v.measured}  window: {v.window}")
    lines.append(f"wall time: {report.wall_time:.1f} s")
    return "\n".join(lines) + "\n", report.as_dict()
