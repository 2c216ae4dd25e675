"""Experiment runner: executes estimator tasks over seeded ensembles,
aggregates, renders verdicts, and persists reports.

Every verdict names the mathematical claim it tests and the window applied.
Each task reads its parameters and windows as one dict,
``spec.task_settings(task)``: the config section over the defaults of
``config.TASK_PARAMS``, which lists every section key; a spec rejects an
unknown or wrongly typed key, and ``run`` rejects settings a requested task
cannot use (``spec.check_task``) before any member is solved.
``_member_map`` runs the members of every task but density and bivariate, and
aborts once more than 1% fail (``MEMBER_FAILURE_RATE``, not configurable).
Member seeds are base_seed + index, so parallel execution order can never
change a result.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy
from scipy import stats as sps

from . import __version__, density as dl, dimension as dm
from .config import ALL_TASKS, ExperimentSpec, generate_driver, member_seed, solve_member
from .fbm import write_path
from .fields import resolve_fields
from .solver import check_ellipticity

__all__ = ["MEMBER_FAILURE_RATE", "RunError", "RunReport", "Verdict", "report_render", "run"]

#: largest share of an ensemble that may fail before the run aborts
MEMBER_FAILURE_RATE = 0.01

#: task -> the fewest members its estimator accepts, checked before any solve
_ENSEMBLE_FLOORS = {"tail": dl._MIN_TAIL_ENSEMBLE, "density": dl._MIN_KDE_ENSEMBLE,
                    "bivariate": dl._MIN_BIVARIATE_ENSEMBLE}


class RunError(RuntimeError):
    """Run-level failure (too many member failures, bad task set)."""


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


@dataclass
class RunReport:
    spec: dict
    results: dict
    verdicts: list[Verdict]
    wall_time: float
    versions: dict
    csv_rows: list[dict] = field(default_factory=list)

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


def _run_block(worker, spec: ExperimentSpec, indices, args):
    """``worker`` over each member of one block: ({index: result}, {seed: error})."""
    results, failures = {}, {}
    for i in indices:
        try:
            results[i] = worker(spec, i, *args)
        except Exception as exc:  # tallied, aborts only past the rate cap
            failures[member_seed(spec, i)] = f"{type(exc).__name__}: {exc}"
    return results, failures


def _member_map(worker, spec: ExperimentSpec, indices, jobs: int, *args):
    """Failure-tallied map of a member worker over the ensemble.

    At ``jobs > 1`` the pool runs min(members, 4 * jobs) contiguous blocks.
    Returns ({member index: result}, {member seed: error}), both in index order.
    """
    indices = list(indices)
    if jobs <= 1:
        results, failures = _run_block(worker, spec, indices, args)
    else:
        n_blocks = min(len(indices), 4 * jobs)
        q, r = divmod(len(indices), n_blocks)  # the first r blocks take one member more
        bounds = [j * q + min(j, r) for j in range(n_blocks + 1)]
        blocks = [indices[a:b] for a, b in zip(bounds, bounds[1:])]
        results, failures = {}, {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_block, worker, spec, b, args) for b in blocks]
            for block, fut in zip(blocks, futures):
                try:
                    block_results, block_failures = fut.result()
                    results.update(block_results)
                except Exception as exc:  # its process died: each member of the block fails
                    error = f"{type(exc).__name__}: {exc}"
                    block_failures = {member_seed(spec, i): error for i in block}
                failures.update(block_failures)
    if len(failures) > MEMBER_FAILURE_RATE * max(len(indices), 1):
        sample = list(failures.items())[:3]
        raise RunError(f"{len(failures)} member failures, e.g. {sample}")
    return results, failures


# ----------------------------------------------------------- member workers

def _write_worker(spec, k, dest_dir, fields_name=None):
    """Write member k's driver, or its solution under ``fields_name``, as .frd."""
    path = generate_driver(spec, k) if fields_name is None else solve_member(spec, k, fields_name)
    dest = dest_dir / f"member_{k:06d}.frd"
    write_path(path, dest)
    return str(dest)


def _dim_worker(spec, k, fields_name, octaves, kind):
    to_cloud = dm.image_cloud if kind == "dim_image" else dm.graph_cloud
    return dm._anchored_slope(to_cloud(solve_member(spec, k, fields_name)), octaves)


def _levelset_worker(spec, k, fields_name, restrict):
    sol = solve_member(spec, k, fields_name).restrict(*restrict)
    eta = dm.tube_floor(sol)
    level = np.zeros(spec.dim)  # the start point of the pinned system
    ls = dm.extract_level_set(sol, level, eta)
    return ls.times, eta


def _hit_worker(spec, k, fields_name, restrict):
    """The member's closest approach to the level, and its tube floor."""
    sol = solve_member(spec, k, fields_name).restrict(*restrict)
    dist = np.sqrt((sol.values**2).sum(axis=1))
    return dist.min(), dm.tube_floor(sol)


def _energy_worker(spec, k, fields_name, gammas, factors):
    return dm.energy_ladder(solve_member(spec, k, fields_name), gammas, factors)


def _mu_worker(spec, k, fields_name, gamma, sharpness, restrict):
    sol = solve_member(spec, k, fields_name)
    level = np.zeros(spec.dim)
    return [dm.mu_measure(sol, level, n, gamma, restrict) for n in sharpness]


# ----------------------------------------------------------------- the tasks

def _task_generate(spec, jobs, out_dir, results, verdicts, rows):
    path_dir = out_dir / "paths"
    path_dir.mkdir(parents=True, exist_ok=True)
    files, failures = _member_map(_write_worker, spec, range(spec.ensemble), jobs, path_dir)
    results["generate"] = {"files": list(files.values()), "failures": failures}


def _task_solve(spec, jobs, out_dir, results, verdicts, rows):
    info = {}
    for fname in spec.fields:
        sol_dir = out_dir / f"solutions_{fname}"
        sol_dir.mkdir(parents=True, exist_ok=True)
        files, failures = _member_map(
            _write_worker, spec, range(spec.ensemble), jobs, sol_dir, fname
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
            _dim_worker, spec, range(spec.ensemble), jobs, fname, p["octaves"], kind
        )
        slopes = [s for s, _ in pairs.values()]
        med = float(np.median(slopes))
        verdicts.append(
            Verdict(
                claim=f"{claim_base} [{fname}]",
                measured=f"median slope {med:.4f}",
                window=f"[{target - tol:.4f}, {target + tol:.4f}]",
                verdict="pass" if abs(med - target) <= tol else "fail",
            )
        )
        info[fname] = {"median_slope": med, "slopes": slopes, "failures": failures}
        for k, (s, r2) in pairs.items():
            rows.append(
                dict(estimator=kind, H=spec.hurst, d=spec.dim, n_points=spec.n_points,
                     seed=member_seed(spec, k), param=fname, slope=s, r2=r2, value=med)
            )
    results[kind] = info


def _task_levelset(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("levelset")
    restrict = (p["t_lo"], p["t_hi"])
    fname = spec.fields[0]
    dh = spec.dim * spec.hurst
    hit_floor, tol = p["levelset_hit_floor"], p["slope_tol"]
    if dh < 1.0:
        target = 1.0 - dh
        out, failures = _member_map(
            _levelset_worker, spec, range(spec.ensemble), jobs, fname, restrict
        )
        slopes = []
        hits = 0
        for k, (times, eta) in out.items():
            if times.size < p["levelset_min_points"]:
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
            rows.append(
                dict(estimator="levelset", H=spec.hurst, d=spec.dim,
                     n_points=spec.n_points, seed=member_seed(spec, k), param=f"eta={eta:.3g}",
                     slope=est.slope, r2=est.r_squared, value=times.size)
            )
        frac = hits / max(len(out), 1)
        med = float(np.median(slopes)) if slopes else math.nan
        verdicts.append(
            Verdict(
                claim=f"level-set dimension = 1 - dH = {target:.4g} (positive probability)",
                measured=f"median slope {med:.4f} over {len(slopes)} hitting members",
                window=f"[{target - tol:.4f}, {target + tol:.4f}]",
                verdict="pass" if slopes and abs(med - target) <= tol else "fail",
            )
        )
        verdicts.append(
            Verdict(
                claim="level-set hitting occurs with positive probability",
                measured=f"hit fraction {frac:.3f}",
                window=f">= {hit_floor}",
                verdict="pass" if frac >= hit_floor else "fail",
            )
        )
        results["levelset"] = {"hit_fraction": frac, "median_slope": med, "slopes": slopes,
                               "failures": failures}
    else:
        out, failures = _member_map(
            _hit_worker, spec, range(spec.ensemble), jobs, fname, restrict
        )
        eta0 = 8.0 * next(iter(out.values()))[1]  # the lowest-index survivor's tube floor
        etas = [eta0 / 2**j for j in range(p["halvings"])]
        fracs = [float(np.mean([dist <= e for dist, _ in out.values()])) for e in etas]
        decreasing = all(b < a for a, b in zip(fracs, fracs[1:]))
        verdicts.append(
            Verdict(
                claim="level set empty a.s. for dH > 1: tube-hit fraction vanishes",
                measured=f"hit fractions {[round(f, 4) for f in fracs]}",
                window="strictly decreasing across eta halvings",
                verdict="pass" if decreasing else "fail",
            )
        )
        results["levelset"] = {"hit_fractions": fracs, "etas": etas,
                               "failures": failures}


def _sup_worker(spec, k, fields_name, restricts):
    sol = solve_member(spec, k, fields_name)
    return [dl.sup_increment(sol.restrict(*r).values) for r in restricts]


def _task_tail(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("tail")
    fname = spec.fields[0]
    interval = (p["s"], p["t"])
    expected = min(2.0 * spec.hurst + 1.0, 2.0)
    ladder = [1.6, 1.8, 2.0, 2.2]
    if expected not in ladder:
        ladder = sorted(set(ladder + [expected]))
    r2_floor, delta_max, rank_floor = p["tail_r2_floor"], p["tail_delta_r2"], p["tail_rank_corr"]
    halvings = p["halvings"]
    widths = [(interval[1] - interval[0]) / 2**j for j in range(halvings)]
    restricts = [(interval[0], interval[0] + w) for w in widths]
    out, failures = _member_map(_sup_worker, spec, range(spec.ensemble), jobs, fname, restricts)
    sups = np.array(list(out.values()))  # (m, halvings)

    curve = dl.tail_curve(sups[:, 0], interval, ensemble=spec.ensemble)
    best, slopes, r2s = dl.fit_tail_exponent(curve, ladder)
    r2_by_exp = dict(zip(ladder, r2s))
    delta = r2_by_exp[expected] - max(r2s)
    ok = r2_by_exp[expected] >= r2_floor and delta >= -delta_max
    verdicts.append(
        Verdict(
            claim=f"sup-increment tail decays like exp(-c xi^a), a = (2H+1) min 2 = {expected:.3g}",
            measured=f"best exponent {best}, R2(expected) {r2_by_exp[expected]:.4f}, dR2 {delta:.4f}",
            window=f"R2 >= {r2_floor} and dR2 >= -{delta_max}",
            verdict="pass" if ok else "fail",
            extras={"exponent_tested": expected, "slope": slopes[ladder.index(expected)],
                    "r2": r2_by_exp[expected]},
        )
    )
    for a, s, r in zip(ladder, slopes, r2s):
        rows.append(
            dict(estimator="tail", H=spec.hurst, d=spec.dim, n_points=spec.n_points,
                 seed=spec.base_seed, param=f"a={a}", slope=s, r2=r, value=float(best))
        )

    xi_fixed = float(np.quantile(sups[:, -1], p["xi_quantile"]))
    ps = [float((sups[:, j] >= xi_fixed).mean()) for j in range(halvings)]
    finite = [(w, math.log(p)) for w, p in zip(widths, ps) if p > 0]
    if len(finite) >= 3:
        xs = np.array([w ** (-2.0 * spec.hurst) * xi_fixed**2 for w, _ in finite])
        ys = np.array([-lp for _, lp in finite])
        rank = float(sps.spearmanr(xs, ys).statistic)
        inversions = sum(b >= a for a, b in zip(ps, ps[1:]))
        ok = rank >= rank_floor and inversions <= 1
        measured = f"rank corr {rank:.3f}, exceedances {[round(p, 4) for p in ps]}"
    else:
        rank = math.nan
        ok = False
        measured = f"exceedances {[round(p, 4) for p in ps]} (too many empty)"
    verdicts.append(
        Verdict(
            claim="tail probability scales with (t-s)^(-2H) in the exponent",
            measured=measured,
            window=f"rank corr >= {rank_floor}, at most one monotonicity inversion",
            verdict="pass" if ok else "fail",
        )
    )
    results["tail"] = {
        "best_exponent": best,
        "r2_by_exponent": {str(a): r for a, r in r2_by_exp.items()},
        "xi": curve.xi_values.tolist(),
        "log_probs": curve.log_probs.tolist(),
        "scaling_exceedances": ps,
        "rank_corr": rank,
        "failures": failures,
    }
    with open(out_dir / "tail_curve.csv", "w", encoding="utf-8") as fh:
        fh.write("xi,log_prob\n")
        for x, lp in zip(curve.xi_values, curve.log_probs):
            fh.write(f"{x:.17g},{lp:.17g}\n")


def _task_density(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("density")
    s, t = p["s"], p["t"]
    expected = min(2.0 * spec.hurst + 1.0, 2.0)
    env_floor, mode_tol = p["envelope_r2_increment"], p["kde_mode_rel_tol"]

    samples = dl._ensemble_samples_at(spec, (s, t))
    pilot = samples[:256]  # the first members set the scale of the evaluation grid
    sd = float((pilot[:, 1, :] - pilot[:, 0, :]).std())
    if spec.dim == 1:
        centers = np.linspace(-4 * sd, 4 * sd, 81).reshape(-1, 1)
    else:
        g = np.linspace(-3 * sd, 3 * sd, 15)
        mesh = np.meshgrid(*([g] * spec.dim), indexing="ij")
        centers = np.column_stack([m.ravel() for m in mesh])
    est = dl.kde_increment(samples, (s, t), centers)
    z = np.sqrt((est.centers**2).sum(axis=1))
    keep = z > 0.5 * sd
    slope, _, r2 = dl.upper_envelope_fit(z[keep], est.values[keep], expected)
    ok = slope < 0 and r2 >= env_floor
    verdicts.append(
        Verdict(
            claim=f"increment density decays like exp(-|z|^{expected:.3g} / (C (t-s)^2H))",
            measured=f"envelope slope {slope:.4f}, R2 {r2:.4f}",
            window=f"slope < 0 and R2 >= {env_floor}",
            verdict="pass" if ok else "fail",
            extras={"exponent_tested": expected, "slope": slope, "r2": r2},
        )
    )
    info = {"envelope_slope": slope, "envelope_r2": r2, "bandwidth": est.bandwidth}
    if spec.fields[0] == "identity" and spec.hurst == 0.5 and spec.dim == 1:
        exact = 1.0 / math.sqrt(2 * math.pi * (t - s))
        mid = float(est.values[int(np.argmin(z))])
        rel = abs(mid - exact) / exact
        verdicts.append(
            Verdict(
                claim="Brownian-case increment density matches the exact Gaussian at the mode",
                measured=f"kde {mid:.4f} vs exact {exact:.4f} (rel {rel:.4f})",
                window=f"relative error <= {mode_tol}",
                verdict="pass" if rel <= mode_tol else "fail",
            )
        )
        info["mode_rel_error"] = rel
    results["density"] = info
    with open(out_dir / "density_increment.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(f"z{j + 1}" for j in range(spec.dim)) + ",value\n")
        for c, v in zip(est.centers, est.values):
            fh.write(",".join(f"{x:.17g}" for x in c) + f",{v:.17g}\n")


def _task_bivariate(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("bivariate")
    s, t = p["s"], p["t"]
    gamma = 0.9 * spec.hurst
    env_floor, oracle_tol = p["envelope_r2_bivariate"], p["bivariate_oracle_rel_tol"]

    samples = dl._ensemble_samples_at(spec, (s, t))
    pilot = samples[:256]  # the first members set the scale of the evaluation grid
    sd = float((pilot[:, 1, :] - pilot[:, 0, :]).std())
    mags = np.linspace(0.0, 3.5 * sd, 8)
    offsets = np.zeros((mags.size, spec.dim))
    offsets[:, 0] = mags
    pairs = dl.kde_bivariate_decay(samples, s, t, offsets)
    rs = np.array([r for r, _ in pairs])
    vs = np.array([v for _, v in pairs])
    x = rs ** (2 * gamma)
    y = np.log(np.maximum(vs, 1e-300))
    sl, ic = np.polyfit(x, y, 1)
    resid = y - (sl * x + ic)
    r2 = 1.0 - float((resid**2).sum()) / float(((y - y.mean()) ** 2).sum())
    ok = sl < 0 and r2 >= env_floor
    verdicts.append(
        Verdict(
            claim=f"joint density decays like exp(-|z1-z2|^(2 gamma) / (C (t-s)^(2 gamma^2))), gamma = 0.9 H",
            measured=f"profile slope {sl:.4f}, R2 {r2:.4f}",
            window=f"slope < 0 and R2 >= {env_floor}",
            verdict="pass" if ok else "fail",
            extras={"exponent_tested": 2 * gamma, "slope": float(sl), "r2": r2},
        )
    )
    info = {"profile_slope": float(sl), "profile_r2": r2, "pairs": [[r, v] for r, v in pairs]}
    if spec.fields[0] == "identity" and spec.hurst == 0.5 and spec.dim == 1:
        worst = 0.0
        for off, (_, v) in zip(mags, pairs):
            exact = (1.0 / math.sqrt(2 * math.pi * s)) * math.exp(
                -(off**2) / (2 * (t - s))
            ) / math.sqrt(2 * math.pi * (t - s))
            worst = max(worst, abs(v - exact) / exact)
        verdicts.append(
            Verdict(
                claim="Brownian-case joint density matches the product of Gaussian factors",
                measured=f"worst relative error {worst:.4f} over {mags.size} offsets",
                window=f"<= {oracle_tol}",
                verdict="pass" if worst <= oracle_tol else "fail",
            )
        )
        info["oracle_worst_rel"] = worst
    results["bivariate"] = info
    with open(out_dir / "density_bivariate.csv", "w", encoding="utf-8") as fh:
        fh.write("offset,value\n")
        for r, v in pairs:
            fh.write(f"{r:.17g},{v:.17g}\n")


def _task_energy(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("energy")
    fname = spec.fields[0]
    crit = min(spec.dim, 1.0 / spec.hurst)
    gammas = (crit - p["gamma_offset"], crit + p["gamma_offset"])
    levels = p["levels"]
    factors = [2 ** (levels - 1 - j) for j in range(levels)]  # coarse to fine
    stable_cap = p["energy_stable_growth"]
    grow_last, grow_total = p["energy_grow_last"], p["energy_grow_total"]
    out, failures = _member_map(
        _energy_worker, spec, range(spec.ensemble), jobs, fname, gammas, factors
    )
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
        verdicts.append(
            Verdict(
                claim=claim,
                measured=f"medians {[round(float(v), 3) for v in med]}, growth {[round(g, 4) for g in growth]}",
                window=window,
                verdict="pass" if ok else "fail",
            )
        )
        info[label] = {"gamma": gamma, "medians": med.tolist(), "growth": growth,
                       "failures": failures}
        for k, values in out.items():
            rows.append(
                dict(estimator="energy", H=spec.hurst, d=spec.dim, n_points=spec.n_points,
                     seed=member_seed(spec, k), param=f"gamma={gamma:.4g}",
                     slope=math.nan, r2=math.nan, value=float(values[i][-1]))
            )
    results["energy"] = info


def _task_mu(spec, jobs, out_dir, results, verdicts, rows):
    p = spec.task_settings("mu")
    fname = spec.fields[0]
    gamma = 1.0 - (1.0 + p["delta"]) * spec.dim * spec.hurst
    if gamma <= 0:
        verdicts.append(
            Verdict(
                claim="mollified level-set measure bounds (need dH < 1)",
                measured=f"gamma = {gamma:.4g} <= 0",
                window="dH < 1",
                verdict="untestable",
            )
        )
        return
    sharpness = list(p["sharpness"])
    restrict = (p["t_lo"], spec.t_range[1])
    mass_floor, final_cap = p["mu_mass_floor"], p["mu_final_growth"]
    out, failures = _member_map(
        _mu_worker, spec, range(spec.ensemble), jobs, fname, gamma, sharpness, restrict
    )
    arr = np.array(list(out.values()))  # (m, len(sharpness), 2)
    mass_means = arr[:, :, 0].mean(axis=0)
    mass2_means = (arr[:, :, 0] ** 2).mean(axis=0)
    energy_means = arr[:, :, 1].mean(axis=0)
    verdicts.append(
        Verdict(
            claim="mollified level-set measures keep mass bounded below",
            measured=f"mean mass {[round(float(v), 3) for v in mass_means]}",
            window=f">= {mass_floor} at every sharpness",
            verdict="pass" if mass_means.min() >= mass_floor else "fail",
        )
    )
    for label, seq in (("second moment", mass2_means), ("gamma-energy", energy_means)):
        growth = [float(b / a) for a, b in zip(seq, seq[1:])]
        decreasing = all(b < a for a, b in zip(growth, growth[1:]))
        ok = decreasing and growth[-1] <= final_cap
        verdicts.append(
            Verdict(
                claim=f"mollified level-set measure {label} stays bounded in the sharpness limit",
                measured=f"means {[round(float(v), 3) for v in seq]}, growth {[round(g, 4) for g in growth]}",
                window=f"growth factors decreasing, final <= {final_cap}",
                verdict="pass" if ok else "fail",
            )
        )
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
    for task in tasks:
        if task not in ALL_TASKS:
            raise RunError(f"unknown task '{task}'")
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
        csv_rows=rows,
    )
    text, doc = report_render(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    if rows:
        with open(out_dir / "estimates.csv", "w", encoding="utf-8") as fh:
            fh.write("estimator,H,d,n_points,seed,param,slope,r2,value\n")
            for r in rows:
                fh.write(
                    f"{r['estimator']},{r['H']},{r['d']},{r['n_points']},{r['seed']},"
                    f"{r['param']},{r['slope']},{r['r2']},{r['value']}\n"
                )
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
