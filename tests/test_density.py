import math

import numpy as np
import pytest

from fracdim import density as dl
from fracdim.config import ExperimentSpec, solve_block
from fracdim.density import TailCurve


def brownian_spec(ensemble, n_points=256, seed=314159, h=0.5, dim=1):
    return ExperimentSpec(
        name="t", hurst=h, dim=dim, n_points=n_points, ensemble=ensemble, base_seed=seed
    )


def members(spec):
    """Each member's solution in index order, solved a chunk at a time."""
    return (values for _, states, _ in solve_block(spec, range(spec.ensemble)) for values in states)


def collect_sups(spec):
    return np.array([dl.sup_increment(values) for values in members(spec)])


def samples_at(spec, *times):
    """Each member's states at ``times``, shape (m, len(times), d)."""
    grid = spec.grid
    idx = [int(round((t - grid.t_start) / grid.spacing)) for t in times]
    return np.array([values[idx] for values in members(spec)])


# ------------------------------------------------------------------ sup stat

def test_sup_increment_1d_is_range():
    v = np.array([[0.0], [2.0], [-1.0], [0.5]])
    assert dl.sup_increment(v) == 3.0


def test_sup_increment_2d_matches_brute_force():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(200, 2))
    brute = np.sqrt(((v[:, None] - v[None, :]) ** 2).sum(-1)).max()
    assert dl.sup_increment(v) == pytest.approx(brute, rel=1e-12)


def test_sup_increment_collinear_cloud_is_diameter():
    t = np.linspace(0.0, 1.0, 7)
    v = np.column_stack([3 * t, 4 * t])
    assert dl.sup_increment(v) == pytest.approx(5.0, rel=1e-12)


def test_sup_increment_rejects_nan_cloud():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 0.5]])
    with pytest.raises(ValueError):
        dl.sup_increment(v)


# ----------------------------------------------------------------- tail curve

def test_tail_curve_at_zero_has_probability_one():
    sups = collect_sups(brownian_spec(1000, n_points=64))
    curve = dl.tail_curve(sups, (0.0, 1.0), xi_grid=[0.0, 0.5, 1.0])
    assert curve.log_probs[0] == 0.0
    assert np.all(np.diff(curve.log_probs[np.isfinite(curve.log_probs)]) <= 1e-12)


def test_tail_curve_warns_when_all_sentinel():
    sups = collect_sups(brownian_spec(1000, n_points=64))
    with pytest.warns(UserWarning, match="too coarse"):
        curve = dl.tail_curve(sups, (0.0, 1.0), xi_grid=[50.0, 60.0])
    assert curve.all_sentinel


def test_tail_curve_needs_ensemble():
    with pytest.raises(ValueError, match="ensemble"):
        dl.tail_curve(collect_sups(brownian_spec(10)), (0.0, 1.0))


def test_brownian_tail_selects_square_exponent():
    curve = dl.tail_curve(collect_sups(brownian_spec(10_000)), (0.0, 1.0))
    best, slopes, r2s = dl.fit_tail_exponent(curve, [1.6, 1.8, 2.0, 2.2])
    assert best == 2.0
    assert r2s[2] >= 0.9
    assert slopes[2] < 0


def test_h04_exponent_fits_at_least_as_well():
    curve = dl.tail_curve(collect_sups(brownian_spec(10_000, h=0.4)), (0.0, 1.0))
    _, _, r2s = dl.fit_tail_exponent(curve, [1.8, 2.0])
    assert r2s[0] >= r2s[1] - 0.02


# ------------------------------------------------------------- exponent fits

def test_fit_planted_square_model():
    xi = np.linspace(0.1, 2.0, 12)
    curve = TailCurve(xi, -3.0 * xi**2, 1000, (0.0, 1.0))
    best, slopes, r2s = dl.fit_tail_exponent(curve, [1.6, 1.8, 2.0, 2.2])
    assert best == 2.0
    assert slopes[2] == pytest.approx(-3.0, abs=0.01)
    assert r2s[2] == pytest.approx(1.0, abs=1e-12)


def test_fit_planted_noisy_exponent_recovery():
    rng = np.random.default_rng(5)
    xi = np.linspace(0.2, 2.5, 20)
    lp = -(xi**1.8) + rng.normal(0, 0.05, xi.size)
    lp = np.minimum.accumulate(lp)  # keep the curve a valid survival function
    curve = TailCurve(xi, lp, 1000, (0.0, 1.0))
    best, _, _ = dl.fit_tail_exponent(curve, [1.6, 1.8, 2.0])
    assert best == 1.8


def test_fit_rejects_degenerate_and_short_curves():
    xi = np.linspace(0.1, 1.0, 8)
    with pytest.raises(ValueError, match="degenerate"):
        dl.fit_tail_exponent(TailCurve(xi, np.zeros(8), 10, (0, 1)), [2.0])
    lp = np.full(8, -np.inf)
    lp[:3] = [-0.1, -0.2, -0.3]
    with pytest.raises(ValueError, match="finite"):
        dl.fit_tail_exponent(TailCurve(xi, lp, 10, (0, 1)), [2.0])


def test_tail_curve_validation():
    with pytest.raises(ValueError, match="increasing"):
        TailCurve(np.array([1.0, 1.0]), np.array([0.0, -1.0]), 10, (0, 1))
    with pytest.raises(ValueError, match="non-increasing"):
        TailCurve(np.array([1.0, 2.0]), np.array([-2.0, -1.0]), 10, (0, 1))


# ----------------------------------------------------------------------- kde

def test_kde_increment_matches_gaussian_benchmark():
    spec = brownian_spec(20_000)
    s, t = 0.125, 0.875
    sd = math.sqrt(t - s)
    centers = np.linspace(-4 * sd, 4 * sd, 81)
    est = dl.kde_increment(samples_at(spec, s, t), (s, t), centers)
    exact = 1.0 / math.sqrt(2 * math.pi * (t - s))
    assert est.values[40] == pytest.approx(exact, rel=0.10)
    # symmetric law: mirrored estimate agrees within a few percent
    sym_gap = np.abs(est.values - est.values[::-1]).max() / est.values.max()
    assert sym_gap <= 0.06
    # mass check: trapezoid integral over a window capturing ~all samples
    assert 0.9 <= np.trapezoid(est.values, centers) <= 1.05


def test_kde_increment_envelope_r2():
    spec = brownian_spec(20_000)
    s, t = 0.125, 0.875
    sd = math.sqrt(t - s)
    centers = np.linspace(-4 * sd, 4 * sd, 81)
    est = dl.kde_increment(samples_at(spec, s, t), (s, t), centers)
    z = np.abs(centers)
    keep = z > 0.5 * sd
    slope, _, r2 = dl.upper_envelope_fit(z[keep], est.values[keep], 2.0)
    assert slope < 0
    assert r2 >= 0.85


def test_kde_increment_guards():
    with pytest.raises(ValueError, match="ensemble"):
        dl.kde_increment(samples_at(brownian_spec(100), 0.125, 0.875), (0.125, 0.875), np.zeros(1))
    samples = samples_at(brownian_spec(10_000, n_points=64), 0.5, 0.5)
    with pytest.raises(ValueError, match="zero spread"):
        dl.kde_increment(samples, (0.5, 0.5), np.zeros(1))
    with pytest.raises(ValueError, match="away from 0"):
        dl.kde_increment(samples, (0.0, 0.5), np.zeros(1))


# ----------------------------------------------------------------- bivariate

def test_bivariate_offset_zero_is_maximal():
    spec = brownian_spec(100_000, n_points=64)
    offs = np.array([0.0, 0.3, 0.6, 0.9, 1.2])
    pairs = dl.kde_bivariate_decay(samples_at(spec, 0.25, 0.75), 0.25, 0.75, offs)
    vals = [v for _, v in pairs]
    assert vals[0] == max(vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_bivariate_needs_large_ensemble():
    with pytest.raises(ValueError, match="ensemble"):
        dl.kde_bivariate_decay(
            samples_at(brownian_spec(1000), 0.25, 0.75), 0.25, 0.75, np.array([0.0])
        )


# ------------------------------------------------------------ split stability

def test_tail_fit_split_stability():
    # both ensemble halves select the same exponent at the ladder's resolution
    ladder = [1.5, 2.0, 2.5]

    def best_of(half):
        qs = np.linspace(0.05, 0.99, 24)
        xi = np.unique(np.quantile(half, qs))
        probs = (half[None, :] >= xi[:, None]).mean(axis=1)
        with np.errstate(divide="ignore"):
            lp = np.log(probs)
        best, _, _ = dl.fit_tail_exponent(
            TailCurve(xi, lp, half.size, (0.0, 1.0)), ladder
        )
        return best

    agree = 0
    for rep in range(20):
        spec = brownian_spec(10_000, n_points=64, seed=50_000 + 30_000 * rep)
        sups = collect_sups(spec)
        agree += best_of(sups[:5000]) == best_of(sups[5000:])
    assert agree >= 16

