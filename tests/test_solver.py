import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fracdim import fbm, fields, roughpath as rp, solver
from fracdim.fbm import SamplePath, TimeGrid
from fracdim.fields import VectorFieldSet
from fracdim.solver import SolverScheme


def zeros(x, *shape):
    """Zeros for the stacked states x of shape (..., n): (..., *shape)."""
    return np.zeros(x.shape[:-1] + shape)


def brownian_driver(n, d, seed, h=0.5, depth=2):
    path = fbm.generate_circulant(TimeGrid(n + 1, 0.0, 1.0), d, h, seed=seed)
    return path, rp.lift_path(path, depth)


# ----------------------------------------------------------------- ellipticity

def test_ellipticity_identity_fields():
    rep = solver.check_ellipticity(
        fields.make_identity(3), 1.0, [np.zeros(3), np.ones(3)]
    )
    assert rep.lambda_min_observed == pytest.approx(1.0)
    assert rep.passed
    assert not solver.check_ellipticity(
        fields.make_identity(3), 1.5, [np.zeros(3)]
    ).passed


def test_ellipticity_diagonal_constant():
    diag = np.diag([1.0, 0.5])
    fs = VectorFieldSet(
        dim_state=2,
        dim_noise=2,
        v0=lambda x: zeros(x, 2),
        v=lambda x: zeros(x, 2, 2) + diag,
        first_derivatives=lambda x: zeros(x, 2, 2, 2),
        second_derivatives=lambda x: zeros(x, 2, 2, 2, 2),
        drift_derivatives=lambda x: zeros(x, 2, 2),
        constant=True,
    )
    rep = solver.check_ellipticity(fs, 0.2, [np.zeros(2)])
    assert rep.lambda_min_observed == pytest.approx(0.25)
    assert rep.passed


def test_ellipticity_sin_perturbation_bound():
    fs = fields.make_elliptic_sin_2d()
    rng = np.random.default_rng(8)
    pts = list(rng.uniform(-2, 2, size=(100, 2)))
    rep = solver.check_ellipticity(fs, 0.5, pts)
    bound = (1 - 0.1 * math.sqrt(2)) ** 2
    assert rep.lambda_min_observed >= bound
    # dense eigenvalue oracle at each sampled point
    direct = min(
        float(np.linalg.eigvalsh(fs.v(x) @ fs.v(x).T).min()) for x in pts
    )
    assert rep.lambda_min_observed == pytest.approx(direct, rel=1e-12)


def test_ellipticity_rejects_nonsquare():
    fs = VectorFieldSet(
        dim_state=2,
        dim_noise=1,
        v0=lambda x: zeros(x, 2),
        v=lambda x: zeros(x, 2, 1) + 1.0,
        first_derivatives=lambda x: zeros(x, 2, 2, 1),
        second_derivatives=lambda x: zeros(x, 2, 2, 2, 1),
        drift_derivatives=lambda x: zeros(x, 2, 2),
    )
    with pytest.raises(ValueError, match="square"):
        solver.check_ellipticity(fs, 0.1, [np.zeros(2)])


# ----------------------------------------------------------------------- solve

def test_identity_fields_shift_the_driver():
    path, sig = brownian_driver(128, 2, seed=4)
    x0 = np.array([0.5, -1.0])
    sol = solver.solve(fields.make_identity(2), x0, sig, SolverScheme("step2_davie"))
    # exact cumulative-increment oracle
    expected = x0 + np.vstack([np.zeros(2), np.cumsum(np.diff(path.values, axis=0), axis=0)])
    assert np.array_equal(sol.values, expected)
    assert np.abs(sol.values - (x0 + path.values)).max() < 1e-13


def test_solve_deterministic():
    _, sig = brownian_driver(64, 2, seed=10)
    fs = fields.make_elliptic_sin_2d()
    a = solver.solve(fs, np.zeros(2), sig, SolverScheme("step2_davie"))
    b = solver.solve(fs, np.zeros(2), sig, SolverScheme("step2_davie"))
    assert np.array_equal(a.values, b.values)


def test_geometric_strong_error_decays():
    # closed-form Stratonovich oracle x0 exp(sigma B) per sampled Brownian path
    sigma = 0.8
    geo = fields.make_geometric_1d(sigma)
    x0 = np.array([1.0])
    grids = (6, 7, 8, 9)
    errs = {j: [] for j in grids}
    for m in range(32):
        path, sig = brownian_driver(2 ** grids[-1], 1, seed=1000 + m)
        exact = x0[0] * math.exp(sigma * path.values[-1, 0])
        for j in grids:
            s = rp.coarsen(sig, 2 ** (grids[-1] - j))
            sol = solver.solve(geo, x0, s, SolverScheme("step2_davie"))
            errs[j].append(abs(sol.values[-1, 0] - exact))
    means = [np.mean(errs[j]) for j in grids]
    assert all(b < a for a, b in zip(means, means[1:]))
    order = -np.polyfit([j for j in grids], np.log2(means), 1)[0]
    assert order >= 0.4


def test_drift_only_matches_ode_oracle():
    dr = fields.make_drift_only(2)
    x0 = np.array([0.3, -0.2])
    flat = SamplePath(TimeGrid(1025, 0.0, 1.0), np.zeros((1025, 2)))
    sol = solver.solve(dr, x0, rp.lift_path(flat, 2), SolverScheme("step2_davie"))
    ref = solve_ivp(lambda t, y: dr.v0(y), (0, 1), x0, rtol=1e-12, atol=1e-14)
    assert np.abs(sol.values[-1] - ref.y[:, -1]).max() < 1e-6


def test_solve_grid_shift_equivariance():
    path, sig = brownian_driver(32, 1, seed=3)
    shifted = SamplePath(TimeGrid(33, 1.0, 2.0), path.values, hurst=path.hurst)
    sig_shift = rp.lift_path(shifted, 2)
    fs = fields.make_geometric_1d(0.5)
    a = solver.solve(fs, np.ones(1), sig, SolverScheme("step2_davie"))
    b = solver.solve(fs, np.ones(1), sig_shift, SolverScheme("step2_davie"))
    assert np.array_equal(a.values, b.values)
    assert b.grid.t_start == 1.0


def test_solve_scheme_driver_consistency():
    _, sig2 = brownian_driver(16, 1, seed=0, depth=2)
    with pytest.raises(ValueError, match="depth"):
        solver.solve(fields.make_identity(1), np.zeros(1), sig2, SolverScheme("step3"))
    low = fbm.generate_circulant(TimeGrid(17, 0.0, 1.0), 1, 0.3, seed=0)
    sig3 = rp.lift_path(low, 3)
    with pytest.raises(ValueError, match="step3"):
        solver.solve(fields.make_identity(1), np.zeros(1), sig3, SolverScheme("step2_davie"))
    solver.solve(fields.make_identity(1), np.zeros(1), sig3, SolverScheme("step3"))


def test_solve_overflow_guard_reports_step():
    blow = VectorFieldSet(
        dim_state=1,
        dim_noise=1,
        v0=lambda x: x**2,
        v=lambda x: zeros(x, 1, 1),
        first_derivatives=lambda x: zeros(x, 1, 1, 1),
        second_derivatives=lambda x: zeros(x, 1, 1, 1, 1),
        drift_derivatives=lambda x: 2 * x[..., None],
    )
    flat = SamplePath(TimeGrid(129, 0.0, 1.0), np.zeros((129, 1)))
    sig = rp.lift_path(flat, 2)
    with pytest.raises(solver.SolverError, match="step"):
        solver.solve(blow, np.array([10.0]), sig, SolverScheme("step2_davie"))


def test_solve_nan_state_reports_step():
    # unit drift moves the state by 1/128 a step, past 0.5 at step 65; the drift
    # is NaN from there on, so the state turns NaN at step 66
    nan_past_half = VectorFieldSet(
        dim_state=1,
        dim_noise=1,
        v0=lambda x: np.where(x > 0.5, np.nan, 1.0),
        v=lambda x: zeros(x, 1, 1),
        first_derivatives=lambda x: zeros(x, 1, 1, 1),
        second_derivatives=lambda x: zeros(x, 1, 1, 1, 1),
        drift_derivatives=lambda x: zeros(x, 1, 1),
    )
    flat = SamplePath(TimeGrid(129, 0.0, 1.0), np.zeros((129, 1)))
    sig = rp.lift_path(flat, 2)
    with pytest.raises(solver.SolverError, match="step 66"):
        solver.solve(nan_past_half, np.zeros(1), sig, SolverScheme("step2_davie"))


@pytest.mark.parametrize(
    "name, h, dim, factor",
    [
        ("elliptic_sin_2d", 0.75, 2, 1),  # step 2
        ("elliptic_sin_2d", 0.3, 2, 4),  # step 3, coarsened: levels 2 and 3 carry area
        ("drift_only", 0.5, 2, 1),  # nonzero drift
        ("geometric_1d", 0.5, 1, 4),  # Chen-coarsened levels
    ],
)
def test_member_solution_does_not_depend_on_its_block(name, h, dim, factor):
    fs = fields.resolve_fields(name, dim)
    scheme = solver.scheme_for(h)
    m = 8
    paths = [fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), dim, h, seed=30 + j) for j in range(m)]
    starts = np.linspace(0.1, 0.8, m * dim).reshape(m, dim)

    def block(members):
        sig = rp.coarsen(rp.lift_path([paths[j] for j in members], scheme.depth), factor)
        return solver.solve(fs, starts[members], sig, scheme)

    whole = block(list(range(m)))
    for k in range(m):
        alone = solver.solve(fs, starts[k], rp.coarsen(rp.lift_path(paths[k], scheme.depth), factor),
                             scheme).values
        for sol in (block([k])[0], block([(k - 1) % m, k, (k + 1) % m])[1], whole[k]):
            assert sol.values.tobytes() == alone.tobytes()


def test_bounded_fields_sup_has_gaussian_type_tail():
    fs = fields.make_elliptic_sin_2d()
    sups = []
    for m in range(1000):
        _, sig = brownian_driver(128, 2, seed=20_000 + m)
        sol = solver.solve(fs, np.zeros(2), sig, SolverScheme("step2_davie"))
        sups.append(np.sqrt((sol.values**2).sum(axis=1)).max())
    sups = np.sort(sups)
    qs = np.linspace(0.5, 0.99, 12)
    xi = np.quantile(sups, qs)
    logp = np.log(1 - qs)
    slope = np.polyfit(xi**2, logp, 1)[0]
    assert slope < 0


# ------------------------------------------------------------ self-refinement

def test_convergence_probe_elliptic_step3():
    # coarse solves driven by Chen-coarsenings of one 2^8 lift approach the
    # fine solve monotonically in sup norm
    fs = fields.make_elliptic_sin_2d()
    scheme = SolverScheme("step3")
    driver = fbm.generate_circulant(TimeGrid(2**8 + 1, 0.0, 1.0), 2, 0.35, seed=5)
    sig = rp.lift_path(driver, scheme.depth)
    reference = solver.solve(fs, np.zeros(2), sig, scheme).values
    errs = []
    for factor in (8, 4, 2):
        coarse = solver.solve(fs, np.zeros(2), rp.coarsen(sig, factor), scheme).values
        errs.append(float(np.abs(coarse - reference[::factor]).max()))
    assert all(b < a for a, b in zip(errs, errs[1:]))


# ------------------------------------------------------------------- catalog

def test_catalog_lookup_and_dim_check():
    assert fields.resolve_fields("identity", 3).dim_state == 3
    assert fields.resolve_fields("geometric_1d", 1).name == "geometric_1d"
    with pytest.raises(ValueError, match="unknown field catalog name"):
        fields.resolve_fields("nope", 1)
    with pytest.raises(ValueError, match="requires dim=2"):
        fields.resolve_fields("elliptic_sin_2d", 3)


def test_scheme_resolution():
    assert solver.scheme_for(0.5).kind == "step2_davie"
    assert solver.scheme_for(0.35).kind == "step2_davie"
    assert solver.scheme_for(1 / 3).kind == "step3"
    assert solver.scheme_for(0.3).kind == "step3"
    with pytest.raises(ValueError):
        SolverScheme("step4")
