import math
from types import SimpleNamespace

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


def constant_set(v, drift=None):
    """The featureless set with the state-independent V of shape (n, d): a base row alone."""
    return VectorFieldSet(*v.shape, *fields._constant_jet(v), drift=drift)


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
    fs = constant_set(np.diag([1.0, 0.5]))
    assert fs.constant
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
    fs = constant_set(np.ones((2, 1)))
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



@pytest.mark.parametrize("h", [0.3, 0.4])
def test_step3_strong_error_decays(h):
    # the Doss-Sussmann flow x0 exp(sigma B_1) is exact for a piecewise-linear
    # driver; step 3's local error O(|delta|^4) predicts a strong order 4H - 1,
    # asserted at half that
    sigma, m, fine = 0.8, 48, 12
    geo = fields.make_geometric_1d(sigma)
    grid = TimeGrid(2**fine + 1, 0.0, 1.0)
    paths = fbm.generate_circulant(grid, 1, h, seed=range(1000, 1000 + m))
    exact = np.array([math.exp(sigma * (p.values[-1, 0] - p.values[0, 0])) for p in paths])
    sig = rp.lift_path(paths, 3)
    grids = range(8, fine + 1)
    means = []
    for j in grids:
        sols = solver.solve(geo, np.ones((m, 1)), rp.coarsen(sig, 2 ** (fine - j)), SolverScheme("step3"))
        means.append(np.mean([abs(sol.values[-1, 0] - e) for sol, e in zip(sols, exact)]))
    assert all(b < a for a, b in zip(means, means[1:]))
    order = -np.polyfit(list(grids), np.log2(means), 1)[0]
    assert order >= 0.5 * (4 * h - 1)

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
    blow = constant_set(np.zeros((1, 1)), drift=lambda x: (x**2, 2 * x[..., None]))
    flat = SamplePath(TimeGrid(129, 0.0, 1.0), np.zeros((129, 1)))
    sig = rp.lift_path(flat, 2)
    with pytest.raises(solver.SolverError, match="step"):
        solver.solve(blow, np.array([10.0]), sig, SolverScheme("step2_davie"))


def test_solve_nan_state_reports_step():
    # unit drift moves the state by 1/128 a step, past 0.5 at step 65; the drift
    # is NaN from there on, so the state turns NaN at step 66
    nan_past_half = constant_set(
        np.zeros((1, 1)), drift=lambda x: (np.where(x > 0.5, np.nan, 1.0), zeros(x, 1, 1))
    )
    flat = SamplePath(TimeGrid(129, 0.0, 1.0), np.zeros((129, 1)))
    sig = rp.lift_path(flat, 2)
    with pytest.raises(solver.SolverError, match="step 66"):
        solver.solve(nan_past_half, np.zeros(1), sig, SolverScheme("step2_davie"))



@pytest.mark.parametrize("h, factor", [(0.75, 1), (0.3, 4)])  # step 2; step 3 on a coarsened lift
def test_nan_member_fails_alone_in_its_block(h, factor):
    # the jet spreads a NaN coordinate into every slot of its own member's
    # jet; the other members of the block must not see it
    fs = fields.resolve_fields("elliptic_sin_2d", 2)
    scheme = solver.scheme_for(h)
    paths = [fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), 2, h, seed=40 + j) for j in range(4)]
    starts = np.linspace(0.1, 0.8, 8).reshape(4, 2)
    starts[2] = [np.nan, 0.0]
    sols = solver.solve(fs, starts, rp.coarsen(rp.lift_path(paths, scheme.depth), factor), scheme)
    assert isinstance(sols[2], solver.SolverError)
    assert str(sols[2]) == "state overflow at step 1"
    for k in (0, 1, 3):
        alone = solver.solve(fs, starts[k], rp.coarsen(rp.lift_path(paths[k], scheme.depth), factor),
                             scheme)
        assert sols[k].values.tobytes() == alone.values.tobytes()

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


# ------------------------------------------------------ derivative oracles

CATALOG_DIMS = [("identity", 2), ("identity", 3), ("geometric_1d", 1),
                ("elliptic_sin_2d", 2), ("drift_only", 2), ("drift_only", 3)]


def central_difference(f, x, axis, h=1e-5):
    """d f / d x_l by central differences, with the new axis l at ``axis`` of the result."""
    return np.stack([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(x.shape[-1])], axis=axis)


@pytest.mark.parametrize("name, dim", CATALOG_DIMS)
@pytest.mark.parametrize("lead", [(), (5,)])
def test_catalog_derivatives_match_central_differences(name, dim, lead):
    fs = fields.resolve_fields(name, dim)
    x = np.random.default_rng(11).uniform(-2, 2, size=lead + (dim,))
    v, dv, d2v = fs.jet(x, 3)
    assert v.shape == lead + (dim, dim) and d2v.shape == lead + (dim,) * 4
    # DV[i, l, j] = d V[i, j] / d x_l and D2V[i, m, l, j] = d DV[i, l, j] / d x_m
    np.testing.assert_allclose(dv, central_difference(fs.v, x, -2), rtol=1e-6, atol=1e-10)
    np.testing.assert_allclose(d2v, central_difference(fs.first_derivatives, x, -3),
                               rtol=1e-6, atol=1e-10)
    for order in (1, 2, 3):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fs.jet(x, order), (v, dv, d2v)))
        assert len(fs.jet(x, order)) == order
    if fs.drift is None:
        assert not fs.v0(x).any() and fs.v0(x).shape == lead + (dim,)
    else:
        dv0 = fs.drift(x)[1]
        np.testing.assert_allclose(dv0, central_difference(fs.v0, x, -1), rtol=1e-6, atol=1e-10)


def test_shape_error_names_the_piece():
    # the jet's shapes are the table's, checked when the set is made; the
    # drift's are checked by solve at the starts
    no_features = lambda t: lambda x: None  # noqa: E731
    cases = [
        (np.zeros((0, 12)), np.zeros(12), None, r"^table must have shape \(F, 28\)"),
        (np.zeros((0, 28)), np.zeros(27), None, r"^table must have shape \(F, 28\)"),
        (np.zeros((4, 28)), np.zeros(28), None, "^a table needs a feature map"),
        (np.zeros((0, 28)), np.zeros(28), no_features, "^a table needs a feature map"),
    ]
    for table, base, features, message in cases:
        with pytest.raises(ValueError, match=message):
            VectorFieldSet(2, 2, table, base, features=features)
    _, sig2 = brownian_driver(8, 2, seed=0)
    fs = constant_set(np.zeros((2, 2)), drift=lambda x: (zeros(x, 2), zeros(x, 2)))
    with pytest.raises(ValueError, match="^DV0 must have shape"):
        solver.solve(fs, np.zeros(2), sig2, solver.scheme_for(sig2.hurst))


def test_tables_are_read_only_copies():
    table, base = np.ones((1, 3)), np.zeros(3)
    fs = VectorFieldSet(1, 1, table, base, features=lambda t: lambda x: np.copyto(t, x))
    table[0, 0] = 2.0
    assert fs.table[0, 0] == 1.0
    for value in (fs.table, fs.base):
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 3.0


# ---------------------------------------- reference: five callables per set

def reference_catalog(name, dim):
    """The catalog as five separate callables (V0, V, DV, D2V, DV0), written slot by slot."""
    if name == "identity":
        eye = np.eye(dim)
        return SimpleNamespace(
            dim_state=dim,
            v0=lambda x: zeros(x, dim),
            v=lambda x: zeros(x, dim, dim) + eye,
            first_derivatives=lambda x: zeros(x, dim, dim, dim),
            second_derivatives=lambda x: zeros(x, dim, dim, dim, dim),
            drift_derivatives=lambda x: zeros(x, dim, dim),
        )
    if name == "geometric_1d":
        sigma = 1.0

        def v(x):
            out = np.empty(x.shape[:-1] + (1, 1))
            out[..., 0, 0] = sigma * x[..., 0]
            return out

        return SimpleNamespace(
            dim_state=1,
            v0=lambda x: zeros(x, 1),
            v=v,
            first_derivatives=lambda x: zeros(x, 1, 1, 1) + sigma,
            second_derivatives=lambda x: zeros(x, 1, 1, 1, 1),
            drift_derivatives=lambda x: zeros(x, 1, 1),
        )
    if name == "elliptic_sin_2d":
        def v(x):
            s, c = np.sin(x), np.cos(x)
            out = np.empty(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0 + 0.1 * s[..., 1]
            out[..., 0, 1] = 0.1 * c[..., 1]
            out[..., 1, 0] = 0.1 * s[..., 0]
            out[..., 1, 1] = 1.0 + 0.1 * c[..., 0]
            return out

        def dv(x):
            s, c = np.sin(x), np.cos(x)
            out = zeros(x, 2, 2, 2)
            out[..., 0, 1, 0] = 0.1 * c[..., 1]
            out[..., 0, 1, 1] = -0.1 * s[..., 1]
            out[..., 1, 0, 0] = 0.1 * c[..., 0]
            out[..., 1, 0, 1] = -0.1 * s[..., 0]
            return out

        def d2v(x):
            s, c = np.sin(x), np.cos(x)
            out = zeros(x, 2, 2, 2, 2)
            out[..., 0, 1, 1, 0] = -0.1 * s[..., 1]
            out[..., 0, 1, 1, 1] = -0.1 * c[..., 1]
            out[..., 1, 0, 0, 0] = -0.1 * s[..., 0]
            out[..., 1, 0, 0, 1] = -0.1 * c[..., 0]
            return out

        return SimpleNamespace(
            dim_state=2,
            v0=lambda x: zeros(x, 2),
            v=v,
            first_derivatives=dv,
            second_derivatives=d2v,
            drift_derivatives=lambda x: zeros(x, 2, 2),
        )
    assert name == "drift_only"

    def v0(x):
        return 0.5 * np.sin(np.roll(x, -1, axis=-1)) + 0.3 * np.cos(x)

    def dv0(x):
        out = zeros(x, dim, dim)
        rolled = 0.5 * np.cos(np.roll(x, -1, axis=-1))
        sin_x = np.sin(x)
        for i in range(dim):
            out[..., i, (i + 1) % dim] += rolled[..., i]
            out[..., i, i] += -0.3 * sin_x[..., i]
        return out

    return SimpleNamespace(
        dim_state=dim,
        v0=v0,
        v=lambda x: zeros(x, dim, dim),
        first_derivatives=lambda x: zeros(x, dim, dim, dim),
        second_derivatives=lambda x: zeros(x, dim, dim, dim, dim),
        drift_derivatives=dv0,
    )


def reference_steps(fields, x0, levels, dt):
    """The time loop with five field calls per step, the drift pair always added."""
    b1, b2 = levels[0], levels[1]
    b3 = levels[2] if len(levels) >= 3 else None
    m, n_steps, d = b1.shape
    n = fields.dim_state
    out = np.empty((m, n_steps + 1, n))
    out[:, 0] = x0
    x = x0
    half_dt2 = 0.5 * dt * dt
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            v0x = fields.v0(x)
            vx = fields.v(x)
            dvx = fields.first_derivatives(x).reshape(m, n, n * d)
            dx = (v0x * dt + (fields.drift_derivatives(x) @ v0x[..., None])[..., 0] * half_dt2
                  + (vx @ b1[:, k, :, None])[..., 0])
            c = vx @ b2[:, k]
            dx += (dvx @ c.reshape(m, n * d, 1))[..., 0]
            if b3 is not None:
                d2vx = fields.second_derivatives(x).reshape(m, n, n * n * d)
                t1 = (vx @ b3[:, k].reshape(m, d, d * d)).reshape(m, n, d, d)
                inner = dvx @ t1.reshape(m, n * d, d)
                dx += (dvx @ inner.reshape(m, n * d, 1))[..., 0]
                u = np.einsum("...lb,...mbc->...mlc", vx, t1)
                dx += (d2vx @ u.reshape(m, n * n * d, 1))[..., 0]
            x = x + dx
            out[:, k + 1] = x
    return out


@pytest.mark.parametrize("name, dim", [("identity", 2), ("geometric_1d", 1),
                                       ("elliptic_sin_2d", 2), ("drift_only", 2)])
@pytest.mark.parametrize("h, factor", [(0.75, 1), (0.3, 4)])  # step 2; step 3 on a coarsened lift
@pytest.mark.parametrize("m", [1, 8])
def test_time_loop_matches_five_callable_reference(name, dim, h, factor, m):
    depth = solver.scheme_for(h).depth
    paths = [fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), dim, h, seed=50 + j) for j in range(m)]
    sig = rp.coarsen(rp.lift_path(paths, depth), factor)
    levels = sig.levels[:depth]
    starts = np.linspace(0.1, 0.8, m * dim).reshape(m, dim)
    got = solver._steps(fields.resolve_fields(name, dim), starts, levels, sig.grid.spacing)
    want = reference_steps(reference_catalog(name, dim), starts, levels, sig.grid.spacing)
    assert got.tobytes() == want.tobytes()



@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("lead", [(), (1,), (5,), (3, 4), (1000,)])
def test_elliptic_jet_matches_slot_reference(order, lead):
    # every catalog set's table jet (elliptic_sin_2d's was the first), against
    # the slot-by-slot reference; tobytes, not array_equal: a -0.0 in a zero
    # DV or D2V slot must fail
    for name, dim in CATALOG_DIMS:
        ref = reference_catalog(name, dim)
        x = np.random.default_rng(order + len(lead)).uniform(-60, 60, lead + (dim,))
        got = fields.resolve_fields(name, dim).jet(x, order)
        want = (ref.v(x), ref.first_derivatives(x), ref.second_derivatives(x))[:order]
        assert len(got) == order
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name


def test_elliptic_time_loop_from_zero_matches_reference():
    # at a coordinate of exactly 0.0 the slot reference has -0.0 in its
    # -0.1 sin slots where the jet has +0.0; every run starts there
    m = 4
    paths = [fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), 2, 0.75, seed=60 + j) for j in range(m)]
    sig = rp.lift_path(paths, 2)
    starts = np.zeros((m, 2))
    got = solver._steps(fields.resolve_fields("elliptic_sin_2d", 2), starts, sig.levels, sig.grid.spacing)
    want = reference_steps(reference_catalog("elliptic_sin_2d", 2), starts, sig.levels, sig.grid.spacing)
    assert got.tobytes() == want.tobytes()

@pytest.mark.parametrize("other", ["elliptic_sin_2d", "drift_only"])
@pytest.mark.parametrize("h, factor", [(0.75, 1), (0.3, 4)])  # step 2; step 3 on a coarsened lift
def test_a_kept_solution_survives_later_solves(other, h, factor):
    # a buffer or table that outlived its solve would let the next solve
    # write into, or read from, states already handed out
    scheme = solver.scheme_for(h)

    def driver(seed):
        paths = [fbm.generate_circulant(TimeGrid(257, 0.0, 1.0), 2, h, seed=seed + j)
                 for j in range(3)]
        return rp.coarsen(rp.lift_path(paths, scheme.depth), factor)

    fs = fields.resolve_fields("elliptic_sin_2d", 2)
    starts = np.linspace(0.1, 0.8, 6).reshape(3, 2)
    kept = solver.solve(fs, starts, driver(70), scheme)
    want = [sol.values.tobytes() for sol in kept]
    solver.solve(fields.resolve_fields(other, 2), starts[::-1], driver(80), scheme)
    assert [sol.values.tobytes() for sol in kept] == want
    assert [sol.values.tobytes() for sol in solver.solve(fs, starts, driver(70), scheme)] == want

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
