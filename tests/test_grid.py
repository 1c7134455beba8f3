"""Spectral grid, transforms, and discrete calculus operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdf import grid as gridops
from chdf.errors import MeanNotZero, NewtonDivergence
from chdf.grid import (Grid2D, ScalarField, VectorField, cc_fwd, cc_inv,
                       cs_fwd, cs_inv, pcg, resample, sc_fwd, sc_inv)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(64, 32, 2.0, 1.0)


@pytest.fixture(scope="module")
def unit_grid():
    return Grid2D(64, 64, 1.0, 1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(48, 32, 1.0, 1.0)   # not a power of two
    with pytest.raises(ValueError):
        Grid2D(4, 32, 1.0, 1.0)    # below minimum size
    with pytest.raises(ValueError):
        Grid2D(32, 32, -1.0, 1.0)
    for Lx, Ly in ((np.nan, 1.0), (1.0, np.inf), (np.inf, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            Grid2D(32, 32, Lx, Ly)


def test_cell_centers_midpoints(grid):
    X, Y = grid.cell_centers()
    assert X[0, 0] == pytest.approx(grid.hx / 2)
    assert Y[-1, -1] == pytest.approx(grid.Ly - grid.hy / 2)
    assert X.shape == (grid.ny, grid.nx)


def test_transform_round_trips(grid):
    rng = np.random.default_rng(3)
    f = rng.standard_normal((grid.ny, grid.nx))
    assert np.max(np.abs(cc_inv(cc_fwd(f)) - f)) < 1e-12
    assert np.max(np.abs(sc_inv(sc_fwd(f)) - f)) < 1e-10
    assert np.max(np.abs(cs_inv(cs_fwd(f)) - f)) < 1e-10


def test_transforms_act_on_stacks_fieldwise(grid):
    # bounded_newton and the stationary solve transform (2, ny, nx) stacks
    # and rely on each field coming out as if transformed alone.
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((2, grid.ny, grid.nx))
    for transform in (cc_fwd, cc_inv, sc_fwd, sc_inv, cs_fwd, cs_inv):
        out = transform(stack)
        for i in range(2):
            assert np.array_equal(out[i], transform(stack[i])), transform.__name__


def _cosine_modes(grid, modes, seed):
    """A stack of two random fields made of cos modes k, l < modes."""
    rng = np.random.default_rng(seed)
    X, Y = grid.cell_centers()
    out = np.zeros((2, grid.ny, grid.nx))
    for i in range(2):
        for k in range(modes):
            for l in range(modes):
                out[i] += rng.standard_normal() * (np.cos(k * np.pi * X / grid.Lx)
                                                   * np.cos(l * np.pi * Y / grid.Ly))
    return out


def test_resample_is_exact_on_resolved_fields(grid):
    # Restricting a field the coarse grid resolves and prolonging it back
    # gives it again, and each grid samples the same modes.
    coarse = Grid2D(grid.nx // 4, grid.ny // 2, grid.Lx, grid.Ly)
    f = _cosine_modes(grid, 8, 5)
    down = resample(f, coarse.ny, coarse.nx)
    assert down.shape == (2, coarse.ny, coarse.nx)
    assert np.max(np.abs(down - _cosine_modes(coarse, 8, 5))) < 1e-12
    assert np.max(np.abs(resample(down, grid.ny, grid.nx) - f)) < 1e-12
    assert np.max(np.abs(down.mean(axis=(-2, -1)) - f.mean(axis=(-2, -1)))) < 1e-14


def test_resample_keeps_the_mean_and_the_kept_modes(grid):
    # An unresolved field loses only the modes the coarse grid lacks: the
    # restriction of its prolongation is the restriction itself.
    rng = np.random.default_rng(11)
    f = rng.standard_normal((grid.ny, grid.nx))
    down = resample(f, grid.ny // 2, grid.nx // 2)
    assert abs(down.mean() - f.mean()) < 1e-14
    up = resample(down, grid.ny, grid.nx)
    assert abs(up.mean() - f.mean()) < 1e-14
    assert np.max(np.abs(resample(up, grid.ny // 2, grid.nx // 2) - down)) < 1e-12
    assert resample(f, grid.ny, grid.nx) is f


def test_mean_of_constant(grid):
    f = ScalarField.constant(grid, 2.5)
    assert gridops.mean(f) == pytest.approx(2.5, abs=1e-14)


def test_gradient_of_cosine_mode(grid):
    X, Y = grid.cell_centers()
    kx = 3 * np.pi / grid.Lx
    f = ScalarField(grid, np.cos(kx * X))
    g = gridops.gradient(f)
    assert np.max(np.abs(g.x + kx * np.sin(kx * X))) < 1e-11
    assert np.max(np.abs(g.y)) < 1e-12


def test_divergence_gradient_is_laplacian(grid):
    X, Y = grid.cell_centers()
    kx = 2 * np.pi / grid.Lx
    ky = 5 * np.pi / grid.Ly
    f = ScalarField(grid, np.cos(kx * X) * np.cos(ky * Y))
    lam = kx ** 2 + ky ** 2
    div = gridops.divergence(gridops.gradient(f))
    assert np.max(np.abs(div.data + lam * f.data)) < 1e-10


def test_neumann_laplacian_eigenmode(unit_grid):
    X, Y = unit_grid.cell_centers()
    f = np.cos(4 * np.pi * X) * np.cos(np.pi * Y)
    lam = (4 * np.pi) ** 2 + np.pi ** 2
    out = gridops.neumann_laplacian(ScalarField(unit_grid, f))
    assert np.max(np.abs(out.data - lam * f)) < 1e-10


def test_inverse_neumann_laplacian(unit_grid):
    X, Y = unit_grid.cell_centers()
    f = np.cos(2 * np.pi * X) * np.cos(3 * np.pi * Y)
    lam = (2 * np.pi) ** 2 + (3 * np.pi) ** 2
    sol = gridops.inverse_neumann_laplacian(ScalarField(unit_grid, lam * f))
    assert np.max(np.abs(sol.data - f)) < 1e-11


def test_inverse_laplacian_rejects_nonzero_mean(unit_grid):
    with pytest.raises(MeanNotZero):
        gridops.inverse_neumann_laplacian(ScalarField.constant(unit_grid, 1.0))


def test_grad_norm_sq_is_the_parseval_sum(grid):
    # A random field carries every cosine mode, the top ones included.
    f = ScalarField(grid, np.random.default_rng(3).standard_normal((grid.ny, grid.nx)))
    g = gridops.gradient(f)
    direct = float(np.sum(g.x ** 2 + g.y ** 2)) * grid.cell_area
    assert gridops.grad_norm_sq(f) == pytest.approx(direct, rel=1e-13)


def test_hminus1_norm_single_mode(unit_grid):
    # For f = cos(k pi x) cos(l pi y) on the unit square the norm squared is
    # (1/lam) * area * (1/2 per nonzero index): a pure-x mode, a pure-y mode
    # and a mixed one.
    X, Y = unit_grid.cell_centers()
    for k, l, weight in ((1, 0, 0.5), (0, 3, 0.5), (1, 2, 0.25)):
        f = ScalarField(unit_grid, np.cos(k * np.pi * X) * np.cos(l * np.pi * Y))
        expected = weight / ((k * np.pi) ** 2 + (l * np.pi) ** 2)
        assert gridops.hminus1_norm_sq(f) == pytest.approx(expected, rel=1e-12), (k, l)


def test_adjointness_gradient_divergence(grid):
    # sum(grad(f) . v) = -sum(f div(v)) for v with zero normal trace.
    # The inverse transforms are unnormalised: nx*ny times unit normals
    # gives modes of about unit amplitude.
    rng = np.random.default_rng(11)
    n = grid.nx * grid.ny
    f = ScalarField(grid, cc_inv(n * rng.standard_normal((grid.ny, grid.nx))))
    v = VectorField(grid,
                    sc_inv(n * rng.standard_normal((grid.ny, grid.nx))),
                    cs_inv(n * rng.standard_normal((grid.ny, grid.nx))))
    g = gridops.gradient(f)
    lhs = np.sum(g.x * v.x + g.y * v.y)
    rhs = -np.sum(f.data * gridops.divergence(v).data)
    assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + abs(lhs)))


def test_helmholtz_idempotent_and_annihilates_gradients(unit_grid):
    rng = np.random.default_rng(5)
    n = 64 * 64    # modes of about unit amplitude (unnormalised inverses)
    v = VectorField(unit_grid,
                    sc_inv(n * rng.standard_normal((64, 64))),
                    cs_inv(n * rng.standard_normal((64, 64))))
    w, _ = gridops.solenoidal_part(v)
    w2, q2 = gridops.solenoidal_part(w)
    assert np.max(np.abs(gridops.divergence(w).data)) < 1e-10
    assert np.max(np.abs(w2.x - w.x)) < 1e-10
    assert np.max(np.abs(cc_inv(q2))) < 1e-10

    f = ScalarField(unit_grid, cc_inv(n * rng.standard_normal((64, 64))))
    g = gridops.gradient(f)
    pg, _ = gridops.solenoidal_part(g)
    assert np.max(np.abs(pg.x)) < 1e-9
    assert np.max(np.abs(pg.y)) < 1e-9


def test_project_velocity_preserves_solenoidal(unit_grid):
    X, Y = unit_grid.cell_centers()
    # Stream-function field: solenoidal with zero normal trace.
    ux = np.sin(np.pi * X) * np.cos(np.pi * Y) * np.pi
    uy = -np.cos(np.pi * X) * np.sin(np.pi * Y) * np.pi
    u = VectorField(unit_grid, ux, uy)
    pu = gridops.project_velocity(u)
    assert np.max(np.abs(pu.x - ux)) < 1e-10
    assert np.max(np.abs(pu.y - uy)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.floats(0.5, 3.0))
def test_laplacian_eigenvalue_property(k, l, L):
    grid = Grid2D(16, 16, L, 1.0)
    X, Y = grid.cell_centers()
    f = np.cos(k * np.pi * X / L) * np.cos(l * np.pi * Y)
    lam = (k * np.pi / L) ** 2 + (l * np.pi) ** 2
    out = gridops.neumann_laplacian(ScalarField(grid, f))
    assert np.max(np.abs(out.data - lam * f)) < 1e-9 * (1 + lam)


def _symmetric(eigenvalues, seed=0):
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q @ np.diag(eigenvalues) @ q.T


def test_pcg_solves_spd_system_to_rtol():
    A = _symmetric(np.linspace(1.0, 50.0, 12))
    b = np.random.default_rng(1).standard_normal((2, 3, 2))
    diag = np.diag(A).reshape(b.shape)
    # pcg works on arrays of the rhs's shape; A acts on their flattening.
    x = pcg(lambda v: (A @ v.ravel()).reshape(b.shape), lambda r: r / diag, b, 1e-10)
    exact = np.linalg.solve(A, b.ravel())
    assert x.shape == b.shape
    assert np.linalg.norm(A @ x.ravel() - b.ravel()) <= 1e-9 * np.linalg.norm(b)
    assert np.linalg.norm(x.ravel() - exact) <= 50 * 1e-9 * np.linalg.norm(exact)


def test_pcg_takes_negative_curvature_on_indefinite_system():
    A = _symmetric([-4.0, -1.5, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
    b = np.random.default_rng(2).standard_normal(8)
    curvature = []

    def matvec(p):
        q = A @ p
        curvature.append(np.vdot(p, q))
        return q

    x = pcg(matvec, lambda r: r, b, 1e-10)
    exact = np.linalg.solve(A, b)
    assert min(curvature) < 0.0
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)
    assert np.linalg.norm(x - exact) <= 16 * 1e-9 * np.linalg.norm(exact)


def test_pcg_zero_rhs_gives_zeros():
    def matvec(p):
        raise AssertionError("no matvec for a zero rhs")

    x = pcg(matvec, lambda r: r, np.zeros((2, 4)), 1e-3)
    assert x.shape == (2, 4) and not x.any()


def test_pcg_reports_its_cap(monkeypatch):
    # Reaching the one cap raises, as breakdown does: no caller can use an
    # unconverged solution unawares.
    A = _symmetric(np.logspace(0, 6, 12))
    b = np.ones(12)
    calls = []

    def matvec(p):
        calls.append(1)
        return A @ p

    monkeypatch.setattr(gridops, "CG_MAXITER", 3)
    with pytest.raises(NewtonDivergence, match="cap of 3 iterations"):
        pcg(matvec, lambda r: r, b, 1e-12)
    assert len(calls) == 3


def test_pcg_raises_on_exact_breakdown():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    # The first direction is b itself, and b.Ab = 0.
    with pytest.raises(NewtonDivergence, match="breakdown"):
        pcg(lambda p: A @ p, lambda r: r, np.array([1.0, 0.0]), 1e-8)
