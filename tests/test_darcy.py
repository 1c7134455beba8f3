"""Velocity-pressure subproblem and the scalar drag root solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdf import grid as gridops
from chdf.darcy import (dissipation_integrands, forchheimer_scalar_root,
                        velocity_solve)
from chdf.errors import NewtonDivergence
from chdf.grid import Grid2D, ScalarField, VectorField
from chdf.model import ModelParams


@pytest.fixture(scope="module")
def grid():
    return Grid2D(32, 32, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Scalar root
# ---------------------------------------------------------------------------

def test_scalar_root_analytic_cases():
    # m + m^2 = 2 at m = 1; m + m^3 = 10 at m = 2.
    assert forchheimer_scalar_root(1.0, 1.0, 3.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert forchheimer_scalar_root(1.0, 1.0, 4.0, 10.0) == pytest.approx(2.0, abs=1e-12)
    assert forchheimer_scalar_root(1.0, 1.0, 3.0, 0.0) == 0.0


def test_scalar_root_input_validation():
    with pytest.raises(ValueError):
        forchheimer_scalar_root(0.0, 1.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        forchheimer_scalar_root(1.0, -1.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        forchheimer_scalar_root(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        forchheimer_scalar_root(1.0, 1.0, 3.0, -1.0)


def test_scalar_root_monotone_in_forcing():
    g = np.linspace(0.0, 50.0, 1000)
    roots = [forchheimer_scalar_root(0.7, 1.3, 3.5, gi) for gi in g]
    assert all(b > a for a, b in zip(roots, roots[1:]))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.floats(2.1, 6.0), st.floats(0.0, 100.0))
def test_scalar_root_satisfies_equation(c1, c2, r, g):
    m = forchheimer_scalar_root(c1, c2, r, g)
    assert c1 * m + c2 * m ** (r - 1) == pytest.approx(g, abs=1e-11 * (1 + g))


# ---------------------------------------------------------------------------
# Velocity solve
# ---------------------------------------------------------------------------

def test_pure_gradient_forcing_gives_zero_velocity(grid):
    X, Y = grid.cell_centers()
    p = np.cos(np.pi * X) * np.cos(2 * np.pi * Y)
    force = gridops.gradient(ScalarField(grid, p))
    u0 = VectorField.zero(grid)
    u, pi, report = velocity_solve(u0, force, h=1e-3, params=ModelParams(r=3.0))
    assert np.max(np.hypot(u.x, u.y)) < 1e-9
    # Pressure absorbs the forcing up to its mean.
    assert np.max(np.abs(pi.data - (p - p.mean()))) < 1e-8


def test_solenoidal_forcing_small_superlinear_drag(grid):
    X, Y = grid.cell_centers()
    ux = np.sin(np.pi * X) * np.cos(np.pi * Y)
    uy = -np.cos(np.pi * X) * np.sin(np.pi * Y)
    force = VectorField(grid, ux, uy)
    params = ModelParams(nu_const=2.0, eta_const=1e-8, r=3.0)
    u, _, _ = velocity_solve(VectorField.zero(grid), force, 1e-3, params)
    # With negligible superlinear drag, u is approximately force / nu.
    assert np.max(np.abs(u.x - ux / 2.0)) < 1e-6
    assert np.max(np.abs(u.y - uy / 2.0)) < 1e-6
    assert np.max(np.abs(gridops.divergence(u).data)) < 1e-9


def test_momentum_residual_reported_small(grid):
    rng = np.random.default_rng(2)
    from chdf.grid import cs_inv, sc_inv
    n = 32 * 32    # modes of about unit amplitude (unnormalised inverses)
    force = VectorField(grid, sc_inv(n * rng.standard_normal((32, 32))),
                        cs_inv(n * rng.standard_normal((32, 32))))
    params = ModelParams(alpha=1.0, r=3.0)
    u, pi, report = velocity_solve(VectorField.zero(grid), force, 1e-2, params)
    scale = 1.0 + np.max(np.hypot(force.x, force.y))
    assert report.final_momentum_residual < 1e-7 * scale
    assert np.max(np.abs(gridops.divergence(u).data)) < 1e-10 * scale
    assert abs(pi.data.mean()) < 1e-13


def test_strong_drag_solves_to_round_off(grid):
    # Steep or heavy drag, checked on the returned fields themselves.
    rng = np.random.default_rng(2)
    from chdf.grid import cs_inv, sc_inv
    n = 32 * 32    # modes of about unit amplitude (unnormalised inverses)
    force = VectorField(grid, sc_inv(n * rng.standard_normal((32, 32))),
                        cs_inv(n * rng.standard_normal((32, 32))))
    scale = 1.0 + np.max(np.hypot(force.x, force.y))
    zero = VectorField.zero(grid)
    for r, eta in ((4.0, 1.0), (6.0, 1.0), (3.0, 100.0)):
        params = ModelParams(alpha=0.0, r=r, eta_const=eta)
        cold = velocity_solve(zero, force, 0.1, params)
        u = cold[0]
        # Started at its own solution the solve stops at the first residual.
        _, _, report = velocity_solve(zero, force, 0.1, params, start=u)
        assert report.outer_iterations == 1, (r, eta)
        far = velocity_solve(zero, force, 0.1, params,
                             start=VectorField(grid, 100.0 * u.x, 100.0 * u.y))
        for case, (u, pi, _) in (("cold", cold), ("far", far)):
            drag = params.nu_const + eta * np.hypot(u.x, u.y) ** (r - 2)
            gp = gridops.gradient(pi)
            res = np.hypot(drag * u.x + gp.x - force.x, drag * u.y + gp.y - force.y)
            assert np.max(res) < 1e-10 * scale, (r, eta, case)
            assert np.max(np.abs(gridops.divergence(u).data)) < 1e-10 * scale, (r, eta, case)


def test_drag_decay_with_inertia(grid):
    # No forcing, alpha > 0: the velocity decays toward zero each step.
    X, Y = grid.cell_centers()
    ux = np.sin(np.pi * X) * np.cos(np.pi * Y)
    uy = -np.cos(np.pi * X) * np.sin(np.pi * Y)
    u = VectorField(grid, ux, uy)
    zero = VectorField.zero(grid)
    params = ModelParams(alpha=1.0, r=3.0)
    e_prev = float(np.sum(u.x ** 2 + u.y ** 2))
    for _ in range(3):
        u, _, _ = velocity_solve(u, zero, h=0.1, params=params)
        e = float(np.sum(u.x ** 2 + u.y ** 2))
        assert e < e_prev
        e_prev = e


def test_dissipation_integrands_constant_speed(grid):
    u = VectorField(grid, np.full((32, 32), 3.0), np.full((32, 32), 4.0))
    params = ModelParams(nu_const=2.0, eta_const=0.5, r=3.0)
    d2, dr = dissipation_integrands(u, params)
    area = grid.Lx * grid.Ly
    assert d2 == pytest.approx(2.0 * 25.0 * area, rel=1e-13)
    assert dr == pytest.approx(0.5 * 125.0 * area, rel=1e-13)


def test_velocity_solve_rejects_bad_step(grid):
    with pytest.raises(ValueError):
        velocity_solve(VectorField.zero(grid), VectorField.zero(grid), 0.0,
                       ModelParams())


def test_velocity_cg_at_its_cap_raises(grid, monkeypatch):
    # A linear solve cut at the cap is not used as an update: the velocity
    # solve raises, naming itself and the update.
    rng = np.random.default_rng(2)
    from chdf.grid import cs_inv, sc_inv
    n = 32 * 32
    force = VectorField(grid, sc_inv(n * rng.standard_normal((32, 32))),
                        cs_inv(n * rng.standard_normal((32, 32))))
    params = ModelParams(alpha=0.0, r=6.0)
    velocity_solve(VectorField.zero(grid), force, 0.1, params)
    monkeypatch.setattr(gridops, "CG_MAXITER", 1)
    with pytest.raises(NewtonDivergence, match=r"^velocity solve update \d+: CG reached "
                       r"its cap of 1 iterations; residual \d"):
        velocity_solve(VectorField.zero(grid), force, 0.1, params)
