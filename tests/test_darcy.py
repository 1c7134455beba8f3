"""Velocity-pressure subproblem with linear plus superlinear drag."""

import numpy as np
import pytest

from chdf import grid as gridops
from chdf.darcy import velocity_solve
from chdf.diagnostics import build_ledger_row
from chdf.errors import NewtonDivergence
from chdf.grid import Grid2D, ScalarField, VectorField
from chdf.model import ModelParams
from chdf.step import ChemicalPotentials, State


@pytest.fixture(scope="module")
def grid():
    return Grid2D(32, 32, 1.0, 1.0)


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
    h = 1e-2
    u, pi, _ = velocity_solve(VectorField.zero(grid), force, h, params)
    scale = 1.0 + np.max(np.hypot(force.x, force.y))
    drag = (params.alpha / h + params.nu_const
            + params.eta_const * np.hypot(u.x, u.y) ** (params.r - 2))
    gp = gridops.gradient(pi)
    res = np.hypot(drag * u.x + gp.x - force.x, drag * u.y + gp.y - force.y)
    assert np.max(res) < 1e-10 * scale
    assert np.max(np.abs(gridops.divergence(u).data)) < 1e-10 * scale
    assert abs(pi.data.mean()) < 1e-13


def test_strong_drag_solves_to_round_off(grid):
    # Steep or heavy drag, up to a thousandfold forcing, checked on the
    # returned fields themselves.
    rng = np.random.default_rng(2)
    from chdf.grid import cs_inv, sc_inv
    n = 32 * 32    # modes of about unit amplitude (unnormalised inverses)
    unit = VectorField(grid, sc_inv(n * rng.standard_normal((32, 32))),
                       cs_inv(n * rng.standard_normal((32, 32))))
    zero = VectorField.zero(grid)
    for r, eta, gain in ((4.0, 1.0, 1.0), (6.0, 1.0, 1.0), (3.0, 100.0, 1.0),
                         (2.01, 1.0, 1e3), (6.0, 1.0, 1e3), (8.0, 1e3, 1e3)):
        force = VectorField(grid, gain * unit.x, gain * unit.y)
        scale = 1.0 + np.max(np.hypot(force.x, force.y))
        params = ModelParams(alpha=0.0, r=r, eta_const=eta)
        cold = velocity_solve(zero, force, 0.1, params)
        # The default start lies within a factor 2 of the pointwise drag
        # root.  From u = 0, (r, eta, gain) = (6, 1, 1e3) takes 45 residual
        # evaluations and (8, 1e3, 1e3) diverges.
        assert cold[2].outer_iterations <= 12, (r, eta, gain)
        u = cold[0]
        # Started at its own solution the solve stops at the first residual.
        _, _, report = velocity_solve(zero, force, 0.1, params, start=u)
        assert report.outer_iterations == 1, (r, eta, gain)
        far = velocity_solve(zero, force, 0.1, params,
                             start=VectorField(grid, 100.0 * u.x, 100.0 * u.y))
        for case, (u, pi, _) in (("cold", cold), ("far", far)):
            drag = params.nu_const + eta * np.hypot(u.x, u.y) ** (r - 2)
            gp = gridops.gradient(pi)
            res = np.hypot(drag * u.x + gp.x - force.x, drag * u.y + gp.y - force.y)
            assert np.max(res) < 1e-10 * scale, (r, eta, gain, case)
            div = np.max(np.abs(gridops.divergence(u).data))
            assert div < 1e-10 * scale, (r, eta, gain, case)


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
    # The drag dissipation columns of the ledger row of a state moving at |u| = 5.
    u = VectorField(grid, np.full((32, 32), 3.0), np.full((32, 32), 4.0))
    params = ModelParams(nu_const=2.0, eta_const=0.5, r=3.0)
    state = State(u, ScalarField.constant(grid, 0.0), ScalarField.constant(grid, 0.5))
    zero = ScalarField.constant(grid, 0.0)
    row = build_ledger_row(state, state, ChemicalPotentials(zero, zero, zero, zero), 1e-3,
                           params, 0.0)
    d2, dr = row.dissipation_d2, row.dissipation_dr
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
