"""Ledger analysis, equilibrium detection, and stationary solves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdf import diagnostics as diag
from chdf import model as mdl
from chdf.errors import ValidationError
from chdf.grid import Grid2D, ScalarField, VectorField
from chdf.model import ModelParams
from chdf.step import ChemicalPotentials, State, coupled_time_step


@pytest.fixture(scope="module")
def grid():
    return Grid2D(32, 32, 1.0, 1.0)


def _zero_potentials(grid):
    return ChemicalPotentials(*(ScalarField.constant(grid, 0.0) for _ in range(4)))


def _row(time, gphi=0.0, gpsi=0.0):
    return diag.LedgerRow(time, 0, 0, 0, 0, 0, gphi, gpsi, 0, 0,
                          0, 0.5, 0, 0, 0.5, 0.5, 0, 0)


# ---------------------------------------------------------------------------
# Equilibrium residual
# ---------------------------------------------------------------------------

def test_equilibrium_residual_zero_at_rest(grid):
    params = ModelParams(sigma1=1.0, c=0.2)
    state = State(VectorField.zero(grid), ScalarField.constant(grid, 0.2),
                  ScalarField.constant(grid, 0.5))
    res = diag.equilibrium_residual(state, _zero_potentials(grid), params)
    assert res < 1e-12


def test_equilibrium_residual_positive_mid_relaxation(grid):
    params = ModelParams()
    X, _ = grid.cell_centers()
    state = State(VectorField.zero(grid),
                  ScalarField(grid, 0.3 * np.cos(np.pi * X)),
                  ScalarField.constant(grid, 0.5))
    pots = _zero_potentials(grid)
    pots.mu_phi = ScalarField(grid, np.cos(np.pi * X))
    assert diag.equilibrium_residual(state, pots, params) > 0.1


def test_equilibrium_residual_decreases_along_run(grid):
    params = ModelParams(w=1.0, theta_c=1.0)
    X, _ = grid.cell_centers()
    state = State(VectorField.zero(grid),
                  ScalarField(grid, 0.1 + 0.05 * np.cos(np.pi * X)),
                  ScalarField.constant(grid, 0.5))
    samples = []
    pots = None
    for k in range(40):
        state, pots, _ = coupled_time_step(state, 1e-3, params, pots)
        if k % 10 == 9:
            samples.append(diag.equilibrium_residual(state, pots, params))
    assert all(b <= a + 1e-9 for a, b in zip(samples, samples[1:]))


# ---------------------------------------------------------------------------
# Good times, margins, mass
# ---------------------------------------------------------------------------

def test_classify_good_times_thresholds():
    ledger = [_row(0.0, 4.0), _row(1.0, 1.0), _row(2.0, 0.25), _row(3.0, 0.0)]
    assert diag.classify_good_times(ledger, M=math.inf, T=1.0) == {1, 2, 3}
    assert diag.classify_good_times(ledger, M=0.0, T=0.0) == {3}
    assert diag.classify_good_times(ledger, M=1.0, T=0.0) == {1, 2, 3}
    with pytest.raises(ValidationError):
        diag.classify_good_times([], 1.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_good_times_monotone_in_threshold(m1, m2):
    lo, hi = sorted((m1, m2))
    ledger = [_row(float(t), gphi=0.3 * t, gpsi=0.1) for t in range(10)]
    assert (diag.classify_good_times(ledger, lo, 0.0)
            <= diag.classify_good_times(ledger, hi, 0.0))


def test_separation_margin_arithmetic(grid):
    phi = ScalarField.constant(grid, 0.0)
    psi = ScalarField.constant(grid, 0.5)
    assert diag.separation_margin(phi, psi) == (1.0, 0.5)
    phi9 = ScalarField.constant(grid, 0.9)
    d_phi, _ = diag.separation_margin(phi9, psi)
    assert d_phi == pytest.approx(0.1)


def test_mass_closed_form_cases():
    params = ModelParams(sigma1=0.0)
    assert diag.mass_closed_form(7.0, params, 0.3) == 0.3
    params = ModelParams(sigma1=1.0, c=0.0)
    assert diag.mass_closed_form(0.0, params, 0.3) == 0.3
    assert diag.mass_closed_form(math.log(2), params, 0.5) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Stationary solve
# ---------------------------------------------------------------------------

def test_stationary_homogeneous_oracle(grid):
    params = ModelParams(w=1.0, theta_c=1.0, sigma2=0.1)
    seed = (ScalarField.constant(grid, 0.1), ScalarField.constant(grid, 0.5))
    sol = diag.stationary_solve(0.1, 0.5, seed, params)
    mu_phi = mdl.f_phi(0.1)[1] + mdl.coupling_g(0.1, 0.5, 1.0, 1.0)[1]
    mu_psi = mdl.f_psi(0.5)[1] + mdl.coupling_g(0.1, 0.5, 1.0, 1.0)[2]
    assert np.max(np.abs(sol.phi_inf.data - 0.1)) < 1e-10
    assert sol.mu_phi_inf == pytest.approx(mu_phi, abs=1e-12)
    assert sol.mu_psi_inf == pytest.approx(mu_psi, abs=1e-12)


def test_stationary_mu_fields_constant(grid):
    # Recovered pointwise mu on the solution varies by at most 10 tol.
    params = ModelParams(w=1.0, theta_c=1.0, sigma2=0.1)
    X, Y = grid.cell_centers()
    pert = 0.04 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    seed = (ScalarField(grid, 0.1 + pert), ScalarField(grid, 0.5 - pert))
    tol = diag.STATIONARY_TOL
    assert tol == 1e-10
    sol = diag.stationary_solve(0.1, 0.5, seed, params)
    from chdf.grid import inv_neg_lap, neg_lap
    from chdf.step import _p0
    phi = sol.phi_inf.data
    psi = sol.psi_inf.data
    mu_field = (neg_lap(grid, phi)
                + params.sigma2 * inv_neg_lap(grid, _p0(phi))
                + mdl.f_phi(phi)[1] + mdl.coupling_g(phi, psi, 1.0, 1.0)[1])
    assert np.max(mu_field) - np.min(mu_field) <= 10 * tol


def test_stationary_residual_with_zero_velocity(grid):
    params = ModelParams(w=1.0, theta_c=1.0)
    seed = (ScalarField.constant(grid, 0.1), ScalarField.constant(grid, 0.5))
    sol = diag.stationary_solve(0.1, 0.5, seed, params)
    state = State(VectorField.zero(grid), sol.phi_inf, sol.psi_inf)
    pots = _zero_potentials(grid)
    pots.mu_phi = ScalarField.constant(grid, sol.mu_phi_inf)
    pots.mu_psi = ScalarField.constant(grid, sol.mu_psi_inf)
    assert diag.equilibrium_residual(state, pots, params) <= 1e-10


def test_stationary_rejects_infeasible_masses(grid):
    seed = (ScalarField.constant(grid, 0.0), ScalarField.constant(grid, 0.5))
    with pytest.raises(ValidationError):
        diag.stationary_solve(1.0, 0.5, seed, ModelParams())
    with pytest.raises(ValidationError):
        diag.stationary_solve(0.0, 0.0, seed, ModelParams())


# ---------------------------------------------------------------------------
# Ledger rows
# ---------------------------------------------------------------------------

def test_ledger_row_validation():
    row = _row(1.0)
    row.validate()
    bad = diag.LedgerRow(*([math.nan] + [0.0] * 17))
    with pytest.raises(ValidationError, match="time"):
        bad.validate()


def test_ledger_terms_reproduce_slack_with_reaction(grid):
    # The ledger's columns are the step's own terms, so each row closes its
    # energy balance to round-off; the reaction term uses the old phi.
    params = ModelParams(w=1.0, theta_c=1.0, alpha=1.0, sigma1=2.0, c=-0.2)
    X, _ = grid.cell_centers()
    state = State(VectorField.zero(grid),
                  ScalarField(grid, 0.5 * np.tanh((X - 0.5) / 0.1)),
                  ScalarField.constant(grid, 0.5))
    h = 1e-3
    e_prev = mdl.total_energy(state, params)
    pots = None
    for _ in range(3):
        prev = state
        state, pots, report = coupled_time_step(prev, h, params, pots)
        row = diag.build_ledger_row(prev, state, pots, report.h_used, params, e_prev)
        terms = (row.dissipation_d2 + row.dissipation_dr
                 + params.m_phi_const * row.grad_mu_phi_sq
                 + params.m_psi_const * row.grad_mu_psi_sq + row.reaction_term)
        assert row.slack == pytest.approx(e_prev - row.energy_total - h * terms,
                                          abs=1e-13 * (1.0 + abs(e_prev)))
        e_prev = row.energy_total


def test_build_ledger_row_matches_state(grid):
    params = ModelParams(w=1.0, theta_c=1.0, alpha=1.0)
    X, _ = grid.cell_centers()
    state0 = State(VectorField.zero(grid),
                   ScalarField(grid, 0.5 * np.tanh((X - 0.5) / 0.1)),
                   ScalarField.constant(grid, 0.5))
    state, pots, report = coupled_time_step(state0, 1e-3, params)
    row = diag.build_ledger_row(state0, state, pots, report.h_used, params,
                                mdl.total_energy(state0, params))
    assert row.time == state.time
    assert row.energy_total == mdl.total_energy(state, params)
    assert row.kinetic + row.energy_free == pytest.approx(row.energy_total, rel=1e-12)
    assert row.max_phi == np.max(state.phi.data)
    assert row.u_l2 >= 0.0
