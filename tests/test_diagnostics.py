"""Ledger analysis, equilibrium detection, and stationary solves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdf import diagnostics as diag
from chdf import model as mdl
from chdf.errors import NewtonDivergence, ValidationError
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


@pytest.mark.parametrize("phi_mass", [0.3, -0.5])
def test_stationary_seed_far_from_its_mass_starts_inside(grid, phi_mass):
    # The stripe's max |phi| is 0.9: shifted to either mass it leaves (-1, 1),
    # so bounded_newton scales its deviation to start strictly inside.
    X, _ = grid.cell_centers()
    phi = 0.9 * np.tanh((X - 0.5) / 0.08)
    seed = (ScalarField(grid, phi - phi.mean()), ScalarField.constant(grid, 0.5))
    sol = diag.stationary_solve(phi_mass, 0.5, seed, ModelParams(w=1.0, theta_c=2.0))
    assert sol.phi_inf.data.mean() == pytest.approx(phi_mass, abs=1e-14)
    assert sol.psi_inf.data.mean() == pytest.approx(0.5, abs=1e-14)
    assert np.max(np.abs(sol.phi_inf.data)) < 1.0
    assert 0.0 < np.min(sol.psi_inf.data) and np.max(sol.psi_inf.data) < 1.0


def test_stationary_rejects_infeasible_masses(grid):
    seed = (ScalarField.constant(grid, 0.0), ScalarField.constant(grid, 0.5))
    with pytest.raises(ValidationError):
        diag.stationary_solve(1.0, 0.5, seed, ModelParams())
    with pytest.raises(ValidationError):
        diag.stationary_solve(0.0, 0.0, seed, ModelParams())


# The steady-128 benchmark's model, and seeds at its cell size 1/8 (64^2 on
# an 8 x 8 domain) or at coarsen-64's 1/4 (32^2 on 8 x 8).
BENCH_MODEL = ModelParams(alpha=0.0, r=3.0, w=1.0, theta_c=3.0, sigma2=0.1)


def _band_noise(n, length, rng):
    """Zero-mean cos modes k, l <= length/2 (wavelengths >= 4), max |n| = 1."""
    x = (np.arange(n) + 0.5) * length / n
    basis = np.cos(np.pi * np.arange(int(length) // 2 + 1)[:, None] * x[None, :] / length)
    coeff = rng.standard_normal((len(basis), len(basis)))
    coeff[0, 0] = 0.0
    f = basis.T @ coeff @ basis
    f -= f.mean()
    return f / np.max(np.abs(f))


def _seed(grid, lamellae):
    """steady-128's lamellae with 2 % noise, or coarsen-64's band noise."""
    rng = np.random.default_rng(0)
    n, length = grid.nx, grid.Lx
    x = (np.arange(n) + 0.5) * length / n
    base = np.tile(np.cos(2.0 * np.pi * x / 8.0), (n, 1)) if lamellae else 0.0
    eps = 0.02 if lamellae else 1.0
    n1, n2 = (base + eps * _band_noise(n, length, rng) for _ in range(2))
    phi = 0.9 * np.tanh(3.0 * n1 / np.max(np.abs(n1)))
    psi = 0.5 + 0.2 * n2 / np.max(np.abs(n2))
    return ScalarField(grid, phi - phi.mean()), ScalarField(grid, psi)


def _solve_seen(monkeypatch, seed):
    """The stationary solve of a seed, and the level of each Newton update."""
    levels = []
    krylov = diag._krylov_solve

    def spied(matvec, precond, rhs, rtol):
        levels.append(rhs.shape[-1])
        return krylov(matvec, precond, rhs, rtol)

    monkeypatch.setattr(diag, "_krylov_solve", spied)
    sol = diag.stationary_solve(float(seed[0].data.mean()), float(seed[1].data.mean()),
                                seed, BENCH_MODEL)
    return sol, levels


def _direct(monkeypatch, seed):
    with monkeypatch.context() as m:
        m.setattr(diag, "COARSE_SEED_TOL", -1.0)
        return _solve_seen(m, seed)


def _assert_same_bits(a, b):
    assert np.array_equal(a.phi_inf.data, b.phi_inf.data)
    assert np.array_equal(a.psi_inf.data, b.psi_inf.data)
    assert (a.mu_phi_inf, a.mu_psi_inf) == (b.mu_phi_inf, b.mu_psi_inf)


def test_resolved_seed_is_solved_coarse_to_fine_to_the_direct_root(monkeypatch):
    # Restricted to 32^2 the lamellae move by about 3e-4, to 16^2 by about
    # 2e-2: the solve takes the 32^2 level only, then the 64^2 grid.
    seed = _seed(Grid2D(64, 64, 8.0, 8.0), lamellae=True)
    direct, direct_levels = _direct(monkeypatch, seed)
    assert set(direct_levels) == {64}
    nested, levels = _solve_seen(monkeypatch, seed)
    assert levels[0] == 32 and levels[-1] == 64
    assert levels == sorted(levels) and len(levels) > levels.count(32) >= 2
    for a, b in ((nested.phi_inf, direct.phi_inf), (nested.psi_inf, direct.psi_inf)):
        assert np.max(np.abs(a.data - b.data)) <= 1e-8
    assert abs(nested.mu_phi_inf - direct.mu_phi_inf) <= 1e-10
    assert abs(nested.mu_psi_inf - direct.mu_psi_inf) <= 1e-10
    for sol, mean in ((nested.phi_inf, seed[0]), (nested.psi_inf, seed[1])):
        assert sol.data.mean() == pytest.approx(mean.data.mean(), abs=1e-14)


def test_unresolved_seed_is_solved_directly(monkeypatch):
    # Band noise at coarsen-64's cell size moves by more than 1e-2 when
    # restricted to 16^2: only the fine grid is solved, bit for bit as the
    # direct solve.
    seed = _seed(Grid2D(32, 32, 8.0, 8.0), lamellae=False)
    sol, levels = _solve_seen(monkeypatch, seed)
    assert len(levels) >= 2 and set(levels) == {32}
    _assert_same_bits(sol, _direct(monkeypatch, seed)[0])


@pytest.mark.parametrize("failing", ["coarse level", "prolonged fine start"])
def test_failed_level_falls_back_to_the_direct_solve(monkeypatch, failing):
    # A coarse level that raises is dropped, and a fine grid that fails
    # from the prolonged start is solved again from the seed: either way
    # the result is the direct solve's, bit for bit.
    seed = _seed(Grid2D(64, 64, 8.0, 8.0), lamellae=True)
    direct = _direct(monkeypatch, seed)[0]
    newton, starts = diag.bounded_newton, []

    def failing_newton(x, *args, **kwargs):
        starts.append(x.shape[-1])
        if x.shape[-1] == (32 if failing == "coarse level" else 64) and starts.count(64) < 2:
            raise NewtonDivergence("injected")
        return newton(x, *args, **kwargs)

    monkeypatch.setattr(diag, "bounded_newton", failing_newton)
    sol = _solve_seen(monkeypatch, seed)[0]
    assert starts == ([32, 64] if failing == "coarse level" else [32, 64, 64])
    _assert_same_bits(sol, direct)


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
