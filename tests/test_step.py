"""The coupled implicit-explicit time step."""

from dataclasses import replace

import numpy as np
import pytest

from chdf import grid as gridops
from chdf import model as mdl
from chdf.errors import NewtonDivergence, StepTooLarge
from chdf.grid import Grid2D, ScalarField, VectorField
from chdf.model import ModelParams
from chdf.grid import inv_neg_lap, neg_lap
from chdf import darcy, diagnostics, driver, step
from chdf.step import (State, _damped_update, _p0, ch_subsystem_solve,
                       coupled_time_step, mean_targets)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(32, 32, 1.0, 1.0)


def _stripe_state(grid, amplitude=0.6, width=0.1, psi_mean=0.5):
    X, _ = grid.cell_centers()
    phi = amplitude * np.tanh((X - 0.5 * grid.Lx) / width)
    return State(VectorField.zero(grid), ScalarField(grid, phi),
                 ScalarField.constant(grid, psi_mean))


def _ledger_row(prev, out, params):
    """The ledger row of the step out = (state, potentials, report) from prev."""
    nxt, pots, report = out
    return diagnostics.build_ledger_row(prev, nxt, pots, report.h_used, params,
                                        mdl.total_energy(prev, params))


# ---------------------------------------------------------------------------
# Mean targets
# ---------------------------------------------------------------------------

def test_mean_targets_no_reaction(grid):
    st = _stripe_state(grid)
    a, b = mean_targets(st.phi, st.psi, 1e-3, ModelParams())
    assert a == pytest.approx(gridops.mean(st.phi), abs=1e-15)
    assert b == pytest.approx(0.5, abs=1e-15)


def test_mean_targets_relaxation(grid):
    st = State(VectorField.zero(grid), ScalarField.constant(grid, 0.3),
               ScalarField.constant(grid, 0.5))
    params = ModelParams(sigma1=0.5, c=0.0)
    a, _ = mean_targets(st.phi, st.psi, 1e-3, params)
    assert a == pytest.approx((1 - 1e-3 * 0.5) * 0.3, rel=1e-14)


def test_mean_targets_step_too_large(grid):
    st = _stripe_state(grid)
    with pytest.raises(StepTooLarge):
        mean_targets(st.phi, st.psi, 1.0, ModelParams(sigma1=2.0))


# ---------------------------------------------------------------------------
# Damped update safeguard
# ---------------------------------------------------------------------------

def test_damped_update_full_step_in_interior():
    # Cells sit in [-0.5, 0.5], so each has at least 0.45 of room, and no
    # cell moves by more than 0.4: the step fits and is taken whole.
    rng = np.random.default_rng(3)
    cur = 0.5 * np.cos(np.linspace(0.0, np.pi, 16)).reshape(4, 4)
    delta = _p0(rng.uniform(-0.2, 0.2, (4, 4)))
    out = _damped_update(cur, delta, -1.0, 1.0)
    assert np.array_equal(out, cur + delta)


def test_damped_update_pulls_back_near_boundary():
    # One cell asked to move -1.5 with 0.9 of room, and one cell 1e-3 below
    # the upper bound asked to move +0.47: both updates must be projected.
    far = 0.1 * np.ones((4, 4))
    far[0, 0] = -1.5
    near = np.zeros((4, 4))
    near[0, 0] = 0.999
    kick = np.zeros((4, 4))
    kick[0, 0] = 0.5
    for cur, delta in ((np.zeros((4, 4)), _p0(far)), (near, _p0(kick))):
        out = _damped_update(cur, delta, -1.0, 1.0)
        d = out - cur
        room_dn, room_up = 0.9 * (cur + 1.0), 0.9 * (1.0 - cur)
        assert out.min() > -1.0 and out.max() < 1.0
        assert abs(d.sum()) <= 1e-14
        assert np.all(d >= -room_dn - 1e-15) and np.all(d <= room_up + 1e-15)
        # KKT conditions of the projection onto box and zero sum: the cells
        # off the clip limits move by delta - tau for one common tau, and
        # the clipped cells are those that delta - tau would push past them.
        at_dn = np.abs(d + room_dn) <= 1e-15
        at_up = np.abs(d - room_up) <= 1e-15
        free = ~(at_dn | at_up)
        assert free.any() and not free.all()
        shifts = (delta - d)[free]
        tau = shifts.mean()
        assert np.ptp(shifts) <= 1e-15
        assert np.all(delta[at_dn] - tau <= -room_dn[at_dn] + 1e-15)
        assert np.all(delta[at_up] - tau >= room_up[at_up] - 1e-15)


def test_projected_updates_keep_a_clipping_solve_inside(monkeypatch):
    # A sharp stripe with a deep well: the phi Newton corrections overshoot
    # the box, and the step still ends strictly inside with exact means.
    grid = Grid2D(32, 32, 1.0, 1.0)
    params = ModelParams(theta_c=8.0, w=1.0, alpha=1.0, sigma2=0.1)
    prev = driver.initial_condition(driver.RunConfig(
        preset="stripe", amplitude=1.0, width=0.01), grid)
    projected = []
    damped = step._damped_update

    def spy(cur, delta, lo, hi):
        out = damped(cur, delta, lo, hi)
        projected.append(not np.array_equal(out, cur + delta))
        return out

    monkeypatch.setattr(step, "_damped_update", spy)
    e0 = mdl.total_energy(prev, params)
    out = coupled_time_step(prev, 0.1, params)
    nxt, _, report = out
    assert any(projected)
    nxt.validate()
    assert abs(gridops.mean(nxt.phi) - report.mass_target_a) <= 1e-13
    assert abs(gridops.mean(nxt.psi) - gridops.mean(prev.psi)) <= 1e-13
    assert _ledger_row(prev, out, params).slack >= -driver.ENERGY_TOL * (1.0 + abs(e0))


# ---------------------------------------------------------------------------
# Fixed points and exact mean laws
# ---------------------------------------------------------------------------

def test_homogeneous_rest_state_is_fixed_point(grid):
    params = ModelParams(w=1.0, theta_c=1.0)
    st = State(VectorField.zero(grid), ScalarField.constant(grid, 0.2),
               ScalarField.constant(grid, 0.5))
    out = coupled_time_step(st, 1e-3, params)
    nxt, pots, _ = out
    assert np.max(np.abs(nxt.phi.data - 0.2)) < 1e-12
    assert np.max(np.abs(nxt.psi.data - 0.5)) < 1e-12
    assert abs(_ledger_row(st, out, params).slack) < 1e-12
    assert np.max(np.abs(pots.mu_phi_hat.data)) < 1e-12


def test_reaction_moves_mean_exactly(grid):
    params = ModelParams(sigma1=0.5, c=0.0)
    st = State(VectorField.zero(grid), ScalarField.constant(grid, 0.3),
               ScalarField.constant(grid, 0.5))
    h = 1e-3
    state = st
    for k in range(1, 6):
        state, _, report = coupled_time_step(state, h, params)
        assert gridops.mean(state.phi) == pytest.approx(
            (1 - h * 0.5) ** k * 0.3, abs=1e-14)
        assert gridops.mean(state.psi) == pytest.approx(0.5, abs=1e-14)


def test_constant_fields_with_solenoidal_velocity(grid):
    # Convection of constants vanishes; drag makes kinetic energy decay.
    X, Y = grid.cell_centers()
    ux = 0.5 * np.sin(np.pi * X) * np.cos(np.pi * Y)
    uy = -0.5 * np.cos(np.pi * X) * np.sin(np.pi * Y)
    params = ModelParams(alpha=1.0, r=3.0)
    st = State(VectorField(grid, np.stack((ux, uy))), ScalarField.constant(grid, 0.1),
               ScalarField.constant(grid, 0.5))
    ke0 = mdl.kinetic_energy(st.u, params)
    out = coupled_time_step(st, 1e-2, params)
    nxt = out[0]
    assert np.max(np.abs(nxt.phi.data - 0.1)) < 1e-10
    assert np.max(np.abs(nxt.psi.data - 0.5)) < 1e-10
    assert mdl.kinetic_energy(nxt.u, params) < ke0
    e_before = mdl.total_energy(st, params)
    assert _ledger_row(st, out, params).slack >= -1e-12 * (1 + abs(e_before))


# ---------------------------------------------------------------------------
# Energy inequality and bounds on a short dynamic run
# ---------------------------------------------------------------------------

def test_short_stripe_run_energy_and_bounds(grid):
    params = ModelParams(w=1.0, theta_c=2.0, alpha=1.0, r=3.0, sigma2=0.1)
    state = _stripe_state(grid, amplitude=0.8, width=0.08)
    e0 = mdl.total_energy(state, params)
    e_prev = e0
    pots = None
    for _ in range(20):
        prev = state
        state, pots, report = coupled_time_step(prev, 1e-3, params, pots)
        row = diagnostics.build_ledger_row(prev, state, pots, report.h_used, params,
                                           e_prev)
        assert row.slack >= -driver.ENERGY_TOL * (1 + abs(e0))
        assert row.energy_total <= e_prev + 1e-12 * (1 + abs(e0))
        assert -1.0 < row.min_phi and row.max_phi < 1.0
        assert 0.0 < row.min_psi and row.max_psi < 1.0
        assert row.mean_psi == pytest.approx(0.5, abs=1e-13)
        e_prev = row.energy_total


def test_recovered_potentials_satisfy_pointwise_law(grid):
    params = ModelParams(w=1.0, theta_c=1.5, sigma2=0.2)
    state = _stripe_state(grid, amplitude=0.7, width=0.1)
    nxt, pots, _ = coupled_time_step(state, 1e-3, params)
    phi = nxt.phi.data
    gsec = np.asarray(mdl.secant_g_phi(phi, state.phi.data, nxt.psi.data,
                                       params.theta_c, params.w))
    lhs = pots.mu_phi.data - gsec - params.sigma2 * inv_neg_lap(grid, _p0(phi))
    rhs = neg_lap(grid, phi) + mdl.f_phi(phi, params.theta_phi)[1]
    assert np.max(np.abs(lhs - rhs)) < 10 * step.NEWTON_TOL * (1 + np.max(np.abs(rhs)))


def test_newton_cap_admits_the_final_update(grid, monkeypatch):
    # The reported count includes the converged residual check, so a cap of
    # one less still allows every update the solve needs.
    params = ModelParams(alpha=1.0, w=1.0, theta_c=2.0, sigma2=0.1)
    state = _stripe_state(grid)
    counts = []
    velocity = step.velocity_solve

    def counted_velocity(*args, **kwargs):
        out = velocity(*args, **kwargs)
        counts.append(out[2].outer_iterations)
        return out

    monkeypatch.setattr(step, "velocity_solve", counted_velocity)
    nxt, _, report = coupled_time_step(state, 1e-3, params)
    # The cap is shared by all three solves of the step.
    monkeypatch.setattr(gridops, "MAX_NEWTON", max(
        report.newton_iterations_phi, report.newton_iterations_psi, *counts) - 1)
    nxt2, _, report2 = coupled_time_step(state, 1e-3, params)
    assert np.array_equal(nxt2.phi.data, nxt.phi.data)
    assert np.array_equal(nxt2.psi.data, nxt.psi.data)
    assert report2.newton_iterations_phi == report.newton_iterations_phi


def _band_state(grid, seed=1, modes=4):
    """Separated phases from band-limited cosine noise: transport is active."""
    rng = np.random.default_rng(seed)
    x = grid.cell_centers()[0][0]
    basis = np.cos(np.pi * np.arange(modes + 1)[:, None] * x[None, :] / grid.Lx)

    def noise():
        coeff = rng.standard_normal((modes + 1, modes + 1))
        coeff[0, 0] = 0.0
        n = basis.T @ coeff @ basis
        return (n - n.mean()) / np.max(np.abs(n - n.mean()))

    phi = 0.9 * np.tanh(3.0 * noise())
    return State(VectorField.zero(grid), ScalarField(grid, phi - phi.mean()),
                 ScalarField(grid, 0.5 + 0.2 * noise()))


def test_picard_iterations_start_from_the_previous_iterate(monkeypatch):
    grid = Grid2D(32, 32, 16.0, 16.0)
    state = _band_state(grid)
    params = ModelParams(alpha=0.0, r=3.0, w=1.0, theta_c=3.0, sigma2=0.1)
    h = 0.1
    keys = ("velocity", "psi Newton", "phi Newton")
    starts = {key: [] for key in keys}
    ends = {key: [] for key in keys}
    counts = {key: [] for key in keys}
    newton, velocity = step.bounded_newton, step.velocity_solve

    def spied_newton(x, *args, label, **kwargs):
        starts[label].append(np.array(x[0]))
        out = newton(x, *args, label=label, **kwargs)
        ends[label].append(out[0][0].copy())
        counts[label].append(out[1])
        return out

    def spied_velocity(*args, start=None, **kwargs):
        starts["velocity"].append(start)
        out = velocity(*args, start=start, **kwargs)
        ends["velocity"].append(out[0])
        counts["velocity"].append(out[2].outer_iterations)
        return out

    monkeypatch.setattr(step, "bounded_newton", spied_newton)
    monkeypatch.setattr(step, "velocity_solve", spied_velocity)
    nxt, _, report = coupled_time_step(state, h, params)
    monkeypatch.undo()

    n = report.picard_iterations
    assert n >= 3
    assert all(len(starts[key]) == n for key in keys)
    assert starts["velocity"][0] is None
    for k in range(1, n):
        assert starts["velocity"][k] is ends["velocity"][k - 1]
        for key in keys[1:]:
            assert np.array_equal(starts[key][k], ends[key][k - 1]), (key, k)
    assert report.newton_iterations_psi == max(counts["psi Newton"])
    assert report.newton_iterations_phi == max(counts["phi Newton"])

    # The warm-started step agrees with a cold solve on its own velocity.
    targets = mean_targets(state.phi, state.psi, h, params)
    (phi, psi), _, _, _, _ = ch_subsystem_solve(state, nxt.u, targets, h, params,
                                                step._fixed_terms(state, params))
    assert np.max(np.abs(phi - nxt.phi.data)) <= 1e-10
    assert np.max(np.abs(psi - nxt.psi.data)) <= 1e-10


# The model of the coarsen-64 and steady-128 benchmarks.
BENCH_MODEL = ModelParams(alpha=0.0, r=3.0, w=1.0, theta_c=3.0, sigma2=0.1)


def _band_step(monkeypatch, kappa):
    """One h = 0.1 step of the 32^2 band state at PICARD_FORCING = kappa.

    Returns the step's (state, potentials, ledger row) and the transform
    calls of the step and its row, counted at every chdf name of each
    transform.
    """
    calls = [0]

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as m:
        for name in ("cc_fwd", "cc_inv", "sc_fwd", "sc_inv", "cs_fwd", "cs_inv"):
            original = getattr(gridops, name)
            for module in (gridops, step, diagnostics, mdl):
                if getattr(module, name, None) is original:
                    m.setattr(module, name, counted(original))
        m.setattr(step, "PICARD_FORCING", kappa)
        prev = _band_state(Grid2D(32, 32, 16.0, 16.0))
        out = coupled_time_step(prev, 0.1, BENCH_MODEL)
        row = _ledger_row(prev, out, BENCH_MODEL)
    return (out[0], out[1], row), calls[0]


def _assert_same_step(a, b):
    (sa, _, ra), (sb, _, rb) = a, b
    for x, y in ((sa.phi.data, sb.phi.data), (sa.psi.data, sb.psi.data),
                 (sa.u.x, sb.u.x), (sa.u.y, sb.u.y)):
        assert np.max(np.abs(x - y)) <= 1e-10
    for name in ("energy_total", "energy_free", "kinetic", "slack",
                 "dissipation_d2", "dissipation_dr", "grad_mu_phi_sq",
                 "grad_mu_psi_sq", "reaction_term"):
        x, y = getattr(ra, name), getattr(rb, name)
        assert abs(x - y) <= 1e-10 * (1.0 + abs(y)), name


def test_inexact_picard_accepts_the_exact_iterate(monkeypatch):
    # From the second Picard iteration on the inner solves may stop at
    # PICARD_FORCING times the last Picard change.  The step still accepts
    # the iterate of the exact loop (kappa = 0), each of whose three solves
    # met its full tolerance, and does at most 0.8 of the exact loop's work.
    last = {}
    velocity, newton = step.velocity_solve, step.bounded_newton

    def spied_velocity(u_prev, force, *args, **kwargs):
        out = velocity(u_prev, force, *args, **kwargs)
        last["velocity"] = (force, out[0], out[2].met_tol)
        return out

    def spied_newton(*args, label, **kwargs):
        out = newton(*args, label=label, **kwargs)
        last[label] = out[3]
        return out

    monkeypatch.setattr(step, "velocity_solve", spied_velocity)
    monkeypatch.setattr(step, "bounded_newton", spied_newton)
    inexact, work = _band_step(monkeypatch, step.PICARD_FORCING)
    assert step.PICARD_FORCING > 0.0
    assert last["psi Newton"] and last["phi Newton"] and last["velocity"][2]
    # The returned velocity solves the momentum equation of its last solve.
    force, u, _ = last["velocity"]
    assert u is inexact[0].u
    params = BENCH_MODEL
    drag = params.nu_const + params.eta_const * np.hypot(u.x, u.y) ** (params.r - 2)
    res = gridops.project_velocity(VectorField(u.grid, drag * u.data - force.data))
    scale = 1.0 + np.max(np.hypot(force.x, force.y))
    assert np.max(np.hypot(res.x, res.y)) <= darcy.VELOCITY_TOL * scale

    exact, exact_work = _band_step(monkeypatch, 0.0)
    _assert_same_step(inexact, exact)
    assert np.sqrt(np.mean(exact[0].u.x ** 2 + exact[0].u.y ** 2)) > 1e-3
    assert work <= 0.8 * exact_work


def test_inexact_picard_accepts_no_unsolved_velocity(monkeypatch):
    # The Picard change leaves out u.  A velocity solve that may return its
    # start once it is within loose_tol, at kappa = 1, leaves the zero
    # velocity of the first iteration (zero potentials) unsolved at the
    # second, where phi, psi and the potentials repeat: the change is 0.
    # Only the guard on met_tol keeps the step from accepting u = 0.
    velocity = step.velocity_solve
    tol = darcy.VELOCITY_TOL

    def lazy_velocity(u_prev, force, h, params, *, start=None, loose_tol=0.0):
        with monkeypatch.context() as m:
            m.setattr(darcy, "VELOCITY_TOL", max(tol, loose_tol))
            u, pi, report = velocity(u_prev, force, h, params, start=start)
        scale = 1.0 + np.max(np.hypot(force.x, force.y))   # alpha = 0
        drag = params.nu_const + params.eta_const * np.hypot(u.x, u.y) ** (params.r - 2)
        gp = gridops.gradient(pi)
        res = np.hypot(drag * u.x + gp.x - force.x, drag * u.y + gp.y - force.y)
        met = bool(np.max(res) <= tol * scale)
        return u, pi, replace(report, met_tol=met)

    exact, _ = _band_step(monkeypatch, 0.0)
    monkeypatch.setattr(step, "velocity_solve", lazy_velocity)
    lazy, _ = _band_step(monkeypatch, 1.0)
    _assert_same_step(lazy, exact)


def test_flux_and_pointwise_laws_hold_with_transport():
    # The stripe's velocity is round-off; this state's is not, so the
    # convective part of each flux law is checked at its own size.
    grid = Grid2D(32, 32, 16.0, 16.0)
    state = _band_state(grid)
    params = ModelParams(alpha=0.0, r=3.0, w=1.0, theta_c=3.0, sigma2=0.1)
    h = 0.1
    nxt, pots, _ = coupled_time_step(state, h, params)
    assert np.sqrt(np.mean(nxt.u.x ** 2 + nxt.u.y ** 2)) > 1e-3

    def close(lhs, rhs):
        return np.max(np.abs(lhs - rhs)) < 10 * step.NEWTON_TOL * (1 + np.max(np.abs(rhs)))

    for new, prev, mu_hat, mobility in (
            (nxt.phi, state.phi, pots.mu_phi_hat, params.m_phi_const),
            (nxt.psi, state.psi, pots.mu_psi_hat, params.m_psi_const)):
        g = gridops.gradient(prev)
        lhs = (new.data - prev.data) / h + nxt.u.x * g.x + nxt.u.y * g.y
        assert close(lhs, -mobility * neg_lap(grid, mu_hat.data))

    phi, psi = nxt.phi.data, nxt.psi.data
    gsec = mdl.secant_g_psi(state.phi.data, psi, state.psi.data, params.theta_c, params.w)
    rhs = (params.beta * neg_lap(grid, psi) + mdl.f_psi(psi, params.theta_psi)[1]
           + gsec)
    assert close(pots.mu_psi.data, rhs)
    gsec = mdl.secant_g_phi(phi, state.phi.data, psi, params.theta_c, params.w)
    rhs = (neg_lap(grid, phi) + params.sigma2 * inv_neg_lap(grid, _p0(phi))
           + mdl.f_phi(phi, params.theta_phi)[1] + gsec)
    assert close(pots.mu_phi.data, rhs)


def test_constitutive_kernels_run_once_per_residual_evaluation(grid, monkeypatch):
    # Each kernel call gives its Jacobian with its pointwise term, the phi
    # secant's derivative included: one build per residual evaluation.
    calls = {"f_phi": 0, "f_psi": 0, "secant_g_phi_dfirst": 0}

    def counted(name):
        kernel = getattr(mdl, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(mdl, name, counted(name))
    params = ModelParams(alpha=0.0, r=3.0, w=1.0, theta_c=3.0, sigma2=0.1)
    state = _band_state(grid)
    targets = mean_targets(state.phi, state.psi, 0.1, params)
    _, _, _, (it_phi, it_psi), _ = ch_subsystem_solve(
        state, state.u, targets, 0.1, params, step._fixed_terms(state, params))
    assert it_phi > 1 and it_psi > 1
    assert calls == {"f_phi": it_phi, "f_psi": it_psi, "secant_g_phi_dfirst": it_phi}

    # One bounded_newton call per grid level of the stationary solve: the
    # seed is one resolved mode, so the levels are 8^2, 16^2 and 32^2.
    levels, evaluations = [], []
    newton = diagnostics.bounded_newton

    def spied(*args, **kwargs):
        out = newton(*args, **kwargs)
        levels.append(out[0].shape[-1])
        evaluations.append(out[1])
        return out

    monkeypatch.setattr(diagnostics, "bounded_newton", spied)
    calls.update(f_phi=0, f_psi=0, secant_g_phi_dfirst=0)
    X, Y = grid.cell_centers()
    pert = 0.04 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    diagnostics.stationary_solve(0.1, 0.5, (ScalarField(grid, 0.1 + pert),
                                            ScalarField(grid, 0.5 - pert)), params)
    assert levels == [8, 16, 32] and evaluations[0] > 1
    assert calls == {"f_phi": sum(evaluations), "f_psi": sum(evaluations),
                     "secant_g_phi_dfirst": 0}


def test_inner_solve_failure_names_its_solve(grid, monkeypatch):
    # A CG of one matvec does not reach the first forcing term of every
    # update of this step, so the real cap is reached.
    monkeypatch.setattr(gridops, "CG_MAXITER", 1)
    params = ModelParams(w=1.0, theta_c=1.5)
    with pytest.raises(NewtonDivergence, match=r"^(psi|phi) Newton update \d+: "
                       r"CG reached its cap of 1 iterations; residual \d"):
        coupled_time_step(_stripe_state(grid), 1e-3, params)


def _solve_with_newton_cap(label, grid, monkeypatch):
    """A solve of the given label, as a function of its Newton cap that
    returns the number of updates the solve took."""
    params = ModelParams(w=1.0, theta_c=1.5)
    state = _stripe_state(grid, amplitude=0.7)
    targets = mean_targets(state.phi, state.psi, 1e-3, params)
    if label == "velocity solve":
        X, Y = grid.cell_centers()
        force = VectorField(grid, np.stack((np.sin(np.pi * X) * np.cos(np.pi * Y),
                                      -np.cos(np.pi * X) * np.sin(np.pi * Y))))

        def run(cap):
            monkeypatch.setattr(gridops, "MAX_NEWTON", cap)
            _, _, report = darcy.velocity_solve(VectorField.zero(grid), force, 1e-3,
                                                ModelParams(alpha=0.0, r=4.0))
            return report.outer_iterations - 1
    elif label == "stationary solve":
        krylov = diagnostics._krylov_solve

        def run(cap):
            monkeypatch.setattr(gridops, "MAX_NEWTON", cap)
            updates = []

            def counted(*args):
                updates.append(1)
                return krylov(*args)

            monkeypatch.setattr(diagnostics, "_krylov_solve", counted)
            diagnostics.stationary_solve(0.0, 0.5, (state.phi, state.psi), params)
            return len(updates)
    else:
        # The other pair of the two starts from its converged field, so only
        # the labelled solve needs an update.
        fixed = step._fixed_terms(state, params)
        (phi, psi), _, _, _, _ = ch_subsystem_solve(state, state.u, targets, 1e-3,
                                                    params, fixed)
        start = np.stack((phi, state.psi.data) if label == "psi Newton"
                         else (state.phi.data, psi))

        def run(cap):
            monkeypatch.setattr(gridops, "MAX_NEWTON", cap)
            out = ch_subsystem_solve(state, state.u, targets, 1e-3, params, fixed,
                                     start=start)
            return out[3][1 if label == "psi Newton" else 0] - 1
    return run


@pytest.mark.parametrize("label", ["psi Newton", "phi Newton", "stationary solve",
                                   "velocity solve"])
def test_every_solve_raises_at_its_newton_cap(grid, monkeypatch, label):
    # One Newton-Krylov loop, one contract: a cap below what the solve needs
    # raises NewtonDivergence with the shared text.
    run = _solve_with_newton_cap(label, grid, monkeypatch)
    need = run(60)
    assert need >= 2
    assert run(need) == need
    with pytest.raises(NewtonDivergence, match=rf"^{label} did not converge: "
                       rf"residual \S+ after {need - 1} updates$"):
        run(need - 1)


def test_one_krylov_iteration_costs_two_transforms(grid, monkeypatch):
    # Counted at the names the benchmark's tracer replaces.
    transforms = [0]

    def counted(fn):
        def wrapped(*args, **kwargs):
            transforms[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(step, "cc_fwd", counted(step.cc_fwd))
    monkeypatch.setattr(step, "cc_inv", counted(step.cc_inv))
    costs = {"matvec": [], "precond": []}
    pcg = step.pcg

    def spy(op, name):
        def apply(v):
            before = transforms[0]
            out = op(v)
            costs[name].append(transforms[0] - before)
            return out
        return apply

    def spied_pcg(matvec, precond, b, rtol):
        return pcg(spy(matvec, "matvec"), spy(precond, "precond"), b, rtol)

    monkeypatch.setattr(step, "pcg", spied_pcg)
    params = ModelParams(w=1.0, theta_c=1.5, sigma2=0.1)
    coupled_time_step(_stripe_state(grid), 1e-3, params)
    n_step = len(costs["matvec"])
    X, Y = grid.cell_centers()
    pert = 0.04 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    diagnostics.stationary_solve(0.1, 0.5, (ScalarField(grid, 0.1 + pert),
                                            ScalarField(grid, 0.5 - pert)), params)
    assert 0 < n_step < len(costs["matvec"])
    assert set(costs["matvec"]) == {2}
    assert set(costs["precond"]) == {0}


def test_inner_solves_follow_the_forcing_rule(grid, monkeypatch):
    # Every CG call of a transport-active step and of a stationary solve
    # asks for a relative residual: the first of each solve 0.01 (the cap
    # ETA_MAX), later ones at most 0.01 and never below 0.5 tol / |b| unless
    # the cap binds (a warm-started solve may start at |b| < 50 tol).  The
    # velocity's bound is VELOCITY_TOL (1 + max|f|), at least VELOCITY_TOL.
    solves = []
    newton, velocity, pcg = step.bounded_newton, step.velocity_solve, step.pcg

    def marked(x, pointwise, symbol, k_hat, boxes, means, tol, *args, **kwargs):
        solves.append((tol, []))
        return newton(x, pointwise, symbol, k_hat, boxes, means, tol,
                      *args, **kwargs)

    def marked_velocity(*args, **kwargs):
        solves.append((darcy.VELOCITY_TOL, []))
        return velocity(*args, **kwargs)

    def spied(matvec, precond, b, rtol):
        solves[-1][1].append((rtol, float(np.linalg.norm(b))))
        return pcg(matvec, precond, b, rtol)

    monkeypatch.setattr(step, "bounded_newton", marked)
    monkeypatch.setattr(diagnostics, "bounded_newton", marked)
    monkeypatch.setattr(step, "velocity_solve", marked_velocity)
    monkeypatch.setattr(step, "pcg", spied)
    monkeypatch.setattr(darcy, "pcg", spied)
    params = ModelParams(alpha=0.0, r=3.0, w=1.0, theta_c=3.0, sigma2=0.1)
    coupled_time_step(_band_state(grid), 0.1, params)
    X, Y = grid.cell_centers()
    pert = 0.04 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    diagnostics.stationary_solve(0.1, 0.5, (ScalarField(grid, 0.1 + pert),
                                            ScalarField(grid, 0.5 - pert)), params)
    assert sum(len(calls) for _, calls in solves) > len(solves) > 2
    velocity_calls = [calls for tol, calls in solves if tol == darcy.VELOCITY_TOL]
    assert any(len(calls) > 1 for calls in velocity_calls)
    for tol, calls in solves:
        if calls:
            assert calls[0][0] == 0.01
        for rtol, bnorm in calls:
            assert rtol <= 0.01
            floor = min(0.01 * bnorm, 0.5 * tol)
            assert rtol * bnorm >= floor * (1 - 1e-12)


def _stationary_residual(grid, params, sol):
    # The stationary equations with the recovered constant potentials.
    phi, psi = sol.phi_inf.data, sol.psi_inf.data
    _, gphi, gpsi = mdl.coupling_g(phi, psi, params.theta_c, params.w)
    r_phi = (neg_lap(grid, phi) + params.sigma2 * inv_neg_lap(grid, _p0(phi))
             + mdl.f_phi(phi, params.theta_phi)[1] + gphi - sol.mu_phi_inf)
    r_psi = (params.beta * neg_lap(grid, psi)
             + mdl.f_psi(psi, params.theta_psi)[1] + gpsi - sol.mu_psi_inf)
    return max(np.max(np.abs(r_phi)), np.max(np.abs(r_psi)))


def test_stationary_solve_crosses_negative_curvature(monkeypatch):
    # The steady-128 benchmark's state 0 of seed 0 at 32^2: two periods of
    # lamellae on a 16 x 16 domain with 2 % band-limited noise.  Its
    # stationary Jacobian is indefinite (a constrained saddle point), so CG
    # meets directions with p.Jp <= 0; taking them, the solve still ends
    # at its tolerance.
    nx, length = 32, 16.0
    grid = Grid2D(nx, nx, length, length)
    rng = np.random.default_rng([0, 0])
    x = (np.arange(nx) + 0.5) * length / nx
    basis = np.cos(np.pi * np.arange(9)[:, None] * x[None, :] / length)

    def normalised(n):
        n = n - n.mean()
        return n / np.max(np.abs(n))

    def lamellae():
        coeff = rng.standard_normal((9, 9))
        coeff[0, 0] = 0.0
        noise = normalised(basis.T @ coeff @ basis)
        return normalised(np.cos(4.0 * np.pi * x / length)[None, :] + 0.02 * noise)

    phi = 0.9 * np.tanh(3.0 * lamellae())
    phi -= phi.mean()
    psi = 0.5 + 0.2 * lamellae()
    curvatures = []
    pcg = step.pcg

    def spied(matvec, precond, b, rtol):
        def counted(p):
            q = matvec(p)
            curvatures.append(np.vdot(p, q))
            return q
        return pcg(counted, precond, b, rtol)

    monkeypatch.setattr(step, "pcg", spied)
    sol = diagnostics.stationary_solve(phi.mean(), psi.mean(),
                                       (ScalarField(grid, phi), ScalarField(grid, psi)),
                                       BENCH_MODEL)
    assert sum(c <= 0.0 for c in curvatures) >= 1
    assert _stationary_residual(grid, BENCH_MODEL, sol) <= diagnostics.STATIONARY_TOL


def test_inexact_newton_reaches_the_same_root(monkeypatch):
    # Two periods of lamellae at the cell size and model of the steady-128
    # benchmark.  The reference solves every Newton system to rtol 1e-12,
    # or to an absolute 1e-14 where 1e-12 relative lies below round-off.
    grid = Grid2D(32, 32, 4.0, 4.0)
    X, Y = grid.cell_centers()
    lam = np.cos(np.pi * X) + 0.1 * np.cos(0.5 * np.pi * Y)
    phi = 0.9 * np.tanh(3.0 * lam)
    seed = (ScalarField(grid, phi - phi.mean()),
            ScalarField(grid, 0.5 + 0.2 * lam / np.max(np.abs(lam))))
    params = BENCH_MODEL
    tol = diagnostics.STATIONARY_TOL

    def residual(sol):
        return _stationary_residual(grid, params, sol)

    inexact = diagnostics.stationary_solve(0.1, 0.5, seed, params)
    krylov = diagnostics._krylov_solve

    def tight(matvec, precond, rhs, rtol):
        rtol = max(1e-12, 1e-14 / np.linalg.norm(rhs))
        return krylov(matvec, precond, rhs, rtol)

    monkeypatch.setattr(diagnostics, "_krylov_solve", tight)
    exact = diagnostics.stationary_solve(0.1, 0.5, seed, params)
    assert residual(inexact) <= tol and residual(exact) <= tol
    for a, b in ((inexact.phi_inf, exact.phi_inf), (inexact.psi_inf, exact.psi_inf)):
        assert np.max(np.abs(a.data - b.data)) <= 1e-9
    assert abs(inexact.mu_phi_inf - exact.mu_phi_inf) <= 1e-10
    assert abs(inexact.mu_psi_inf - exact.mu_psi_inf) <= 1e-10


def test_step_report_fields_consistent(grid):
    params = ModelParams(w=1.0, theta_c=1.0)
    state = _stripe_state(grid, amplitude=0.5)
    out = coupled_time_step(state, 1e-3, params)
    nxt, _, report = out
    row = _ledger_row(state, out, params)
    assert report.h_used == 1e-3
    assert report.h_halvings == 0
    assert row.mean_phi == pytest.approx(report.mass_target_a, abs=1e-13)
    assert row.max_phi == np.max(nxt.phi.data)
    assert report.picard_iterations >= 1


# ---------------------------------------------------------------------------
# Picard loop: feasible start, Anderson mixing, work fixed within a step
# ---------------------------------------------------------------------------

def _drop_state(n):
    """The L = 16 drop: an elliptic phase drop and a cosine surfactant bump."""
    grid = Grid2D(n, n, 16.0, 16.0)
    X, Y = grid.cell_centers()
    rho = np.hypot((X - 8.0) / 5.0, (Y - 8.0) / 3.0)
    phi = 0.9 * np.tanh(3.0 * (1.0 - rho))
    psi = 0.5 + 0.2 * np.cos(np.pi * X / 16.0) * np.cos(np.pi * Y / 16.0)
    return State(VectorField.zero(grid), ScalarField(grid, phi), ScalarField(grid, psi))


def _run_steps(state, h, params, n):
    """n steps as `driver.run` takes them; returns the last step's state and
    potentials and the Picard iterations of all n."""
    pots, picard = None, 0
    for _ in range(n):
        state, pots, report = coupled_time_step(state, h, params, pots)
        state.validate()
        picard += report.picard_iterations
    return state, pots, picard


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_drop_with_reaction_starts_inside_the_box(alpha):
    # h sigma1 |phibar - c| exceeds the room between phi_prev and -1 by
    # step 3, so phi_prev shifted to the new mean target leaves (-1, 1).
    params = replace(BENCH_MODEL, alpha=alpha, sigma1=0.5, c=0.2)
    state = _drop_state(32)
    pots = None
    for _ in range(4):
        prev = state
        state, pots, report = coupled_time_step(prev, 0.1, params, pots)
        state.validate()
        assert gridops.mean(state.phi) == pytest.approx(report.mass_target_a, abs=1e-14)
        assert _ledger_row(prev, (state, pots, report), params).slack > 0.0


def test_feasible_start_keeps_the_shifted_start_where_it_fits():
    x_prev = np.array([[-0.95, 0.5], [0.2, 0.25]])
    shifted = x_prev + (0.03 - x_prev.mean())
    assert np.array_equal(step._feasible_start(x_prev, 0.03, (-1.0, 1.0), "phi Newton"),
                          shifted)
    # Shifted down by 0.06, the first cell would reach -1.01.
    x0 = step._feasible_start(x_prev, -0.06, (-1.0, 1.0), "phi Newton")
    assert x0.min() == pytest.approx(-1.0 + 2e-3, abs=1e-15)
    assert x0.mean() == pytest.approx(-0.06, abs=1e-15)
    dev = x_prev - x_prev.mean()
    s = (x0 - x0.mean()) / dev
    assert np.allclose(s, s[0, 0]) and 0.0 < s[0, 0] < 1.0
    # Near a bound the margin shrinks to half the target's room.
    x0 = step._feasible_start(x_prev - 0.5, -0.999, (-1.0, 1.0), "phi Newton")
    assert x0.min() == pytest.approx(-0.9995, abs=1e-12) and x0.max() < 1.0
    with pytest.raises(StepTooLarge, match=r"^phi Newton: no start inside \(-1, 1\)"):
        step._feasible_start(x_prev, -1.0, (-1.0, 1.0), "phi Newton")


def _anderson_cases():
    for alpha in (0.0, 1.0):
        yield _drop_state(32), replace(BENCH_MODEL, alpha=alpha), 3
    yield _band_state(Grid2D(32, 32, 16.0, 16.0)), BENCH_MODEL, 2


@pytest.mark.parametrize("case", range(3))
def test_anderson_mixing_reaches_the_plain_picard_answer_in_fewer_iterations(
        case, monkeypatch):
    # With alpha = 1 the drop's plain Picard rate, 0.002-0.03, is already
    # below what mixing reaches under inexact inner solves: there the
    # least-squares gate leaves the loop plain, and the count may only tie.
    state, params, n = list(_anderson_cases())[case]
    mixed = _run_steps(state, 0.1, params, n)
    monkeypatch.setattr(step, "ANDERSON_DEPTH", 0)
    plain = _run_steps(state, 0.1, params, n)
    (sa, pa, na), (sb, pb, nb) = mixed, plain
    assert np.sqrt(np.mean(sb.u.x ** 2 + sb.u.y ** 2)) > 1e-3
    for x, y in ((sa.phi.data, sb.phi.data), (sa.psi.data, sb.psi.data),
                 (sa.u.x, sb.u.x), (sa.u.y, sb.u.y),
                 (pa.mu_phi_hat.data, pb.mu_phi_hat.data),
                 (pa.mu_psi_hat.data, pb.mu_psi_hat.data)):
        assert np.max(np.abs(x - y)) <= 1e-10
    assert na < nb if params.alpha == 0.0 else na <= nb


def test_anderson_mix_on_an_affine_map():
    # For an affine contraction G(x) = A x + c in R^2, two differences span
    # the space: the mixed iterate is the fixed point (Anderson is GMRES on
    # linear problems; Walker & Ni 2011).  A residual that the history does
    # not explain leaves the plain update g and keeps the history.
    A = np.array([[0.3, 0.1], [-0.2, 0.25]])
    c = np.array([1.0, -2.0])
    fixed = np.linalg.solve(np.eye(2) - A, c)
    xs = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    gs = [A @ x + c for x in xs]
    fs = [g - x for g, x in zip(gs, xs)]
    df = [fs[1] - fs[0], fs[2] - fs[1]]
    dg = [gs[1] - gs[0], gs[2] - gs[1]]
    x = step._anderson_mix(gs[2], fs[2], df, dg)
    assert np.allclose(x, fixed, rtol=0, atol=1e-12)
    g, f = np.array([1.0, 2.0]), np.array([0.0, 1.0])
    df, dg = [np.array([1.0, 0.0])], [np.array([5.0, 5.0])]
    assert step._anderson_mix(g, f, df, dg) is g and len(df) == 1


def test_a_step_accepted_at_its_second_iteration_never_mixes(grid, monkeypatch):
    mixes = []
    mix = step._anderson_mix

    def spied(*args):
        mixes.append(args)
        return mix(*args)

    # The stripe's second step, started from the first step's potentials,
    # is accepted at its second Picard iteration, as every stripe-64 step.
    params = ModelParams(alpha=1.0, w=1.0, theta_c=2.0, sigma2=0.1)
    prev, prev_pots, _ = coupled_time_step(_stripe_state(grid), 1e-3, params)
    monkeypatch.setattr(step, "_anderson_mix", spied)
    state, pots, report = coupled_time_step(prev, 1e-3, params, prev_pots)
    assert report.picard_iterations == 2 and not mixes
    monkeypatch.setattr(step, "ANDERSON_DEPTH", 0)
    plain = coupled_time_step(prev, 1e-3, params, prev_pots)
    for x, y in ((state.phi, plain[0].phi), (state.psi, plain[0].psi),
                 (pots.mu_phi, plain[1].mu_phi), (pots.mu_psi, plain[1].mu_psi)):
        assert np.array_equal(x.data, y.data)


@pytest.mark.parametrize("singular", ["raise", "nan"])
def test_a_singular_gram_system_takes_the_plain_update(singular, monkeypatch):
    # Each mixing meets a singular Gram system (or a gamma that is not
    # finite), drops its history and takes g: the plain Picard loop, bit
    # for bit.
    solves = []

    def broken(a, b):
        solves.append(len(b))
        if singular == "raise":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(len(b), np.nan)

    state = _band_state(Grid2D(32, 32, 16.0, 16.0))
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", broken)
        out = coupled_time_step(state, 0.1, BENCH_MODEL)
    assert solves and set(solves) == {1}
    monkeypatch.setattr(step, "ANDERSON_DEPTH", 0)
    plain = coupled_time_step(state, 0.1, BENCH_MODEL)
    assert out[2].picard_iterations == plain[2].picard_iterations
    for x, y in ((out[0].phi, plain[0].phi), (out[0].psi, plain[0].psi),
                 (out[1].mu_phi_hat, plain[1].mu_phi_hat)):
        assert np.array_equal(x.data, y.data)
    assert np.array_equal(out[0].u.x, plain[0].u.x)


def test_fixed_gradients_are_taken_once_and_the_force_costs_five_transforms(
        monkeypatch):
    # Counted at grid's calls of pocketfft's dct and dst: a gradient of the
    # stack (mu_phi_hat, mu_psi_hat) is one 2-D cosine transform, then one
    # sine and one cosine pass per component.
    transforms = [0]

    def counted(fn):
        def wrapped(*args, **kwargs):
            transforms[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_dct", "_dst"):
        monkeypatch.setattr(gridops, name, counted(getattr(gridops, name)))
    inputs, costs = [], []
    gradient = gridops.gradient

    def spied(f):
        before = transforms[0]
        out = gradient(f)
        inputs.append(f.data.copy())
        costs.append(transforms[0] - before)
        return out

    monkeypatch.setattr(gridops, "gradient", spied)
    built = {"quadratic_symbol": 0, "secant_g_psi": 0}
    for name in built:
        def count(*args, _name=name, _fn=getattr(mdl, name)):
            built[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mdl, name, count)

    state = _band_state(Grid2D(32, 32, 16.0, 16.0))
    _, _, report = coupled_time_step(state, 0.1, BENCH_MODEL)
    n = report.picard_iterations
    assert n >= 3
    assert len(inputs) == n + 1 and set(costs) == {5}
    fixed = np.stack((state.phi.data, state.psi.data))
    assert sum(np.array_equal(x, fixed) for x in inputs) == 1
    assert built == {"quadratic_symbol": 1, "secant_g_psi": 1}
