"""Acceptance suite: energy stability, conservation, bounds, convergence.

Each test asserts one acceptance criterion at its stated tolerance and
prints a single summary line.  Long runs are shared through module-scoped
fixtures so the suite stays inside its runtime budgets.
"""

import math
import os
import time

import numpy as np
import pytest

from chdf import diagnostics as diag
from chdf import driver
from chdf import grid as gridops
from chdf import model as mdl
from chdf.darcy import velocity_solve
from chdf.errors import ValidationError
from chdf.grid import Grid2D, ScalarField, VectorField
from chdf.model import ModelParams
from chdf.step import State, coupled_time_step

GRID = Grid2D(64, 64, 1.0, 1.0)
H = 1e-3
N_STEPS = 500


def _stripe_state(grid):
    return driver.initial_condition(driver.RunConfig(
        preset="stripe", mean_phi=0.0, mean_psi=0.5, amplitude=0.9,
        width=0.08), grid)


def _advance(state, params, n, h=H, pots=None):
    """n steps from state: (final state, potentials, reports, ledger rows)."""
    energy = mdl.total_energy(state, params)
    reports, rows = [], []
    for _ in range(n):
        prev = state
        state, pots, rep = coupled_time_step(prev, h, params, pots)
        reports.append(rep)
        rows.append(diag.build_ledger_row(prev, state, pots, rep.h_used, params, energy))
        energy = rows[-1].energy_total
    return state, pots, reports, rows


@pytest.fixture(scope="module")
def stripe_runs():
    """500-step stripe + surfactant runs for alpha in {0, 1}."""
    params_base = dict(w=1.0, sigma1=0.0, r=3.0, theta_c=2.0, sigma2=0.1)
    out = {}
    t0 = time.perf_counter()
    for alpha in (0.0, 1.0):
        params = ModelParams(alpha=alpha, **params_base)
        state = _stripe_state(GRID)
        e0 = mdl.total_energy(state, params)
        _, _, _, rows = _advance(state, params, N_STEPS)
        out[alpha] = (e0, rows)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def reaction_runs():
    """Homogeneous mean-relaxation runs at three step sizes, T = 0.2."""
    params = ModelParams(sigma1=0.5, c=0.0)
    out = {}
    for h in (2e-3, 1e-3, 5e-4):
        state = State(VectorField.zero(GRID),
                      ScalarField.constant(GRID, 0.3),
                      ScalarField.constant(GRID, 0.5))
        _, _, _, rows = _advance(state, params, int(round(0.2 / h)), h=h)
        out[h] = [row.mean_phi for row in rows]
    return out


@pytest.fixture(scope="module")
def spinodal_run():
    """Random spinodal run until the equilibrium residual drops below 1e-6."""
    params = ModelParams(w=1.0, theta_c=1.0, r=3.0)
    state = driver.initial_condition(driver.RunConfig(
        preset="random_spinodal", seed=12345, mean_phi=0.1, mean_psi=0.5), GRID)
    t0 = time.perf_counter()
    pots = None
    rows = []
    residual = math.inf
    while state.time < 50.0:
        state, pots, _, chunk = _advance(state, params, 10, pots=pots)
        rows += chunk
        residual = diag.equilibrium_residual(state, pots, params)
        if residual < 1e-6:
            break
    elapsed = time.perf_counter() - t0
    return dict(state=state, potentials=pots, rows=rows,
                residual=residual, params=params, elapsed=elapsed)


def test_operator_exactness():
    t0 = time.perf_counter()
    X, Y = GRID.cell_centers()
    worst = 0.0
    for k, l in ((1, 0), (0, 3), (5, 2), (17, 9)):
        f = np.cos(k * np.pi * X) * np.cos(l * np.pi * Y)
        lam = (k * np.pi) ** 2 + (l * np.pi) ** 2
        sf = ScalarField(GRID, f)
        worst = max(worst, float(np.max(np.abs(
            gridops.neumann_laplacian(sf).data - lam * f))) / (1 + lam))
        inv = gridops.inverse_neumann_laplacian(ScalarField(GRID, lam * f))
        worst = max(worst, float(np.max(np.abs(inv.data - f))))
        g = gridops.gradient(sf)
        worst = max(worst, float(np.max(np.abs(
            g.x + k * np.pi * np.sin(k * np.pi * X) * np.cos(l * np.pi * Y)))) / (1 + lam))
        worst = max(worst, float(np.max(np.abs(
            gridops.divergence(g).data + lam * f))) / (1 + lam))
    assert worst < 1e-11

    rng = np.random.default_rng(1)
    from chdf.grid import cc_inv, cs_inv, sc_inv
    n = 64 * 64    # modes of about unit amplitude (unnormalised inverses)
    v = VectorField(GRID, sc_inv(n * rng.standard_normal((64, 64))),
                    cs_inv(n * rng.standard_normal((64, 64))))
    w, _ = gridops.solenoidal_part(v)
    w2, _ = gridops.solenoidal_part(w)
    helm = max(float(np.max(np.abs(w2.x - w.x))), float(np.max(np.abs(w2.y - w.y))))
    grad = gridops.gradient(
        ScalarField(GRID, cc_inv(n * rng.standard_normal((64, 64)))))
    pg, _ = gridops.solenoidal_part(grad)
    annihilation = float(np.max(np.hypot(pg.x, pg.y)))
    scale = 1 + float(np.max(np.hypot(grad.x, grad.y)))
    elapsed = time.perf_counter() - t0
    assert helm < 1e-10 and annihilation < 1e-10 * scale
    assert elapsed < 1.0
    print(f"\nPASS operator exactness: eigenmode residual {worst:.2e}, "
          f"Helmholtz {max(helm, annihilation):.2e}, {elapsed:.2f}s")


def test_discrete_energy_inequality(stripe_runs):
    for alpha in (0.0, 1.0):
        e0, rows = stripe_runs[alpha]
        floor = -1e-9 * (1 + abs(e0))
        assert len(rows) == N_STEPS
        assert all(r.slack >= floor for r in rows)
        energies = [e0] + [r.energy_total for r in rows]
        # Nonincreasing up to the roundoff of the energy quadrature itself.
        eps = 1e-14 * (1 + abs(e0))
        assert all(b <= a + eps for a, b in zip(energies, energies[1:]))
    assert stripe_runs["elapsed"] < 120.0
    worst = min(r.slack for a in (0.0, 1.0) for r in stripe_runs[a][1])
    print(f"\nPASS energy inequality: slack >= {worst:.2e} over 2x{N_STEPS} steps, "
          f"energy nonincreasing, {stripe_runs['elapsed']:.1f}s")


def test_mass_laws(stripe_runs, reaction_runs):
    for alpha in (0.0, 1.0):
        _, rows = stripe_runs[alpha]
        assert all(abs(r.mean_psi - 0.5) <= 1e-12 for r in rows)

    for h, means in reaction_runs.items():
        for k, m in enumerate(means, start=1):
            assert abs(m - (1 - h * 0.5) ** k * 0.3) <= 1e-10

    errors = []
    for h in (2e-3, 1e-3, 5e-4):
        final = reaction_runs[h][-1]
        exact = diag.mass_closed_form(0.2, ModelParams(sigma1=0.5, c=0.0), 0.3)
        errors.append(abs(final - exact))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    assert min(orders) >= 0.9
    print(f"\nPASS mass laws: psi mass exact, phi product formula to 1e-10, "
          f"observed mean-law orders {[f'{o:.2f}' for o in orders]}")


def test_bound_preservation(stripe_runs, spinodal_run):
    margin = math.inf
    all_rows = stripe_runs[0.0][1] + stripe_runs[1.0][1] + spinodal_run["rows"]
    for r in all_rows:
        margin = min(margin, 1.0 - r.max_phi, r.min_phi + 1.0,
                     r.min_psi, 1.0 - r.max_psi)
    assert margin > 0.0
    print(f"\nPASS bound preservation: worst margin {margin:.3e} "
          f"over {len(all_rows)} steps")


def test_drag_scalar_solver():
    X, Y = GRID.cell_centers()
    p = np.cos(np.pi * X) * np.cos(2 * np.pi * Y)
    force = gridops.gradient(ScalarField(GRID, p))
    u, _, _ = velocity_solve(VectorField.zero(GRID), force, 1e-3,
                             ModelParams(r=3.0))
    u_norm = math.sqrt(float(np.sum(u.x ** 2 + u.y ** 2)) * GRID.cell_area)
    assert u_norm <= 1e-9
    print(f"\nPASS drag scalar solver: gradient forcing |u| = {u_norm:.2e}")


def test_secant_identities():
    rng = np.random.default_rng(99)
    n = 10 ** 5
    a = rng.uniform(-0.999, 0.999, n)
    b = rng.uniform(-0.999, 0.999, n)
    c = rng.uniform(0.001, 0.999, n)
    theta_c, w = 1.3, 0.7
    lhs = np.asarray(mdl.secant_g_phi(a, b, c, theta_c, w)) * (a - b)
    rhs = (np.asarray(mdl.coupling_g(a, c, theta_c, w)[0])
           - np.asarray(mdl.coupling_g(b, c, theta_c, w)[0]))
    err_phi = float(np.max(np.abs(lhs - rhs)))
    lhs2 = np.asarray(mdl.secant_g_psi(a, c, np.flip(c), theta_c, w)) * (c - np.flip(c))
    rhs2 = (np.asarray(mdl.coupling_g(a, c, theta_c, w)[0])
            - np.asarray(mdl.coupling_g(a, np.flip(c), theta_c, w)[0]))
    err_psi = float(np.max(np.abs(lhs2 - rhs2)))
    assert err_phi <= 1e-13 and err_psi <= 1e-13

    eq_phi = np.asarray(mdl.secant_g_phi(a, a.copy(), c, theta_c, w))
    d_phi = np.asarray(mdl.coupling_g(a, c, theta_c, w)[1])
    eq_psi = np.asarray(mdl.secant_g_psi(a, c, c.copy(), theta_c, w))
    d_psi = np.asarray(mdl.coupling_g(a, c, theta_c, w)[2])
    err_eq = max(float(np.max(np.abs(eq_phi - d_phi))),
                 float(np.max(np.abs(eq_psi - d_psi))))
    assert err_eq <= 1e-10
    print(f"\nPASS secant identities: secant identity {max(err_phi, err_psi):.2e} "
          f"on {n} triples, equal-argument branch {err_eq:.2e}")


def test_convergence_to_equilibrium(spinodal_run):
    state = spinodal_run["state"]
    pots = spinodal_run["potentials"]
    params = spinodal_run["params"]
    assert spinodal_run["residual"] < 1e-6
    assert spinodal_run["elapsed"] < 600.0

    grid = state.phi.grid
    u_norm = math.sqrt(float(np.sum(state.u.x ** 2 + state.u.y ** 2))
                       * grid.cell_area)
    flux = (math.sqrt(gridops.grad_norm_sq(pots.mu_phi))
            + math.sqrt(gridops.grad_norm_sq(pots.mu_psi)))
    assert u_norm < 1e-5 and flux < 1e-5

    sol = diag.stationary_solve(gridops.mean(state.phi),
                                gridops.mean(state.psi),
                                (state.phi, state.psi), params)
    dev = max(float(np.max(np.abs(sol.phi_inf.data - state.phi.data))),
              float(np.max(np.abs(sol.psi_inf.data - state.psi.data))))
    assert dev <= 1e-6
    d_phi, d_psi = diag.separation_margin(state.phi, state.psi)
    assert d_phi > 0 and d_psi > 0
    print(f"\nPASS equilibrium convergence: residual {spinodal_run['residual']:.2e} at "
          f"t = {state.time:.3f}, stationary agreement {dev:.2e}, margins "
          f"({d_phi:.3f}, {d_psi:.3f}), {spinodal_run['elapsed']:.1f}s")


def test_time_self_convergence():
    params = ModelParams(w=1.0, sigma1=0.0, r=3.0, theta_c=2.0, sigma2=0.1)
    T = 0.1
    finals = {}
    for h in (4e-3, 2e-3, 1e-3):
        state = _stripe_state(GRID)
        state, _, reports, _ = _advance(state, params, int(round(T / h)), h=h)
        assert all(r.h_halvings == 0 for r in reports)
        finals[h] = state.phi.data
    e1 = float(np.max(np.abs(finals[4e-3] - finals[2e-3])))
    e2 = float(np.max(np.abs(finals[2e-3] - finals[1e-3])))
    order = math.log2(e1 / e2)
    assert order >= 0.9
    print(f"\nPASS time self-convergence: Richardson errors {e1:.2e} -> {e2:.2e}, "
          f"observed order {order:.2f}")


def test_determinism_and_formats(tmp_path):
    text = """
[grid]
nx = 32
ny = 32

[time]
h = 1e-3
t_end = 0.02
output_every = 10

[model]
w = 1.0
theta_c = 1.0

[initial]
preset = random_spinodal
mean_phi = 0.1
seed = 5
"""
    ledgers = []
    snaps = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg_path = tmp_path / f"{tag}.cfg"
        cfg_path.write_text(text + f"\n[output]\ndirectory = {out}\n")
        cfg = driver.load_config(str(cfg_path))
        assert driver.run(cfg) == 0
        ledgers.append((out / "ledger.csv").read_bytes())
        snaps.append({name: (out / name).read_bytes()
                      for name in sorted(os.listdir(out)) if name.endswith(".snap")})
    assert ledgers[0] == ledgers[1]
    assert snaps[0] == snaps[1]

    rng = np.random.default_rng(8)
    f = ScalarField(GRID, rng.standard_normal((64, 64)))
    path = str(tmp_path / "rt.snap")
    driver.write_snapshot(path, f, 0.5, "phi")
    g, t, name = driver.read_snapshot(path)
    assert np.array_equal(g.data, f.data) and t == 0.5 and name == "phi"

    violations = {
        "beta = 0.0": "beta",
        "sigma2 = -1.0": "sigma2",
        "c = 1.5": "c",
        "alpha = -0.5": "alpha",
        "r = 2.0": "r",
        "nu_const = 0.0": "nu_const",
        "eta_const = -2.0": "eta_const",
    }
    for line, key in violations.items():
        bad = f"[grid]\nnx = 16\nny = 16\n\n[model]\n{line}\n"
        p = tmp_path / "bad.cfg"
        p.write_text(bad)
        with pytest.raises(ValidationError, match=key):
            driver.load_config(str(p))
    print("\nPASS determinism and formats: bitwise determinism, snapshot round trip, "
          f"{len(violations)} parameter-bound rejections")
