"""One implicit-explicit time step of the coupled system.

Structure of the discrete equations: the surfactant pair (psi, mu_psi_hat)
closes on its own because its coupling secant freezes phi at the old step;
the phase pair (phi, mu_phi_hat) then sees the new psi.  Each pair reduces
to a single nonlinear equation for the zero-mean part of the order
parameter, solved by `bounded_newton`: damped Newton with a
transform-preconditioned Krylov linear solve, shared with the stationary
solve in `diagnostics`.  A Picard loop closes the velocity coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from . import grid as gridops
from . import model as mdl
from .darcy import dissipation_integrands, velocity_solve
from .errors import BoundViolation, NewtonDivergence, PicardStall, StepTooLarge
from .grid import ScalarField, VectorField, cc_fwd, cc_inv
from .model import ModelParams

_ENDPOINT_MARGIN = 1e-13


@dataclass
class State:
    """Full simulation state at one time level."""

    u: VectorField
    phi: ScalarField
    psi: ScalarField
    time: float = 0.0
    step_index: int = 0

    def validate(self) -> None:
        # Written so that a NaN fails them.
        if not np.max(np.abs(self.phi.data)) < 1.0:
            raise BoundViolation("phi leaves (-1, 1)")
        if not (np.min(self.psi.data) > 0.0 and np.max(self.psi.data) < 1.0):
            raise BoundViolation("psi leaves (0, 1)")

    def copy(self) -> "State":
        return State(self.u.copy(), self.phi.copy(), self.psi.copy(),
                     self.time, self.step_index)


@dataclass
class ChemicalPotentials:
    """Physical potentials and the zero-mean solver variables."""

    mu_phi: ScalarField
    mu_psi: ScalarField
    mu_phi_hat: ScalarField
    mu_psi_hat: ScalarField
    # Converged pressure, kept as a warm start for the next velocity solve.
    pressure: ScalarField | None = None


@dataclass
class StepReport:
    picard_iterations: int
    newton_iterations_phi: int
    newton_iterations_psi: int
    energy_before: float
    energy_after: float
    # The two parts of energy_after.
    energy_free: float
    kinetic: float
    dissipation_h: float
    inequality_slack: float
    # The terms of the inequality, as the step evaluated them.
    dissipation_d2: float
    dissipation_dr: float
    grad_mu_phi_sq: float
    grad_mu_psi_sq: float
    reaction_term: float
    mass_target_a: float
    mass_target_b: float
    mass_achieved_phi: float
    mass_achieved_psi: float
    max_phi: float
    min_phi: float
    max_psi: float
    min_psi: float
    h_used: float = 0.0
    h_halvings: int = 0


@dataclass(frozen=True)
class SolverTolerances:
    newton_tol: float = 1e-11
    picard_tol: float = 1e-11
    energy_tol: float = 1e-9
    velocity_tol: float = 1e-11
    max_newton: int = 50
    max_picard: int = 100
    newton_damping_min: float = 1e-4

    def __post_init__(self):
        if min(self.newton_tol, self.picard_tol, self.energy_tol, self.velocity_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 1 or self.max_picard < 1:
            raise ValueError("iteration caps must be positive")
        if not 0 < self.newton_damping_min <= 1:
            raise ValueError("newton_damping_min must lie in (0, 1]")


@dataclass
class NewtonReport:
    iterations_phi: int = 0
    iterations_psi: int = 0


def mean_targets(phi_prev: ScalarField, psi_prev: ScalarField, h: float,
                 params: ModelParams) -> tuple[float, float]:
    """Prescribed step means: the phase mean relaxes toward c, psi is conserved."""
    s1 = params.sigma1
    if h * s1 >= 1.0:
        raise StepTooLarge(f"h*sigma1 = {h * s1:.3e} >= 1 would overshoot the mean target")
    phibar = gridops.mean(phi_prev)
    a = phibar - h * s1 * (phibar - params.c)
    b = gridops.mean(psi_prev)
    return a, b


def _p0(f: np.ndarray) -> np.ndarray:
    """Subtract the mean of each (ny, nx) field of a stack."""
    return f - f.mean(axis=(-2, -1), keepdims=True)


def _convective(u: VectorField, f: ScalarField) -> np.ndarray:
    g = gridops.gradient(f)
    return u.x * g.x + u.y * g.y


def _damped_update(cur: np.ndarray, delta: np.ndarray, lo: float, hi: float,
                   floor: float) -> tuple[np.ndarray, float]:
    """Pull the update back per cell so the iterate stays strictly inside.

    Each cell's move is capped at 90 percent of its remaining distance to
    the boundary; cells far from the endpoints take the full Newton step.
    The capped step is re-projected to zero mean by alternating projections
    (box and hyperplane are convex and share the origin) so the caller's
    mean bookkeeping stays exact.
    """
    room_dn = 0.9 * (cur - lo)
    room_up = 0.9 * (hi - cur)
    if room_dn.min() <= 0.0 or room_up.min() <= 0.0:
        raise BoundViolation("iterate already at a bound, cannot step")
    d = delta
    settle = 1e-16 * (1.0 + float(np.max(np.abs(delta))))
    for _ in range(200):
        d = d - d.mean()
        c = np.clip(d, -room_dn, room_up)
        if np.max(np.abs(c - d)) <= settle:
            d = c - c.mean()
            trial = cur + d
            if trial.min() > lo and trial.max() < hi:
                return trial, 1.0
            break
        d = c
    # Alternating projection stalled: fall back to global halving.
    lam = 1.0
    while True:
        trial = cur + lam * delta
        if trial.min() > lo + _ENDPOINT_MARGIN and trial.max() < hi - _ENDPOINT_MARGIN:
            return trial, lam
        lam *= 0.5
        if lam < floor:
            raise BoundViolation("Newton damping floor hit while enforcing bounds")


def _krylov_solve(op_matvec, precond_matvec, rhs: np.ndarray, shape, tol: float) -> np.ndarray:
    n = rhs.size
    A = LinearOperator((n, n), matvec=lambda v: op_matvec(v.reshape(shape)).ravel())
    M = LinearOperator((n, n), matvec=lambda v: precond_matvec(v.reshape(shape)).ravel())
    rnorm = np.linalg.norm(rhs)
    if rnorm == 0.0:
        return np.zeros(shape)
    sol, info = lgmres(A, rhs.ravel(), M=M, rtol=1e-8, atol=tol, maxiter=200)
    if info != 0:
        raise NewtonDivergence("inner linear solve failed to converge")
    return sol.reshape(shape)


def bounded_newton(x, residual, jacobian_coef, symbol, boxes, means, tol,
                   max_newton, damping_min, krylov=_krylov_solve, label="Newton"):
    """Damped Newton-Krylov for k stacked fields with box bounds and fixed means.

    x has shape (k, ny, nx) and each field x[i] stays strictly inside
    boxes[i] = (lo, hi) with mean means[i].  The Jacobian acting on a
    zero-mean perturbation v is

        (J v)_i = symbol[i] v_i  +  P0( sum_j C_ij v_j ),

    symbol[i] being diagonal in the cosine basis (zero on the constant
    mode) and C = jacobian_coef(x) a pointwise (k, k, ny, nx) coefficient.
    The linear solve is preconditioned by 1/(symbol[i] + mean(C_ii)).  Up to
    max_newton updates are taken, stopping once max|residual(x)| <= tol.
    Returns (x, number of residual evaluations).
    """
    x = np.array(x, dtype=float)
    for it in range(1, max_newton + 2):
        R = residual(x)
        res = float(np.max(np.abs(R)))
        if res <= tol:
            return x, it
        if it > max_newton:
            raise NewtonDivergence(f"{label} did not converge: residual "
                                   f"{res:.3e} after {max_newton} updates")
        C = jacobian_coef(x)
        cbar = [max(float(C[i, i].mean()), 1e-12) for i in range(len(x))]
        prec = 1.0 / (symbol + np.array(cbar)[:, None, None])
        prec[:, 0, 0] = 0.0

        def matvec(v):
            v = _p0(v)
            return cc_inv(cc_fwd(v) * symbol) + _p0(np.sum(C * v[None], axis=1))

        def precond(v):
            return cc_inv(cc_fwd(v) * prec)

        delta = krylov(matvec, precond, -R, x.shape, 0.01 * tol)
        for i, (lo, hi) in enumerate(boxes):
            x[i], _ = _damped_update(x[i], _p0(delta[i]), lo, hi, damping_min)
            x[i] += means[i] - x[i].mean()


# ---------------------------------------------------------------------------
# Cahn-Hilliard subsystem (velocity frozen)
# ---------------------------------------------------------------------------

def _mu_hat(grid, x, x_prev, source, h, mobility):
    """Zero-mean potential from the discrete flux law (x - x_prev)/h + source."""
    return -gridops.inv_neg_lap(grid, (x - x_prev) / h + source) / mobility


def _solve_psi(grid, psi_prev, phi_prev, conv_psi, b, h, params: ModelParams,
               tol: SolverTolerances) -> tuple[np.ndarray, np.ndarray, int]:
    mpsi = params.m_psi_const

    def residual(x):
        # beta*A_N psi + P0 F' + P0 Gpsi - mu_hat = 0, with A_N = -Laplacian.
        psi = x[0]
        fp = mdl.f_psi(psi, params.theta_psi)[1]
        gsec = mdl.secant_g_psi(phi_prev, psi, psi_prev, params.theta_c, params.w)
        return (params.beta * gridops.neg_lap(grid, psi) + _p0(fp + gsec)
                - _mu_hat(grid, psi, psi_prev, conv_psi, h, mpsi))[None]

    def jacobian_coef(x):
        # The psi secant does not depend on the new psi: G is linear in psi.
        return mdl.f_psi(x[0], params.theta_psi)[2][None, None]

    symbol = params.beta * grid.lam + grid.inv_lam / (mpsi * h)
    x, iters = bounded_newton(
        (psi_prev + (b - psi_prev.mean()))[None], residual, jacobian_coef,
        symbol[None], [(0.0, 1.0)], [b], tol.newton_tol, tol.max_newton,
        tol.newton_damping_min, label="psi Newton")
    psi = x[0]
    return psi, _mu_hat(grid, psi, psi_prev, conv_psi, h, mpsi), iters


def _solve_phi(grid, phi_prev, psi_new, conv_phi, reac, a, h, params: ModelParams,
               tol: SolverTolerances) -> tuple[np.ndarray, np.ndarray, int]:
    mphi = params.m_phi_const
    sig2 = params.sigma2
    source = conv_phi + reac

    def residual(x):
        phi = x[0]
        fp = mdl.f_phi(phi, params.theta_phi)[1]
        gsec = mdl.secant_g_phi(phi, phi_prev, psi_new, params.theta_c, params.w)
        out = gridops.neg_lap(grid, phi) + _p0(fp + gsec)
        if sig2 > 0:
            out += sig2 * gridops.inv_neg_lap(grid, phi)
        return (out - _mu_hat(grid, phi, phi_prev, source, h, mphi))[None]

    def jacobian_coef(x):
        phi = x[0]
        fpp = mdl.f_phi(phi, params.theta_phi)[2]
        gp = mdl.secant_g_phi_dfirst(phi, phi_prev, psi_new, params.theta_c, params.w)
        return (fpp + gp)[None, None]

    symbol = grid.lam + (1.0 / (mphi * h) + sig2) * grid.inv_lam
    x, iters = bounded_newton(
        (phi_prev + (a - phi_prev.mean()))[None], residual, jacobian_coef,
        symbol[None], [(-1.0, 1.0)], [a], tol.newton_tol, tol.max_newton,
        tol.newton_damping_min, label="phi Newton")
    phi = x[0]
    return phi, _mu_hat(grid, phi, phi_prev, source, h, mphi), iters


def ch_subsystem_solve(
    prev: State,
    u: VectorField,
    targets: tuple[float, float],
    h: float,
    params: ModelParams,
    tol: SolverTolerances,
) -> tuple[ScalarField, ScalarField, ScalarField, ScalarField, NewtonReport]:
    """Solve the two order-parameter pairs with the velocity frozen.

    Returns (phi, psi, mu_phi_hat, mu_psi_hat, report); means of phi, psi
    equal the targets exactly and the mu_hat fields are zero-mean.
    """
    grid = prev.phi.grid
    a, b = targets
    phibar_prev = gridops.mean(prev.phi)
    reac = params.sigma1 * (phibar_prev - params.c)
    conv_phi = _convective(u, prev.phi)
    conv_psi = _convective(u, prev.psi)

    psi, mu_psi_hat, it_psi = _solve_psi(grid, prev.psi.data, prev.phi.data,
                                         conv_psi, b, h, params, tol)
    phi, mu_phi_hat, it_phi = _solve_phi(grid, prev.phi.data, psi, conv_phi,
                                         reac, a, h, params, tol)
    report = NewtonReport(iterations_phi=it_phi, iterations_psi=it_psi)
    return (
        ScalarField(grid, phi),
        ScalarField(grid, psi),
        ScalarField(grid, mu_phi_hat),
        ScalarField(grid, mu_psi_hat),
        report,
    )


def recover_physical_potentials(
    phi: ScalarField,
    psi: ScalarField,
    phi_prev: ScalarField,
    psi_prev: ScalarField,
    mu_phi_hat: ScalarField,
    mu_psi_hat: ScalarField,
    params: ModelParams,
) -> ChemicalPotentials:
    """Shift the zero-mean solver potentials by the means they projected away."""
    shift_phi = float(np.mean(mdl.f_phi(phi.data, params.theta_phi)[1])) + float(
        np.mean(np.asarray(mdl.secant_g_phi(phi.data, phi_prev.data, psi.data,
                                            params.theta_c, params.w)))
    )
    shift_psi = float(np.mean(mdl.f_psi(psi.data, params.theta_psi)[1])) + float(
        np.mean(np.asarray(mdl.secant_g_psi(phi_prev.data, psi.data, psi_prev.data,
                                            params.theta_c, params.w)))
    )
    grid = phi.grid
    return ChemicalPotentials(
        mu_phi=ScalarField(grid, mu_phi_hat.data + shift_phi),
        mu_psi=ScalarField(grid, mu_psi_hat.data + shift_psi),
        mu_phi_hat=mu_phi_hat,
        mu_psi_hat=mu_psi_hat,
    )


def _attempt_step(prev: State, h: float, params: ModelParams, tol: SolverTolerances,
                  init_potentials: ChemicalPotentials | None):
    grid = prev.phi.grid
    targets = mean_targets(prev.phi, prev.psi, h, params)

    if init_potentials is not None:
        mu_phi_hat = init_potentials.mu_phi_hat.data.copy()
        mu_psi_hat = init_potentials.mu_psi_hat.data.copy()
        pi_warm = init_potentials.pressure
    else:
        mu_phi_hat = np.zeros((grid.ny, grid.nx))
        mu_psi_hat = np.zeros((grid.ny, grid.nx))
        pi_warm = None

    phi = psi = None
    u = prev.u
    newton = NewtonReport()
    for picard_it in range(1, tol.max_picard + 1):
        gmp = gridops.gradient(ScalarField(grid, mu_phi_hat))
        gms = gridops.gradient(ScalarField(grid, mu_psi_hat))
        force = VectorField(
            grid,
            -(prev.phi.data * gmp.x + prev.psi.data * gms.x),
            -(prev.phi.data * gmp.y + prev.psi.data * gms.y),
        )
        u_raw, pi, _ = velocity_solve(prev.u, force, h, params, tol=tol.velocity_tol,
                                      pi0=pi_warm)
        pi_warm = pi
        # Project so the transport velocity is solenoidal to machine
        # precision; the change is within the velocity tolerance.
        u = gridops.project_velocity(u_raw)

        phi_new, psi_new, mph, mps, newton = ch_subsystem_solve(
            prev, u, targets, h, params, tol)

        change = max(
            float(np.max(np.abs(mph.data - mu_phi_hat))),
            float(np.max(np.abs(mps.data - mu_psi_hat))),
        )
        if phi is not None:
            change = max(change,
                         float(np.max(np.abs(phi_new.data - phi.data))),
                         float(np.max(np.abs(psi_new.data - psi.data))))
        phi, psi = phi_new, psi_new
        mu_phi_hat, mu_psi_hat = mph.data, mps.data
        if change <= tol.picard_tol:
            break
    else:
        raise PicardStall("velocity/phase coupling did not converge")

    potentials = recover_physical_potentials(
        phi, psi, prev.phi, prev.psi,
        ScalarField(grid, mu_phi_hat), ScalarField(grid, mu_psi_hat), params)
    potentials.pressure = pi_warm
    return u, phi, psi, potentials, picard_it, newton, targets


def coupled_time_step(
    prev: State,
    h: float,
    params: ModelParams,
    tol: SolverTolerances,
    init_potentials: ChemicalPotentials | None = None,
) -> tuple[State, ChemicalPotentials, StepReport]:
    """Advance one step; on a Picard stall, halve h up to five times."""
    halvings = 0
    h_try = h
    while True:
        try:
            (u, phi, psi, potentials, picard_it, newton,
             targets) = _attempt_step(prev, h_try, params, tol, init_potentials)
            break
        except PicardStall:
            if halvings >= 5:
                raise
            halvings += 1
            h_try *= 0.5

    next_state = State(u, phi, psi, prev.time + h_try, prev.step_index + 1)

    e_before = mdl.total_energy(prev, params)
    # The sum total_energy forms, with its parts kept for the ledger.
    kinetic = mdl.kinetic_energy(u, params)
    energy_free = mdl.free_energy(phi, psi, params)
    e_after = kinetic + energy_free
    d2, dr = dissipation_integrands(u, params)
    grad_mu_phi_sq = gridops.grad_norm_sq(potentials.mu_phi)
    grad_mu_psi_sq = gridops.grad_norm_sq(potentials.mu_psi)
    diss = (d2 + dr + params.m_phi_const * grad_mu_phi_sq
            + params.m_psi_const * grad_mu_psi_sq)
    phibar_prev = gridops.mean(prev.phi)
    reaction = (phibar_prev - params.c) * float(
        np.sum(params.sigma1 * potentials.mu_phi.data)
    ) * phi.grid.cell_area
    slack = e_before - (e_after + h_try * diss + h_try * reaction)

    report = StepReport(
        picard_iterations=picard_it,
        newton_iterations_phi=newton.iterations_phi,
        newton_iterations_psi=newton.iterations_psi,
        energy_before=e_before,
        energy_after=e_after,
        energy_free=energy_free,
        kinetic=kinetic,
        dissipation_h=h_try * diss,
        inequality_slack=slack,
        dissipation_d2=d2,
        dissipation_dr=dr,
        grad_mu_phi_sq=grad_mu_phi_sq,
        grad_mu_psi_sq=grad_mu_psi_sq,
        reaction_term=reaction,
        mass_target_a=targets[0],
        mass_target_b=targets[1],
        mass_achieved_phi=gridops.mean(phi),
        mass_achieved_psi=gridops.mean(psi),
        max_phi=float(np.max(phi.data)),
        min_phi=float(np.min(phi.data)),
        max_psi=float(np.max(psi.data)),
        min_psi=float(np.min(psi.data)),
        h_used=h_try,
        h_halvings=halvings,
    )
    return next_state, potentials, report
