"""Run analysis: energy ledger rows, equilibrium detection, stationary states.

Everything here is a pure function of states, potentials, and ledgers; the
driver consumes these to write its CSV series and to cross-validate the
long-time limit of the dynamics against a directly computed stationary
solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import grid as gridops
from . import model as mdl
from .errors import ChdfError, ValidationError
from .grid import Grid2D, ScalarField, resample
from .model import ModelParams
from .step import ChemicalPotentials, State, _krylov_solve, bounded_newton


@dataclass(frozen=True)
class LedgerRow:
    """One row of the per-step energy/mass/bounds ledger."""

    time: float
    energy_total: float
    energy_free: float
    kinetic: float
    dissipation_d2: float
    dissipation_dr: float
    grad_mu_phi_sq: float
    grad_mu_psi_sq: float
    reaction_term: float
    slack: float
    mean_phi: float
    mean_psi: float
    min_phi: float
    max_phi: float
    min_psi: float
    max_psi: float
    u_l2: float
    u_lr: float

    def validate(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"ledger field {f.name} is not finite")


LEDGER_FIELDS = tuple(f.name for f in fields(LedgerRow))


@dataclass
class EquilibriumSolution:
    phi_inf: ScalarField
    psi_inf: ScalarField
    mu_phi_inf: float
    mu_psi_inf: float


def build_ledger_row(prev: State, state: State, potentials: ChemicalPotentials,
                     h: float, params: ModelParams, energy_before: float) -> LedgerRow:
    """Assemble the ledger row of the step of size h from prev to state.

    potentials are the step's chemical potentials and energy_before is
    total_energy(prev), the previous row's energy_total.  The slack is that
    of the discrete energy law

        E(state) + h (D + reaction) <= E(prev),

    D the drag and chemical-flux dissipation and reaction the mean
    relaxation term, which takes the old phi mean.
    """
    grid = state.phi.grid
    u = state.u
    kinetic = mdl.kinetic_energy(u, params)
    energy_free = mdl.free_energy(state.phi, state.psi, params)
    energy_total = kinetic + energy_free
    mag2 = u.x ** 2 + u.y ** 2
    mag_r = mag2 ** (params.r / 2.0)
    d2 = float(np.sum(params.nu_const * mag2)) * grid.cell_area
    dr = float(np.sum(params.eta_const * mag_r)) * grid.cell_area
    grad_mu_phi_sq = gridops.grad_norm_sq(potentials.mu_phi)
    grad_mu_psi_sq = gridops.grad_norm_sq(potentials.mu_psi)
    diss = (d2 + dr + params.m_phi_const * grad_mu_phi_sq
            + params.m_psi_const * grad_mu_psi_sq)
    reaction = (gridops.mean(prev.phi) - params.c) * float(
        np.sum(params.sigma1 * potentials.mu_phi.data)) * grid.cell_area
    row = LedgerRow(
        time=state.time,
        energy_total=energy_total,
        energy_free=energy_free,
        kinetic=kinetic,
        dissipation_d2=d2,
        dissipation_dr=dr,
        grad_mu_phi_sq=grad_mu_phi_sq,
        grad_mu_psi_sq=grad_mu_psi_sq,
        reaction_term=reaction,
        slack=energy_before - (energy_total + h * diss + h * reaction),
        mean_phi=gridops.mean(state.phi),
        mean_psi=gridops.mean(state.psi),
        min_phi=float(np.min(state.phi.data)),
        max_phi=float(np.max(state.phi.data)),
        min_psi=float(np.min(state.psi.data)),
        max_psi=float(np.max(state.psi.data)),
        u_l2=math.sqrt(float(np.sum(mag2)) * grid.cell_area),
        u_lr=(float(np.sum(mag_r)) * grid.cell_area) ** (1.0 / params.r),
    )
    row.validate()
    return row


def equilibrium_residual(state: State, potentials: ChemicalPotentials,
                         params: ModelParams) -> float:
    """Distance from stationarity: largest of the flux/velocity/reaction norms."""
    grid = state.phi.grid
    gm_phi = math.sqrt(gridops.grad_norm_sq(potentials.mu_phi))
    gm_psi = math.sqrt(gridops.grad_norm_sq(potentials.mu_psi))
    u_l2 = math.sqrt(float(np.sum(state.u.x ** 2 + state.u.y ** 2)) * grid.cell_area)
    react = abs(params.sigma1 * (gridops.mean(state.phi) - params.c))
    return max(gm_phi, gm_psi, u_l2, react)


def classify_good_times(ledger, M: float, T: float) -> set:
    """Indices of rows past T whose chemical-flux dissipation is below M^2."""
    if not ledger:
        raise ValidationError("ledger must be nonempty")
    out = set()
    for i, row in enumerate(ledger):
        if row.time >= T and row.grad_mu_phi_sq + row.grad_mu_psi_sq <= M * M:
            out.add(i)
    return out


def separation_margin(phi: ScalarField, psi: ScalarField) -> tuple[float, float]:
    """Distances of the fields from their singular endpoints, the bounds of
    `model.BOXES`."""
    return tuple(min(float(np.min(f.data)) - lo, hi - float(np.max(f.data)))
                 for f, (lo, hi) in zip((phi, psi), mdl.BOXES))


def mass_closed_form(t: float, params: ModelParams, phi_bar_0: float) -> float:
    """Mean of phi under the continuous-time relaxation toward c."""
    return params.c + (phi_bar_0 - params.c) * math.exp(-params.sigma1 * t)


# Stopping rule of stationary_solve: max|F| (`grid.MAX_NEWTON` caps each level).
STATIONARY_TOL = 1e-10

# Largest max-norm change of the seed, restricted to a coarser grid and
# prolonged back, at which stationary_solve still solves on that grid first.
COARSE_SEED_TOL = 1e-2


def stationary_solve(
    phi_mass: float,
    psi_mass: float,
    seed: tuple[ScalarField, ScalarField],
    params: ModelParams,
) -> EquilibriumSolution:
    """Solve the stationary elliptic system at prescribed means.

    Unknowns are the zero-mean parts of (phi, psi), and the equations are
    L x + p(x) = mu_inf with L the energy operator (`model.quadratic_symbol`)
    and p = (F_phi' + dG/dphi, F_psi' + dG/dpsi) pointwise:
    `bounded_newton` with k_hat = 0, and one kernel that gives p and its
    Jacobian, run to STATIONARY_TOL in at most `grid.MAX_NEWTON` updates.
    The constant chemical potentials mu_inf are the Lagrange multipliers of
    the mean constraints: the means of p at the solution, which the solve
    returns.

    The solve is nested iteration (Newton's mesh independence: Allgower,
    Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23 (1986) 160), one
    loop over grid levels, coarsest first.  Each level halves nx and ny of
    the next finer one while both stay >= 8 and the seed, restricted to it
    and prolonged back (`grid.resample`), moves by at most COARSE_SEED_TOL
    in max-norm: the coarse grids are used only while they resolve the
    seed.  A level starts from the previous level's solution prolonged, or
    from the seed restricted, as bounded_newton places it inside the boxes
    with the means.  A coarse level that raises a ChdfError is dropped.
    The fine grid starts from the seed itself when no coarser level solved,
    which is the direct solve; if it fails from a prolonged start, it is
    solved again that way.
    """
    means = (phi_mass, psi_mass)
    for name, mass, (lo, hi) in zip(("phi_mass", "psi_mass"), means, mdl.BOXES):
        if not lo < mass < hi:
            raise ValidationError(f"{name} must lie in the open interval ({lo:g}, {hi:g})")
    phi_seed, psi_seed = seed
    grid = phi_seed.grid

    def pointwise(x):
        phi, psi = x
        _, fp, fpp = mdl.f_phi(phi, params.theta_phi)
        _, fq, fqq = mdl.f_psi(psi, params.theta_psi)
        _, gphi, gpsi = mdl.coupling_g(phi, psi, params.theta_c, params.w)
        g_pp = -params.theta_c + 2.0 * params.w * psi
        g_pq = 2.0 * params.w * phi
        p = np.stack([fp + gphi, fq + gpsi])
        C = np.array([[fpp + g_pp, g_pq], [g_pq, fqq]])
        return p, C

    x0 = np.stack([phi_seed.data, psi_seed.data])
    levels = [grid]
    while min(levels[-1].nx, levels[-1].ny) >= 16:
        coarse = Grid2D(levels[-1].nx // 2, levels[-1].ny // 2, grid.Lx, grid.Ly)
        back = resample(resample(x0, coarse.ny, coarse.nx), grid.ny, grid.nx)
        if np.max(np.abs(back - x0)) > COARSE_SEED_TOL:
            break
        levels.append(coarse)

    def solve(level, start):
        # The linear solve goes through this module's _krylov_solve so that
        # one call here is one Newton update for anything that wraps that name.
        x, _, mu, _ = bounded_newton(
            resample(start, level.ny, level.nx), pointwise,
            mdl.quadratic_symbol(level, params), 0.0, mdl.BOXES, means,
            STATIONARY_TOL, krylov=_krylov_solve, label="stationary solve")
        return x, mu

    x = x0
    for level in reversed(levels):
        try:
            x, (mu_phi_inf, mu_psi_inf) = solve(level, x)
        except ChdfError:
            if level is not grid:
                continue
            if x is x0:
                raise
            x, (mu_phi_inf, mu_psi_inf) = solve(grid, x0)
    phi, psi = x
    return EquilibriumSolution(
        phi_inf=ScalarField(grid, phi),
        psi_inf=ScalarField(grid, psi),
        mu_phi_inf=float(mu_phi_inf),
        mu_psi_inf=float(mu_psi_inf),
    )
