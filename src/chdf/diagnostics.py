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
from .errors import ValidationError
from .grid import ScalarField
from .model import ModelParams
from .step import (ChemicalPotentials, State, StepReport, _krylov_solve, _p0,
                   bounded_newton)


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


def build_ledger_row(state: State, potentials: ChemicalPotentials,
                     report: StepReport, params: ModelParams) -> LedgerRow:
    """Assemble the ledger row for a freshly completed step."""
    grid = state.phi.grid
    mag2 = state.u.x ** 2 + state.u.y ** 2
    u_l2 = math.sqrt(float(np.sum(mag2)) * grid.cell_area)
    u_lr = (float(np.sum(mag2 ** (params.r / 2.0))) * grid.cell_area) ** (1.0 / params.r)
    row = LedgerRow(
        time=state.time,
        energy_total=report.energy_after,
        energy_free=report.energy_free,
        kinetic=report.kinetic,
        dissipation_d2=report.dissipation_d2,
        dissipation_dr=report.dissipation_dr,
        grad_mu_phi_sq=report.grad_mu_phi_sq,
        grad_mu_psi_sq=report.grad_mu_psi_sq,
        reaction_term=report.reaction_term,
        slack=report.inequality_slack,
        mean_phi=report.mass_achieved_phi,
        mean_psi=report.mass_achieved_psi,
        min_phi=report.min_phi,
        max_phi=report.max_phi,
        min_psi=report.min_psi,
        max_psi=report.max_psi,
        u_l2=u_l2,
        u_lr=u_lr,
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
    """Distances of the fields from their singular endpoints."""
    delta_phi = 1.0 - float(np.max(np.abs(phi.data)))
    delta_psi = 0.5 - float(np.max(np.abs(psi.data - 0.5)))
    return delta_phi, delta_psi


def mass_closed_form(t: float, params: ModelParams, phi_bar_0: float) -> float:
    """Mean of phi under the continuous-time relaxation toward c."""
    return params.c + (phi_bar_0 - params.c) * math.exp(-params.sigma1 * t)


def stationary_solve(
    phi_mass: float,
    psi_mass: float,
    seed: tuple[ScalarField, ScalarField],
    params: ModelParams,
    tol: float = 1e-10,
    max_newton: int = 60,
) -> EquilibriumSolution:
    """Solve the stationary elliptic system at prescribed means.

    Unknowns are the zero-mean parts of (phi, psi); the constant chemical
    potentials are the Lagrange multipliers of the mean constraints and are
    recovered as the means of the pointwise equations.  Joint damped Newton
    with a Krylov linear solve, preconditioned diagonally in the cosine
    basis.
    """
    if not -1.0 < phi_mass < 1.0:
        raise ValidationError("phi_mass must lie in the open interval (-1, 1)")
    if not 0.0 < psi_mass < 1.0:
        raise ValidationError("psi_mass must lie in the open interval (0, 1)")
    phi_seed, psi_seed = seed
    grid = phi_seed.grid
    sig2 = params.sigma2
    symbol = np.stack([grid.lam + sig2 * grid.inv_lam, params.beta * grid.lam])

    def residual(x):
        phi, psi = x
        fp = mdl.f_phi(phi, params.theta_phi)[1]
        fq = mdl.f_psi(psi, params.theta_psi)[1]
        _, gphi, gpsi = mdl.coupling_g(phi, psi, params.theta_c, params.w)
        return (gridops.cc_inv(gridops.cc_fwd(x) * symbol)
                + _p0(np.stack([fp + gphi, fq + gpsi])))

    def jacobian_coef(x):
        phi, psi = x
        fpp = mdl.f_phi(phi, params.theta_phi)[2]
        fqq = mdl.f_psi(psi, params.theta_psi)[2]
        g_pp = -params.theta_c + 2.0 * params.w * psi
        g_pq = 2.0 * params.w * phi
        return np.array([[fpp + g_pp, g_pq], [g_pq, fqq]])

    x0 = np.stack([phi_seed.data + (phi_mass - phi_seed.data.mean()),
                   psi_seed.data + (psi_mass - psi_seed.data.mean())])
    # The linear solve goes through this module's _krylov_solve so that one
    # call here is one Newton update for anything that wraps that name.
    x, _ = bounded_newton(x0, residual, jacobian_coef, symbol,
                          [(-1.0, 1.0), (0.0, 1.0)], [phi_mass, psi_mass],
                          tol, max_newton, 1e-4, krylov=_krylov_solve,
                          label="stationary solve")
    phi, psi = x

    fp = mdl.f_phi(phi, params.theta_phi)[1]
    fq = mdl.f_psi(psi, params.theta_psi)[1]
    _, gphi, gpsi = mdl.coupling_g(phi, psi, params.theta_c, params.w)
    mu_phi_inf = float(np.mean(fp + gphi))
    mu_psi_inf = float(np.mean(fq + gpsi))
    return EquilibriumSolution(
        phi_inf=ScalarField(grid, phi),
        psi_inf=ScalarField(grid, psi),
        mu_phi_inf=mu_phi_inf,
        mu_psi_inf=mu_psi_inf,
    )
