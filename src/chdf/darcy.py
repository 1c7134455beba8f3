"""Velocity-pressure subproblem with linear plus superlinear drag.

Once the pressure gradient is known, the momentum balance decouples into a
scalar monotone root problem per cell (the drag law is radial).  An
Uzawa-style pressure correction then drives the divergence to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from . import grid as gridops
from .errors import NonConvergence
from .grid import ScalarField, VectorField
from .model import ModelParams

_MAX_ROOT_ITER = 200


@dataclass(frozen=True)
class VelocitySolveReport:
    outer_iterations: int
    final_div_residual: float
    final_momentum_residual: float
    pointwise_root_max_residual: float


def _radial_roots(c1: np.ndarray, c2: np.ndarray, r: float, gmag: np.ndarray) -> np.ndarray:
    """Vectorized solve of c1 m + c2 m^(r-1) = g, m >= 0.

    Safeguarded Newton: iterates are clipped into the shrinking bracket
    [lo, hi] with hi = g/c1, so convergence is unconditional.
    """
    gmag = np.asarray(gmag, dtype=float)
    lo = np.zeros_like(gmag)
    hi = gmag / c1
    m = np.where(hi > 0, gmag / (c1 + c2 * np.maximum(hi, 0.0) ** (r - 2)), 0.0)
    tol = 1e-12 * (1.0 + gmag)
    for _ in range(_MAX_ROOT_ITER):
        res = c1 * m + c2 * m ** (r - 1) - gmag
        if np.all(np.abs(res) <= tol):
            return m
        lo = np.where(res < 0, m, lo)
        hi = np.where(res > 0, m, hi)
        slope = c1 + (r - 1) * c2 * m ** (r - 2)
        m_new = m - res / slope
        bad = (m_new <= lo) | (m_new >= hi) | ~np.isfinite(m_new)
        m = np.where(bad, 0.5 * (lo + hi), m_new)
    raise NonConvergence("radial drag root solve did not converge")


def forchheimer_scalar_root(c1: float, c2: float, r: float, g_mag: float) -> float:
    """Unique m >= 0 with c1 m + c2 m^(r-1) = g_mag."""
    if c1 <= 0 or c2 <= 0:
        raise ValueError("drag coefficients must be positive")
    if r <= 2:
        raise ValueError("drag exponent must exceed 2")
    if g_mag < 0:
        raise ValueError("forcing magnitude must be nonnegative")
    if g_mag == 0.0:
        return 0.0
    return float(_radial_roots(np.float64(c1), np.float64(c2), r, np.float64(g_mag)))


def velocity_solve(
    u_prev: VectorField,
    force: VectorField,
    h: float,
    params: ModelParams,
    tol: float = 1e-10,
    max_outer: int = 500,
    phi: ScalarField | None = None,
    psi: ScalarField | None = None,
    pi0: ScalarField | None = None,
) -> tuple[VectorField, ScalarField, VelocitySolveReport]:
    """Solve a/h (u - u_prev) + nu u + eta |u|^(r-2) u + grad(pi) = force.

    Returns u with zero normal trace by construction, max-norm divergence
    below tol, mean-zero pi, and the pointwise momentum law satisfied to
    the root tolerance.  The drag coefficients are evaluated from (phi, psi)
    when given, otherwise from zero fields.
    """
    grid = u_prev.grid
    if h <= 0:
        raise ValueError("time step must be positive")
    shape = (grid.ny, grid.nx)
    pdat = phi.data if phi is not None else np.zeros(shape)
    qdat = psi.data if psi is not None else np.zeros(shape)
    nu = params.nu(pdat, qdat)
    eta = params.eta(pdat, qdat)
    r = params.r
    inertia = params.alpha / h
    c1 = inertia + nu

    fx = force.x + inertia * u_prev.x
    fy = force.y + inertia * u_prev.y
    scale = 1.0 + float(np.max(np.hypot(fx, fy)))

    pi = np.zeros(shape) if pi0 is None else pi0.data - pi0.data.mean()
    ux = np.zeros(shape)
    uy = np.zeros(shape)
    div_res = np.inf
    root_res = 0.0
    n = grid.nx * grid.ny
    for it in range(1, max_outer + 1):
        gp = gridops.gradient(ScalarField(grid, pi))
        gx = fx - gp.x
        gy = fy - gp.y
        gmag = np.hypot(gx, gy)
        m = _radial_roots(c1, eta, r, gmag)
        with np.errstate(invalid="ignore", divide="ignore"):
            inv = np.where(gmag > 0, 1.0 / np.where(gmag > 0, gmag, 1.0), 0.0)
        ux = m * gx * inv
        uy = m * gy * inv
        root_res = float(np.max(np.abs(c1 * m + eta * m ** (r - 1) - gmag)))

        u = VectorField(grid, ux, uy)
        div = gridops.divergence(u)
        div_res = float(np.max(np.abs(div.data)))
        if div_res <= tol * scale:
            break

        # Pressure correction: linearize the drag law along the forcing
        # direction (sensitivity 1/gamma) and solve the variable-coefficient
        # problem div((1/gamma) grad dpi) = div u, preconditioned by the
        # constant-coefficient inverse Laplacian.
        gamma = c1 + (r - 1) * eta * m ** (r - 2)
        inv_gamma = 1.0 / gamma
        gamma_bar = float(np.mean(gamma))

        def matvec(v):
            vf = ScalarField(grid, v.reshape(shape) - v.reshape(shape).mean())
            g = gridops.gradient(vf)
            flux = VectorField(grid, inv_gamma * g.x, inv_gamma * g.y)
            return -gridops.divergence(flux).data.ravel()

        def psolve(v):
            return gamma_bar * gridops.inv_neg_lap(grid, v.reshape(shape)).ravel()

        A = LinearOperator((n, n), matvec=matvec)
        M = LinearOperator((n, n), matvec=psolve)
        rhs = -div.data.ravel()
        sol, _ = lgmres(A, rhs, M=M, rtol=1e-3, atol=0.0, maxiter=50)
        dpi = sol.reshape(shape)
        pi = pi + (dpi - dpi.mean())
    else:
        raise NonConvergence(
            f"velocity solve: divergence residual {div_res:.3e} after {max_outer} iterations"
        )

    # Momentum residual re-evaluated from the returned fields.
    gp = gridops.gradient(ScalarField(grid, pi))
    umag = np.hypot(ux, uy)
    rx = inertia * (ux - u_prev.x) + nu * ux + eta * umag ** (r - 2) * ux + gp.x - force.x
    ry = inertia * (uy - u_prev.y) + nu * uy + eta * umag ** (r - 2) * uy + gp.y - force.y
    mom_res = float(np.max(np.hypot(rx, ry)))

    pi -= pi.mean()
    report = VelocitySolveReport(it, div_res, mom_res, root_res)
    return VectorField(grid, ux, uy), ScalarField(grid, pi), report


def dissipation_integrands(
    u: VectorField,
    params: ModelParams,
    phi: ScalarField | None = None,
    psi: ScalarField | None = None,
) -> tuple[float, float]:
    """Quadratic and superlinear drag dissipation integrals of u."""
    grid = u.grid
    shape = (grid.ny, grid.nx)
    pdat = phi.data if phi is not None else np.zeros(shape)
    qdat = psi.data if psi is not None else np.zeros(shape)
    nu = params.nu(pdat, qdat)
    eta = params.eta(pdat, qdat)
    mag2 = u.x ** 2 + u.y ** 2
    d2 = float(np.sum(nu * mag2)) * grid.cell_area
    dr = float(np.sum(eta * mag2 ** (params.r / 2.0))) * grid.cell_area
    return d2, dr
