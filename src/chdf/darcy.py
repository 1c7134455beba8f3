"""Velocity-pressure subproblem with linear plus superlinear drag.

The drag nu u + eta |u|^(r-2) u is the gradient of a convex pointwise
density, so the velocity is the solenoidal zero of the Helmholtz-projected
momentum residual, found by `grid.newton_krylov` on solenoidal fields from
a closed-form bracket of the per-cell radial root along the projected
forcing or from a solenoidal start; the pressure is the potential part of
the residual's projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridops
from .grid import ScalarField, VectorField, pcg
from .model import ModelParams

# Relative momentum residual at which velocity_solve stops.
VELOCITY_TOL = 1e-11


@dataclass(frozen=True)
class VelocitySolveReport:
    outer_iterations: int
    # Whether the final momentum residual met VELOCITY_TOL, not only loose_tol.
    met_tol: bool


def velocity_solve(
    u_prev: VectorField,
    force: VectorField,
    h: float,
    params: ModelParams,
    *,
    start: VectorField | None = None,
    loose_tol: float = 0.0,
) -> tuple[VectorField, ScalarField, VelocitySolveReport]:
    """Solve a/h (u - u_prev) + nu u + eta |u|^(r-2) u + grad(pi) = force.

    With c1 = a/h + nu, f = force + (a/h) u_prev and P the Helmholtz
    projection, u is the solenoidal field with P((c1 + k) u - f) = 0,
    k = eta |u|^(r-2), found by `grid.newton_krylov` from start
    (solenoidal, as a returned u is) or else from P(s Pf) with
    |s Pf| = min(g/c1, (g/eta)^(1/(r-1))), g = |Pf|, which lies in
    [m*, 2 m*] for the pointwise root m* of c1 m + eta m^(r-1) = g.  Its
    bound is max|R| <= VELOCITY_TOL (1 + max|f|) for the projected residual
    R, loose_tol is scaled by the same 1 + max|f|, and report.met_tol says
    whether the bound held.  Each correction, added to u.data whole, is CG
    (`grid.pcg`) on (2, ny, nx) arrays, to the relative tolerance the loop
    sets, on the exact drag Jacobian (c1 + k) I + (r-2) k e e^T (e = u/|u|)
    under P, SPD on solenoidal fields, with the scalar preconditioner
    1/(c1 + mean k); c1 + k is formed once per residual evaluation.  pi
    is minus the potential part of the final residual, so u has zero normal
    trace and round-off divergence, and pi has zero mean.
    """
    grid = u_prev.grid
    if h <= 0:
        raise ValueError("time step must be positive")
    eta = params.eta_const
    r = params.r
    inertia = params.alpha / h
    c1 = inertia + params.nu_const
    f = force.data + inertia * u_prev.data
    scale = 1.0 + float(np.max(np.hypot(*f)))

    if start is not None:
        u = start
    else:
        pf = gridops.project_velocity(VectorField(grid, f)).data
        gmag = np.hypot(*pf)
        # Each term of c1 m + eta m^(r-1) = g is at most g at its root m*,
        # and the left side is convex and zero at 0: m* <= m <= 2 m*.
        m = np.minimum(gmag / c1, (gmag / eta) ** (1.0 / (r - 1)))
        s = m / np.where(gmag > 0, gmag, 1.0)
        u = gridops.project_velocity(VectorField(grid, s * pf))

    R = p_hat = mag = k = drag = None

    def residual(u):
        nonlocal R, p_hat, mag, k, drag
        mag = np.hypot(*u.data)
        k = eta * mag ** (r - 2)
        drag = c1 + k
        Rv, p_hat = gridops.solenoidal_part(VectorField(grid, drag * u.data - f))
        R = Rv.data
        return (float(np.max(np.hypot(*R))), VELOCITY_TOL * scale,
                float(np.linalg.norm(R)))

    def solve(u, rtol):
        e = u.data * (1.0 / np.where(mag > 0, mag, 1.0))
        radial = (r - 2) * k

        def matvec(v):
            return gridops.project_velocity(
                VectorField(grid, drag * v + radial * (e * v).sum(0) * e)).data

        # Scalar preconditioner: the mean isotropic drag coefficient.
        cbar = c1 + float(np.mean(k))
        return pcg(matvec, lambda v: v / cbar, -R, rtol)

    u, it, met_tol = gridops.newton_krylov(
        u, residual, solve, lambda u, d: VectorField(grid, u.data + d),
        "velocity solve", loose_tol * scale)
    pi = -gridops.cc_inv(p_hat)
    pi -= pi.mean()
    return u, ScalarField(grid, pi), VelocitySolveReport(it, met_tol)

