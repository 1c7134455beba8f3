"""One implicit-explicit time step of the coupled system.

Structure of the discrete equations: the surfactant pair (psi, mu_psi_hat)
closes on its own because its coupling secant freezes phi at the old step;
the phase pair (phi, mu_phi_hat) then sees the new psi.  A step carries
(phi, psi), each in its box of `model.BOXES`, and (mu_phi_hat, mu_psi_hat)
as (2, ny, nx) stacks.  Each pair, like the stationary problem in
`diagnostics`, is one nonlinear equation for the
zero-mean part of the unknown: a cosine-diagonal operator on it, a
coefficient constant fixed for the solve, and a pointwise constitutive
term whose mean, the Lagrange multiplier of the mean constraint, is the
constant part of the chemical potential.  The operator is the energy
operator L of `model.quadratic_symbol`, plus inv_lam/(m h) for a pair of
mobility m.  `bounded_newton` forms that residual from one pointwise kernel
call per evaluation (the pointwise term and its Jacobian, as arrays) and
solves it by projected Newton in `grid.newton_krylov`, the loop the velocity
solve shares, each correction by CG (`grid.pcg`) on its cosine coefficients,
down to the tolerance or the residual's round-off floor, whichever is
larger; it places any start inside the box with the mean target
(`_feasible_start`) and returns the mean of the pointwise term with the
solution.
A Picard loop closes the velocity coupling: the velocity comes from
`darcy.velocity_solve`, solenoidal as returned.  From the second Picard
iteration on, the velocity, psi and phi solves start from the previous
iterate, which already solves the same equations with the same mean
targets up to the Picard change, and are inexact: iteration k may stop
each of them at tau_k = max(its full tolerance, PICARD_FORCING Delta_k-1),
Delta_k-1 the previous iteration's Picard change (max|G(x) - x| below and,
once there are two iterates, the max change of (phi, psi)), though only
after at least one update when its start misses the full tolerance.  An
iterate is accepted once Delta_k <= PICARD_TOL and each of the three
solves of that iteration met its full tolerance (NEWTON_TOL with its
round-off floor, `darcy.VELOCITY_TOL`): Delta leaves out u, so without the
second condition a loose velocity solve could end the loop unsolved.
The loop maps the potentials x = (mu_phi_hat, mu_psi_hat) that build the
force to G(x), the potentials the solves return.  After the acceptance
test, so that an accepted iterate is the solves' own and a step accepted at
its second iteration never mixes, the next x is the type-II Anderson
mixing of depth ANDERSON_DEPTH (`_anderson_mix`) of G and f = G(x) - x over
the last differences of both: the plain update G(x) when the Gram system is
singular, its solution not finite, or the fit explains little of f.  What
no Picard iteration changes is formed once per attempt (`_fixed_terms`):
the energy symbol, the psi secant, the stack x_prev = (phi_prev, psi_prev)
and its gradients; the force takes both gradients of x in one stacked
transform sequence (`grid.gradient` of the stack).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridops
from . import model as mdl
from .darcy import velocity_solve
from .errors import BoundViolation, PicardStall, StepTooLarge
from .grid import ScalarField, VectorField, cc_fwd, cc_inv, pcg
from .model import ModelParams

# The name perfbench/tracing.py wraps as "krylov"; ROADMAP item 1 removes it.
lgmres = pcg


@dataclass
class State:
    """Full simulation state at one time level."""

    u: VectorField
    phi: ScalarField
    psi: ScalarField
    time: float = 0.0

    def validate(self) -> None:
        for name, f, (lo, hi) in zip(("phi", "psi"), (self.phi, self.psi), mdl.BOXES):
            # Written so that a NaN fails it.
            if not (np.min(f.data) > lo and np.max(f.data) < hi):
                raise BoundViolation(f"{name} leaves ({lo:g}, {hi:g})")


@dataclass
class ChemicalPotentials:
    """Physical potentials and the zero-mean solver variables."""

    mu_phi: ScalarField
    mu_psi: ScalarField
    mu_phi_hat: ScalarField
    mu_psi_hat: ScalarField


@dataclass
class StepReport:
    """What the solver decided; `diagnostics.build_ledger_row` forms the ledger."""

    picard_iterations: int
    # Largest residual-evaluation counts of the phi and psi solves over the
    # step's Picard iterations.
    newton_iterations_phi: int
    newton_iterations_psi: int
    mass_target_a: float
    h_used: float
    h_halvings: int = 0


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


def _damped_update(cur: np.ndarray, delta: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Return cur plus the zero-mean delta, projected to keep it strictly inside.

    Each cell may move at most 90 percent of its remaining distance to the
    boundary.  A delta that fits is taken whole; otherwise the move is the
    Euclidean projection of delta onto that box intersected with the
    zero-sum hyperplane, clip(delta - tau) for the one scalar tau at which
    the clipped sum vanishes (the continuous quadratic knapsack; Helgason,
    Kennington & Lall, Math. Prog. 18 (1980) 338).  The sum falls
    monotonically in tau, so bisection on a bracket finds it.
    """
    room_dn = 0.9 * (cur - lo)
    room_up = 0.9 * (hi - cur)
    if room_dn.min() <= 0.0 or room_up.min() <= 0.0:
        raise BoundViolation("iterate already at a bound, cannot step")
    d = np.clip(delta, -room_dn, room_up)
    if not np.array_equal(d, delta):
        # The clipped sum is sum(room_up) > 0 below the bracket and
        # -sum(room_dn) < 0 above it; 100 halvings shrink it to round-off.
        a, b = float(np.min(delta - room_up)), float(np.max(delta + room_dn))
        for _ in range(100):
            tau = 0.5 * (a + b)
            if np.clip(delta - tau, -room_dn, room_up).sum() > 0.0:
                a = tau
            else:
                b = tau
        d = np.clip(delta - 0.5 * (a + b), -room_dn, room_up)
    trial = cur + d
    if not (trial.min() > lo and trial.max() < hi):
        raise BoundViolation("projected Newton update left the open box")
    return trial


# Stopping rules of each step: max|F| of the psi and phi Newton solves, the
# Picard change that ends the loop and the cap on Picard iterations (the
# velocity's is `darcy.VELOCITY_TOL`; `grid.MAX_NEWTON` caps every solve).
NEWTON_TOL = 1e-11
PICARD_TOL = 1e-11
MAX_PICARD = 100

# Inexact Picard: from the second Picard iteration on, each inner solve of
# `_attempt_step` may stop at PICARD_FORCING times the last Picard change
# (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19 (1982) 400; Kelley,
# Iterative Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 6).
PICARD_FORCING = 0.01

# Anderson mixing of the Picard loop (type II; Walker & Ni, SIAM J. Numer.
# Anal. 49 (2011) 1715): the number of past differences it keeps.  0 is
# plain Picard.
ANDERSON_DEPTH = 3

# Multiple of eps (max(symbol) max|x| + max_cells sum_j |C_ij| |x_j|), the
# round-off in the residual's symbol*x term plus that of the pointwise term
# under one ulp of x, below which bounded_newton does not ask max|F| to fall
# (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
# ch. 5).  A factor of 1 still leaves some L = 1 solves updating at
# round-off until their Newton cap.
ROUNDOFF_FACTOR = 4.0


def _krylov_solve(matvec, precond, rhs: np.ndarray, rtol: float) -> np.ndarray:
    # A function, not an alias bound as bounded_newton's default, so that
    # pcg is looked up in this module when it runs, where it may be wrapped.
    return pcg(matvec, precond, rhs, rtol)


def bounded_newton(x, pointwise, symbol, k_hat, boxes, means, tol,
                   krylov=_krylov_solve, *, label, loose_tol=0.0):
    """Projected Newton-Krylov for k stacked fields with box bounds and fixed means.

    x has shape (k, ny, nx); each field x[i] starts where
    `_feasible_start(x[i], means[i], boxes[i], label)` places it and stays
    strictly inside boxes[i] = (lo, hi) with mean means[i].  The equations are

        F(x) = cc_inv(symbol cc_fwd(x) + k_hat) + P0 p = 0,

    symbol[i] being diagonal in the cosine basis (zero on the constant
    mode), k_hat cosine coefficients fixed for the solve (0.0 for none) and
    (p, C) = pointwise(x) the one constitutive kernel, called once per
    residual evaluation: the (k, ny, nx) pointwise term and its
    (k, k, ny, nx) Jacobian.  The mean of p that P0 removes is the Lagrange
    multiplier of the mean constraint: the constant part of the potential.
    The Jacobian acting on a zero-mean perturbation v is

        (J v)_i = symbol[i] v_i  +  P0( sum_j C_ij v_j ).

    The loop is `grid.newton_krylov`, which sets each CG tolerance, with
    loose_tol and the bound max|F| <= max(tol, ROUNDOFF_FACTOR eps
    (max(symbol) max|x| + max_cells sum_j |C_ij| |x_j|)), the round-off of
    symbol*x and of p under one ulp of x.  Each correction is solved by
    krylov (CG, `grid.pcg`) on its orthonormal cosine coefficients c, where
    J is symbol*c + P0 cc_fwd(C cc_inv(c)) (two transforms), symmetric
    since each C(x) is and indefinite near a constrained saddle point (the
    stationary lamellae), under the diagonal preconditioner
    1/(symbol[i] + mean(C_ii)), zero on the constant mode.  Each update is
    the zero-mean correction projected onto box intersected with fixed mean
    (`_damped_update`), after which the mean is re-imposed against
    round-off.  Returns (x, residual evaluations, the mean of each field of
    p at x, whether max|F(x)| met the bound).
    """
    floor = ROUNDOFF_FACTOR * np.finfo(float).eps
    sym_max = float(np.max(symbol))
    # The arrays an evaluation, its solve and its update make stay bound here
    # until the next replaces them: on steady-128, freeing them early let
    # glibc trim the heap between updates and re-fault it in every CG.
    p = C = pbar = R = prec = delta = None

    def residual(x):
        nonlocal p, C, pbar, R
        p, C = pointwise(x)
        pbar = p.mean(axis=(-2, -1), keepdims=True)
        R = cc_inv(symbol * cc_fwd(x) + k_hat) + (p - pbar)
        ax = np.abs(x)
        roundoff = (sym_max * float(np.max(ax))
                    + float(np.max(np.sum(np.abs(C) * ax, axis=1))))
        return (float(np.max(np.abs(R))), max(tol, floor * roundoff),
                float(np.linalg.norm(R)))

    def solve(x, eta):
        nonlocal prec
        cbar = [max(float(C[i, i].mean()), 1e-12) for i in range(len(x))]
        prec = 1.0 / (symbol + np.array(cbar)[:, None, None])
        prec[:, 0, 0] = 0.0

        def matvec(c):
            # CG's directions combine preconditioned residuals, whose (0, 0)
            # coefficient prec zeroes: they are zero-mean fields.  Zeroing
            # that coefficient of the output is P0.  C v is summed over j in
            # place, without a (k, k, ny, nx) product.
            v = cc_inv(c, norm="ortho")
            cv = C[:, 0] * v[0]
            for j in range(1, len(v)):
                cv += C[:, j] * v[j]
            out = cc_fwd(cv, norm="ortho")
            out[:, 0, 0] = 0.0
            return symbol * c + out

        def precond(c):
            return c * prec

        return krylov(matvec, precond, cc_fwd(-R, norm="ortho"), eta)

    def update(x, sol):
        nonlocal delta
        delta = cc_inv(sol, norm="ortho")
        for i, (lo, hi) in enumerate(boxes):
            x[i] = _damped_update(x[i], _p0(delta[i]), lo, hi)
            x[i] += means[i] - x[i].mean()
        return x

    x0 = np.array([_feasible_start(xi, m, box, label)
                   for xi, m, box in zip(x, means, boxes)])
    x, it, met_tol = gridops.newton_krylov(x0, residual, solve, update, label, loose_tol)
    return x, it, pbar.ravel(), met_tol


# ---------------------------------------------------------------------------
# Cahn-Hilliard subsystem (velocity frozen)
# ---------------------------------------------------------------------------

def _fixed_terms(prev: State, params: ModelParams
                 ) -> tuple[np.ndarray, np.ndarray, VectorField, np.ndarray]:
    """What every Picard iteration of a step from prev shares: the energy
    symbol L (`model.quadratic_symbol`), the psi coupling secant (G is
    linear in psi, so it does not depend on the new psi), the gradients of
    the stack x_prev = (phi_prev, psi_prev) that the transport terms take,
    and x_prev itself."""
    grid = prev.phi.grid
    x_prev = np.stack((prev.phi.data, prev.psi.data))
    return (mdl.quadratic_symbol(grid, params),
            mdl.secant_g_psi(x_prev[0], x_prev[1], x_prev[1], params.theta_c, params.w),
            gridops.gradient(ScalarField(grid, x_prev)), x_prev)


def _feasible_start(x: np.ndarray, target: float, box: tuple[float, float],
                    label: str) -> np.ndarray:
    """x shifted to the mean target when that lies strictly inside box.

    Otherwise target + s (x - mean(x)) with the largest s <= 1 that keeps a
    margin from either bound: 1e-3 of the box width, or half the target's
    distance to the nearer bound if that is less.  The solution lies
    inside, the potential being singular at the bounds.  A target outside
    the open box raises StepTooLarge naming the solve.  bounded_newton
    places each field of every start, cold or warm, this way.
    """
    lo, hi = box
    x0 = x + (target - x.mean())
    if x0.min() > lo and x0.max() < hi:
        return x0
    if not lo < target < hi:
        raise StepTooLarge(f"{label}: no start inside ({lo:g}, {hi:g}) "
                           f"with mean {target:.6g}")
    margin = min(1e-3 * (hi - lo), 0.5 * (target - lo), 0.5 * (hi - target))
    dev = x - x.mean()
    s = 1.0
    if dev.max() > 0.0:
        s = min(s, (hi - margin - target) / dev.max())
    if dev.min() < 0.0:
        s = min(s, (lo + margin - target) / dev.min())
    return target + s * dev


def ch_subsystem_solve(
    prev: State,
    u: VectorField,
    targets: tuple[float, float],
    h: float,
    params: ModelParams,
    fixed: tuple[np.ndarray, np.ndarray, VectorField, np.ndarray],
    start: np.ndarray | None = None,
    loose_tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int], bool]:
    """Solve the two order-parameter pairs with the velocity frozen.

    Pair i, x[i] = phi or psi with mobility m, has the zero-mean potential
    mu_hat[i] of the discrete flux law (x[i] - x_prev[i])/h + source =
    -m A_N mu_hat[i], A_N = -Laplacian, so in cosine coefficients
    -mu_hat[i] = inv_lam x[i]/(m h) + k_hat with k_hat fixed for the solve.
    The pointwise law mu = L[i] x[i] + p(x[i]), L the energy operator
    (`model.quadratic_symbol`), leaves for bounded_newton the residual
    cc_inv(symbol cc_fwd(x[i]) + k_hat) + P0 p(x[i]) with symbol = L[i] +
    inv_lam/(m h), in the box `model.BOXES[i]`.  The psi pair goes first:
    its coupling secant freezes phi at the old step, while the phi pair's
    secant takes the new psi.

    Each Newton solve runs to NEWTON_TOL, or to loose_tol after one
    update (`bounded_newton`).  Returns (x, mu_hat, mu_bar, (phi Newton
    count, psi Newton count), met): the (phi, psi) stack, its means the
    targets exactly, the zero-mean (mu_phi_hat, mu_psi_hat) stack, the
    means of the pointwise terms at x as bounded_newton returns them (mu =
    mu_hat + mu_bar), and whether both solves met NEWTON_TOL (with its
    round-off floor).  The solves start from the (phi, psi) stack start, or
    else from x_prev, as bounded_newton places them.  fixed is
    `_fixed_terms(prev, params)`, which the caller keeps for the step.
    """
    grid = prev.phi.grid
    symbol, g_psi, grad_prev, x_prev = fixed
    th, w = params.theta_c, params.w
    # u . grad of x_prev, and the phase mean's relaxation toward c.
    source = u.x * grad_prev.x + u.y * grad_prev.y
    source[0] += params.sigma1 * (gridops.mean(prev.phi) - params.c)
    x = np.array(x_prev if start is None else start)
    mu_hat, mu_bar, iters, met = np.empty_like(x), np.empty(2), [0, 0], [False, False]

    def psi_kernel(s):
        _, d1, d2 = mdl.f_psi(s, params.theta_psi)
        return d1 + g_psi, d2[None]

    def phi_kernel(s):
        _, d1, d2 = mdl.f_phi(s, params.theta_phi)
        # x[1] is the new psi: the psi pair is solved before this runs.
        return (d1 + mdl.secant_g_phi(s, x_prev[0], x[1], th, w),
                (d2 + mdl.secant_g_phi_dfirst(s, x_prev[0], x[1], th, w))[None])

    for i, m, kernel, label in ((1, params.m_psi_const, psi_kernel, "psi Newton"),
                                (0, params.m_phi_const, phi_kernel, "phi Newton")):
        k_hat = grid.inv_lam * cc_fwd(source[i] - x_prev[i] / h) / m
        (x[i],), iters[i], (mu_bar[i],), met[i] = bounded_newton(
            x[i][None], kernel, symbol[i:i + 1] + grid.inv_lam / (m * h), k_hat,
            mdl.BOXES[i:i + 1], targets[i:i + 1], NEWTON_TOL, label=label,
            loose_tol=loose_tol)
        mu_hat[i] = -cc_inv(grid.inv_lam * cc_fwd(x[i]) / (m * h) + k_hat)
    return x, mu_hat, mu_bar, tuple(iters), all(met)


def _anderson_mix(g: np.ndarray, f: np.ndarray, df: list, dg: list) -> np.ndarray:
    """The type-II Anderson update g - dg gamma, gamma minimising
    |f - df gamma|_2, from the Picard output g, its residual f and the
    lists df, dg of past differences of residuals and outputs.

    gamma solves the Gram system of df (np.vdot) directly.  If that system
    is singular or gamma is not finite, the history is cleared and g, the
    plain Picard update, returned.  g is also returned, the history kept,
    when the fit leaves more than 0.8 |f|: the history then explains little
    of f, and the correction, of the size of f, mostly carries the error of
    the inexact solves (on the L = 16 drop with alpha = 1, whose plain
    Picard rate is 0.002-0.03, mixing it cost 2 more iterations in 16).
    """
    gram = np.array([[np.vdot(a, b) for b in df] for a in df])
    rhs = np.array([np.vdot(a, f) for a in df])
    try:
        gamma = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        gamma = np.full(len(df), np.nan)
    if not np.all(np.isfinite(gamma)):
        df.clear()
        dg.clear()
        return g
    # |f - df gamma|^2 = |f|^2 - gamma . rhs at the least-squares gamma.
    ff = np.vdot(f, f)
    if ff - gamma @ rhs > 0.8 ** 2 * ff:
        return g
    x = g.copy()
    for c, d in zip(gamma, dg):
        x -= c * d
    return x


def _attempt_step(prev: State, h: float, params: ModelParams,
                  init_potentials: ChemicalPotentials | None
                  ) -> tuple[State, ChemicalPotentials, StepReport]:
    grid = prev.phi.grid
    targets = mean_targets(prev.phi, prev.psi, h, params)
    fixed = _fixed_terms(prev, params)

    # x = (mu_phi_hat, mu_psi_hat), the potentials the force is built from.
    if init_potentials is not None:
        x = np.stack((init_potentials.mu_phi_hat.data, init_potentials.mu_psi_hat.data))
    else:
        x = np.zeros((2, grid.ny, grid.nx))

    # The previous Picard iterate y = (phi, psi) starts the inner solves once
    # there is one, and the last Picard change loosens their tolerances
    # (inexact Picard).  df, dg keep the last ANDERSON_DEPTH differences of
    # f = G(x) - x and of G, the potentials the solves return.
    y = u = change = f_prev = g_prev = None
    df, dg = [], []
    newton = (0, 0)
    for picard_it in range(1, MAX_PICARD + 1):
        loose_tol = 0.0 if change is None else PICARD_FORCING * change
        gm = gridops.gradient(ScalarField(grid, x))
        force = VectorField(
            grid,
            -(prev.phi.data * gm.x[0] + prev.psi.data * gm.x[1]),
            -(prev.phi.data * gm.y[0] + prev.psi.data * gm.y[1]),
        )
        u, _, vel = velocity_solve(prev.u, force, h, params, start=u,
                                   loose_tol=loose_tol)

        y_new, g, mu_bar, iters, met_tol = ch_subsystem_solve(
            prev, u, targets, h, params, fixed, start=y, loose_tol=loose_tol)
        newton = tuple(map(max, newton, iters))
        f = g - x
        change = float(np.max(np.abs(f)))
        if y is not None:
            change = max(change, float(np.max(np.abs(y_new - y))))
        y = y_new
        # The change leaves out u, so it can vanish at an iterate that a
        # loose solve left unsolved: accept only one that all three solves
        # met at their full tolerances.
        if change <= PICARD_TOL and vel.met_tol and met_tol:
            break
        # Mixing follows the test, so the accepted potentials are the
        # solves' own; the first mixing ends the second iteration.
        x = g
        if ANDERSON_DEPTH:
            if f_prev is not None:
                df.append(f - f_prev)
                dg.append(g - g_prev)
                del df[:-ANDERSON_DEPTH], dg[:-ANDERSON_DEPTH]
                x = _anderson_mix(g, f, df, dg)
            f_prev, g_prev = f, g
    else:
        raise PicardStall("velocity/phase coupling did not converge")

    mu = g + mu_bar[:, None, None]
    potentials = ChemicalPotentials(*(ScalarField(grid, a) for a in (*mu, *g)))
    return (State(u, ScalarField(grid, y[0]), ScalarField(grid, y[1]), prev.time + h),
            potentials, StepReport(picard_it, *newton, targets[0], h))


def coupled_time_step(
    prev: State,
    h: float,
    params: ModelParams,
    init_potentials: ChemicalPotentials | None = None,
) -> tuple[State, ChemicalPotentials, StepReport]:
    """Advance one step; on a Picard stall, halve h up to five times.

    Returns the new state, its chemical potentials and the solver's report,
    whose h_used is the step taken; `diagnostics.build_ledger_row` forms the
    step's energy ledger from these and prev.
    """
    halvings = 0
    h_try = h
    while True:
        try:
            state, potentials, report = _attempt_step(prev, h_try, params,
                                                      init_potentials)
            break
        except PicardStall:
            if halvings >= 5:
                raise
            halvings += 1
            h_try *= 0.5
    report.h_halvings = halvings
    return state, potentials, report
