"""Cell-centered spectral operators on a rectangle.

Scalars live in a cos(x)*cos(y) basis (homogeneous Neumann), velocity
components in mixed sin/cos bases so that the normal trace vanishes exactly
on the walls.  All operators below are exact on resolved modes, which keeps
discretization error out of the identities (inverse Laplacian, Helmholtz
projection, adjointness) that the time stepper relies on.

Layout convention: arrays have shape (ny, nx); axis 0 is y, axis 1 is x.
Cell centers sit at ((i + 1/2) hx, (j + 1/2) hy).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dct, dctn, dst, idct, idctn, idst

from .errors import MeanNotZero, NewtonDivergence

@dataclass(frozen=True)
class Grid2D:
    """Uniform cell-centered grid on [0, Lx] x [0, Ly].

    nx, ny must be powers of two and at least 8 (fast-transform friendly).
    """

    nx: int
    ny: int
    Lx: float
    Ly: float

    def __post_init__(self):
        for n, name in ((self.nx, "nx"), (self.ny, "ny")):
            if n < 8 or (n & (n - 1)) != 0:
                raise ValueError(f"{name} must be a power of two >= 8, got {n}")
        if self.Lx <= 0 or self.Ly <= 0:
            raise ValueError("domain lengths must be positive")
        if not (self.Lx < np.inf and self.Ly < np.inf):
            raise ValueError("domain lengths must be finite")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids (X, Y) of cell-center coordinates, shape (ny, nx)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y)

    # Wavenumbers for the cos basis (mode index = array index), and the
    # operator symbols built from them, computed once per grid.
    @cached_property
    def kx(self) -> np.ndarray:
        return np.arange(self.nx) * np.pi / self.Lx

    @cached_property
    def ky(self) -> np.ndarray:
        return np.arange(self.ny) * np.pi / self.Ly

    @cached_property
    def lam(self) -> np.ndarray:
        """Eigenvalues of -Laplacian on cos modes: (k pi/Lx)^2 + (l pi/Ly)^2."""
        return self.ky[:, None] ** 2 + self.kx[None, :] ** 2

    @cached_property
    def inv_lam(self) -> np.ndarray:
        """1/lam on the nonconstant modes, 0 on the constant mode."""
        inv_lam = np.zeros_like(self.lam)
        inv_lam.flat[1:] = 1.0 / self.lam.flat[1:]
        return inv_lam


@dataclass
class ScalarField:
    """Collocated scalar samples at cell centers.

    data has shape (ny, nx), or (k, ny, nx) for a stack of k fields, on which
    `gradient` acts field by field in one transform sequence; the reductions
    (mean and the norms) take a single field.
    """

    grid: Grid2D
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim not in (2, 3) or self.data.shape[-2:] != (self.grid.ny,
                                                                   self.grid.nx):
            raise ValueError(
                f"field shape {self.data.shape} != grid ({self.grid.ny}, {self.grid.nx})"
            )

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.ny, grid.nx), value))


@dataclass
class VectorField:
    """Collocated vector samples at cell centers (x and y components), each
    (ny, nx) or, as the gradient of a stack, (k, ny, nx)."""

    grid: Grid2D
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        shape = (self.grid.ny, self.grid.nx)
        if (self.x.shape != self.y.shape or self.x.ndim not in (2, 3)
                or self.x.shape[-2:] != shape):
            raise ValueError("vector components must match the grid shape")

    @classmethod
    def zero(cls, grid: Grid2D) -> "VectorField":
        shape = (grid.ny, grid.nx)
        return cls(grid, np.zeros(shape), np.zeros(shape))


# ---------------------------------------------------------------------------
# 2-D transforms on raw arrays (axis -1 = x, axis -2 = y); leading axes, as
# in a stack of fields, are transformed independently.  Each is scipy's
# type-II transform (inverse: type III) in its default unnormalised scaling,
# one pass over x and then one over y (the other order rounds differently).
# Layout: "cc" holds cos(k pi x/Lx) cos(l pi y/Ly) at [l, k]; "sc" holds
# x-sine mode k at index k-1, "cs" y-sine mode l at index l-1.  Along an axis
# of n cells, cosine mode k and sine mode k-1 (1 <= k < n) carry n times the
# mode's amplitude, the constant and the top sine mode 2n times, so the
# derivative maps below act on coefficients as they would on amplitudes.
# With nx and ny powers of two these factors are powers of two, which scale
# a float exactly: every operator gives the bits it would give on amplitude
# coefficients.  The cc pair also takes norm="ortho", scipy's orthonormal
# scaling: that pair is an isometry, so a Krylov solve on the coefficients
# of a correction (step.bounded_newton) measures its residual norms and
# tolerance exactly as it would on the field.
# ---------------------------------------------------------------------------

def cc_fwd(f: np.ndarray, norm: str | None = None) -> np.ndarray:
    return dctn(f, 2, axes=(-1, -2), norm=norm)


def cc_inv(c: np.ndarray, norm: str | None = None) -> np.ndarray:
    return idctn(c, 2, axes=(-1, -2), norm=norm)


def sc_fwd(f: np.ndarray) -> np.ndarray:
    return dct(dst(f, 2, axis=-1), 2, axis=-2)


def sc_inv(c: np.ndarray) -> np.ndarray:
    return idct(idst(c, 2, axis=-1), 2, axis=-2)


def cs_fwd(f: np.ndarray) -> np.ndarray:
    return dst(dct(f, 2, axis=-1), 2, axis=-2)


def cs_inv(c: np.ndarray) -> np.ndarray:
    return idst(idct(c, 2, axis=-1), 2, axis=-2)


def resample(f: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """The fields f (..., my, mx) at ny x nx cells of the same rectangle.

    Their orthonormal cosine coefficients are truncated or zero-padded and
    scaled by sqrt(ny nx / (my mx)), so every mode both grids hold keeps its
    amplitude, the mean included: prolonging is exact, and so is
    restricting a field that the coarser grid resolves.  At its own shape f
    is returned itself.
    """
    my, mx = f.shape[-2:]
    if (my, mx) == (ny, nx):
        return f
    c = cc_fwd(f, norm="ortho")
    out = np.zeros(f.shape[:-2] + (ny, nx))
    out[..., :min(my, ny), :min(mx, nx)] = c[..., :ny, :nx]
    return cc_inv(out * np.sqrt(ny * nx / (my * mx)), norm="ortho")


# ---------------------------------------------------------------------------
# Operator symbols on raw (..., ny, nx) arrays
# ---------------------------------------------------------------------------

def neg_lap(grid: Grid2D, f: np.ndarray) -> np.ndarray:
    """-Laplacian with Neumann conditions (exact on cosine modes)."""
    return cc_inv(cc_fwd(f) * grid.lam)


def inv_neg_lap(grid: Grid2D, f: np.ndarray) -> np.ndarray:
    """Zero-mean g with -Lap g = f - mean(f); the mean of f is ignored."""
    return cc_inv(cc_fwd(f) * grid.inv_lam)


def _grad_coeffs(grid: Grid2D, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # d/dx: cos mode k -> sin mode k with factor -k pi/Lx (k = 1..nx-1),
    # stored in the "sc" layout; d/dy likewise into "cs".
    gx = np.zeros_like(c)
    gx[..., : grid.nx - 1] = -c[..., 1:] * grid.kx[1:]
    gy = np.zeros_like(c)
    gy[..., : grid.ny - 1, :] = -c[..., 1:, :] * grid.ky[1:, None]
    return gx, gy


def _div_coeffs(grid: Grid2D, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # d/dx: sin mode k -> cos mode k with factor +k pi/Lx.  The top sine mode
    # (k = nx) maps to a cosine that samples to zero at every cell center.
    d = np.zeros_like(a)
    d[..., 1:] += a[..., : grid.nx - 1] * grid.kx[1:]
    d[..., 1:, :] += b[..., : grid.ny - 1, :] * grid.ky[1:, None]
    return d


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def mean(f: ScalarField) -> float:
    """Midpoint-quadrature mean: hx hy sum(f) / (Lx Ly)."""
    return float(np.sum(f.data)) / (f.grid.nx * f.grid.ny)


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient, collocated at cell centers; of each field of a
    stack, bit for bit as one at a time, in one cc_fwd, sc_inv and cs_inv."""
    gx, gy = _grad_coeffs(f.grid, cc_fwd(f.data))
    return VectorField(f.grid, sc_inv(gx), cs_inv(gy))


def grad_norm_sq(f: ScalarField) -> float:
    """Midpoint sum of |gradient(f)|^2, by Parseval: sum(lam c^2) hx hy with
    c the orthonormal cosine coefficients of f."""
    c = cc_fwd(f.data, norm="ortho")
    return float(np.sum(f.grid.lam * c * c)) * f.grid.cell_area


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence of a collocated vector field."""
    grid = v.grid
    return ScalarField(grid, cc_inv(_div_coeffs(grid, sc_fwd(v.x), cs_fwd(v.y))))


def neumann_laplacian(f: ScalarField) -> ScalarField:
    """Apply -Laplacian with Neumann conditions (exact on cosine modes)."""
    return ScalarField(f.grid, neg_lap(f.grid, f.data))


def _check_zero_mean(f: ScalarField) -> None:
    m = mean(f)
    if abs(m) > 1e-10 * (1.0 + float(np.max(np.abs(f.data)))):
        raise MeanNotZero(f"field mean {m:.3e} is not zero; subtract it first")


def inverse_neumann_laplacian(f: ScalarField) -> ScalarField:
    """Solve -Lap g = f - mean(f) with Neumann data, mean(g) = 0."""
    _check_zero_mean(f)
    return ScalarField(f.grid, inv_neg_lap(f.grid, f.data))


def hminus1_norm_sq(f: ScalarField) -> float:
    """Squared H^-1 seminorm <f, invLap f>: sum(inv_lam c^2) hx hy, by Parseval."""
    _check_zero_mean(f)
    c = cc_fwd(f.data, norm="ortho")
    return float(np.sum(f.grid.inv_lam * c * c)) * f.grid.cell_area


def solenoidal_part(v: VectorField) -> tuple[VectorField, np.ndarray]:
    """Split v = u + grad p with div u = 0, u.n = 0, mean(p) = 0: u and the
    cosine coefficients of p (cc_inv of them forms p).

    p solves the Neumann problem (grad p, grad q) = (v, grad q) for all q.
    Four transforms.
    """
    grid = v.grid
    a = sc_fwd(v.x)
    b = cs_fwd(v.y)
    p = -_div_coeffs(grid, a, b) * grid.inv_lam
    gx, gy = _grad_coeffs(grid, p)
    return VectorField(grid, sc_inv(a - gx), cs_inv(b - gy)), p


def project_velocity(v: VectorField) -> VectorField:
    """Divergence-free part of v (Helmholtz projection; p is not formed)."""
    return solenoidal_part(v)[0]


# ---------------------------------------------------------------------------
# Newton-Krylov
# ---------------------------------------------------------------------------

# Matvec cap of every CG solve (on the benchmark inputs none takes over 51),
# and update cap of every Newton solve (psi, phi, velocity, stationary level).
CG_MAXITER = 6000
MAX_NEWTON = 50

# Eisenstat-Walker forcing of the CG solve of each Newton update (Eisenstat &
# Walker, SIAM J. Sci. Comput. 17 (1996) 16; Kelley, Iterative Methods for
# Linear and Nonlinear Equations, SIAM 1995, 6.3).
ETA_MAX = 0.01
EW_GAMMA = 0.9


def pcg(matvec, precond, b: np.ndarray, rtol: float) -> np.ndarray:
    """Preconditioned conjugate gradients for A x = b on arrays of b's shape.

    A (matvec) is symmetric and precond symmetric positive definite on the
    space the iterates span; np.vdot gives the inner products.  From x = 0 it
    returns x once the recursively updated residual has |r| <= rtol |b|; a
    zero b gives zeros.  A may be indefinite (a constrained saddle point
    is), so a direction with p.Ap < 0 is taken like any other (Hestenes &
    Stiefel, J. Res. NBS 49 (1952) 409); an exact breakdown, p.Ap == 0 or
    not finite, and reaching CG_MAXITER matvecs raise NewtonDivergence.
    """
    x = np.zeros_like(b)
    if not b.any():
        return x
    stop = (rtol * np.linalg.norm(b)) ** 2
    r = b
    z = precond(r)
    p = z
    rz = np.vdot(r, z)
    for it in range(1, CG_MAXITER + 1):
        q = matvec(p)
        pq = np.vdot(p, q)
        if pq == 0.0 or not np.isfinite(pq):
            raise NewtonDivergence(f"CG breakdown at iteration {it}: p.Ap = {pq:.3e}")
        a = rz / pq
        x += a * p
        r = r - a * q          # not in place: precond may return r itself
        if np.vdot(r, r) <= stop:
            return x
        z = precond(r)
        rz, rz_prev = np.vdot(r, z), rz
        p = z + (rz / rz_prev) * p
    raise NewtonDivergence(f"CG reached its cap of {CG_MAXITER} iterations")


def newton_krylov(x, residual, solve, update, label, loose_tol):
    """Inexact Newton-Krylov from x: the one loop of the psi, phi, stationary
    and velocity solves (Kelley, Iterative Methods for Linear and Nonlinear
    Equations, SIAM 1995, ch. 6).

    residual(x) returns (res, bound, fnorm): the size of F(x), the size at
    or below which x counts as solved, and the 2-norm of F(x); it keeps what
    the linear solve needs.  The loop stops once res <= bound or, after at
    least one update, once res <= loose_tol.  Otherwise x becomes
    update(x, solve(x, eta)), solve giving the Newton correction at x by CG
    (`pcg`) to the relative tolerance eta: eta_0 = ETA_MAX and
    eta_k = min(ETA_MAX, max(EW_GAMMA (fnorm_k / fnorm_k-1)^2,
    0.5 bound / fnorm_k)), loose while Newton converges slowly, tight once
    it converges fast, and no tighter than the bound needs.  A
    NewtonDivergence that solve raises is re-raised naming the update and
    the residual, and more than MAX_NEWTON updates raise NewtonDivergence.
    Returns (x, residual evaluations, whether the last res <= bound).
    """
    fnorm_prev = None
    for it in range(1, MAX_NEWTON + 2):
        res, bound, fnorm = residual(x)
        if res <= bound or (it > 1 and res <= loose_tol):
            return x, it, res <= bound
        if it > MAX_NEWTON:
            raise NewtonDivergence(f"{label} did not converge: residual "
                                   f"{res:.3e} after {MAX_NEWTON} updates")
        eta = ETA_MAX if fnorm_prev is None else min(
            ETA_MAX, max(EW_GAMMA * (fnorm / fnorm_prev) ** 2, 0.5 * bound / fnorm))
        fnorm_prev = fnorm
        try:
            correction = solve(x, eta)
        except NewtonDivergence as exc:
            raise NewtonDivergence(f"{label} update {it}: {exc}; residual {res:.3e}") from exc
        x = update(x, correction)
