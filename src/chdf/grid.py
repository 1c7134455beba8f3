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

import os
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, dst, idct, idst

from .errors import MeanNotZero

# Worker count for the 1-D transforms; 0/None means library default.
_workers: int | None = None


def set_num_threads(n: int) -> None:
    """Cap internal transform parallelism (0 = automatic)."""
    global _workers
    if n < 0:
        raise ValueError(f"thread count must be >= 0, got {n}")
    _workers = os.cpu_count() if n == 0 else n


def _w() -> int | None:
    return _workers


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

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        return self.Lx * self.Ly

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids (X, Y) of cell-center coordinates, shape (ny, nx)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y)

    # Wavenumbers for the cos basis (mode index = array index).
    @property
    def kx(self) -> np.ndarray:
        return _cached_wavenumbers(self)[0]

    @property
    def ky(self) -> np.ndarray:
        return _cached_wavenumbers(self)[1]

    @property
    def lam(self) -> np.ndarray:
        """Eigenvalues of -Laplacian on cos modes: (k pi/Lx)^2 + (l pi/Ly)^2."""
        return _cached_wavenumbers(self)[2]

    @property
    def inv_lam(self) -> np.ndarray:
        """1/lam on the nonconstant modes, 0 on the constant mode."""
        return _cached_wavenumbers(self)[3]


_wavenumber_cache: dict[tuple, tuple] = {}


def _cached_wavenumbers(grid: Grid2D):
    key = (grid.nx, grid.ny, grid.Lx, grid.Ly)
    hit = _wavenumber_cache.get(key)
    if hit is None:
        kx = np.arange(grid.nx) * np.pi / grid.Lx
        ky = np.arange(grid.ny) * np.pi / grid.Ly
        lam = ky[:, None] ** 2 + kx[None, :] ** 2
        inv_lam = np.zeros_like(lam)
        inv_lam.flat[1:] = 1.0 / lam.flat[1:]
        hit = (kx, ky, lam, inv_lam)
        _wavenumber_cache[key] = hit
    return hit


@dataclass
class ScalarField:
    """Collocated scalar samples at cell centers."""

    grid: Grid2D
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"field shape {self.data.shape} != grid ({self.grid.ny}, {self.grid.nx})"
            )

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.ny, grid.nx), value))

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField":
        X, Y = grid.cell_centers()
        return cls(grid, fn(X, Y))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.data.copy())


@dataclass
class VectorField:
    """Collocated vector samples at cell centers (x and y components)."""

    grid: Grid2D
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        shape = (self.grid.ny, self.grid.nx)
        if self.x.shape != shape or self.y.shape != shape:
            raise ValueError("vector components must match the grid shape")

    @classmethod
    def zero(cls, grid: Grid2D) -> "VectorField":
        shape = (grid.ny, grid.nx)
        return cls(grid, np.zeros(shape), np.zeros(shape))

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.x.copy(), self.y.copy())


# ---------------------------------------------------------------------------
# 1-D transform helpers.  Scalings are chosen so the coefficient of mode k is
# the amplitude of cos(k pi x/L) (resp. sin((m+1) pi x/L)) in the series.
# Coefficient layout: "cc" holds cos(k pi x/Lx) cos(l pi y/Ly) at [l, k];
# "sc" holds x-sine mode k at index k-1, "cs" y-sine mode l at index l-1.
# ---------------------------------------------------------------------------

def _cos_fwd(f: np.ndarray, axis: int) -> np.ndarray:
    n = f.shape[axis]
    c = dct(f, type=2, axis=axis, workers=_w()) / (2.0 * n)
    sl = [slice(None)] * f.ndim
    sl[axis] = slice(1, None)
    c[tuple(sl)] *= 2.0
    return c


def _cos_inv(c: np.ndarray, axis: int) -> np.ndarray:
    n = c.shape[axis]
    x = c * n
    sl = [slice(None)] * c.ndim
    sl[axis] = slice(0, 1)
    x[tuple(sl)] *= 2.0
    return idct(x, type=2, axis=axis, workers=_w())


def _sin_fwd(f: np.ndarray, axis: int) -> np.ndarray:
    # Index m holds the amplitude of sin((m+1) pi x / L), m = 0..n-1.
    n = f.shape[axis]
    s = dst(f, type=2, axis=axis, workers=_w()) / n
    sl = [slice(None)] * f.ndim
    sl[axis] = slice(n - 1, n)
    s[tuple(sl)] *= 0.5
    return s


def _sin_inv(s: np.ndarray, axis: int) -> np.ndarray:
    n = s.shape[axis]
    x = s * n
    sl = [slice(None)] * s.ndim
    sl[axis] = slice(n - 1, n)
    x[tuple(sl)] *= 2.0
    return idst(x, type=2, axis=axis, workers=_w())


# 2-D transforms on raw arrays (axis -1 = x, axis -2 = y); leading axes,
# as in a stack of fields, are transformed independently.

def cc_fwd(f: np.ndarray) -> np.ndarray:
    return _cos_fwd(_cos_fwd(f, -1), -2)


def cc_inv(c: np.ndarray) -> np.ndarray:
    return _cos_inv(_cos_inv(c, -1), -2)


def sc_fwd(f: np.ndarray) -> np.ndarray:
    return _cos_fwd(_sin_fwd(f, -1), -2)


def sc_inv(c: np.ndarray) -> np.ndarray:
    return _cos_inv(_sin_inv(c, -1), -2)


def cs_fwd(f: np.ndarray) -> np.ndarray:
    return _sin_fwd(_cos_fwd(f, -1), -2)


def cs_inv(c: np.ndarray) -> np.ndarray:
    return _sin_inv(_cos_inv(c, -1), -2)


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


def integral(f: ScalarField) -> float:
    """Midpoint quadrature of f over the domain."""
    return float(np.sum(f.data)) * f.grid.cell_area


def inner(f: ScalarField, g: ScalarField) -> float:
    """Discrete L2 inner product (midpoint quadrature of f*g)."""
    return float(np.sum(f.data * g.data)) * f.grid.cell_area


def l2_norm_sq(f: ScalarField) -> float:
    return inner(f, f)


def _grad_arrays(grid: Grid2D, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx, gy = _grad_coeffs(grid, cc_fwd(f))
    return sc_inv(gx), cs_inv(gy)


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient, collocated at cell centers."""
    gx, gy = _grad_arrays(f.grid, f.data)
    return VectorField(f.grid, gx, gy)


def grad_norm_sq(f: ScalarField) -> float:
    """Squared L2 norm of the spectral gradient of f."""
    g = gradient(f)
    return float(np.sum(g.x ** 2 + g.y ** 2)) * f.grid.cell_area


def _div_arrays(grid: Grid2D, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    return cc_inv(_div_coeffs(grid, sc_fwd(vx), cs_fwd(vy)))


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence of a collocated vector field."""
    return ScalarField(v.grid, _div_arrays(v.grid, v.x, v.y))


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


def _mode_weights(grid: Grid2D) -> np.ndarray:
    # Quadrature of squared basis functions: Lx Ly with a factor 1/2 per
    # nonzero cosine index.
    wx = np.full(grid.nx, 0.5)
    wx[0] = 1.0
    wy = np.full(grid.ny, 0.5)
    wy[0] = 1.0
    return grid.area * wy[:, None] * wx[None, :]


def hminus1_norm_sq(f: ScalarField) -> float:
    """Squared H^-1 seminorm: <f, invLap f> = ||grad(invLap f)||^2."""
    _check_zero_mean(f)
    c = cc_fwd(f.data)
    return float(np.sum(c * c * _mode_weights(f.grid) * f.grid.inv_lam))


def helmholtz_project(v: VectorField) -> tuple[VectorField, ScalarField]:
    """Split v = u + grad p with div u = 0, u.n = 0, mean(p) = 0.

    p solves the Neumann problem (grad p, grad q) = (v, grad q) for all q.
    """
    grid = v.grid
    a = sc_fwd(v.x)
    b = cs_fwd(v.y)
    p = -_div_coeffs(grid, a, b) * grid.inv_lam
    gx, gy = _grad_coeffs(grid, p)
    u = VectorField(grid, sc_inv(a - gx), cs_inv(b - gy))
    return u, ScalarField(grid, cc_inv(p))


def project_velocity(v: VectorField) -> VectorField:
    """Divergence-free part of v (Helmholtz projection, pressure dropped)."""
    u, _ = helmholtz_project(v)
    return u
