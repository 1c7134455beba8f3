"""Constitutive content: singular potentials, surfactant coupling, energies.

The logarithmic potentials carry the strictly convex singular parts and
confine phi to (-1, 1) and psi to (0, 1).  The concave double-well depth and
the surfactant-interface attraction live in the smooth coupling G, which is
quadratic in phi and linear in psi on that box; the time stepper treats it
by secant quotients, which are therefore exact closed-form products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridops
from .errors import OutOfDomain, ValidationError
from .grid import ScalarField


@dataclass(frozen=True)
class ModelParams:
    """All coefficients of the flow/phase/surfactant system.

    Bound constraints mirror the admissible parameter ranges; `validate`
    raises `ValidationError` naming the offending field.
    """

    alpha: float = 0.0          # kinetic relaxation, >= 0
    beta: float = 1.0           # surfactant gradient coefficient, > 0
    sigma1: float = 0.0         # reaction rate, >= 0 (constant in this build)
    sigma2: float = 0.0         # nonlocal interaction strength, >= 0
    c: float = 0.0              # reaction target mean, in (-1, 1)
    r: float = 3.0              # superlinear drag exponent, > 2
    theta_phi: float = 1.0      # phase log-potential temperature, > 0
    theta_psi: float = 1.0      # surfactant log-potential temperature, > 0
    theta_c: float = 0.0        # double-well depth (housed in G), >= 0
    w: float = 0.0              # surfactant-interface coupling strength, >= 0
    nu_const: float = 1.0       # linear drag coefficient, > 0
    eta_const: float = 1.0      # superlinear drag coefficient, > 0
    m_phi_const: float = 1.0    # phase mobility, > 0
    m_psi_const: float = 1.0    # surfactant mobility, > 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def require(cond: bool, msg: str):
            if not cond:
                raise ValidationError(msg)

        require(self.alpha >= 0, "alpha must be >= 0")
        require(self.beta > 0, "beta must be > 0")
        require(self.sigma1 >= 0, "sigma1 must be >= 0")
        require(self.sigma2 >= 0, "sigma2 must be >= 0")
        require(-1.0 < self.c < 1.0, "c must lie in the open interval (-1, 1)")
        require(self.r > 2, "r must be > 2")
        require(self.theta_phi > 0, "theta_phi must be > 0")
        require(self.theta_psi > 0, "theta_psi must be > 0")
        require(self.theta_c >= 0, "theta_c must be >= 0")
        require(self.w >= 0, "w must be >= 0")
        require(self.nu_const > 0, "nu_const must be > 0")
        require(self.eta_const > 0, "eta_const must be > 0")
        require(self.m_phi_const > 0, "m_phi_const must be > 0")
        require(self.m_psi_const > 0, "m_psi_const must be > 0")


@dataclass(frozen=True)
class PotentialEval:
    value: float
    first_derivative: float
    second_derivative: float


def f_phi(s, theta_phi: float = 1.0):
    """Logarithmic phase potential on (-1, 1), normalized at 0.

    Accepts scalars or arrays; returns a PotentialEval for scalar input and
    a (value, first, second) array triple otherwise.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise OutOfDomain("phase potential argument outside (-1, 1)")
    val = 0.5 * theta_phi * ((1 + arr) * np.log1p(arr) + (1 - arr) * np.log1p(-arr))
    d1 = 0.5 * theta_phi * (np.log1p(arr) - np.log1p(-arr))
    d2 = theta_phi / (1.0 - arr * arr)
    if np.isscalar(s) or arr.ndim == 0:
        return PotentialEval(float(val), float(d1), float(d2))
    return val, d1, d2


def f_psi(s, theta_psi: float = 1.0):
    """Logarithmic surfactant potential on (0, 1), normalized at 1/2."""
    arr = np.asarray(s, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise OutOfDomain("surfactant potential argument outside (0, 1)")
    val = theta_psi * (arr * np.log(arr) + (1 - arr) * np.log1p(-arr)) + theta_psi * np.log(2.0)
    d1 = theta_psi * (np.log(arr) - np.log1p(-arr))
    d2 = theta_psi / (arr * (1.0 - arr))
    if np.isscalar(s) or arr.ndim == 0:
        return PotentialEval(float(val), float(d1), float(d2))
    return val, d1, d2


# ---------------------------------------------------------------------------
# Coupling.  The potentials keep phi in (-1, 1) and psi in (0, 1), and every
# caller evaluates them on the same fields first, so G is only ever needed
# on that box, where it is quadratic in phi and linear in psi.
# ---------------------------------------------------------------------------

def coupling_g(phi, psi, theta_c: float = 0.0, w: float = 0.0):
    """Coupling density G = -(theta_c/2) phi^2 - w psi (1 - phi^2) and its
    partial derivatives (value, dG/dphi, dG/dpsi)."""
    p = np.asarray(phi, dtype=float)
    q = np.asarray(psi, dtype=float)
    val = -0.5 * theta_c * p * p - w * q * (1.0 - p * p)
    d_phi = -theta_c * p + 2.0 * w * q * p
    d_psi = -w * (1.0 - p * p) * np.ones_like(q)
    if np.isscalar(phi) and np.isscalar(psi):
        return float(val), float(d_phi), float(d_psi)
    return val, d_phi, d_psi


def _result(out, *args):
    """out broadcast to the arguments' shape; a float for scalar arguments."""
    out = out * np.ones(np.broadcast(*args).shape)
    return float(out) if out.ndim == 0 else out


def secant_g_phi(a, b, c_arg, theta_c: float = 0.0, w: float = 0.0):
    """Difference quotient of G in its phi slot: (G(a,c)-G(b,c))/(a-b).

    The quadratic phi-dependence factors exactly, (a + b)(-theta_c/2 + w c),
    so no cancellation occurs even for gaps near roundoff; coincident
    arguments yield the partial derivative.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c_arg = np.asarray(c_arg, dtype=float)
    out = (a + b) * (-0.5 * theta_c + w * c_arg)
    return float(out) if out.ndim == 0 else out


def secant_g_psi(c_arg, a, b, theta_c: float = 0.0, w: float = 0.0):
    """Difference quotient of G in its psi slot: (G(c,a)-G(c,b))/(a-b).

    G is linear in psi, so this is dG/dpsi at c: -w (1 - c^2).
    """
    c_arg = np.asarray(c_arg, dtype=float)
    return _result(-w * (1.0 - c_arg * c_arg), a, b, c_arg)


def secant_g_phi_dfirst(a, b, c_arg, theta_c: float = 0.0, w: float = 0.0):
    """Derivative of secant_g_phi with respect to its first argument."""
    c_arg = np.asarray(c_arg, dtype=float)
    return _result(-0.5 * theta_c + w * c_arg, a, b, c_arg)


# Not called in chdf; kept because the benchmark's tracer looks them up by name.
CLAMP_MARGIN = 0.1


def _clamp(s: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (chi(s), chi'(s)): the identity on [lo, hi], constant a margin
    CLAMP_MARGIN beyond it, with a C2 transition between."""
    m = CLAMP_MARGIN
    s = np.asarray(s, dtype=float)
    t_hi = np.clip((s - hi) / m, 0.0, 1.0)
    t_lo = np.clip((lo - s) / m, 0.0, 1.0)

    def ramp(t):
        return t - t ** 3 + 0.5 * t ** 4

    chi = np.where(s > hi, hi + m * ramp(t_hi), np.where(s < lo, lo - m * ramp(t_lo), s))
    dchi = np.where(s > hi, 1.0 - (3 * t_hi ** 2 - 2 * t_hi ** 3),
                    np.where(s < lo, 1.0 - (3 * t_lo ** 2 - 2 * t_lo ** 3),
                             np.ones_like(s)))
    return chi, dchi


def secant_g_psi_dfirst(c_arg, a, b, theta_c: float = 0.0, w: float = 0.0):
    """Derivative of secant_g_psi in its implicit psi slot: zero."""
    return _result(0.0, a, b, c_arg)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def free_energy(phi: ScalarField, psi: ScalarField, params: ModelParams) -> float:
    """Interfacial + entropic + nonlocal + coupling energy (midpoint sums)."""
    grid = phi.grid
    fphi_val = f_phi(phi.data, params.theta_phi)[0]
    fpsi_val = f_psi(psi.data, params.theta_psi)[0]
    g_val = coupling_g(phi.data, psi.data, params.theta_c, params.w)[0]
    gphi = gridops.gradient(phi)
    gpsi = gridops.gradient(psi)
    density = (
        0.5 * (gphi.x ** 2 + gphi.y ** 2)
        + fphi_val
        + 0.5 * params.beta * (gpsi.x ** 2 + gpsi.y ** 2)
        + fpsi_val
        + g_val
    )
    e = float(np.sum(density)) * grid.cell_area
    if params.sigma2 > 0:
        dev = ScalarField(grid, phi.data - gridops.mean(phi))
        e += 0.5 * params.sigma2 * gridops.hminus1_norm_sq(dev)
    return e


def kinetic_energy(u, params: ModelParams) -> float:
    """(alpha/2) ||u||^2 by midpoint quadrature."""
    if params.alpha == 0:
        return 0.0
    return 0.5 * params.alpha * float(np.sum(u.x ** 2 + u.y ** 2)) * u.grid.cell_area


def total_energy(state, params: ModelParams) -> float:
    """Kinetic plus free energy of a simulation state."""
    return kinetic_energy(state.u, params) + free_energy(state.phi, state.psi, params)
