"""Constitutive content: singular potentials, surfactant coupling, energies.

The logarithmic potentials carry the strictly convex singular parts; the
concave double-well depth and the surfactant-interface attraction live in
the smooth coupling G, which the time stepper treats by secant quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridops
from .errors import OutOfDomain, ValidationError
from .grid import ScalarField

# Width of the C2 transition taking G's arguments from the physical box to
# constants; values beyond it never matter when bounds are preserved.
CLAMP_MARGIN = 0.1


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

    # Coefficient functions.  Constant by default, but evaluated pointwise
    # from the state so the bounded-coefficient contract stays exercised.
    def nu(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(phi, dtype=float), self.nu_const)

    def eta(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(phi, dtype=float), self.eta_const)

    def sigma1_of(self, phi: np.ndarray) -> np.ndarray:
        """Pointwise reaction rate (constant here; field-valued interface)."""
        return np.full_like(np.asarray(phi, dtype=float), self.sigma1)


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
# Smooth clamps.  chi is the identity on the physical interval, constant a
# margin beyond it, with a C2 transition (quartic antiderivative of a cubic
# smoothstep).  This makes G globally bounded with bounded derivatives.
# ---------------------------------------------------------------------------

def _clamp(s: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (chi(s), chi'(s)) for the [lo, hi] box with CLAMP_MARGIN."""
    m = CLAMP_MARGIN
    s = np.asarray(s, dtype=float)
    # Transition profile: chi' = 1 - S(t), S(t) = 3t^2 - 2t^3 on t in [0,1];
    # integral of (1 - S) from 0 to t is t - t^3 + t^4/2 (-> 1/2 at t = 1).
    t_hi = np.clip((s - hi) / m, 0.0, 1.0)
    t_lo = np.clip((lo - s) / m, 0.0, 1.0)

    def ramp(t):
        return t - t ** 3 + 0.5 * t ** 4

    chi = np.where(s > hi, hi + m * ramp(t_hi), np.where(s < lo, lo - m * ramp(t_lo), s))
    dchi = np.where(s > hi, 1.0 - (3 * t_hi ** 2 - 2 * t_hi ** 3),
                    np.where(s < lo, 1.0 - (3 * t_lo ** 2 - 2 * t_lo ** 3),
                             np.ones_like(s)))
    return chi, dchi


def coupling_g(phi, psi, theta_c: float = 0.0, w: float = 0.0):
    """Coupling density G and its partial derivatives.

    On the physical box: G = -(theta_c/2) phi^2 - w psi (1 - phi^2); outside
    it the arguments pass through the smooth clamp first.
    """
    p, dp = _clamp(np.asarray(phi, dtype=float), -1.0, 1.0)
    q, dq = _clamp(np.asarray(psi, dtype=float), 0.0, 1.0)
    val = -0.5 * theta_c * p * p - w * q * (1.0 - p * p)
    d_phi = (-theta_c * p + 2.0 * w * q * p) * dp
    d_psi = -w * (1.0 - p * p) * dq
    if np.isscalar(phi) and np.isscalar(psi):
        return float(val), float(d_phi), float(d_psi)
    return val, d_phi, d_psi


_SECANT_EPS = 1e-12


def _chi_quotient(a: np.ndarray, b: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(chi(a) - chi(b)) / (a - b), cancellation-free.

    Equals one exactly when both arguments are in [lo, hi]; outside the box
    it falls back to the direct quotient, or chi' at coincident arguments.
    """
    inside = (a >= lo) & (a <= hi) & (b >= lo) & (b <= hi)
    ca, da = _clamp(a, lo, hi)
    cb, _ = _clamp(b, lo, hi)
    close = np.abs(a - b) <= _SECANT_EPS * (1.0 + np.abs(a) + np.abs(b))
    denom = np.where(close, 1.0, a - b)
    quot = np.where(close, da, (ca - cb) / denom)
    return np.where(inside, 1.0, quot)


def secant_g_phi(a, b, c_arg, theta_c: float = 0.0, w: float = 0.0):
    """Difference quotient of G in its phi slot: (G(a,c)-G(b,c))/(a-b).

    The quadratic phi-dependence factors exactly, so no cancellation occurs
    even for gaps near roundoff; coincident arguments yield the partial
    derivative.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c_arg = np.asarray(c_arg, dtype=float)
    pa, _ = _clamp(a, -1.0, 1.0)
    pb, _ = _clamp(b, -1.0, 1.0)
    q, _ = _clamp(c_arg, 0.0, 1.0)
    out = _chi_quotient(a, b, -1.0, 1.0) * (pa + pb) * (-0.5 * theta_c + w * q)
    return float(out) if out.ndim == 0 else out


def secant_g_psi(c_arg, a, b, theta_c: float = 0.0, w: float = 0.0):
    """Difference quotient of G in its psi slot: (G(c,a)-G(c,b))/(a-b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c_arg = np.asarray(c_arg, dtype=float)
    p, _ = _clamp(c_arg, -1.0, 1.0)
    out = -w * (1.0 - p * p) * _chi_quotient(a, b, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def secant_g_phi_dfirst(a, b, c_arg, theta_c: float = 0.0, w: float = 0.0):
    """Derivative of secant_g_phi with respect to its first argument."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c_arg = np.asarray(c_arg, dtype=float)
    pa, dpa = _clamp(a, -1.0, 1.0)
    pb, _ = _clamp(b, -1.0, 1.0)
    q, _ = _clamp(c_arg, 0.0, 1.0)
    k = -0.5 * theta_c + w * q
    inside = (a >= -1.0) & (a <= 1.0) & (b >= -1.0) & (b <= 1.0)
    # Outside the box, differentiate the factored form; the quotient factor
    # varies slowly there, so differentiating only the (pa + pb) factor is
    # an adequate Jacobian (residuals stay exact).
    out = np.where(inside, k * np.ones_like(pa),
                   _chi_quotient(a, b, -1.0, 1.0) * dpa * k)
    return float(out) if out.ndim == 0 else out


def secant_g_psi_dfirst(c_arg, a, b, theta_c: float = 0.0, w: float = 0.0):
    """Derivative of secant_g_psi with respect to its implicit psi slot.

    Zero on the box: G is linear in psi there, so the quotient does not
    depend on the implicit argument.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c_arg = np.asarray(c_arg, dtype=float)
    out = np.zeros(np.broadcast(a, b, c_arg).shape)
    return float(out) if out.ndim == 0 else out


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
