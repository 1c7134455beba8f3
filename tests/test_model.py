"""Potentials, coupling secants, and energies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdf import grid as gridops
from chdf import model as mdl
from chdf.errors import OutOfDomain, ValidationError
from chdf.grid import Grid2D, ScalarField, VectorField
from chdf.model import ModelParams
from chdf.step import State


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs,needle", [
    (dict(beta=0.0), "beta"),
    (dict(sigma2=-1.0), "sigma2"),
    (dict(c=1.5), "c"),
    (dict(c=1.5), "(-1, 1)"),
    (dict(alpha=-0.1), "alpha"),
    (dict(r=2.0), "r"),
    (dict(theta_phi=0.0), "theta_phi"),
    (dict(theta_psi=-1.0), "theta_psi"),
    (dict(nu_const=0.0), "nu_const"),
    (dict(eta_const=0.0), "eta_const"),
    (dict(m_phi_const=0.0), "m_phi_const"),
    (dict(m_psi_const=0.0), "m_psi_const"),
])
def test_params_validation_names_field(kwargs, needle):
    with pytest.raises(ValidationError, match=None) as exc:
        ModelParams(**kwargs)
    assert needle in str(exc.value)


def test_params_defaults_valid():
    ModelParams().validate()


# ---------------------------------------------------------------------------
# Singular potentials
# ---------------------------------------------------------------------------

def test_f_phi_values_and_symmetry():
    ev = mdl.f_phi(0.0)
    assert ev.value == 0.0
    assert ev.first_derivative == 0.0
    assert ev.second_derivative == pytest.approx(1.0)
    assert mdl.f_phi(0.5).value == pytest.approx(mdl.f_phi(-0.5).value)
    # F'(s) = (theta/2) ln((1+s)/(1-s))
    s = 0.3
    assert mdl.f_phi(s, 2.0).first_derivative == pytest.approx(np.log(1.3 / 0.7))


def test_f_phi_derivatives_match_finite_differences():
    s = np.linspace(-0.95, 0.95, 41)
    eps = 1e-6
    val_p = mdl.f_phi(s + eps, 1.7)[0]
    val_m = mdl.f_phi(s - eps, 1.7)[0]
    d1 = mdl.f_phi(s, 1.7)[1]
    assert np.max(np.abs((val_p - val_m) / (2 * eps) - d1)) < 1e-8


def test_f_psi_normalization_and_convexity():
    ev = mdl.f_psi(0.5, 1.0)
    assert ev.value == pytest.approx(0.0, abs=1e-15)
    assert ev.first_derivative == pytest.approx(0.0, abs=1e-15)
    s = np.linspace(0.01, 0.99, 99)
    d2 = mdl.f_psi(s, 0.8)[2]
    assert np.all(d2 >= 4 * 0.8 - 1e-12)   # 1/(s(1-s)) >= 4


def test_potentials_reject_out_of_domain():
    with pytest.raises(OutOfDomain):
        mdl.f_phi(1.0)
    with pytest.raises(OutOfDomain):
        mdl.f_phi(np.array([0.0, -1.2]))
    with pytest.raises(OutOfDomain):
        mdl.f_psi(0.0)
    with pytest.raises(OutOfDomain):
        mdl.f_psi(1.0)


# ---------------------------------------------------------------------------
# Coupling G
# ---------------------------------------------------------------------------

def test_coupling_value_on_box():
    val, dphi, dpsi = mdl.coupling_g(0.4, 0.3, theta_c=2.0, w=1.5)
    assert val == pytest.approx(-0.5 * 2.0 * 0.16 - 1.5 * 0.3 * (1 - 0.16))
    assert dphi == pytest.approx(-2.0 * 0.4 + 2 * 1.5 * 0.3 * 0.4)
    assert dpsi == pytest.approx(-1.5 * (1 - 0.16))


def test_coupling_constant_beyond_clamp():
    far1 = mdl.coupling_g(1.5, 0.5, 1.0, 1.0)
    far2 = mdl.coupling_g(2.5, 0.5, 1.0, 1.0)
    assert far1[0] == pytest.approx(far2[0])
    assert far1[1] == pytest.approx(0.0, abs=1e-15)


def test_clamp_is_c1_at_box_edge():
    eps = 1e-7
    lo = mdl.coupling_g(1.0 - eps, 0.5, 1.0, 1.0)
    hi = mdl.coupling_g(1.0 + eps, 0.5, 1.0, 1.0)
    assert hi[0] - lo[0] == pytest.approx(lo[1] * 2 * eps, abs=1e-12)
    assert hi[1] == pytest.approx(lo[1], abs=1e-5)


# ---------------------------------------------------------------------------
# Secant quotients
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999),
       st.floats(0.001, 0.999))
def test_secant_phi_times_gap_equals_difference(a, b, c):
    theta_c, w = 1.3, 0.7
    lhs = mdl.secant_g_phi(a, b, c, theta_c, w) * (a - b)
    rhs = mdl.coupling_g(a, c, theta_c, w)[0] - mdl.coupling_g(b, c, theta_c, w)[0]
    assert lhs == pytest.approx(rhs, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999),
       st.floats(-0.999, 0.999))
def test_secant_psi_times_gap_equals_difference(a, b, c):
    theta_c, w = 0.9, 1.4
    lhs = mdl.secant_g_psi(c, a, b, theta_c, w) * (a - b)
    rhs = mdl.coupling_g(c, a, theta_c, w)[0] - mdl.coupling_g(c, b, theta_c, w)[0]
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_secant_equal_arguments_match_partials():
    rng = np.random.default_rng(9)
    a = rng.uniform(-0.99, 0.99, 100)
    c = rng.uniform(0.01, 0.99, 100)
    theta_c, w = 1.1, 0.6
    sec = mdl.secant_g_phi(a, a.copy(), c, theta_c, w)
    d = mdl.coupling_g(a, c, theta_c, w)[1]
    assert np.max(np.abs(sec - d)) < 1e-10
    sec2 = mdl.secant_g_psi(a, c, c.copy(), theta_c, w)
    d2 = mdl.coupling_g(a, c, theta_c, w)[2]
    assert np.max(np.abs(sec2 - d2)) < 1e-10


def test_secant_tiny_gap_no_cancellation():
    a = np.array([0.5])
    b = a + 1e-9
    c = np.array([0.25])
    sec = mdl.secant_g_phi(a, b, c, 1.0, 1.0)
    exact = (a + b) * (-0.5 + 1.0 * 0.25)
    assert np.max(np.abs(sec - exact)) < 1e-14


def test_closed_forms_match_finite_differences():
    rng = np.random.default_rng(11)
    a = rng.uniform(-0.95, 0.95, 200)
    b = rng.uniform(-0.95, 0.95, 200)
    c = rng.uniform(0.05, 0.95, 200)
    theta_c, w = 1.7, 0.8
    eps = 1e-6
    _, d_phi, d_psi = mdl.coupling_g(a, c, theta_c, w)
    fd_phi = (mdl.coupling_g(a + eps, c, theta_c, w)[0]
              - mdl.coupling_g(a - eps, c, theta_c, w)[0]) / (2 * eps)
    fd_psi = (mdl.coupling_g(a, c + eps, theta_c, w)[0]
              - mdl.coupling_g(a, c - eps, theta_c, w)[0]) / (2 * eps)
    assert np.max(np.abs(d_phi - fd_phi)) < 1e-8
    assert np.max(np.abs(d_psi - fd_psi)) < 1e-8
    dfirst = mdl.secant_g_phi_dfirst(a, b, c, theta_c, w)
    fd_first = (mdl.secant_g_phi(a + eps, b, c, theta_c, w)
                - mdl.secant_g_phi(a - eps, b, c, theta_c, w)) / (2 * eps)
    assert dfirst.shape == a.shape
    assert np.max(np.abs(dfirst - fd_first)) < 1e-8


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def test_energy_of_homogeneous_state():
    grid = Grid2D(16, 16, 1.0, 1.0)
    params = ModelParams(theta_c=1.0, w=0.5, sigma2=0.3)
    phi = ScalarField.constant(grid, 0.2)
    psi = ScalarField.constant(grid, 0.4)
    expected = (mdl.f_phi(0.2).value + mdl.f_psi(0.4).value
                + mdl.coupling_g(0.2, 0.4, 1.0, 0.5)[0]) * grid.area
    assert mdl.free_energy(phi, psi, params) == pytest.approx(expected, abs=1e-13)


def test_kinetic_energy_scaling():
    grid = Grid2D(16, 16, 1.0, 1.0)
    u = VectorField(grid, np.full((16, 16), 2.0), np.zeros((16, 16)))
    params = ModelParams(alpha=3.0)
    assert mdl.kinetic_energy(u, params) == pytest.approx(0.5 * 3.0 * 4.0)
    assert mdl.kinetic_energy(u, ModelParams(alpha=0.0)) == 0.0


def test_total_energy_includes_nonlocal_term():
    grid = Grid2D(32, 32, 1.0, 1.0)
    X, _ = grid.cell_centers()
    phi = ScalarField(grid, 0.3 * np.cos(np.pi * X))
    psi = ScalarField.constant(grid, 0.5)
    base = ModelParams()
    with_s2 = ModelParams(sigma2=2.0)
    diff = (mdl.free_energy(phi, psi, with_s2) - mdl.free_energy(phi, psi, base))
    expected = 0.5 * 2.0 * gridops.hminus1_norm_sq(phi)
    assert diff == pytest.approx(expected, rel=1e-12)
