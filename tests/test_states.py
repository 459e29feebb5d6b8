import warnings

import numpy as np
import pytest

from gipsp import (BoundaryMassError, Constants, DensityMatrix, GaugeFn, Poly, QGrid, StateError,
                   coherent_state, density_from_pure, gauge_rotate, gaussian_packet,
                   WaveFunction, integrate, mix, phase_rotate)
from gipsp.states import NARROWEST_WIDTH

from helpers import coherent_closed_form

K = Constants()
G = QGrid.regular(1, 128, 0.15)


def test_ground_state_closed_form():
    psi = coherent_state(0.0, 0.0, G, K)
    x = G.axes[0].points
    expected = np.pi ** -0.25 * np.exp(-x**2 / 2)
    assert np.abs(psi.values - expected).max() <= 1e-12


def test_coherent_norm():
    psi = coherent_state(1.3, -0.7, G, K)
    assert abs(psi.norm() - 1.0) <= 1e-12


def test_coherent_overlap_matches_gaussian_integral():
    for q0 in (0.5, 1.5, 2.5):
        a = coherent_state(0.0, 0.0, G, K)
        b = coherent_state(q0, 0.0, G, K)
        ovl = integrate(np.conj(a.values) * b.values, G)
        assert abs(abs(ovl) ** 2 - np.exp(-K.lam * q0**2 / (2 * K.hbar))) <= 1e-12


def test_coherent_phase_convention():
    psi = coherent_state(0.8, 1.1, G, K)
    x = G.axes[0].points
    assert np.abs(psi.values - coherent_closed_form(x, 0.8, 1.1, K)).max() <= 1e-12


def test_state_outside_grid_raises():
    with pytest.raises(BoundaryMassError):
        coherent_state(9.0, 0.0, G, K)


def test_density_from_pure_trace_and_purity():
    rho = density_from_pure(coherent_state(0.4, 0.2, G, K))
    assert abs(rho.trace() - 1.0) <= 1e-10
    assert abs(rho.purity() - 1.0) <= 1e-10
    assert rho.hermiticity_defect() <= 1e-15


def test_mix_half_purity_against_matrix_product_oracle():
    psi1 = coherent_state(2.7, 0.0, G, K)
    psi2 = coherent_state(-2.7, 0.0, G, K)   # nearly orthogonal packets
    rho = mix([(0.5, psi1), (0.5, psi2)])
    # oracle: direct matrix product Tr(rho^2) = sum_jk rho_jk rho_kj dq^2
    dq = G.axes[0].spacing
    oracle = float(np.einsum("jk,kj->", rho.values, rho.values).real * dq**2)
    assert abs(rho.purity() - oracle) <= 1e-12
    assert abs(rho.purity() - 0.5) <= 1e-6


def test_mix_validation():
    psi = coherent_state(0.0, 0.0, G, K)
    with pytest.raises(StateError):
        mix([(-0.1, psi), (1.1, psi)])
    with pytest.raises(StateError):
        mix([(0.4, psi), (0.4, psi)])


def test_normalizing_a_state_without_a_norm_raises():
    # a packet the grid holds nothing of has norm 0; dividing by it wrote NaN
    with pytest.raises(StateError, match="norm"):
        coherent_state(1000.0, 0.0, G, K, check=None)
    for fill in (0.0, np.nan, np.inf):
        with pytest.raises(StateError, match="norm"):
            WaveFunction(np.full(G.shape, fill, complex), G, K).normalized()


def test_gauge_rotate_constant_chi_leaves_density_matrix():
    rho = density_from_pure(coherent_state(0.5, 0.3, G, K))
    chi = GaugeFn(Poly.const(1, 3.7))
    rot = gauge_rotate(rho, chi, +1)
    assert np.abs(rot.values - rho.values).max() <= 1e-14


def test_gauge_rotate_preserves_position_density():
    psi = coherent_state(0.5, 0.3, G, K)
    chi = GaugeFn(Poly(1, {(2, 0): 0.8, (1, 0): -0.3}))
    rot = gauge_rotate(psi, chi, +1)
    assert np.abs(rot.position_density() - psi.position_density()).max() <= 1e-14


def test_gauge_rotate_round_trip():
    psi = coherent_state(0.5, 0.3, G, K)
    chi = GaugeFn(Poly(1, {(3, 0): 0.2}))
    back = gauge_rotate(gauge_rotate(psi, chi, +1), chi, -1)
    assert np.abs(back.values - psi.values).max() <= 1e-14


def test_gauge_rotate_preserves_trace_purity_diagonal():
    rho = mix([(0.3, coherent_state(0.8, 0.1, G, K)),
               (0.7, coherent_state(-0.6, -0.4, G, K))])
    chi = GaugeFn(Poly(1, {(2, 0): 0.5}))
    rot = gauge_rotate(rho, chi, +1)
    assert abs(rot.trace() - rho.trace()) <= 1e-12
    assert abs(rot.purity() - rho.purity()) <= 1e-12
    assert np.abs(rot.diagonal() - rho.diagonal()).max() <= 1e-14
    # eigenvalues preserved under the unitary conjugation
    dq = G.axes[0].spacing
    ev1 = np.linalg.eigvalsh(rho.values * dq)
    ev2 = np.linalg.eigvalsh(rot.values * dq)
    assert np.abs(np.sort(ev1) - np.sort(ev2)).max() <= 1e-10


def test_gauge_tags_compose():
    psi = coherent_state(0.0, 0.0, G, K, gauge_tag="base")
    chi = GaugeFn(Poly(1, {(1, 0): 1.0}), tag="lin")
    assert gauge_rotate(psi, chi, +1).gauge_tag == "base|lin"
    assert gauge_rotate(psi, chi, +1, tag="custom").gauge_tag == "custom"


def test_phase_rotate_matrix_and_components_agree():
    k = Constants()
    g2 = QGrid.regular(2, 16, 0.5)
    psi = coherent_state([0.2, -0.1], [0.1, 0.0], g2, k, check=None)
    rho = density_from_pure(psi)   # components in 2-D
    theta = 0.3 * np.add.outer(g2.axes[0].points, g2.axes[1].points)
    rot = phase_rotate(rho, theta)
    kern = rot.as_kernel()
    ph = np.exp(1j * theta).ravel()
    expected = (ph[:, None] * rho.as_kernel().reshape(256, 256) * ph.conj()[None, :])
    assert np.abs(kern.reshape(256, 256) - expected).max() <= 1e-13


def test_2d_purity_from_components():
    k = Constants()
    g2 = QGrid.regular(2, 16, 0.5)
    psi1 = coherent_state([1.2, 0.0], [0.0, 0.0], g2, k, check=None)
    psi2 = coherent_state([-1.2, 0.0], [0.0, 0.0], g2, k, check=None)
    rho = mix([(0.5, psi1), (0.5, psi2)])
    ovl = abs(integrate(np.conj(psi1.values) * psi2.values, g2)) ** 2
    expected = 0.25 + 0.25 + 0.5 * ovl
    assert abs(rho.purity() - expected) <= 1e-12


def test_kernel_diagonal_matches_components():
    # a kernel-only state, as every reconstruction returns, reads its diagonal
    # off the kernel; the 2-D mixture it came from, off its components
    g2 = QGrid.regular(2, 16, 0.5)
    rho = mix([(0.3, coherent_state([1.2, 0.0], [0.0, 0.5], g2, K, check=None)),
               (0.7, coherent_state([-1.0, 0.4], [0.2, 0.0], g2, K, check=None))])
    kernel_only = DensityMatrix(g2, K, values=rho.as_kernel())
    assert np.abs(kernel_only.diagonal() - rho.diagonal()).max() <= 1e-15 * rho.diagonal().max()


def test_gaussian_packet_widths():
    psi = gaussian_packet(0.0, 0.0, 0.5, G, K)
    dens = psi.position_density()
    x = G.axes[0].points
    var = integrate(dens * x**2, G)
    assert abs(var - 0.25) <= 1e-8


@pytest.mark.parametrize("width", [1e-160, 1e-200, 0.0, -0.5, np.nan, np.inf,
                                   0.999 * NARROWEST_WIDTH * G.axes[0].spacing])
def test_gaussian_packet_refuses_a_width_before_its_exponent(width):
    # a width near 1e-154 overflowed the packet's exponent: 1e-160 warned and
    # returned the one-node state, 1e-200 warned before its NaN norm raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="widths"):
            gaussian_packet(0.0, 0.0, width, G, K, check=None)
        narrowest = gaussian_packet(0.0, 0.0, NARROWEST_WIDTH * G.axes[0].spacing, G, K,
                                    check=None)
    assert abs(narrowest.norm() - 1.0) <= 1e-12
