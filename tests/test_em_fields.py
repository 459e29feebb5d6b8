import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gipsp import Constants, FieldError, GaugeField, GaugeFn, Poly, chord_integral, \
    radial_phase

from helpers import random_poly

K = Constants()


def test_poly_evaluation_and_derivatives():
    p = Poly(2, {(2, 0, 0): 1.0, (0, 1, 1): 3.0, (0, 0, 0): -2.0})  # x^2 + 3 y t - 2
    assert p([1.0, 2.0], t=2.0) == pytest.approx(1 + 12 - 2)
    assert p.diff(0)([1.5, 0.0], 0.0) == pytest.approx(3.0)
    assert p.diff("t")([0.0, 2.0], 5.0) == pytest.approx(6.0)
    assert p.degree == 2 and not p.is_static
    xs = np.linspace(-1, 1, 5)
    assert p([xs, 0.0 * xs], 0.0).shape == (5,)


def test_uniform_b_presets():
    sym = GaugeField.uniform_b(2.0, "symmetric")
    a, _ = sym.potentials([1.0, 3.0], 0.0)
    assert a[0] == pytest.approx(-3.0) and a[1] == pytest.approx(1.0)
    lan = GaugeField.uniform_b(2.0, "landau")
    a, _ = lan.potentials([1.0, 3.0], 0.0)
    assert a[0] == pytest.approx(-6.0) and a[1] == pytest.approx(0.0)
    with pytest.raises(FieldError):
        GaugeField.uniform_b(1.0, "weyl")


def test_gauged_landau_equals_symmetric():
    b = 1.7
    lan = GaugeField.uniform_b(b, "landau")
    chi = GaugeFn(Poly(2, {(1, 1, 0): b / 2}))
    gauged = lan.gauged(chi, K)
    sym = GaugeField.uniform_b(b, "symmetric")
    pts = [np.linspace(-2, 2, 7), np.linspace(-1, 3, 7)]
    for comp_g, comp_s in zip(gauged.a, sym.a):
        assert np.abs(comp_g(pts, 0.0) - comp_s(pts, 0.0)).max() <= 1e-14


def test_field_strengths():
    lan = GaugeField.uniform_b(1.3, "landau")
    e, f = lan.field_strengths([0.5, -0.5], 0.0, K)
    assert abs(e[0]) + abs(e[1]) <= 1e-15
    assert list(f) == [(0, 1)] and f[0, 1] == pytest.approx(1.3)
    # any polynomial gauge layer leaves E and B untouched
    rng = np.random.default_rng(2)
    chi = GaugeFn(random_poly(2, 3, rng, time_dependent=True))
    gauged = lan.gauged(chi, K)
    pts = [np.linspace(-2, 2, 9), np.linspace(-2, 2, 9)]
    for t in (0.0, 0.7):
        e1, f1 = lan.field_strengths(pts, t, K)
        e2, f2 = gauged.field_strengths(pts, t, K)
        assert np.abs(np.asarray(f1[0, 1]) - np.asarray(f2[0, 1])).max() <= 1e-12
        for c1, c2 in zip(e1, e2):
            assert np.abs(np.asarray(c1) - np.asarray(c2)).max() <= 1e-12


def test_uniform_e():
    fld = GaugeField.uniform_e([0.3, -0.2])
    e, f = fld.field_strengths([1.0, 1.0], 0.0, K)
    assert e[0] == pytest.approx(0.3) and e[1] == pytest.approx(-0.2)
    assert list(f) == [(0, 1)] and f[0, 1] == pytest.approx(0.0)
    e, f = GaugeField.uniform_e([0.3]).field_strengths([1.0], 0.0, K)
    assert e[0] == pytest.approx(0.3) and f == {}


def _complex_step(poly, pts, t, axis, h=1e-20):
    """d poly / d q_axis at ``pts`` by a complex step: exact to round-off for
    a polynomial, and free of ``Poly.diff``."""
    shifted = [x + 1j * h if i == axis else x for i, x in enumerate(pts)]
    return poly(shifted, t).imag / h


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_field_tensor_random(dim, seed):
    # F_ij = d_i A_j - d_j A_i has one entry per axis pair i < j, and a gauge
    # layer leaves every entry unchanged
    rng = np.random.default_rng(seed)
    fld = GaugeField.from_polynomials(
        [random_poly(dim, 3, rng, time_dependent=True) for _ in range(dim)])
    chi = GaugeFn(random_poly(dim, 4, rng, time_dependent=True))
    f_polys, gauged = fld.f_polys(), fld.gauged(chi, K).f_polys()
    assert len(f_polys) == dim * (dim - 1) // 2
    assert list(gauged) == list(f_polys)
    pts, t = list(rng.uniform(-2.0, 2.0, size=(dim, 16))), float(rng.uniform(0.0, 2.0))
    for pair, poly in f_polys.items():
        assert np.abs(poly(pts, t) - gauged[pair](pts, t)).max() <= 1e-12
    if dim == 2:
        curl = (_complex_step(fld.a[1], pts, t, 0) - _complex_step(fld.a[0], pts, t, 1))
        assert np.abs(f_polys[0, 1](pts, t) - curl).max() <= 1e-12


def test_time_dependent_gauge_changes_phi():
    base = GaugeField.free(1)
    chi = GaugeFn(Poly(1, {(1, 1): 2.0}))  # chi = 2 x t
    k = Constants(light_speed=4.0)
    gauged = base.gauged(chi, k)
    _, phi = gauged.potentials([1.5], t=3.0)
    # phi' = -(1/c) d(chi)/dt = -(2 x)/c
    assert phi == pytest.approx(-2.0 * 1.5 / 4.0)
    a, _ = gauged.potentials([1.5], t=3.0)
    assert a[0] == pytest.approx(2.0 * 3.0)  # grad chi = 2 t


def test_chord_integral_linear_field_is_pointwise():
    lan = GaugeField.uniform_b(1.0, "landau")
    q = [np.array([0.4]), np.array([-0.3])]
    u = [np.array([1.2]), np.array([0.8])]
    integ = chord_integral(lan, q, u, 0.0)
    a_at_q, _ = lan.potentials(q, 0.0)
    for ic, ac in zip(integ, a_at_q):
        assert np.abs(ic - ac).max() <= 1e-14


def test_chord_integral_zero_field():
    fld = GaugeField.free(2)
    integ = chord_integral(fld, [0.5, 0.1], [1.0, 2.0], 0.0)
    assert all(abs(np.asarray(c)).max() == 0.0 for c in integ)


def test_chord_integral_quadratic_frozen_value():
    # A_x = x^2 along the chord q=(1,0), u=(2,0): integral of (1+2 tau)^2 = 4/3
    fld = GaugeField.from_polynomials([Poly(2, {(2, 0, 0): 1.0}), Poly.zero(2)])
    integ = chord_integral(fld, [1.0, 0.0], [2.0, 0.0], 0.0)
    assert integ[0] == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_chord_integral_against_dense_quadrature():
    rng = np.random.default_rng(8)
    fld = GaugeField.from_polynomials([random_poly(2, 3, rng), random_poly(2, 3, rng)])
    q = [0.4, -0.7]
    u = [1.3, 0.6]
    taus = np.linspace(-0.5, 0.5, 20001)
    for i in range(2):
        vals = fld.a[i]([q[0] + taus * u[0], q[1] + taus * u[1]], 0.0)
        oracle = np.trapezoid(vals, taus)
        got = chord_integral(fld, q, u, 0.0)[i]
        assert abs(got - oracle) <= 1e-9


def test_chord_gauge_covariance():
    rng = np.random.default_rng(21)
    base = GaugeField.uniform_b(0.8, "landau")
    for trial in range(5):
        chi = GaugeFn(random_poly(2, 3, rng))
        gauged = base.gauged(chi, K)
        q = rng.normal(size=2)
        u = rng.normal(size=2)
        d = [a - b for a, b in zip(chord_integral(gauged, q, u, 0.0),
                                   chord_integral(base, q, u, 0.0))]
        lhs = u[0] * d[0] + u[1] * d[1]
        rhs = chi([q[0] + u[0] / 2, q[1] + u[1] / 2], 0.0) \
            - chi([q[0] - u[0] / 2, q[1] - u[1] / 2], 0.0)
        assert abs(lhs - rhs) <= 1e-12


def test_radial_phase_symmetric_gauge_vanishes():
    sym = GaugeField.uniform_b(2.5, "symmetric")
    xs = np.linspace(-3, 3, 11)
    lam = radial_phase(sym, [xs[:, None], xs[None, :]], 0.0, K)
    assert np.abs(lam).max() <= 1e-13


def test_radial_phase_landau_closed_form():
    b = 1.4
    lan = GaugeField.uniform_b(b, "landau")
    x, y = 0.7, -1.1
    lam = radial_phase(lan, [x, y], 0.0, K)
    assert lam == pytest.approx(-(b / 2) * x * y, abs=1e-13)


def test_radial_phase_pure_gauge_is_potential_difference():
    rng = np.random.default_rng(4)
    chi = GaugeFn(random_poly(2, 4, rng))
    pure = GaugeField.free(2).gauged(chi, K)
    q = [1.1, -0.6]
    # line-integral oracle along the ray from the origin
    taus = np.linspace(0.0, 1.0, 40001)
    integrand = sum(
        q[i] * pure.a[i]([taus * q[0], taus * q[1]], 0.0) for i in range(2))
    oracle = (K.charge / (K.hbar * K.light_speed)) * np.trapezoid(integrand, taus)
    got = radial_phase(pure, q, 0.0, K)
    assert abs(got - oracle) <= 1e-9
    # fundamental theorem along the ray: (e/hbar c)(chi(q) - chi(0))
    expected = (K.charge / (K.hbar * K.light_speed)) * (chi(q, 0.0) - chi([0.0, 0.0], 0.0))
    assert got == pytest.approx(expected, abs=1e-12)


def test_radial_phase_gauge_shift():
    rng = np.random.default_rng(14)
    base = GaugeField.uniform_b(0.6, "landau")
    for trial in range(5):
        chi = GaugeFn(random_poly(2, 3, rng))
        gauged = base.gauged(chi, K)
        q = rng.normal(size=2)
        shift = radial_phase(gauged, q, 0.0, K) - radial_phase(base, q, 0.0, K)
        expected = (K.charge / (K.hbar * K.light_speed)) \
            * (chi(q, 0.0) - chi([0.0, 0.0], 0.0))
        assert abs(shift - expected) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_ray_gauge_random(dim, seed):
    # chi_P = q . integral_0^1 A(tau q, t) dtau for a random polynomial A
    # with time terms: it vanishes at the origin, the layer -chi_P takes A
    # into the Poincare gauge, a gauge layer chi shifts it by chi - chi(0),
    # and it matches a 12-node Gauss-Legendre rule along the ray
    rng = np.random.default_rng(seed)
    fld = GaugeField.from_polynomials([random_poly(dim, 4, rng, time_dependent=True)
                                       for _ in range(dim)])
    chi = GaugeFn(random_poly(dim, 3, rng, time_dependent=True))
    q, t = list(rng.normal(size=(dim, 6))), float(rng.normal())
    origin = [np.zeros(6)] * dim
    chi_p = fld.ray_gauge()
    taus, weights = np.polynomial.legendre.leggauss(12)
    ray = sum(0.5 * w * qi * a([0.5 * (1 + tau) * x for x in q], t)
              for tau, w in zip(taus, weights) for qi, a in zip(q, fld.a))
    tol = 1e-12 * (1.0 + np.abs(ray).max())
    assert np.all(chi_p(origin, t) == 0.0)
    assert np.abs(chi_p(q, t) - ray).max() <= tol
    poincare = fld.gauged(GaugeFn(-chi_p.poly), K)
    assert np.abs(sum(qi * a(q, t) for qi, a in zip(q, poincare.a))).max() <= tol
    shift = fld.gauged(chi, K).ray_gauge()(q, t) - chi_p(q, t)
    expected = chi(q, t) - chi(origin, t)
    assert np.abs(shift - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max()) + tol


def test_superposition():
    b, e = GaugeField.uniform_b(1.0, "landau"), GaugeField.uniform_e([0.1, 0.0])
    fld = b + e
    assert fld.a == tuple(x + y for x, y in zip(b.a, e.a))
    assert fld.phi == b.phi + e.phi
    assert fld.tag == f"{b.tag}+{e.tag}"
    with pytest.raises(FieldError):
        fld + GaugeField.uniform_e([0.1])
