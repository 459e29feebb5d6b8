from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from gipsp import (Constants, EvolutionSpec, GaugeField, GaugeFn, PhaseGrid, Poly,
                   PropagatorError, QGrid, coherent_state, density_from_pure,
                   gauge_rotate, gaussian_phase_function, husimi_from_wigner,
                   husimi_gauge_rhs, liouville_propagate, liouville_rhs,
                   moyal_gauge_rhs, propagate_phase_space, schrodinger_propagate,
                   wigner_from_husimi, wigner_gauge_stratonovich)
from gipsp import dynamics
from gipsp.acceptance import (dense_time_derivative, hbar_order, landau_pair, linear_b_field,
                              rigid_state)
from gipsp.dynamics import (_characteristics_flow, _propagate_with, _rk4_flow, _RhsEvaluator,
                            _trace_back, dense_hamiltonian, energy_expectation, evolve)
from gipsp.lattice import spectral_derivative, wavenumbers

K = Constants()


def _wig_moments(W):
    cell = W.grid.cell
    q = [float((W.values * m).sum() * cell) for m in W.grid.q_mesh()]
    p = [float((W.values * m).sum() * cell) for m in W.grid.p_mesh()]
    return np.array(q), np.array(p)


def _classical_orbit(q0, p0, omega, m, t):
    ct, st = np.cos(omega * t), np.sin(omega * t)
    p_t = np.array([ct * p0[0] + st * p0[1], -st * p0[0] + ct * p0[1]])
    q_t = q0 + (1.0 / (m * omega)) * np.array(
        [st * p0[0] + (1 - ct) * p0[1], -(1 - ct) * p0[0] + st * p0[1]])
    return q_t, p_t


# ---------------------------------------------------------------------------
# classical transport
# ---------------------------------------------------------------------------

def test_free_streaming():
    g = QGrid.regular(1, 64, 0.3)
    pg = PhaseGrid.wigner(g, K.hbar)
    F0 = gaussian_phase_function(pg, K, 0.0, 0.8, 0.8, 0.7)
    spec = EvolutionSpec(GaugeField.free(1), dt=0.05, t_final=1.5, propagator="liouville")
    F1 = liouville_propagate(F0, spec)
    qm, = F1.grid.q_mesh()
    pm, = F1.grid.p_mesh()
    base = np.exp(-(qm**2) / (2 * 0.8**2) - (pm - 0.8) ** 2 / (2 * 0.7**2))
    norm = base.sum() * F1.grid.cell
    exact = np.exp(-((qm - pm * 1.5) ** 2) / (2 * 0.8**2)
                   - (pm - 0.8) ** 2 / (2 * 0.7**2)) / norm
    assert np.abs(F1.values - exact).max() <= 1e-4


def test_cyclotron_period_returns():
    b = 0.5
    g = QGrid.regular(2, 16, 0.55)
    pg = PhaseGrid.wigner(g, K.hbar)
    fld = GaugeField.uniform_b(b, "landau")
    period = 2 * np.pi * K.mass * K.light_speed / (abs(K.charge) * b)
    F0 = gaussian_phase_function(pg, K, [0.5, -0.3], [0.4, 0.2], 0.8, 0.8)
    spec = EvolutionSpec(fld, dt=period / 128, t_final=period, propagator="liouville")
    F1 = liouville_propagate(F0, spec)
    assert np.abs(F1.values - F0.values).max() <= 1e-4


def test_uniform_e_drift():
    g = QGrid.regular(1, 64, 0.3)
    pg = PhaseGrid.wigner(g, K.hbar)
    fld = GaugeField.uniform_e([0.3])
    F0 = gaussian_phase_function(pg, K, 0.0, 0.0, 0.8, 0.7)
    spec = EvolutionSpec(fld, dt=0.05, t_final=2.0, propagator="liouville")
    F1 = liouville_propagate(F0, spec)
    pm, = F1.grid.p_mesh()
    p_mean = float((F1.values * pm).sum() * F1.grid.cell)
    assert abs(p_mean - 0.3 * 2.0) <= 1e-6


def _lorentz_ode(fld):
    """The characteristic ODE for points stacked as (q, p) rows."""
    dim = fld.dim

    def rhs(t, y):
        q, p = np.split(y.reshape(2 * dim, -1), 2)
        e_vals, f_vals = fld.field_strengths(list(q), t, K)
        force = [K.charge * e for e in e_vals]
        if f_vals:
            b = f_vals[0, 1]
            force[0] = force[0] + K.charge * p[1] * b / (K.mass * K.light_speed)
            force[1] = force[1] - K.charge * p[0] * b / (K.mass * K.light_speed)
        return np.concatenate([p.ravel() / K.mass] + [np.ravel(f) for f in force])
    return rhs


def _boris_starts(pg, fld, points, t, dt):
    """The starts of ``points`` (q, then p) traced back from t to 0 through the
    shears of the stepped Liouville route in steps of about ``dt``."""
    return _trace_back(_characteristics_flow(pg, EvolutionSpec(fld, dt, t, "liouville"), K),
                       points)


def _boris_against_ode(fld, points, t, dt):
    """The largest gap between the Boris starts of ``points`` and those of
    ``solve_ivp`` (tolerances 1e-12) run backward from t to 0."""
    pg = PhaseGrid.wigner(QGrid.regular(fld.dim, 8, 0.5), K.hbar)
    sol = solve_ivp(_lorentz_ode(fld), [t, 0.0], np.concatenate(points), rtol=1e-12, atol=1e-12)
    starts = _boris_starts(pg, fld, points, t, dt)
    return np.abs(np.concatenate(starts) - sol.y[:, -1]).max()


def test_boris_against_exact_uniform_map():
    fld = GaugeField.uniform_b(0.8, "landau") + GaugeField.uniform_e([0.1, -0.2])
    rng = np.random.default_rng(6)
    assert _boris_against_ode(fld, [rng.normal(size=5) for _ in range(4)], 0.5, 5e-4) <= 1e-5


def test_boris_nonuniform_against_ode_oracle():
    points = [np.array([x]) for x in (0.4, -0.2, 0.3, 0.1)]
    assert _boris_against_ode(linear_b_field(0.5, 0.2), points, 1.2, 2e-4) <= 1e-6


def test_boris_time_dependent_against_ode_oracle():
    # the kicks of E = -d/dq of phi = 0.3 q^2 + 0.05 q^3 t, rebuilt at each t_mid
    rng = np.random.default_rng(7)
    assert _boris_against_ode(_cubic_t_field(), [rng.normal(size=5) for _ in range(2)],
                              1.0, 2e-4) <= 1e-6


def _transported_gauge_pair(turn, rho):
    """A state in the Landau gauge of ``acceptance.landau_pair`` and its twin
    rotated by the pair's chi, each transported in its own gauge through
    ``turn`` cyclotron periods."""
    k, g, landau, chi, _, _, gauged = landau_pair()
    period = 2 * np.pi / 0.5
    return [liouville_propagate(wigner_gauge_stratonovich(r, f),
                                EvolutionSpec(f, dt=period / 128, t_final=turn * period,
                                              propagator="liouville"))
            for r, f in ((rho, landau), (gauge_rotate(rho, chi, +1), gauged))]


def test_transport_gauge_independence():
    # after a quarter turn about 5% of the mass has crossed the box edge
    # (wrapped_mass 0.049); both gauges wrap alike
    out1, out2 = _transported_gauge_pair(1 / 4, landau_pair()[4])
    assert np.abs(out1.values - out2.values).max() <= 1e-6


def test_transport_gauge_independence_box_held():
    # a tighter packet at the center of a finer box, turned by 15 degrees: the
    # box holds the state (30% of the peak has moved).  On 32 points per axis
    # the edge layer of a coherent state's chord Wigner function carries about
    # 1.5e-8 at best before any motion: the chord pairs the amplitude tail at
    # the q edge with the peak, and a wider q box is a narrower p box
    psi = coherent_state((0.0, 0.0), (0.0, 0.0), QGrid.regular(2, 32, 0.28),
                         Constants(lam=1.6), gauge_tag=landau_pair()[2].tag)
    pair = _transported_gauge_pair(1 / 24, density_from_pure(psi))
    assert np.abs(pair[0].values - pair[1].values).max() <= 1e-6
    assert max(out.diagnostics["wrapped_mass"] for out in pair) <= 1e-7


def _gaussian_at(points, centers, widths):
    """exp(-|x - c|^2 / 2 w^2) of the given centers and widths (q, then p) at ``points``."""
    dim = len(centers[0])
    return np.exp(sum(-((x - c) ** 2) / (2 * w**2) for x, c, w in
                      zip(points, centers[0] + centers[1], [widths[0]] * dim + [widths[1]] * dim)))


def _cubic_t_field():
    """phi = 0.3 q^2 + 0.05 q^3 t in 1-D."""
    return GaugeField.from_polynomials([Poly.zero(1)], Poly(1, {(2, 0): 0.3, (3, 1): 0.05}),
                                       tag="cubic_t")


def _liouville_against_characteristics(pg, fld, centers, widths, t, dt, ref_dt):
    """The Liouville route (stepped, or the exact flow of a static uniform
    field) from a Gaussian, and the Gaussian at the starts of the nodes'
    characteristics traced back with ``ref_dt``."""
    f0 = gaussian_phase_function(pg, K, *centers, *widths)
    f1 = liouville_propagate(f0, EvolutionSpec(fld, dt=dt, t_final=t, propagator="liouville"))
    starts = _boris_starts(pg, fld, pg.q_mesh() + pg.p_mesh(), t, ref_dt)
    scale = f0.values.max() / _gaussian_at(pg.q_mesh() + pg.p_mesh(), centers, widths).max()
    return f0, f1, scale * _gaussian_at(starts, centers, widths)


def test_stepped_liouville_against_characteristics_2d():
    # a Gaussian the box holds (edge values at most 2.7e-7 of its maximum) in
    # B = 1 + 0.2 x, ten steps: the route reads 1.5e-5 of max; the cubic
    # spline it replaced missed the same reference by 1.6e-3
    pg = PhaseGrid.wigner(QGrid.regular(2, 16, 0.5), K.hbar)
    centers, widths = ([0.0, 0.0], [0.0, 0.0]), (0.6, 0.5)
    f0, f1, exact = _liouville_against_characteristics(pg, linear_b_field(1.0, 0.2), centers,
                                                       widths, 0.12, 0.012, 1.2e-4)
    edge = max(np.take(f0.values, i, axis=a).max() for a in range(4) for i in (0, -1))
    assert edge <= 3e-7 * f0.values.max()
    assert np.abs(f1.values - exact).max() <= 1e-4 * exact.max()
    assert abs(f1.diagnostics["mass_drift"]) <= 1e-12 * f0.integrate()


def test_stepped_liouville_against_characteristics_1d_time_dependent():
    # E = -d/dq of phi = 0.3 q^2 + 0.05 q^3 t: the kicks are rebuilt at each
    # t_mid.  The gap is second order in the step: 1.7e-4 of max at dt 0.05,
    # 2.7e-5 at 0.02, 6.7e-6 at 0.01
    pg = PhaseGrid.wigner(QGrid.regular(1, 64, 0.25), K.hbar)
    centers, widths = ([0.4], [-0.3]), (0.7, 0.6)
    f0, f1, exact = _liouville_against_characteristics(pg, _cubic_t_field(), centers, widths,
                                                       1.0, 0.02, 2e-4)
    assert np.abs(f1.values - exact).max() <= 1e-4 * exact.max()
    assert abs(f1.diagnostics["mass_drift"]) <= 1e-12 * f0.integrate()
    # the box holds the packet, so next to nothing wraps
    assert f1.diagnostics["wrapped_mass"] <= 1e-7


def test_stepped_liouville_turn_beyond_a_quarter():
    # one step turns p by e B h/mc = 2 (B = 4 + x at x = 0), up to 3.9 over
    # the box: three pieces of three shears; against the same map traced back
    pg = PhaseGrid.wigner(QGrid.regular(2, 16, 0.5), K.hbar)
    centers, widths = ([0.1, -0.2], [0.3, 0.0]), (0.6, 0.6)
    _, f1, exact = _liouville_against_characteristics(pg, linear_b_field(4.0, 1.0), centers,
                                                      widths, 0.5, 0.5, 0.5)
    assert np.abs(f1.values - exact).max() <= 5e-4 * exact.max()


def test_stepped_liouville_reports_the_wrap():
    # a packet pushed across the q edge comes back through it, mass intact
    pg = PhaseGrid.wigner(QGrid.regular(2, 16, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [2.5, 0.0], [1.5, 0.0], 0.6, 0.5)
    f1 = liouville_propagate(f0, EvolutionSpec(linear_b_field(0.5, 0.1), dt=0.05, t_final=1.0,
                                               propagator="liouville"))
    assert f1.diagnostics["wrapped_mass"] >= 0.1 * f0.integrate()
    assert f1.diagnostics["outside_fraction"] > 0
    assert abs(f1.diagnostics["mass_drift"]) <= 1e-12 * f0.integrate()


# ---------------------------------------------------------------------------
# Schroedinger propagation
# ---------------------------------------------------------------------------

def test_free_dispersion_closed_form():
    g = QGrid.regular(1, 128, 0.15)
    psi0 = coherent_state(0.0, 0.0, g, K)
    spec = EvolutionSpec(GaugeField.free(1), dt=0.1, t_final=1.0,
                         propagator="schrodinger_dense")
    psi = schrodinger_propagate(psi0, spec)
    x = g.axes[0].points
    z = 1 + 1j * 1.0
    exact = np.pi**-0.25 * z**-0.5 * np.exp(-x**2 / (2 * z))
    assert np.abs(psi.values - exact).max() <= 1e-6
    assert abs(psi.norm() - 1.0) <= 1e-12


def test_cyclotron_ehrenfest():
    b = 1.0
    k = Constants(lam=0.5)
    g = QGrid.regular(2, 32, 0.4)
    sym = GaugeField.uniform_b(b, "symmetric")
    psi0 = rigid_state(g, sym, k)
    omega = k.charge * b / (k.mass * k.light_speed)
    period = 2 * np.pi / omega
    w0 = wigner_gauge_stratonovich(density_from_pure(psi0), sym)
    q0m, p0m = _wig_moments(w0)
    t = period / 3
    psi_t = schrodinger_propagate(
        psi0, EvolutionSpec(sym, dt=0.05, t_final=t, propagator="schrodinger_dense"))
    w_t = wigner_gauge_stratonovich(density_from_pure(psi_t), sym, threshold=None)
    q_t, p_t = _wig_moments(w_t)
    q_cl, p_cl = _classical_orbit(q0m, p0m, omega, k.mass, t)
    assert np.abs(q_t - q_cl).max() <= 1e-4
    assert np.abs(p_t - p_cl).max() <= 1e-4


def test_energy_and_norm_conservation_dense():
    b = 1.0
    k = Constants(lam=0.5)
    g = QGrid.regular(2, 32, 0.4)
    sym = GaugeField.uniform_b(b, "symmetric")
    psi0 = rigid_state(g, sym, k)
    e0 = energy_expectation(psi0, sym)
    psi_t = schrodinger_propagate(
        psi0, EvolutionSpec(sym, dt=0.1, t_final=3.7, propagator="schrodinger_dense"))
    assert abs(energy_expectation(psi_t, sym) - e0) <= 1e-8
    assert abs(psi_t.norm() - 1.0) <= 1e-12


def test_gauge_relation_of_propagators_1d():
    # A -> A + d(chi)/dx with a quadratic chi; n=128 and a short window keep
    # the dispersing state exponentially dead where the chi phase wraps
    g = QGrid.regular(1, 128, 0.15)
    base = GaugeField.from_polynomials(
        [Poly(1, {(1, 0): 0.3})], Poly(1, {(1, 0): -0.2}), tag="ax")
    chi = GaugeFn(Poly(1, {(2, 0): 0.3}), tag="x2")
    gauged = base.gauged(chi, K)
    psi0 = coherent_state(0.3, -0.2, g, K, gauge_tag=base.tag)
    t = 0.8
    direct = schrodinger_propagate(
        psi0, EvolutionSpec(base, dt=0.05, t_final=t, propagator="schrodinger_dense"))
    twin = schrodinger_propagate(
        gauge_rotate(psi0, chi, +1),
        EvolutionSpec(gauged, dt=0.05, t_final=t, propagator="schrodinger_dense"))
    counter = gauge_rotate(twin, chi, -1)
    assert np.abs(direct.values - counter.values).max() <= 1e-10


def test_gauge_relation_of_propagators_2d():
    # desk-scale boxes leave the state at ~1e-4 point level where the
    # (B/2)xy phase wraps, which bounds the achievable agreement; the sharp
    # version of this statement is the 1-D test above
    b = 1.0
    k = Constants(lam=0.5)
    g = QGrid.regular(2, 32, 0.4)
    landau = GaugeField.uniform_b(b, "landau")
    sym = GaugeField.uniform_b(b, "symmetric")
    chi = GaugeFn(Poly(2, {(1, 1, 0): b / 2.0}), tag="bxy_half")
    gauged = landau.gauged(chi, k)
    psi_sym = rigid_state(g, sym, k)
    psi0 = gauge_rotate(psi_sym, chi, -1, tag=landau.tag)
    t = 1.3
    direct = schrodinger_propagate(
        psi0, EvolutionSpec(landau, dt=0.05, t_final=t, propagator="schrodinger_dense"))
    rotated = gauge_rotate(psi0, chi, +1)
    twin = schrodinger_propagate(
        rotated, EvolutionSpec(gauged, dt=0.05, t_final=t,
                               propagator="schrodinger_dense"))
    counter = gauge_rotate(twin, chi, -1)
    assert np.abs(direct.values - counter.values).max() <= 2e-4


def _assert_split_is_dense(psi0, fld, dt, t):
    # the Chebyshev series and eigh apply the same exp(-i H h/hbar) per step
    split, dense = (schrodinger_propagate(psi0, EvolutionSpec(fld, dt=dt, t_final=t,
                                                              propagator=propagator))
                    for propagator in ("schrodinger_split", "schrodinger_dense"))
    assert np.abs(split.values - dense.values).max() <= 1e-12 * np.abs(dense.values).max()
    assert abs(split.norm() - psi0.norm()) <= 1e-12


def test_split_matches_dense():
    k = Constants(lam=0.5)
    g = QGrid.regular(2, 32, 0.4)
    sym = GaugeField.uniform_b(1.0, "symmetric")
    _assert_split_is_dense(rigid_state(g, sym, k), sym, 0.01, 0.8)


def test_split_runs_any_gauge_1d():
    # A_x = 0.5 x depends on x
    fld = GaugeField.from_polynomials([Poly(1, {(1, 0): 0.5})], tag="ax_self")
    g = QGrid.regular(1, 64, 0.3)
    _assert_split_is_dense(coherent_state(0.0, 0.0, g, K, gauge_tag=fld.tag), fld, 0.01, 0.1)


def test_split_matches_dense_in_a_rotated_gradient_b():
    # B = 1 + 0.2 x with A_x = 0.2 x y after chi = 0.1 x^2 y
    fld = linear_b_field(1.0, 0.2).gauged(GaugeFn(Poly(2, {(2, 1, 0): 0.1}), tag="x2y"), K)
    g = QGrid.regular(2, 16, 0.5)
    psi0 = coherent_state((0.3, -0.2), (0.2, 0.1), g, K, gauge_tag=fld.tag, check=None)
    _assert_split_is_dense(psi0, fld, 0.05, 1.0)


def test_split_matches_dense_time_dependent():
    # both routes take H(t_mid) per step: ten steps here
    fld = GaugeField.from_polynomials(
        [Poly(2, {(0, 1, 0): -0.5, (0, 1, 1): -0.2}), Poly(2, {(2, 0, 0): 0.1})],
        Poly(2, {(2, 0, 1): 0.05, (0, 2, 0): 0.1}), tag="driven")
    g = QGrid.regular(2, 16, 0.5)
    psi0 = coherent_state((0.3, -0.2), (0.2, 0.1), g, K, gauge_tag=fld.tag, check=None)
    _assert_split_is_dense(psi0, fld, 0.05, 0.5)


def test_split_runs_above_the_dense_limit():
    # 2-D n=128 (16384 points): a gradient B whose A_x depends on x, and its
    # twin rotated by chi; the state is below 1e-19 of its peak at the edges
    g = QGrid.regular(2, 128, 0.15)
    fld = linear_b_field(1.0, 0.2).gauged(GaugeFn(Poly(2, {(2, 1, 0): 0.1}), tag="x2y"), K)
    chi = GaugeFn(Poly(2, {(1, 2, 0): 0.05, (2, 0, 0): 0.1}), tag="xy2")
    psi0 = coherent_state((0.3, -0.2), (0.2, 0.1), g, K, gauge_tag=fld.tag, check=None)
    direct = schrodinger_propagate(
        psi0, EvolutionSpec(fld, dt=0.05, t_final=0.1, propagator="schrodinger_split"))
    twin = schrodinger_propagate(
        gauge_rotate(psi0, chi, +1),
        EvolutionSpec(fld.gauged(chi, K), dt=0.05, t_final=0.1, propagator="schrodinger_split"))
    assert abs(direct.norm() - psi0.norm()) <= 1e-12
    assert np.abs(direct.values - gauge_rotate(twin, chi, -1).values).max() <= 1e-10


def test_dense_grid_size_guard():
    g = QGrid.regular(2, 128, 0.1)
    with pytest.raises(PropagatorError):
        dense_hamiltonian(g, GaugeField.uniform_b(1.0, "landau"), K)


# ---------------------------------------------------------------------------
# phase-space right-hand sides
# ---------------------------------------------------------------------------

def test_moyal_equals_liouville_for_uniform_fields():
    b = 1.0
    k = Constants(lam=0.5)
    g = QGrid.regular(2, 32, 0.4)
    sym = GaugeField.uniform_b(b, "symmetric")
    w0 = wigner_gauge_stratonovich(density_from_pure(rigid_state(g, sym, k)), sym)
    rhs_m = moyal_gauge_rhs(w0, sym)
    rhs_l = liouville_rhs(w0, sym)
    assert np.abs(rhs_m.values - rhs_l.values).max() <= 1e-10


def test_moyal_rhs_against_schrodinger_fd_nonuniform():
    """The quantum corrections beat the classical form against the exact
    time derivative of the evolved chord-phase Wigner function."""
    fld = linear_b_field(0.5, 0.1)
    k = Constants(lam=1.0)
    g = QGrid.regular(2, 32, 0.3)
    psi = coherent_state([0.2, -0.1], [0.1, 0.15], g, k, gauge_tag=fld.tag)
    wg = wigner_gauge_stratonovich(density_from_pure(psi), fld)
    fd = dense_time_derivative(psi, fld)
    err_quantum = np.abs(moyal_gauge_rhs(wg, fld).values - fd).max()
    err_classical = np.abs(liouville_rhs(wg, fld).values - fd).max()
    assert err_quantum <= 1e-4
    assert err_quantum < err_classical / 10.0


def test_moyal_hbar_order():
    assert hbar_order(moyal_gauge_rhs, "w_gauge")[0] >= 1.9


def test_husimi_rhs_free_particle_form():
    g = QGrid.regular(1, 128, 0.15)
    pg = PhaseGrid.wigner(g, K.hbar)
    f = gaussian_phase_function(pg, K, 0.3, -0.4, 1.1, 0.9, kind="q_gauge")
    rhs = husimi_gauge_rhs(f, GaugeField.free(1))
    pm, = pg.p_mesh()
    dq = spectral_derivative(f.values.astype(complex), 0, pg.qaxes[0])
    lam = K.lam
    expected = -np.real(np.broadcast_to(pm, f.values.shape) * dq
                        + (K.hbar * lam / 2)
                        * spectral_derivative(dq, 1, pg.paxes[0]))
    assert np.abs(rhs.values - expected).max() <= 1e-12


def test_evolution_intertwining():
    # 1-D uniform field: exact to round-off
    g = QGrid.regular(1, 128, 0.15)
    pg = PhaseGrid.wigner(g, K.hbar)
    f = gaussian_phase_function(pg, K, 0.3, -0.4, 1.1, 0.9, kind="w_gauge")
    fld = GaugeField.uniform_e([0.4])
    left = husimi_from_wigner(moyal_gauge_rhs(f, fld)).values
    right = husimi_gauge_rhs(husimi_from_wigner(f), fld).values
    assert np.abs(left - right).max() <= 1e-8
    # 2-D magnetic case: identical by construction, box-wrap limited
    g2 = QGrid.regular(2, 16, 0.5)
    pg2 = PhaseGrid.wigner(g2, 1.0)
    k2 = Constants(lam=0.5)
    f2 = gaussian_phase_function(pg2, k2, [0.1, -0.1], [0.05, 0.1], 0.7, 0.35,
                                 kind="w_gauge")
    sym = GaugeField.uniform_b(1.0, "symmetric")
    left2 = husimi_from_wigner(moyal_gauge_rhs(f2, sym)).values
    right2 = husimi_gauge_rhs(husimi_from_wigner(f2), sym).values
    assert np.abs(left2 - right2).max() <= 1e-5
    fld2 = linear_b_field(1.0, 0.1)
    left3 = husimi_from_wigner(moyal_gauge_rhs(f2, fld2)).values
    right3 = husimi_gauge_rhs(husimi_from_wigner(f2), fld2).values
    assert np.abs(left3 - right3).max() <= 1e-4


def test_husimi_classical_limit_order():
    assert hbar_order(husimi_gauge_rhs, "q_gauge")[0] >= 0.9


def _rhs_by_terms(F, field, t, form):
    """The (q, s) right-hand side of ``form`` formed term by term on
    numpy.fft: every field factor applied to each gradient it multiplies,
    each coefficient multiplied in on its own; ``(rhs, imag_max)``."""
    k, grid = F.constants, F.grid
    husimi = form == "husimi"
    alpha_q, lam_slot = (k.hbar / (2 * k.lam), k.hbar * k.lam / 2) if husimi else (0.0, 0.0)
    dim, p_axes = grid.dim, tuple(range(grid.dim, 2 * grid.dim))
    e_polys, b_poly = field.e_polys(k), field.f_polys().get((0, 1))
    b_poly = None if b_poly is None or b_poly.is_zero else b_poly
    degree = max([p.degree for p in e_polys] + [0 if b_poly is None else b_poly.degree])
    x, wts = np.polynomial.legendre.leggauss(max(1, (degree + 3) // 2))
    nodes, weights = (np.zeros(1), np.ones(1)) if form == "liouville" else (0.5 * x, 0.5 * wts)
    qm, pm = grid.q_mesh(), grid.p_mesh()
    sm = [k.hbar * wavenumbers(ax, grid.ndim, dim + i) for i, ax in enumerate(grid.paxes)]

    def d_q(arr, i):
        kq = wavenumbers(grid.qaxes[i], grid.ndim, i)
        return np.fft.ifft(np.fft.fft(arr, axis=i) * (1j * kq), axis=i)

    def factor(poly, arr, tau_power=0):
        acc = 0.0
        for tau, c in zip(nodes, weights * nodes**tau_power):
            for exps, coeff in poly.terms.items():
                term = arr
                for i in range(dim):
                    for _ in range(exps[i]):
                        term = (qm[i] - tau * sm[i]) * term + alpha_q * d_q(term, i)
                acc = acc + c * coeff * t ** exps[dim] * term
        return acc

    w = np.fft.fftn(F.values, axes=p_axes)
    grads = [(1j / k.hbar) * s * w for s in sm]
    slot_in = [(-1.0 / k.mass) * d_q(w, i) for i in range(dim)]
    rest = 0.0
    for i, poly in enumerate(e_polys):
        rest = rest - k.charge * factor(poly, grads[i])
    if b_poly is not None:
        ec = k.charge / (k.mass * k.light_speed)
        slot_in[1] = slot_in[1] - ec * factor(b_poly, grads[0])
        slot_in[0] = slot_in[0] + ec * factor(b_poly, grads[1])
    for s, arg in zip(sm, slot_in):
        rest = rest + (1j * lam_slot / k.hbar) * s * arg
    if b_poly is not None:
        cross = sm[0] * slot_in[1] - sm[1] * slot_in[0]
        rest = rest + (k.charge / k.light_speed) * factor(b_poly, cross, 1)
    rhs = sum(p * np.fft.ifftn(arg, axes=p_axes) for p, arg in zip(pm, slot_in))
    rhs = rhs + np.fft.ifftn(rest, axes=p_axes)
    return rhs.real, float(np.abs(rhs.imag).max())


def _curved_field(time_dependent=False):
    """A gradient B (b0 + 0.3 x, b0 = 0.8, or 0.8 + 0.5 t) and a non-uniform E
    from phi = 0.2 x y + 0.1 y^3 (times t when ``time_dependent``)."""
    kt = int(time_dependent)
    a_y = Poly(2, {(1, 0, 0): 0.8, (1, 0, kt): 0.5 * kt, (2, 0, 0): 0.15})
    phi = Poly(2, {(1, 1, kt): 0.2, (0, 3, kt): 0.1})
    return GaugeField.from_polynomials([Poly.zero(2), a_y], phi, tag="curved")


_FORMS = {"moyal": moyal_gauge_rhs, "liouville": liouville_rhs, "husimi": husimi_gauge_rhs}


@pytest.mark.parametrize("form", ["moyal", "liouville", "husimi"])
@pytest.mark.parametrize("case", ["curved_2d", "uniform_e_1d"])
def test_rhs_assembly_matches_term_by_term_formula(case, form):
    # the precombined multipliers and the once-applied field factors change
    # the order of the arithmetic only
    dim = 2 if case == "curved_2d" else 1
    fld = _curved_field() if dim == 2 else GaugeField.uniform_e([0.4])
    f = _random_state(dim, [0.2, -0.1, 0.1, 0.05])
    got = _FORMS[form](f, fld, t=0.3)
    ref, ref_imag = _rhs_by_terms(f, fld, 0.3, form)
    assert np.abs(got.values - ref).max() <= 1e-13 * np.abs(ref).max()
    assert abs(got.imag_max - ref_imag) <= 1e-12 * ref_imag + 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("form", ["moyal", "liouville"])
def test_rhs_multipliers_follow_a_time_dependent_field(form):
    # one evaluator at two times: a multiplier kept from the first time fails
    fld = _curved_field(time_dependent=True)
    f = _random_state(2, [0.2, -0.1, 0.1, 0.05])
    ev = _RhsEvaluator(f.grid, fld, K, form)
    for t in (0.3, 0.7, 0.3):
        ref, _ = _rhs_by_terms(f, fld, t, form)
        assert np.abs(ev.evaluate(f.values, t) - ref).max() <= 1e-13 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# properties of the right-hand sides on random polynomial fields
# ---------------------------------------------------------------------------

_PROPERTY = settings(max_examples=40, deadline=None)
_COEFF = st.floats(-0.5, 0.5)


@st.composite
def _polys(draw, dim, degree=3, time_dependent=False):
    """A polynomial of up to four terms with total spatial degree <= degree."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = [draw(st.integers(0, degree)) for _ in range(dim)]
        while sum(exps) > degree:
            exps[exps.index(max(exps))] -= 1
        kt = draw(st.integers(0, 1)) if time_dependent else 0
        terms[tuple(exps) + (kt,)] = draw(_COEFF)
    return Poly(dim, terms)


@st.composite
def _static_fields(draw, dim):
    return GaugeField.from_polynomials([draw(_polys(dim)) for _ in range(dim)],
                                       draw(_polys(dim)), tag="random")


@st.composite
def _uniform_fields(draw, dim):
    fld = GaugeField.uniform_e([draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
    if dim == 2:
        gauge = draw(st.sampled_from(["symmetric", "landau"]))
        fld = fld + GaugeField.uniform_b(draw(st.floats(-1.5, 1.5)), gauge)
    return fld


def _random_state(dim, center):
    # 2-D n=8 and 1-D n=32 keep each example to a few milliseconds
    g = QGrid.regular(dim, 8 if dim == 2 else 32, 0.5 if dim == 2 else 0.2)
    pg = PhaseGrid.wigner(g, K.hbar)
    return gaussian_phase_function(pg, K, center[:dim], center[dim:], 0.7, 0.6, kind="w_gauge")


_CENTERS = st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)


@_PROPERTY
@given(dim=st.sampled_from([1, 2]), data=st.data(), center=_CENTERS)
def test_moyal_rhs_gauge_invariant_random(dim, data, center):
    fld = data.draw(_static_fields(dim))
    chi = GaugeFn(data.draw(_polys(dim, time_dependent=True)), tag="chi")
    f = _random_state(dim, center)
    ref = moyal_gauge_rhs(f, fld, t=0.3).values
    gauged = moyal_gauge_rhs(f, fld.gauged(chi, K), t=0.3).values
    assert np.abs(gauged - ref).max() <= 1e-12 * np.abs(ref).max()


@_PROPERTY
@given(dim=st.sampled_from([1, 2]), data=st.data(), center=_CENTERS)
def test_rhs_integral_vanishes_random(dim, data, center):
    fld = data.draw(_static_fields(dim))
    f = _random_state(dim, center)
    for rhs in (moyal_gauge_rhs(f, fld), liouville_rhs(f, fld),
                husimi_gauge_rhs(f.with_values(f.values, kind="q_gauge"), fld)):
        assert abs(rhs.values.sum()) <= 1e-13 * np.abs(rhs.values).sum()


@_PROPERTY
@given(dim=st.sampled_from([1, 2]), data=st.data(), center=_CENTERS)
def test_moyal_equals_liouville_uniform_random(dim, data, center):
    fld = data.draw(_uniform_fields(dim))
    f = _random_state(dim, center)
    moyal = moyal_gauge_rhs(f, fld).values
    classical = liouville_rhs(f, fld).values
    assert np.abs(moyal - classical).max() <= 1e-10 * np.abs(moyal).max()


def _uniform_b_affine_e(b, gauge, phi):
    return GaugeField.uniform_b(b, gauge) + GaugeField.from_polynomials(
        [Poly.zero(2), Poly.zero(2)], phi, tag="phi")


@settings(max_examples=25, deadline=None)
@given(b=st.floats(-1.5, 1.5), gauge=st.sampled_from(["symmetric", "landau"]),
       data=st.data(), center=_CENTERS)
def test_moyal_equals_liouville_quadratic_hamiltonian_random(b, gauge, data, center):
    # a uniform B and an affine E (phi of degree <= 2), in any gauge: the
    # Moyal generator is the Liouville one (ROADMAP item 1)
    fld = _uniform_b_affine_e(b, gauge, data.draw(_polys(2, degree=2)))
    chi = GaugeFn(data.draw(_polys(2, time_dependent=True)), tag="chi")
    f = _random_state(2, center)
    moyal = moyal_gauge_rhs(f, fld.gauged(chi, K), t=0.3).values
    classical = liouville_rhs(f, fld.gauged(chi, K), t=0.3).values
    assert np.abs(moyal - classical).max() <= 1e-12 * np.abs(moyal).max()


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data(), t=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_hamiltonian_action_matches_dense_random(dim, data, t, seed):
    # A of degree <= 2, A_i depending on q_i among them, and phi, both in t
    fld = GaugeField.from_polynomials(
        [data.draw(_polys(dim, 2, time_dependent=True)) for _ in range(dim)],
        data.draw(_polys(dim, 3, time_dependent=True)), tag="random")
    g = QGrid.regular(dim, 8 if dim == 2 else 32, 0.5 if dim == 2 else 0.2,
                      center=data.draw(st.floats(-0.5, 0.5)))
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    act, (lo, hi) = dynamics._hamiltonian_action(g, fld, K, t)
    H = dense_hamiltonian(g, fld, K, t)
    ref = (H @ psi.ravel()).reshape(g.shape)
    assert np.abs(act(psi) - ref).max() <= 1e-12 * np.abs(ref).max()
    # the Chebyshev series needs the whole spectrum inside its bounds
    evals = np.linalg.eigvalsh(H)
    slack = 1e-12 * max(abs(lo), abs(hi))
    assert lo - slack <= evals[0] and evals[-1] <= hi + slack


def test_moyal_differs_from_liouville_for_cubic_phi():
    fld = _uniform_b_affine_e(0.8, "symmetric", Poly(2, {(3, 0, 0): 0.3, (2, 0, 0): 0.2}))
    f = _random_state(2, [0.2, -0.1, 0.1, 0.05])
    moyal = moyal_gauge_rhs(f, fld).values
    classical = liouville_rhs(f, fld).values
    # 0.6 of max on this state
    assert np.abs(moyal - classical).max() >= 0.1 * np.abs(moyal).max()


@_PROPERTY
@given(e=st.floats(-2.0, 2.0), q0=st.floats(-0.5, 0.5), p0=st.floats(-0.5, 0.5),
       widths=st.tuples(st.floats(0.6, 0.8), st.floats(0.6, 0.8)))
def test_evolution_intertwining_uniform_e_random(e, q0, p0, widths):
    # the box (|q| <= 3.2, |p| <= 7.9) holds these states to the tolerance;
    # wider or off-center states meet the periodic wrap of the p multiplier
    pg = PhaseGrid.wigner(QGrid.regular(1, 32, 0.2), K.hbar)
    f = gaussian_phase_function(pg, K, q0, p0, widths[0], widths[1], kind="w_gauge")
    fld = GaugeField.uniform_e([e])
    left = husimi_from_wigner(moyal_gauge_rhs(f, fld)).values
    right = husimi_gauge_rhs(husimi_from_wigner(f), fld).values
    assert np.abs(left - right).max() <= 1e-8


@st.composite
def _at_most_linear_b_fields(draw, dim):
    """A field of the corrected Boris substeps: B = b0 + b.q in 2-D, static or
    linear in t, and phi of degree <= 3 in 2-D or <= 4 in 1-D."""
    kt = draw(st.integers(0, 1))
    phi = draw(_polys(dim, degree=3 if dim == 2 else 4, time_dependent=bool(kt)))
    if dim == 1:
        return GaugeField.from_polynomials([Poly.zero(1)], phi, tag="random")
    # A = (-by y^2/2, b0 x + bx x^2/2), and the same again times t
    a_x, a_y = {}, {}
    for j in range(kt + 1):
        b0, bx, by = (draw(_COEFF) for _ in range(3))
        a_x[(0, 2, j)] = -by / 2.0
        a_y[(1, 0, j)], a_y[(2, 0, j)] = b0, bx / 2.0
    return GaugeField.from_polynomials([Poly(2, a_x), Poly(2, a_y)], phi, tag="random")


@_PROPERTY
@given(dim=st.sampled_from([1, 2]), data=st.data(), center=_CENTERS)
def test_moyal_defect_is_moyal_minus_liouville_random(dim, data, center):
    # D = a(s).grad_q + c(q, s), applied on the right-hand side's own complex
    # FFTs (the Nyquist bins kept), is the difference of the two right-hand
    # sides; that difference also carries their round-off, on the scale of
    # the right-hand side
    fld = data.draw(_at_most_linear_b_fields(dim))
    f = _random_state(dim, center)
    t, grid = 0.3, f.grid
    moyal = moyal_gauge_rhs(f, fld, t).values
    ref = moyal - liouville_rhs(f, fld, t).values
    ev = _RhsEvaluator(grid, fld, K, "moyal")
    defect = dynamics._moyal_defect(grid, ev.tensor, K, [ev.sm])
    if defect is None:
        assert np.abs(ref).max() <= 1e-14 * np.abs(moyal).max()
        return
    terms, _ = defect
    a, _ = terms(t, [0.0] * dim)
    _, c = terms(t, grid.q_mesh())
    p_axes = tuple(range(dim, 2 * dim))
    w = np.fft.fftn(f.values, axes=p_axes)
    dw = c * w
    for i, ai in enumerate(a):
        dw = dw + ai * spectral_derivative(w, i, grid.qaxes[i])
    got = np.fft.ifftn(dw, axes=p_axes).real
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max() + 1e-14 * np.abs(moyal).max()


# ---------------------------------------------------------------------------
# phase-space time stepping
# ---------------------------------------------------------------------------

def test_rk4_cyclotron_returns():
    b = 1.0
    g = QGrid.regular(2, 16, 0.5)
    pg = PhaseGrid.wigner(g, K.hbar)
    sym = GaugeField.uniform_b(b, "symmetric")
    period = 2 * np.pi
    f0 = gaussian_phase_function(pg, K, [0.3, -0.2], [0.1, 0.2], 0.9, 0.65,
                                 kind="w_gauge")
    spec = EvolutionSpec(sym, dt=0.012, t_final=period, propagator="moyal_gauge")
    f_t = next(_propagate_with(_rk4_flow, f0, spec, K))
    assert np.abs(f_t.values - f0.values).max() <= 1e-3
    assert abs(f_t.diagnostics["mass_drift"]) <= 1e-7 * period

    q0 = husimi_from_wigner(f0)
    spec_h = EvolutionSpec(sym, dt=0.012, t_final=period, propagator="husimi_gauge")
    q_t = next(_propagate_with(_rk4_flow, q0, spec_h, K))
    assert q_t.kind == "q_gauge"
    assert np.abs(q_t.values - q0.values).max() <= 1e-3


def _uniform_e_1d_case():
    """A coherent state in a uniform E: its chord Wigner function, the Moyal
    spec to t = 1.5, and the dense-Schroedinger reference at t."""
    fld = GaugeField.uniform_e([0.4])
    t = 1.5
    g = QGrid.regular(1, 128, 0.15)
    psi = coherent_state(0.3, -0.2, g, K, gauge_tag=fld.tag)
    w0 = wigner_gauge_stratonovich(density_from_pure(psi), fld)
    spec = EvolutionSpec(fld, dt=0.005, t_final=t, propagator="moyal_gauge")
    psi_t = schrodinger_propagate(
        psi, EvolutionSpec(fld, dt=0.05, t_final=t, propagator="schrodinger_dense"))
    return w0, spec, wigner_gauge_stratonovich(density_from_pure(psi_t), fld, threshold=None)


def test_rk4_agrees_with_schrodinger_route_1d():
    w0, spec, w_s = _uniform_e_1d_case()
    w_rk = next(_propagate_with(_rk4_flow, w0, spec, K))
    assert np.abs(w_rk.values - w_s.values).max() <= 1e-5


def test_rk4_agrees_with_schrodinger_route_2d():
    # a 16-point box barely exceeds the quantum uncertainty area, so kinetic
    # tails alias at the per-mille level; the sharp version of this check is
    # the 1-D variant above plus the semi-Lagrangian route in the acceptance
    # suite
    b = 1.0
    k = Constants(lam=0.7)
    g = QGrid.regular(2, 16, 0.5)
    sym = GaugeField.uniform_b(b, "symmetric")
    q0 = np.array([0.2, -0.1])
    p0 = np.array([-b * q0[1] / 2.0, b * q0[0] / 2.0]) + np.array([0.05, 0.15])
    psi = coherent_state(q0, p0, g, k, gauge_tag=sym.tag, check=None)
    w0 = wigner_gauge_stratonovich(density_from_pure(psi), sym, threshold=None)
    t = np.pi  # half a cyclotron period
    spec = EvolutionSpec(sym, dt=0.015, t_final=t, propagator="moyal_gauge")
    w_rk = next(_propagate_with(_rk4_flow, w0, spec, k))
    psi_t = schrodinger_propagate(
        psi, EvolutionSpec(sym, dt=0.05, t_final=t, propagator="schrodinger_dense"))
    w_s = wigner_gauge_stratonovich(density_from_pure(psi_t), sym, threshold=None)
    assert np.abs(w_rk.values - w_s.values).max() <= 3e-2


def test_rk4_divergence_guard_raises(monkeypatch):
    # a bound above the true rate (as a time-dependent field can outgrow its
    # bound at t0) lets RK4 take steps of 0.2, 8.7 times its bound here: the
    # iterate diverges and the guard raises
    g = QGrid.regular(2, 8, 0.5)
    pg = PhaseGrid.wigner(g, K.hbar)
    sym = GaugeField.uniform_b(1.0, "symmetric")
    f0 = gaussian_phase_function(pg, K, [0.0, 0.0], [0.0, 0.0], 0.6, 0.5,
                                 kind="w_gauge")
    monkeypatch.setattr(_RhsEvaluator, "step_bound", lambda self, t: 1.0)
    spec = EvolutionSpec(sym, dt=0.2, t_final=16.0, propagator="moyal_gauge")
    with pytest.raises(PropagatorError, match="diverged"):
        next(_propagate_with(_rk4_flow, f0, spec, K))


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data(), center=_CENTERS,
       propagator=st.sampled_from(["moyal_gauge", "husimi_gauge"]))
def test_split_moyal_keeps_mass_and_norm_random(dim, data, center, propagator):
    # every factor is unitary and keeps W real: a correction that broke the
    # symmetry of the real FFT would lose norm to the projection back to real
    # values; for the Husimi route the smoothing bounds the start
    fld = data.draw(_at_most_linear_b_fields(dim))
    f0 = _random_state(dim, center)
    spec = EvolutionSpec(fld, 0.1, 0.3, propagator, t0=0.1)
    if propagator == "husimi_gauge":
        f0 = husimi_from_wigner(f0)
    f1 = propagate_phase_space(f0, spec)
    assert f1.values.dtype == np.float64 and np.isfinite(f1.values).all()
    assert abs(f1.diagnostics["mass_drift"]) <= 1e-12 * abs(f0.integrate())
    if propagator == "moyal_gauge":
        assert abs(_purity(f1) - _purity(f0)) <= 1e-12 * _purity(f0)


@settings(max_examples=5, deadline=None)
@given(b0=st.floats(0.8, 1.2), grad=st.floats(0.2, 0.4), sign=st.sampled_from([-1.0, 1.0]),
       centers=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4))
def test_split_moyal_converges_at_second_order_random(b0, grad, sign, centers):
    # T = 0.6 in B = b0 + grad x on 2-D n=8, where the splitting error
    # dominates: 4 and 8 steps (both above RK4's step bound) against RK4
    # at T/60 (itself within 1e-7 of T/120); the gap fell 3.65-4.6 times at
    # the 128 corners of the draw box.  The box must hold the state in q:
    # RK4 steps the periodic grid operator, on which the polynomial phase
    # c(q) jumps at the edge, and the two routes part by the mass there
    # (with 0.12 of max at the q edge they stayed 4e-4 of max apart)
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.6), K.hbar)
    f0 = gaussian_phase_function(pg, K, centers[:2], centers[2:], 0.5, 0.6, kind="w_gauge")
    fld, t = linear_b_field(b0, sign * grad), 0.6
    ref = next(_propagate_with(_rk4_flow, f0, EvolutionSpec(fld, t / 60, t, "moyal_gauge"),
                               K)).values
    gaps = [np.abs(propagate_phase_space(f0, EvolutionSpec(fld, t / n, t, "moyal_gauge")).values
                   - ref).max() for n in (4, 8)]
    assert gaps[1] * 3.0 <= gaps[0]


def _linear_b_t_field(b0, grad, c):
    """B(x, y, t) = (b0 + grad x)(1 + c t), from A = (0, (b0 x + grad x^2/2)(1 + c t))."""
    return GaugeField.from_polynomials(
        [Poly.zero(2), Poly(2, {(1, 0, 0): b0, (2, 0, 0): grad / 2.0,
                                (1, 0, 1): b0 * c, (2, 0, 1): grad * c / 2.0})],
        tag="b_linear_t")


@pytest.mark.parametrize("centers", [[0.1, -0.2, 0.2, 0.0], [-0.3, 0.3, -0.3, 0.3]])
def test_split_moyal_converges_at_second_order_in_a_time_dependent_field(centers):
    # B = (1 + 0.3 x)(1 + 1.5 t), T = 0.6 on 2-D n=8: the gap to RK4 at T/60
    # fell 3.6-4.0 times from 4 to 8 steps; corrections built at one t for
    # both halves of a merged factor fall to first order (1.75-1.95 times)
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.6), K.hbar)
    f0 = gaussian_phase_function(pg, K, centers[:2], centers[2:], 0.5, 0.6, kind="w_gauge")
    fld, t = _linear_b_t_field(1.0, 0.3, 1.5), 0.6
    ref = next(_propagate_with(_rk4_flow, f0, EvolutionSpec(fld, t / 60, t, "moyal_gauge"),
                               K)).values
    gaps = [np.abs(propagate_phase_space(f0, EvolutionSpec(fld, t / n, t, "moyal_gauge")).values
                   - ref).max() for n in (4, 8)]
    assert gaps[1] * 3.0 <= gaps[0]


def test_merged_correction_is_its_two_halves_in_turn():
    # in a time-dependent field the factor between two steps is C(h/2) at the
    # second midpoint after C(h/2) at the first: merged, it equals the two
    # halves applied in turn to 1.2e-10 of max (the grid's resolution of the
    # phase in q); in the other order they part by 1.5e-6
    pg = PhaseGrid.wigner(QGrid.regular(2, 16, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, -0.2], [0.2, 0.0], 0.7, 0.7, kind="w_gauge")
    tensor = dynamics._FieldTensor(_linear_b_t_field(1.0, 0.3, 1.5), K)
    first, merged, second = (build() for _, build in
                             dynamics._corrections(pg, tensor, K, 0.1, [0.05, 0.15]))
    in_turn = second(first(f0.values))
    assert np.abs(merged(f0.values) - in_turn).max() <= 1e-8 * np.abs(in_turn).max()


def test_split_moyal_tracks_schrodinger_as_rk4_does():
    # the coherent state of the dynamics benchmark in B = 1 + 0.3 x (2-D
    # n=16, ten steps of 0.012): both routes stay about 2.2e-2 of max from
    # dense Schroedinger, the n=16 truncation, and 1.6e-5 from each other
    g = QGrid.regular(2, 16, 0.5)
    fld, t = linear_b_field(1.0, 0.3), 0.12
    q0, pi0 = np.array([0.3, -0.2]), np.array([0.2, -0.1])
    psi = coherent_state(q0, pi0 + [0.0, q0[0] + 0.15 * q0[0] ** 2], g, K, gauge_tag=fld.tag,
                         check=None)
    w0 = wigner_gauge_stratonovich(density_from_pure(psi), fld, threshold=None)
    spec = EvolutionSpec(fld, 0.012, t, "moyal_gauge")
    psi_t = schrodinger_propagate(psi, replace(spec, propagator="schrodinger_dense"))
    ref = wigner_gauge_stratonovich(density_from_pure(psi_t), fld, t, threshold=None).values
    split = propagate_phase_space(w0, spec).values
    # 0.012 is above RK4's bound here (0.0101), so RK4 takes 12 steps
    rk4 = next(_propagate_with(_rk4_flow, w0, spec, K)).values
    assert np.abs(split - ref).max() <= 1.1 * np.abs(rk4 - ref).max()
    assert np.abs(split - rk4).max() <= 1e-4 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# exact flow for static uniform fields
# ---------------------------------------------------------------------------

def _purity(W):
    return (2 * np.pi * W.constants.hbar) ** W.grid.dim * float((W.values**2).sum()) * W.grid.cell


def test_exact_flow_agrees_with_schrodinger_route_1d():
    w0, spec, w_s = _uniform_e_1d_case()
    w_ex = propagate_phase_space(w0, spec)
    assert np.abs(w_ex.values - w_s.values).max() <= 1e-5


def test_exact_flow_agrees_with_schrodinger_route_2d_drift():
    # uniform B plus uniform E: the packet gyrates and drifts along E x B
    k = Constants(lam=0.5)
    g = QGrid.regular(2, 32, 0.4)
    fld = GaugeField.uniform_b(1.0, "symmetric") + GaugeField.uniform_e([0.3, -0.2])
    psi = rigid_state(g, fld, k)
    w0 = wigner_gauge_stratonovich(density_from_pure(psi), fld)
    t = 2.0
    w_ex = propagate_phase_space(
        w0, EvolutionSpec(fld, dt=0.05, t_final=t, propagator="moyal_gauge"))
    psi_t = schrodinger_propagate(
        psi, EvolutionSpec(fld, dt=0.05, t_final=t, propagator="schrodinger_dense"))
    w_s = wigner_gauge_stratonovich(density_from_pure(psi_t), fld, threshold=None)
    # criterion 6's bound; the packet moves by most of its height meanwhile
    assert np.abs(w_ex.values - w_s.values).max() <= 1e-4
    assert np.abs(w_s.values - w0.values).max() >= 0.5 * np.abs(w0.values).max()


def test_exact_liouville_against_closed_form_orbit():
    # W(q, p, t) is W0 at the backward characteristic, a cyclotron orbit run
    # for -t; omega t = 4 takes three rotation pieces
    b, t = 1.0, 4.0
    g = QGrid.regular(2, 32, 0.4)
    pg = PhaseGrid.wigner(g, K.hbar)
    centers, widths = ([0.3, -0.2], [0.2, 0.1]), (0.6, 0.5)
    F0 = gaussian_phase_function(pg, K, *centers, *widths)
    F1 = liouville_propagate(F0, EvolutionSpec(GaugeField.uniform_b(b, "landau"), dt=0.1,
                                               t_final=t, propagator="liouville"))
    omega = K.charge * b / (K.mass * K.light_speed)
    qs = np.array(np.broadcast_arrays(*pg.q_mesh()))
    ps = np.array(np.broadcast_arrays(*pg.p_mesh()))
    q0, p0 = _classical_orbit(qs, ps, omega, K.mass, -t)

    def expo(q, p):
        return (sum(-((x - c) ** 2) for x, c in zip(q, centers[0])) / (2 * widths[0] ** 2)
                + sum(-((y - c) ** 2) for y, c in zip(p, centers[1])) / (2 * widths[1] ** 2))

    exact = F0.values.max() / np.exp(expo(qs, ps)).max() * np.exp(expo(q0, p0))
    assert np.abs(F1.values - exact).max() <= 1e-5 * np.abs(exact).max()
    # the periodic wrap is what the box misses of the exact solution
    assert F1.diagnostics["wrapped_mass"] <= 2e-5
    assert abs(F1.diagnostics["mass_drift"]) <= 1e-14


@pytest.mark.parametrize("angle", [20 * np.pi, 20 * np.pi + 1.0], ids=["ten_periods", "off_axis"])
def test_exact_flow_keeps_mass_and_purity(angle):
    # ten cyclotron periods in one call: 40 or 41 rotation pieces of three shears
    b = 1.0
    pg = PhaseGrid.wigner(QGrid.regular(2, 16, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.3, -0.2], [0.1, 0.2], 0.9, 0.65, kind="w_gauge")
    t = angle * K.mass * K.light_speed / (K.charge * b)
    spec = EvolutionSpec(GaugeField.uniform_b(b, "symmetric"), dt=0.012, t_final=t,
                         propagator="moyal_gauge")
    f_t = propagate_phase_space(f0, spec)
    assert abs(f_t.diagnostics["mass_drift"]) <= 1e-14
    assert abs(f_t.integrate() - f0.integrate()) <= 1e-14
    assert abs(_purity(f_t) - _purity(f0)) <= 1e-14 * _purity(f0)
    moved = np.abs(f_t.values - f0.values).max() / np.abs(f0.values).max()
    assert moved <= 1e-12 if angle == 20 * np.pi else moved >= 0.1


@pytest.mark.parametrize("b", [1e-8, 1e-12, 1e-14])
def test_exact_flow_weak_b_tends_to_pure_e(b):
    # the map is the power series of the augmented generator, whose B entries
    # are omega = eB/mc itself: nothing is divided by B, so a weak B keeps the
    # eE t^2/2m drift of the pure-E flow and the gap is the physical O(B) one,
    # 0.31 B of max (0.36 B at B=1e-14, where round-off starts to show)
    pg = PhaseGrid.wigner(QGrid.regular(2, 16, 0.55), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.3, -0.2], [0.2, 0.1], 0.9, 0.8)
    e_only = GaugeField.uniform_e([0.1, -0.05])
    ref = liouville_propagate(f0, EvolutionSpec(e_only, 0.1, 1.0, "liouville")).values
    weak = GaugeField.uniform_b(b, "landau") + e_only
    got = liouville_propagate(f0, EvolutionSpec(weak, 0.1, 1.0, "liouville")).values
    assert np.abs(got - ref).max() <= 10 * b * np.abs(ref).max()


@st.composite
def _uniform_flows(draw):
    """(case, dim, field, T): a 1-D E, a 2-D E with B = 0, or a 2-D B of
    4 to 6 with a weak E turning p by up to 20 rad (about three turns)."""
    case = draw(st.sampled_from(["e_1d", "e_2d", "b_2d"]))
    if case != "b_2d":
        dim = 1 if case == "e_1d" else 2
        fld = GaugeField.uniform_e([draw(st.floats(-0.4, 0.4)) for _ in range(dim)])
        return case, dim, fld, draw(st.floats(0.01, 0.3))
    b = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(4.0, 6.0))
    fld = GaugeField.uniform_b(b, draw(st.sampled_from(["symmetric", "landau"])))
    fld = fld + GaugeField.uniform_e([draw(st.floats(-0.05, 0.05)) for _ in range(2)])
    return case, 2, fld, draw(st.floats(0.01, 20.0)) * K.mass * K.light_speed / (K.charge * abs(b))


# the n=8 grid keeps the Gaussian to 9.9e-3 of max under E alone and to
# 5.5e-2 through turns of p (three shears per quarter turn on 8 points per p
# axis): the largest over 1200 random draws and the corners of the draw box
_AGAINST_BORIS = {"e_1d": 2e-2, "e_2d": 2e-2, "b_2d": 0.1}


@_PROPERTY
@given(flow=_uniform_flows(), centers=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_exact_flow_against_boris_random(flow, centers):
    # W is W0 at the nodes' backward characteristics, traced by Boris substeps
    # of T/1000; the centers are scaled to |q| <= 0.2, |p| <= 0.5
    case, dim, fld, t = flow
    pg = PhaseGrid.wigner(QGrid.regular(dim, 8, 0.5), K.hbar)
    centers = ([c * 0.2 for c in centers[:dim]], [c * 0.5 for c in centers[2:2 + dim]])
    _, f1, exact = _liouville_against_characteristics(pg, fld, centers, (0.4, 0.95), t, t,
                                                      t / 1000)
    assert np.abs(f1.values - exact).max() <= _AGAINST_BORIS[case] * exact.max()


def test_exact_route_skips_rk4_and_stepped_liouville(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called on the exact route")

    monkeypatch.setattr(dynamics._RhsEvaluator, "evaluate", forbidden)
    monkeypatch.setattr(dynamics, "_characteristics_flow", forbidden)
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7, kind="w_gauge")
    uniform = GaugeField.uniform_b(1.0, "landau") + GaugeField.uniform_e([0.1, 0.2])
    for fld, exact in ((uniform, True), (linear_b_field(0.5, 0.1), False)):
        runs = [lambda: propagate_phase_space(f0, EvolutionSpec(fld, 0.05, 0.1, "moyal_gauge")),
                lambda: propagate_phase_space(husimi_from_wigner(f0),
                                              EvolutionSpec(fld, 0.05, 0.1, "husimi_gauge")),
                lambda: liouville_propagate(f0, EvolutionSpec(fld, 0.05, 0.1, "liouville")),
                lambda: list(evolve(f0, EvolutionSpec(fld, 0.05, 0.1, "moyal_gauge"),
                                    [0.05, 0.1]))[-1]]
        for run in runs:
            if exact:
                assert np.isfinite(run().values).all()
            else:
                with pytest.raises(AssertionError, match="exact route"):
                    run()


@pytest.mark.parametrize("field", [GaugeField.uniform_b(1.0, "symmetric"),
                                   linear_b_field(1.0, 0.3)], ids=["uniform_b", "linear_b"])
def test_time_dependent_gauge_evolves_bitwise_as_the_static_one(field):
    # the phase-space equations read only E and F, and so does every route,
    # reused factor and correction: in the gauge chi = 0.3 t x y the start
    # rotated by chi evolves bitwise as in the static gauge (before, uniform B
    # left the exact flow for Boris steps, 1.7e-5 apart at a max of 0.1, and
    # the Moyal corrections of the gradient field were rebuilt at each step)
    chi = GaugeFn(Poly(2, {(1, 1, 1): 0.3}), tag="txy")
    gauged = field.gauged(chi, K)
    rho = density_from_pure(coherent_state([0.3, -0.2], [0.1, 0.0], QGrid.regular(2, 16, 0.5),
                                           K, gauge_tag=field.tag, check=None))
    w = wigner_gauge_stratonovich(rho, field, threshold=None)
    w_rotated = wigner_gauge_stratonovich(gauge_rotate(rho, chi, +1, 0.0, tag=gauged.tag),
                                          gauged, threshold=None)
    for propagator in ("liouville", "moyal_gauge", "husimi_gauge"):
        starts = [w, w_rotated]
        if propagator == "husimi_gauge":
            starts = [husimi_from_wigner(start) for start in starts]
        plain, rotated = (propagate_phase_space(start, EvolutionSpec(fld, 0.012, 0.12, propagator))
                          for start, fld in zip(starts, (field, gauged)))
        assert np.array_equal(plain.values, rotated.values), propagator


@pytest.mark.parametrize("propagator, uniform", [
    ("liouville", True), ("moyal_gauge", True), ("husimi_gauge", True), ("liouville", False),
    ("moyal_gauge", False), ("husimi_gauge", False),
], ids=["liouville-uniform", "moyal_gauge-uniform", "husimi_gauge-uniform", "liouville-linear_b",
        "moyal_gauge-linear_b", "husimi_gauge-linear_b"])
def test_evolve_restarting_routes_end_on_propagate_phase_space(propagator, uniform):
    # the exact flow maps the start to every cut, so the cuts leave the final
    # state bitwise unchanged.  The Boris substeps carry the state, and cuts
    # on step boundaries move Liouville by round-off only.  A cut splits a
    # Moyal correction in two halves, which compose only as far as the grid
    # resolves the product of W and its phase in q (neither periodic nor
    # band-limited): here, with 0.06 of max at the q edge, 7.1e-8 of max.
    # Each cut reports the wrap of its own flow call: a carried cut that of
    # its span, the exact flow's that from the start
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7, kind="w_gauge")
    if propagator == "husimi_gauge":
        f0 = husimi_from_wigner(f0)
    fld = (GaugeField.uniform_b(1.0, "landau") + GaugeField.uniform_e([0.1, 0.2]) if uniform
           else linear_b_field(0.5, 0.1))
    spec = EvolutionSpec(fld, 0.05, 0.3, propagator)
    times = [0.1, 0.25, 0.3]
    states = list(evolve(f0, spec, times))
    assert [s.time for s in states] == times
    one = propagate_phase_space(f0, spec)

    def wrap(state):
        return [state.diagnostics[key] for key in ("outside_fraction", "wrapped_mass")]

    if uniform:
        assert np.array_equal(states[-1].values, one.values)
        assert wrap(states[-1]) == wrap(one)
        return
    tol = 1e-13 if propagator == "liouville" else 1e-6
    scale = np.abs(one.values).max()
    assert np.abs(states[-1].values - one.values).max() <= tol * scale
    if propagator == "husimi_gauge":
        chord = wigner_from_husimi(f0, dynamics._CONJUGATION)
        moyal = evolve(chord, replace(spec, propagator="moyal_gauge"), times)
        assert [wrap(state) for state in states] == [wrap(state) for state in moyal]
        return
    last = propagate_phase_space(states[-2], replace(spec, t0=0.25))
    assert np.array_equal(states[-1].values, last.values)
    assert wrap(states[-1]) == wrap(last)


def test_carried_cuts_trace_only_their_own_shears(monkeypatch):
    # the walk keeps no shear history: each of five equal one-step cuts
    # traces its wrap back through the same number of shears
    traced = []
    trace_back = dynamics._trace_back

    def counted(shears, z):
        traced.append(len(shears))
        return trace_back(shears, z)

    monkeypatch.setattr(dynamics, "_trace_back", counted)
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7, kind="w_gauge")
    spec = EvolutionSpec(linear_b_field(0.5, 0.1), 0.05, 0.25, "liouville")
    states = list(evolve(f0, spec, [0.05, 0.1, 0.15, 0.2, 0.25]))
    assert len(states) == len(traced) == 5
    assert len(set(traced)) == 1


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "linear_b"])
def test_husimi_walk_keeps_the_deconvolution_diagnostics(uniform):
    # every Husimi cut reports what the one deconvolution of its start lost
    # out of band and to the amplification cap, next to the flow's own
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    q0 = husimi_from_wigner(gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7,
                                                    kind="w_gauge"))
    fld = GaugeField.uniform_b(1.0, "landau") if uniform else linear_b_field(0.5, 0.1)
    start = wigner_from_husimi(q0, dynamics._CONJUGATION).diagnostics
    states = list(evolve(q0, EvolutionSpec(fld, 0.05, 0.1, "husimi_gauge"), [0.05, 0.1]))
    assert len(states) == 2
    for state in states:
        assert state.kind == "q_gauge" and "mass_drift" in state.diagnostics
        for key in ("out_of_band_mass", "amplification_truncated_mass"):
            assert state.diagnostics[key] == start[key]


@pytest.mark.parametrize("propagator", ["liouville", "moyal_gauge"])
def test_evolve_cut_at_every_step_costs_one_walk(monkeypatch, propagator):
    # a carried cut adds a split drift (and a split correction) at its
    # boundary, where a walk that restarted from the start at each of the
    # twelve cuts would apply the shears of 78 steps; the values part as in
    # test_evolve_restarting_routes_end_on_propagate_phase_space
    applied = []
    line_shear = dynamics._line_shear

    def counted(*args):
        apply = line_shear(*args)
        return lambda values: applied.append(1) or apply(values)

    monkeypatch.setattr(dynamics, "_line_shear", counted)
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7, kind="w_gauge")
    spec = EvolutionSpec(linear_b_field(0.5, 0.1), 0.005, 0.06, propagator)
    times = [spec.t0]
    for _ in range(12):
        times.append(times[-1] + spec.dt)   # the cut times of the CLI
    one = propagate_phase_space(f0, spec)
    single, applied[:] = len(applied), []
    cut = list(evolve(f0, spec, times[1:-1] + [spec.t_final]))[-1]
    assert len(applied) <= single + 2 * 11
    tol = 1e-13 if propagator == "liouville" else 1e-6
    assert np.abs(cut.values - one.values).max() <= tol * np.abs(one.values).max()


def test_evolve_checks_before_the_first_cut():
    # the cut times and the state type are checked by the call, not by iterating
    g = QGrid.regular(1, 32, 0.4)
    f0 = gaussian_phase_function(PhaseGrid.wigner(g, K.hbar), K, [0.1], [0.0], 0.7, 0.7,
                                 kind="w_gauge")
    psi = coherent_state(0.1, 0.0, g, K)
    fld = GaugeField.uniform_e([0.2])
    with pytest.raises(ValueError, match="cut times"):
        evolve(f0, EvolutionSpec(fld, 0.05, 0.2, "liouville"), [0.15, 0.1, 0.2])
    with pytest.raises(PropagatorError):
        evolve(f0, EvolutionSpec(fld, 0.05, 0.2, "schrodinger_dense"), [0.2])
    with pytest.raises(PropagatorError):
        evolve(psi, EvolutionSpec(fld, 0.05, 0.2, "moyal_gauge"), [0.2])


@pytest.mark.parametrize("dt, propagator, message", [
    (0.0, "liouville", "time step must be positive"),
    (-0.01, "moyal_gauge", "time step must be positive"),
    (0.01, "rk4", "unknown propagator 'rk4'"),
], ids=["dt-zero", "dt-negative", "propagator-unknown"])
def test_evolution_spec_refuses_a_step_or_propagator(dt, propagator, message):
    with pytest.raises(ValueError, match=message):
        EvolutionSpec(GaugeField.free(1), dt, 0.2, propagator)


def test_backward_time_span_is_refused():
    # a final time before t0 was one backward RK4 step of the whole span
    fld = GaugeField.from_polynomials([Poly.zero(1)], Poly(1, {(3, 0): 0.1}), tag="cubic")
    with pytest.raises(ValueError, match="t_final"):
        EvolutionSpec(fld, dt=0.01, t_final=-0.5, propagator="moyal_gauge")
    with pytest.raises(ValueError, match="t_final"):
        EvolutionSpec(fld, dt=0.01, t_final=0.2, propagator="liouville", t0=0.5)
    f0 = gaussian_phase_function(PhaseGrid.wigner(QGrid.regular(1, 32, 0.4), K.hbar), K,
                                 [0.1], [0.0], 0.7, 0.7, kind="w_gauge")
    with pytest.raises(ValueError, match="cut times"):
        evolve(f0, EvolutionSpec(fld, 0.05, 0.2, "moyal_gauge", t0=0.1), [0.05, 0.2])


def _quadratic_b_field():
    """B(x, y) = 0.5 + 0.1 x + 0.05 x^2: the Moyal and Husimi routes left to RK4."""
    return GaugeField.from_polynomials(
        [Poly.zero(2), Poly(2, {(1, 0, 0): 0.5, (2, 0, 0): 0.05, (3, 0, 0): 0.05 / 3.0})],
        tag="b_quadratic")


def test_split_moyal_runs_past_the_advection_limit():
    # B = 0.5 + 0.1 x takes the corrected Boris substeps: its steps are dt, not RK4's bound
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7, kind="w_gauge")
    fld = linear_b_field(0.5, 0.1)
    spec = EvolutionSpec(fld, dt=0.2, t_final=0.4, propagator="moyal_gauge")
    assert spec.dt > 3 * _RhsEvaluator(pg, fld, K, "moyal").step_bound(0.0)
    for f1 in (propagate_phase_space(f0, spec), list(evolve(f0, spec, [0.2, 0.4]))[-1]):
        assert np.isfinite(f1.values).all()
        assert abs(f1.diagnostics["mass_drift"]) <= 1e-14


def _cubic_phi_1d():
    return GaugeField.from_polynomials([Poly.zero(1)], Poly(1, {(3, 0): 0.1, (2, 0): 0.2}),
                                       tag="cubic")


@pytest.mark.parametrize("case", ["linear_b_2d", "cubic_phi_1d"])
def test_moyal_and_husimi_skip_rk4_where_b_is_at_most_linear(monkeypatch, case):
    def forbidden(*args, **kwargs):
        raise AssertionError("RK4 right-hand side evaluated")

    monkeypatch.setattr(dynamics._RhsEvaluator, "evaluate", forbidden)
    dim, fld = (2, linear_b_field(0.5, 0.1)) if case == "linear_b_2d" else (1, _cubic_phi_1d())
    pg = PhaseGrid.wigner(QGrid.regular(dim, 8 if dim == 2 else 32, 0.5 if dim == 2 else 0.2),
                          K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0][:dim], [0.0, 0.1][:dim], 0.7, 0.7,
                                 kind="w_gauge")
    q0 = husimi_from_wigner(f0)
    runs = [propagate_phase_space(f0, EvolutionSpec(fld, 0.05, 0.1, "moyal_gauge")),
            propagate_phase_space(q0, EvolutionSpec(fld, 0.05, 0.1, "husimi_gauge")),
            list(evolve(f0, EvolutionSpec(fld, 0.05, 0.1, "moyal_gauge"), [0.05, 0.1]))[-1],
            list(evolve(q0, EvolutionSpec(fld, 0.05, 0.1, "husimi_gauge"), [0.05, 0.1]))[-1]]
    for f1 in runs:
        assert np.isfinite(f1.values).all()
        assert "rhs_imag_max" not in f1.diagnostics


def test_advection_limit_bounds_the_rk4_generator():
    # the rate is taken from the evaluator's own multipliers; the bound from
    # the field strengths alone admitted dt 0.0124 in this field on 2-D n=16
    # (its limit 0.0248, now 0.0051), where RK4 took the Gaussian below to
    # 1.6e4 max|W| by T = 0.6
    fld = GaugeField.from_polynomials(
        [Poly.zero(2), Poly(2, {(1, 0, 0): 1.0, (2, 0, 0): 0.15, (3, 0, 0): 0.02})],
        tag="b_curved")
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    ev = _RhsEvaluator(pg, fld, K, "moyal")
    rate = 2.0 * np.sqrt(2.0) / ev.step_bound(0.0)
    x = np.random.default_rng(0).standard_normal(pg.shape)
    for _ in range(20):
        y = ev.evaluate(x, 0.0)
        assert np.linalg.norm(y) <= rate * np.linalg.norm(x)
        x = y / np.linalg.norm(y)


@st.composite
def _quadratic_b_fields(draw):
    """B = b0 + bx x + by y + bxx x^2 + bxy x y + byy y^2 with one quadratic
    coefficient at least 0.1 in size, from A = (0, integral B dx)."""
    b0, bx, by, bxx, bxy, byy = (draw(_COEFF) for _ in range(6))
    lead = draw(st.sampled_from(["bxx", "bxy", "byy"]))
    size = draw(st.floats(0.1, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
    bxx, bxy, byy = (size if lead == name else b
                     for name, b in (("bxx", bxx), ("bxy", bxy), ("byy", byy)))
    a_y = {(1, 0, 0): b0, (2, 0, 0): bx / 2.0, (1, 1, 0): by, (3, 0, 0): bxx / 3.0,
           (2, 1, 0): bxy / 2.0, (1, 2, 0): byy}
    return GaugeField.from_polynomials([Poly.zero(2), Poly(2, a_y)], tag="random")


@settings(max_examples=6, deadline=None)
@given(fld=_quadratic_b_fields(), c=st.floats(1.0, 5.0), center=_CENTERS)
def test_rk4_steps_at_most_its_bound_random(fld, c, center):
    # a dt above the bound takes the steps of dt = bound, which keep the
    # iterate finite and its mass to round-off
    f0 = _random_state(2, center)
    bound = _RhsEvaluator(f0.grid, fld, K, "moyal").step_bound(0.0)
    at_bound, above = (propagate_phase_space(f0, EvolutionSpec(fld, dt, 0.2, "moyal_gauge"))
                       for dt in (bound, c * bound))
    assert np.array_equal(above.values, at_bound.values)
    assert above.diagnostics["rk4_step"] == at_bound.diagnostics["rk4_step"] <= bound
    assert np.isfinite(above.values).all()
    assert abs(above.diagnostics["mass_drift"]) <= 1e-10


def test_rk4_at_its_bound_matches_a_quarter_of_it():
    # B = 1 + 0.3 x^2 on 2-D n=8, T = 2: the two runs part by 4.6e-7 of
    # max|W| (0.282); the L2 norm grows 0.25 % at both step sizes alike, so
    # that growth is the grid's generator, not the step
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    fld = GaugeField.from_polynomials([Poly.zero(2), Poly(2, {(1, 0, 0): 1.0, (3, 0, 0): 0.1})],
                                      tag="b_quadratic")
    f0 = gaussian_phase_function(pg, K, [0.0, 0.0], [0.0, 0.0], 0.6, 0.5, kind="w_gauge")
    bound = _RhsEvaluator(pg, fld, K, "moyal").step_bound(0.0)
    at_bound, finer = (propagate_phase_space(f0, EvolutionSpec(fld, dt, 2.0, "moyal_gauge"))
                       .values for dt in (bound, bound / 4.0))
    assert np.abs(at_bound - finer).max() <= 1e-6 * np.abs(finer).max()


def test_steps_cover_the_span_in_steps_of_at_most_dt():
    def count(span, dt):
        return dynamics._steps(EvolutionSpec(GaugeField.free(1), dt, span, "liouville"))[0]

    assert [count(r * 0.1, 0.1) for r in (0.5, 1.0, 1.4, 1.5, 2.6)] == [1, 1, 2, 2, 3]
    # a span that is a whole number of dt up to round-off (the difference of
    # two cut times) takes that number of steps, as dynamics_2d's 10 x 0.012
    assert all(count(n * dt, dt) == n
               for n in range(1, 200) for dt in (0.012, 0.005, 0.1, 1.0 / 3.0))


def test_rk4_and_schrodinger_take_steps_of_at_most_dt(monkeypatch):
    # T / dt = 1.4: two steps each, never one step of 1.4 dt
    times = []
    evaluate = dynamics._RhsEvaluator.evaluate

    def counted(self, values, t):
        times.append(t)
        return evaluate(self, values, t)

    monkeypatch.setattr(dynamics._RhsEvaluator, "evaluate", counted)
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7, kind="w_gauge")
    propagate_phase_space(f0, EvolutionSpec(_quadratic_b_field(), 0.02, 0.028, "moyal_gauge"))
    assert np.allclose(times, [0.0, 0.007, 0.007, 0.014, 0.014, 0.021, 0.021, 0.028])

    steps = []
    for name in ("_eigh_step", "_chebyshev_step"):
        step = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name,
                            lambda *args, step=step: steps.append(args[-1]) or step(*args))
    g = QGrid.regular(1, 32, 0.3)
    driven = GaugeField.from_polynomials([Poly(1, {(1, 1): 0.3})], tag="driven")
    psi = coherent_state(0.2, -0.1, g, K, gauge_tag=driven.tag)
    for propagator in ("schrodinger_dense", "schrodinger_split"):
        schrodinger_propagate(psi, EvolutionSpec(driven, 0.05, 0.07, propagator))
    assert np.allclose(steps, [0.035] * 4)
    # a static field keeps one step over the whole cut
    steps.clear()
    static = GaugeField.from_polynomials([Poly(1, {(1, 0): 0.3})], tag="static")
    schrodinger_propagate(coherent_state(0.2, -0.1, g, K, gauge_tag=static.tag),
                          EvolutionSpec(static, 0.05, 0.07, "schrodinger_split"))
    assert np.allclose(steps, [0.07])


@pytest.mark.parametrize("propagator", ["moyal_gauge", "husimi_gauge"])
def test_curved_b_keeps_rk4(monkeypatch, propagator):
    # a B of degree 2 is the one field left to RK4: the route is _rk4_flow itself
    calls = []
    evaluate = dynamics._RhsEvaluator.evaluate

    def counted(self, values, t):
        calls.append(t)
        return evaluate(self, values, t)

    monkeypatch.setattr(dynamics._RhsEvaluator, "evaluate", counted)
    pg = PhaseGrid.wigner(QGrid.regular(2, 8, 0.5), K.hbar)
    f0 = gaussian_phase_function(pg, K, [0.1, 0.0], [0.0, 0.1], 0.7, 0.7, kind="w_gauge")
    if propagator == "husimi_gauge":
        f0 = husimi_from_wigner(f0)
    spec = EvolutionSpec(_quadratic_b_field(), dt=0.02, t_final=0.04, propagator=propagator)
    got = propagate_phase_space(f0, spec)
    assert len(calls) == 8
    assert np.array_equal(got.values, next(_propagate_with(_rk4_flow, f0, spec, K)).values)
