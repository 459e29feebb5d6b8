"""Acceptance suite: the package's exit criteria 1-9, run by ``gipsp selftest``
(:func:`run_acceptance`) and, one test per criterion, by the pytest module
that wraps them.

It is also the one home of the reference scenarios that the criteria and the
test suite share (``__all__`` names them with the criteria): the Landau-gauge
state and its chi = (B/2)xy twin (:func:`landau_pair`), the cyclotron-matched
symmetric-gauge state (:func:`rigid_state`), the linear-A and linear-B fields,
the 1-D mixture, the random kernel, the dense-Schroedinger time derivative of
the chord Wigner function (:func:`dense_time_derivative`), and the hbar order
of the quantum terms of the phase-space right-hand sides (:func:`hbar_order`).

Every criterion states its tolerance explicitly and reports the measured
value; nothing is calibrated at run time.  Desk scale: 1-D grids use n=128,
2-D grids n=32 per axis (the 2-D quasi-distributions then carry at least 32
points per phase-space axis), total runtime a few minutes on a laptop.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .dynamics import (EvolutionSpec, dense_hamiltonian, husimi_gauge_rhs,
                       liouville_propagate, liouville_rhs, moyal_gauge_rhs,
                       schrodinger_propagate)
from .em_fields import GaugeField, GaugeFn, Poly
from .husimi import (SmoothingSpec, husimi_from_wigner, husimi_gauge,
                     husimi_gauge_poincare, husimi_overlap,
                     quantizer_reconstruct_direct, wigner_from_husimi)
from .lattice import TWO_PI, Constants, PhaseGrid, QGrid, max_abs_diff, spectral_derivative
from .phase_space import (gaussian_phase_function, inverse_wigner,
                          inverse_wigner_gauge, inverse_wigner_poincare, wigner,
                          wigner_gauge_poincare, wigner_gauge_stratonovich)
from .states import DensityMatrix, coherent_state, density_from_pure, gauge_rotate, mix

__all__ = [
    "CriterionResult", "run_acceptance",
    "criterion_1", "criterion_2", "criterion_3", "criterion_4", "criterion_5",
    "criterion_6", "criterion_7", "criterion_8", "criterion_9",
    "landau_pair", "rigid_state", "linear_a_field_1d", "linear_b_field",
    "mixture_1d", "random_density_1d", "dense_time_derivative", "hbar_order",
]


# ---------------------------------------------------------------------------
# reference scenarios
# ---------------------------------------------------------------------------

def landau_pair():
    """Coherent state at rest at q0 = (0.6, -0.4) in the Landau gauge of
    B = 0.5 on a 32 x 32 grid of spacing 0.3, plus its twin rotated by
    chi = (B/2)xy into the symmetric gauge:
    ``(k, grid, landau, chi, rho, rho2, gauged)``."""
    b = 0.5
    k = Constants(lam=1.0)
    grid = QGrid.regular(2, 32, 0.3)
    landau = GaugeField.uniform_b(b, "landau")
    chi = GaugeFn(Poly(2, {(1, 1, 0): b / 2.0}), tag="bxy_half")
    rho = density_from_pure(coherent_state((0.6, -0.4), (0.0, 0.0), grid, k,
                                           gauge_tag=landau.tag))
    return k, grid, landau, chi, rho, gauge_rotate(rho, chi, +1), landau.gauged(chi, k)


def rigid_state(grid, sym, k):
    """Coherent state at q0 = (0.3, -0.2) with kinetic momentum (0, 0.3) in the
    symmetric gauge ``sym`` of B = 1; with lam = 0.5 its width matches the
    cyclotron orbit, so it rotates rigidly."""
    b = 1.0
    q0 = np.array([0.3, -0.2])
    p0 = np.array([-b * q0[1] / 2.0, b * q0[0] / 2.0]) + np.array([0.0, 0.3])
    return coherent_state(q0, p0, grid, k, gauge_tag=sym.tag, check=1e-4)


def linear_a_field_1d(a):
    """The 1-D gauge A = a x (no field strength in 1-D)."""
    return GaugeField.from_polynomials([Poly(1, {(1, 0): a})], tag="ax_linear")


def linear_b_field(b0, grad):
    """B(x, y) = b0 + grad x, realized by A = (0, b0 x + grad x^2 / 2)."""
    return GaugeField.from_polynomials(
        [Poly.zero(2), Poly(2, {(1, 0, 0): b0, (2, 0, 0): grad / 2.0})], tag="b_linear")


def mixture_1d():
    """Equal mixture of two coherent states on 128 points: ``(k, grid, rho)``."""
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    rho = mix([(0.5, coherent_state(1.0, 0.5, g, k)),
               (0.5, coherent_state(-1.2, -0.3, g, k))])
    return k, g, rho


def random_density_1d(g, constants, seed):
    """Dense unit-trace kernel M M^dagger of a complex Gaussian matrix M."""
    rng = np.random.default_rng(seed)
    n = g.axes[0].n
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kern = m @ m.conj().T
    kern /= np.trace(kern).real * g.axes[0].spacing
    return DensityMatrix(g, constants, values=kern)


def _linear_a_state(a=0.4, n=128, dq=0.15, q0=0.5, p0=-0.4):
    """The gauge A = a x and a coherent state tagged with it: ``(field, rho)``."""
    fld = linear_a_field_1d(a)
    g = QGrid.regular(1, n, dq)
    return fld, density_from_pure(coherent_state(q0, p0, g, Constants(), gauge_tag=fld.tag))


def dense_time_derivative(psi, fld):
    """dW/dt of the chord Wigner function of ``psi`` in the static field
    ``fld``: the centered difference over t = -delta, +delta, delta = 2e-3,
    of the evolution by the dense Hamiltonian diagonalized exactly.  The
    backward half is no forward span for ``EvolutionSpec``, so both halves
    are formed here from the one eigenbasis."""
    delta = 2e-3
    evals, vecs = np.linalg.eigh(dense_hamiltonian(psi.grid, fld, psi.constants))
    coeffs = vecs.conj().T @ psi.values.ravel()
    side = [wigner_gauge_stratonovich(density_from_pure(replace(
                psi, values=(vecs @ (coeffs * np.exp(-1j * evals * t / psi.constants.hbar)))
                .reshape(psi.grid.shape))), fld, threshold=None).values
            for t in (delta, -delta)]
    return (side[0] - side[1]) / (2 * delta)


def hbar_order(rhs, kind):
    """Order in hbar of max|rhs - Liouville rhs| for a Gaussian of ``kind`` in
    the gradient-B field, fitted over hbar = 0.1, 0.05, 0.025: ``(order, errors)``."""
    fld = linear_b_field(1.0, 0.2)
    pg = PhaseGrid.wigner(QGrid.regular(2, 16, 0.5), 1.0)
    f = gaussian_phase_function(pg, Constants(), [0.2, -0.1], [0.0, 0.1], 0.9, 0.4,
                                kind=kind)
    hbars = [0.1, 0.05, 0.025]
    errs = []
    for hb in hbars:
        kh = Constants(hbar=hb)
        errs.append(max_abs_diff(rhs(f, fld, constants=kh).values,
                                 liouville_rhs(f, fld, constants=kh).values))
    return float(np.polyfit(np.log(hbars), np.log(errs), 1)[0]), errs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    metrics: dict = dataclass_field(default_factory=dict)
    seconds: float = 0.0

    def check_max(self, name, value, tol):
        """value must be <= tol."""
        self.metrics[name] = (float(value), float(tol), "max")
        self.passed &= bool(value <= tol)

    def check_min(self, name, value, floor):
        """value must be >= floor."""
        self.metrics[name] = (float(value), float(floor), "min")
        self.passed &= bool(value >= floor)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = max(
            (v / t for v, t, kind in self.metrics.values() if kind == "max"),
            default=0.0,
        )
        return (f"[{status}] criterion {self.number}: {self.title} "
                f"({len(self.metrics)} checks, worst ratio {worst:.2e}, "
                f"{self.seconds:.1f}s)")

    def show(self) -> None:
        """The status line, then one line per measured value."""
        print(self.line())
        for name, (value, tol, kind) in self.metrics.items():
            if kind == "info":
                print(f"    {name}: {value:.3e} .. {tol:.3e}")
            else:
                rel = "<=" if kind == "max" else ">="
                print(f"    {name} = {value:.3e} ({rel} {tol:.1e})")


def _criterion(number, title):
    """Make ``measure(c)``, which records its checks on ``c``, a criterion
    returning a timed :class:`CriterionResult`."""
    def wrap(measure):
        @functools.wraps(measure)
        def run() -> CriterionResult:
            c = CriterionResult(number, title, True)
            t0 = time.time()
            measure(c)
            c.seconds = time.time() - t0
            return c
        return run
    return wrap


@_criterion(1, "gauge invariance of all four gauge-independent kinds")
def criterion_1(c):
    k, grid, landau, chi, rho, rho2, gauged = landau_pair()
    tol = 1e-8
    wg_a = wigner_gauge_stratonovich(rho, landau)
    wg_b = wigner_gauge_stratonovich(rho2, gauged)
    c.check_max("wg_invariance_max_err", max_abs_diff(wg_a.values, wg_b.values), tol)
    qg_a = husimi_from_wigner(wg_a)
    qg_b = husimi_from_wigner(wg_b)
    c.check_max("qg_invariance_max_err", max_abs_diff(qg_a.values, qg_b.values), tol)
    wp_a = wigner_gauge_poincare(rho, landau)
    wp_b = wigner_gauge_poincare(rho2, gauged)
    c.check_max("wp_invariance_max_err", max_abs_diff(wp_a.values, wp_b.values), tol)
    qp_a = husimi_gauge_poincare(rho, landau)
    qp_b = husimi_gauge_poincare(rho2, gauged)
    c.check_max("qp_invariance_max_err", max_abs_diff(qp_a.values, qp_b.values), tol)


@_criterion(2, "reduction identities at A=0 and in the radial gauge")
def criterion_2(c):
    tol = 1e-12
    k = Constants()
    g1 = QGrid.regular(1, 128, 0.15)
    free1 = GaugeField.free(1)
    rho = density_from_pure(coherent_state(0.7, -0.4, g1, k))
    w = wigner(rho)
    c.check_max("wg_equals_w", max_abs_diff(
        wigner_gauge_stratonovich(rho, free1).values, w.values), tol)
    c.check_max("wp_equals_w", max_abs_diff(
        wigner_gauge_poincare(rho, free1).values, w.values), tol)
    q = husimi_overlap(rho)
    c.check_max("qg_equals_q", max_abs_diff(
        husimi_from_wigner(wigner_gauge_stratonovich(rho, free1)).values,
        husimi_from_wigner(w).values), tol)
    c.check_max("qp_equals_q", max_abs_diff(
        husimi_gauge_poincare(rho, free1).values, q.values), tol)
    # radial gauge of a uniform field: the ray phase vanishes identically
    b = 0.5
    sym = GaugeField.uniform_b(b, "symmetric")
    g2 = QGrid.regular(2, 32, 0.3)
    rho2 = density_from_pure(coherent_state([0.6, -0.4], [0.0, 0.0], g2, Constants(),
                                            gauge_tag=sym.tag))
    c.check_max("wp_equals_w_symmetric_gauge", max_abs_diff(
        wigner_gauge_poincare(rho2, sym).values, wigner(rho2).values), tol)


@_criterion(3, "Husimi consistency: overlap route vs smoothed Wigner")
def criterion_3(c):
    k, g, rho = mixture_1d()
    q_overlap = husimi_overlap(rho)
    q_smooth = husimi_from_wigner(wigner(rho))
    c.check_max("overlap_vs_smoothed_max_err",
                max_abs_diff(q_overlap.values, q_smooth.values), 1e-8)
    c.check_max("q_reality_err", q_smooth.imag_max, 1e-10)
    c.check_min("q_min_value", q_overlap.values.min(), -1e-10)
    c.check_max("q_normalization_err", abs(q_overlap.integrate() - 1.0), 1e-6)
    bound = (TWO_PI * k.hbar) ** (-g.dim)
    c.check_max("q_upper_bound_excess", q_overlap.values.max() - bound, 1e-10)


@_criterion(4, "round trips: Weyl, chord-phase, and quantizer routes")
def criterion_4(c):
    rho_rand = random_density_1d(QGrid.regular(1, 128, 0.15), Constants(), seed=7)
    back = inverse_wigner(wigner(rho_rand, threshold=None))
    c.check_max("w_round_trip_random_rho", max_abs_diff(back.values, rho_rand.values), 1e-10)

    a_fld, rho = _linear_a_state()
    wg = wigner_gauge_stratonovich(rho, a_fld)
    back2 = inverse_wigner_gauge(wg, a_fld)
    c.check_max("wg_round_trip", max_abs_diff(back2.values, rho.values), 1e-10)

    qg = husimi_from_wigner(wg)
    spec = SmoothingSpec()
    rho3 = inverse_wigner_gauge(wigner_from_husimi(qg, spec), a_fld)
    c.check_max("qg_quantizer_round_trip", max_abs_diff(rho3.values, rho.values), 1e-5)

    a64, rho64 = _linear_a_state(0.3, 64, 0.24, 0.2, -0.1)
    qg64 = husimi_gauge(rho64, a64)
    direct, sel = quantizer_reconstruct_direct(qg64, a64, phase_mode="chord")
    pipeline = inverse_wigner_gauge(wigner_from_husimi(qg64, spec), a64)
    ref = pipeline.values[np.ix_(sel, sel)]
    c.check_max("direct_quantizer_chord_vs_pipeline", max_abs_diff(direct, ref), 1e-4)
    qp64 = husimi_gauge_poincare(rho64, a64)
    direct_r, sel_r = quantizer_reconstruct_direct(qp64, a64, phase_mode="radial")
    # the ray-phase chirp broadens the spectrum; admit it explicitly
    spec_r = SmoothingSpec(reg_floor=1e-8)
    pipeline_r = inverse_wigner_poincare(wigner_from_husimi(qp64, spec_r), a64)
    ref_r = pipeline_r.values[np.ix_(sel_r, sel_r)]
    c.check_max("direct_quantizer_radial_vs_pipeline", max_abs_diff(direct_r, ref_r), 1e-4)


@_criterion(5, "reality of the gauge-independent Husimi function")
def criterion_5(c):
    k, grid, landau, chi, rho, rho2, gauged = landau_pair()
    qg = husimi_from_wigner(wigner_gauge_stratonovich(rho, landau))
    c.check_max("qg_imag_max_2d", qg.imag_max, 1e-12)
    a_fld, rho1 = _linear_a_state()
    qg1 = husimi_from_wigner(wigner_gauge_stratonovich(rho1, a_fld))
    c.check_max("qg_imag_max_1d", qg1.imag_max, 1e-12)


@_criterion(6, "dynamics cross-validation over one cyclotron period")
def criterion_6(c):
    b = 1.0
    k = Constants(lam=0.5)
    grid = QGrid.regular(2, 32, 0.4)
    sym = GaugeField.uniform_b(b, "symmetric")
    psi = rigid_state(grid, sym, k)
    period = TWO_PI * k.mass * k.light_speed / (abs(k.charge) * b)
    rho0 = density_from_pure(psi)
    wg0 = wigner_gauge_stratonovich(rho0, sym)

    psi_t = schrodinger_propagate(
        psi, EvolutionSpec(sym, dt=0.05, t_final=period, propagator="schrodinger_dense"))
    wg_t = wigner_gauge_stratonovich(density_from_pure(psi_t), sym, threshold=None)
    wg_l = liouville_propagate(
        wg0, EvolutionSpec(sym, dt=period / 256, t_final=period, propagator="liouville"))
    c.check_max("schrodinger_vs_liouville_wg", max_abs_diff(wg_t.values, wg_l.values), 1e-4)

    fd = dense_time_derivative(psi, sym)
    rhs = moyal_gauge_rhs(wg0, sym)
    c.check_max("moyal_rhs_vs_schrodinger_fd", max_abs_diff(rhs.values, fd), 1e-4)

    rhs_classical = liouville_rhs(wg0, sym)
    c.check_max("moyal_equals_liouville_uniform",
                max_abs_diff(rhs.values, rhs_classical.values), 1e-10)


@_criterion(7, "classical limit: quadratic vanishing of the quantum terms")
def criterion_7(c):
    order, errs = hbar_order(moyal_gauge_rhs, "w_gauge")
    c.check_min("moyal_hbar_order", order, 1.9)
    c.metrics["hbar_errors"] = (float(errs[-1]), float(errs[0]), "info")


@_criterion(8, "smoothing intertwining relations and evolution intertwining")
def criterion_8(c):
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    pg = PhaseGrid.wigner(g, k.hbar)
    f = gaussian_phase_function(pg, k, 0.3, -0.4, 1.1, 0.9)
    lam = k.lam
    qm, = pg.q_mesh()
    pm, = pg.p_mesh()
    smooth = husimi_from_wigner(f).values
    lhs_q = husimi_from_wigner(
        f.with_values(f.values * np.broadcast_to(qm, f.values.shape))).values
    rhs_q = (np.broadcast_to(qm, smooth.shape) * smooth
             + (k.hbar / (2 * lam))
             * np.real(spectral_derivative(smooth.astype(complex), 0, pg.qaxes[0])))
    c.check_max("intertwine_position_err", max_abs_diff(lhs_q, rhs_q), 1e-9)
    lhs_p = husimi_from_wigner(
        f.with_values(f.values * np.broadcast_to(pm, f.values.shape))).values
    rhs_p = (np.broadcast_to(pm, smooth.shape) * smooth
             + (k.hbar * lam / 2)
             * np.real(spectral_derivative(smooth.astype(complex), 1, pg.paxes[0])))
    c.check_max("intertwine_momentum_err", max_abs_diff(lhs_p, rhs_p), 1e-9)

    # evolution intertwining, uniform field (1-D, uniform E)
    fld = GaugeField.uniform_e([0.4])
    fw = f.with_values(f.values, kind="w_gauge")
    left = husimi_from_wigner(moyal_gauge_rhs(fw, fld)).values
    right = husimi_gauge_rhs(husimi_from_wigner(fw), fld).values
    c.check_max("evolution_intertwine_uniform_err", max_abs_diff(left, right), 1e-8)

    # classical limit of the Husimi equation (order >= 0.9)
    c.check_min("husimi_hbar_order", hbar_order(husimi_gauge_rhs, "q_gauge")[0], 0.9)


@_criterion(9, "chord-phase and radial-phase kinds are distinct objects")
def criterion_9(c):
    k, grid, landau, chi, rho, rho2, gauged = landau_pair()
    wg = wigner_gauge_stratonovich(rho, landau)
    wp = wigner_gauge_poincare(rho, landau)
    gap = max_abs_diff(wg.values, wp.values)
    c.check_min("wg_vs_wp_distinctness_gap", gap, 10 * 1e-8)


_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9]


def run_acceptance() -> list[CriterionResult]:
    """Run every criterion, printing each result as it completes."""
    results = []
    for fn in _CRITERIA:
        results.append(fn())
        results[-1].show()
    return results
