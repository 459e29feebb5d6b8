import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gipsp import (BoundaryMassError, Constants, DeconvolutionError, DensityMatrix,
                   GaugeField, GaugeTagError, QGrid,
                   SmoothingSpec, coherent_state, density_from_pure,
                   density_from_husimi_gauge, density_from_husimi_poincare, gauge_rotate,
                   husimi_from_wigner, husimi_gauge, husimi_gauge_poincare,
                   husimi_overlap, inverse_wigner, mix, quantizer_reconstruct_direct,
                   WaveFunction, wigner, wigner_from_husimi, wigner_gauge_poincare,
                   wigner_gauge_stratonovich)

from gipsp.acceptance import landau_pair, linear_a_field_1d, mixture_1d
from gipsp.husimi import MAX_AMPLIFICATION

from helpers import (coherent_closed_form, ground_state_1d, husimi_gauge_direct,
                     oracle_husimi_point, random_poly, reference_deconvolution,
                     reference_overlap, reference_smoothing, separable_2d)


def _wigner_case(case):
    """A Wigner function, with a chord-transform imag_max, on one grid shape."""
    k = Constants()
    if case == "1d-128":
        return wigner(mixture_1d()[2])
    if case == "2d-16":
        g = QGrid.regular(2, 16, 0.6)
        return wigner(mix([(0.6, coherent_state([0.4, -0.3], [0.2, 0.1], g, k, check=None)),
                           (0.4, coherent_state([-0.5, 0.2], [0.0, -0.3], g, k,
                                                check=None))]), threshold=None)
    psi_x, psi_y, psi = separable_2d(k)  # 16 x 8, unequal spacings
    return wigner(density_from_pure(psi), threshold=None)


def test_ground_state_value_and_convolution_oracle():
    k, g, rho = ground_state_1d()
    Q = husimi_overlap(rho)
    iq, ip = Q.grid.qaxes[0].n // 2, Q.grid.paxes[0].n // 2
    assert abs(Q.values[iq, ip] - 1 / (2 * np.pi)) <= 1e-6
    # independent oracle: quadrature of the Gaussian convolution of the
    # analytic Wigner function with the unit-mass smoothing kernel
    qq = np.linspace(-8, 8, 801)
    pp = np.linspace(-8, 8, 801)
    W = np.exp(-qq[:, None] ** 2 - pp[None, :] ** 2) / np.pi
    kern = np.exp(-qq[:, None] ** 2 - pp[None, :] ** 2) / np.pi
    dq = qq[1] - qq[0]
    oracle = float(np.sum(W * kern) * dq * dq)
    assert abs(Q.values[iq, ip] - oracle) <= 1e-6


def test_overlap_against_pointwise_oracle():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    rho = density_from_pure(coherent_state(0.7, -0.3, g, k))
    Q = husimi_overlap(rho)
    psi_fn = lambda x: coherent_closed_form(x, 0.7, -0.3, k)
    for iq, ip in [(128, 64), (140, 60), (118, 70)]:
        qv = Q.grid.qaxes[0].points[iq]
        pv = Q.grid.paxes[0].points[ip]
        assert abs(Q.values[iq, ip] - oracle_husimi_point(psi_fn, qv, pv, k)) <= 1e-9


def test_overlap_equals_smoothed_wigner():
    k, g, rho = mixture_1d()
    q1 = husimi_overlap(rho)
    q2 = husimi_from_wigner(wigner(rho))
    assert np.abs(q1.values - q2.values).max() <= 1e-8


def test_argmax_at_packet_center():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    rho = density_from_pure(coherent_state(1.2, 0.8, g, k))
    Q = husimi_overlap(rho)
    iq, ip = np.unravel_index(Q.values.argmax(), Q.values.shape)
    assert abs(Q.grid.qaxes[0].points[iq] - 1.2) <= Q.grid.qaxes[0].spacing
    assert abs(Q.grid.paxes[0].points[ip] - 0.8) <= Q.grid.paxes[0].spacing


def test_bounds_and_normalization():
    k, g, rho = mixture_1d()
    Q = husimi_overlap(rho)
    assert Q.values.min() >= -1e-10
    assert Q.values.max() <= 1 / (2 * np.pi * k.hbar) + 1e-10
    assert abs(Q.integrate() - 1.0) <= 1e-6
    W = wigner(rho)
    Qs = husimi_from_wigner(W)
    assert abs(Qs.integrate() - W.integrate()) <= 1e-10


def test_2d_overlap_of_product_state_factorizes():
    k = Constants()
    psi_x, psi_y, psi = separable_2d(k)
    qx = husimi_overlap(density_from_pure(psi_x)).values
    qy = husimi_overlap(density_from_pure(psi_y)).values
    rho = density_from_pure(psi)
    q2 = husimi_overlap(rho).values
    assert np.abs(q2 - np.einsum("ap,bq->abpq", qx, qy)).max() <= 1e-14
    # a kernel without components takes the dense route to the same values
    dense = DensityMatrix(rho.grid, k, values=rho.as_kernel())
    assert np.abs(husimi_overlap(dense).values - q2).max() <= 1e-14


def test_smoothing_kind_map():
    k, g, rho = ground_state_1d()
    W = wigner(rho)
    assert husimi_from_wigner(W).kind == "q"
    assert husimi_from_wigner(W.with_values(W.values, kind="w_gauge")).kind == "q_gauge"
    assert husimi_from_wigner(W.with_values(W.values, kind="w_poincare")).kind == "q_poincare"
    with pytest.raises(ValueError):
        husimi_from_wigner(husimi_from_wigner(W))


def test_deconvolution_round_trips():
    k, g, rho = mixture_1d()
    W = wigner(rho)
    Q = husimi_from_wigner(W)
    back = wigner_from_husimi(Q)
    assert np.abs(back.values - W.values).max() <= 1e-6
    iq, ip = back.grid.qaxes[0].n // 2, back.grid.paxes[0].n // 2
    k0, g0, rho0 = ground_state_1d()
    W0 = wigner_from_husimi(husimi_from_wigner(wigner(rho0)))
    assert abs(W0.values[iq, ip] - 1 / np.pi) <= 1e-5
    zero = Q.with_values(np.zeros_like(Q.values))
    assert np.abs(wigner_from_husimi(zero).values).max() == 0.0


@pytest.mark.parametrize("case", ["1d-128", "2d-16", "2d-16x8"])
def test_real_fft_smoothing_matches_complex_reference(case):
    W = _wigner_case(case)
    hbar, lam = W.constants.hbar, W.constants.lam
    Q = husimi_from_wigner(W)
    ref, _ = reference_smoothing(W.values, W.grid, hbar, lam)
    assert np.abs(Q.values - ref).max() <= 1e-15
    assert Q.imag_max == W.imag_max
    assert Q.values.dtype == np.float64 and Q.values.base is None
    spec = SmoothingSpec(band_fraction=1.0, reg_floor=1.0)
    back = wigner_from_husimi(Q, spec)
    ref_back, ref_out, ref_trunc = reference_deconvolution(
        Q.values, Q.grid, hbar, lam, spec.band_fraction, MAX_AMPLIFICATION)
    assert np.abs(back.values - ref_back).max() <= 1e-9
    assert abs(back.diagnostics["out_of_band_mass"] - ref_out) <= 1e-15
    assert abs(back.diagnostics["amplification_truncated_mass"] - ref_trunc) <= 1e-15
    assert back.imag_max == Q.imag_max
    assert back.values.dtype == np.float64 and back.values.base is None


def test_deconvolution_gate_on_gauge_pair_wigner():
    # the chord-phase Wigner function of the gauge-pair state, read as a
    # Husimi function, is far too rough to deconvolve
    k, g, landau, chi, rho, rho2, sym = landau_pair()
    W = wigner_gauge_stratonovich(rho, landau)
    with pytest.raises(DeconvolutionError):
        wigner_from_husimi(W.with_values(W.values, kind="q_gauge"))


@pytest.mark.parametrize("dim", [1, 2])
def test_overlap_accumulation_is_bitwise_reference(dim):
    k = Constants()
    if dim == 1:
        rho = mixture_1d()[2]
    else:
        _, _, psi = separable_2d(k)
        phase = np.exp(0.3j * np.arange(psi.values.size).reshape(psi.values.shape))
        rho = mix([(0.7, psi), (0.3, WaveFunction(psi.values * phase, psi.grid, k))])
    assert np.array_equal(husimi_overlap(rho).values, reference_overlap(rho, k.lam))


def test_deconvolution_gate_on_rough_input():
    k, g, rho = ground_state_1d()
    Q = husimi_from_wigner(wigner(rho))
    rng = np.random.default_rng(0)
    noisy = Q.with_values(Q.values + 1e-6 * rng.standard_normal(Q.values.shape))
    with pytest.raises(DeconvolutionError):
        wigner_from_husimi(noisy)


def test_full_density_round_trip_through_husimi():
    k, g, rho = mixture_1d()
    Q = husimi_from_wigner(wigner(rho))
    back = inverse_wigner(wigner_from_husimi(Q))
    assert np.abs(back.values - rho.values).max() <= 1e-6


def test_husimi_gauge_reductions_and_tags():
    k, g, rho = ground_state_1d()
    free = GaugeField.free(1)
    qg = husimi_gauge(rho, free)
    q = husimi_from_wigner(wigner(rho))
    assert np.abs(qg.values - q.values).max() <= 1e-12
    qp = husimi_gauge_poincare(rho, free)
    assert np.abs(qp.values - husimi_overlap(rho).values).max() <= 1e-12
    fld = linear_a_field_1d(0.4)
    with pytest.raises(GaugeTagError):
        husimi_gauge(rho, fld)


def test_husimi_gauge_invariance_2d():
    k, g, landau, chi, rho, rho2, gauged = landau_pair()
    a = husimi_gauge(rho, landau)
    b = husimi_gauge(rho2, gauged)
    assert np.abs(a.values - b.values).max() <= 1e-8
    ap = husimi_gauge_poincare(rho, landau)
    bp = husimi_gauge_poincare(rho2, gauged)
    assert np.abs(ap.values - bp.values).max() <= 1e-8
    assert a.imag_max <= 1e-10
    # the smoothing against the overlap oracle: 3.6e-6 apart at a maximum of
    # 2.4e-2, through the box edge; the smoothing's minimum is -4.5e-12
    assert np.abs(ap.values - _poincare_oracle(rho, landau).values).max() <= 1e-5


def test_gauge_paths_agree():
    k = Constants()
    g = QGrid.regular(1, 64, 0.24)
    fld = linear_a_field_1d(0.3)
    rho = density_from_pure(coherent_state(0.2, -0.1, g, k, gauge_tag=fld.tag))
    qa = husimi_gauge(rho, fld)
    qb = husimi_gauge_direct(rho, fld)
    assert np.abs(qa.values - qb.values).max() <= 1e-8


def _poincare_oracle(rho, fld, t=0.0):
    """The radial-phase Husimi function as the overlap of the state rotated
    into the Poincare gauge, a route that never forms a Wigner function."""
    return husimi_overlap(gauge_rotate(rho, fld.ray_gauge(), -1, t))


def _edge_max(values):
    """The largest |value| on the outermost nodes of any axis."""
    return max(np.abs(np.take(values, [0, -1], axis=ax)).max() for ax in range(values.ndim))


def test_poincare_cross_check_with_smoothing():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    fld = linear_a_field_1d(0.4)
    rho = density_from_pure(coherent_state(0.5, -0.4, g, k, gauge_tag=fld.tag))
    qp = husimi_gauge_poincare(rho, fld)
    assert np.abs(qp.values - _poincare_oracle(rho, fld).values).max() <= 1e-14


def _held_poincare_case(dim, n, seed):
    """A random polynomial A of degree <= 3 and a mixture of one to three
    superpositions of one or two coherent states near the origin, on an
    n-point grid whose q half-width about equals its momentum reach."""
    rng = np.random.default_rng(seed)
    k = Constants()
    g = QGrid.regular(dim, n, float(np.sqrt(np.pi / n) * rng.uniform(0.85, 1.15)))
    scale = float(rng.uniform(0.05, 0.2))
    fld = GaugeField.from_polynomials([random_poly(dim, 3, rng, scale=scale)
                                       for _ in range(dim)], tag="random")
    weights = rng.random(int(rng.integers(1, 4))) + 0.1
    comps = []
    for w in weights:
        vals = sum((rng.normal() + 1j * rng.normal())
                   * coherent_state(*rng.uniform(-0.5, 0.5, (2, dim)), g, k, check=None).values
                   for _ in range(int(rng.integers(1, 3))))
        comps.append((w / weights.sum(),
                      WaveFunction(vals, g, k, gauge_tag=fld.tag).normalized()))
    return fld, mix(comps)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([(1, 16), (1, 32), (1, 64), (2, 8), (2, 16)]),
       seed=st.integers(0, 2**32 - 1))
def test_poincare_smoothing_matches_overlap_random(case, seed):
    # the smoothed w_poincare and the overlap of the ray-rotated state part
    # only by what the box cuts off: in a sweep of 900 such cases the gap
    # stayed below 0.62 of the oracle's largest value on the outer nodes,
    # while it ranged from 1.3e-11 of the maximum (1-D n=64) to 0.33 (2-D n=8).
    # The boxes are undersized on purpose, so the smoothing runs ungated
    fld, rho = _held_poincare_case(*case, seed)
    qp = husimi_from_wigner(wigner_gauge_poincare(rho, fld, threshold=None))
    ref = _poincare_oracle(rho, fld).values
    assert qp.kind == "q_poincare"
    assert np.abs(qp.values - ref).max() <= _edge_max(ref) + 1e-14 * ref.max()


def test_gauge_independent_husimi_kinds_share_the_boundary_gate():
    # both kinds gate the position support of their Wigner kind by default:
    # on this undersized 2-D n=8 box neither returns
    fld, rho = _held_poincare_case(2, 8, 5)
    for kind in (husimi_gauge, husimi_gauge_poincare):
        with pytest.raises(BoundaryMassError):
            kind(rho, fld)


def test_density_from_husimi_gauge_round_trip():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    fld = linear_a_field_1d(0.4)
    rho = density_from_pure(coherent_state(0.5, -0.4, g, k, gauge_tag=fld.tag))
    Qg = husimi_gauge(rho, fld)
    back = density_from_husimi_gauge(Qg, fld)
    assert np.abs(back.values - rho.values).max() <= 1e-5
    assert back.hermiticity_defect() <= 1e-10
    assert abs(back.trace() - 1.0) <= 1e-6
    # zero field reduces to the plain Husimi inversion
    free = GaugeField.free(1)
    rho0 = density_from_pure(coherent_state(0.5, -0.4, g, k))
    q0 = husimi_gauge(rho0, free)
    back0 = density_from_husimi_gauge(q0, free)
    ref = inverse_wigner(wigner_from_husimi(
        q0.with_values(q0.values, kind="q")))
    assert np.abs(back0.values - ref.values).max() <= 1e-6


def test_density_from_husimi_poincare_round_trip_and_psd():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    fld = linear_a_field_1d(0.4)
    rho = density_from_pure(coherent_state(0.5, -0.4, g, k, gauge_tag=fld.tag))
    Qp = husimi_gauge_poincare(rho, fld)
    back = density_from_husimi_poincare(Qp, fld)
    assert np.abs(back.values - rho.values).max() <= 1e-5
    evals = np.linalg.eigvalsh(back.values * g.axes[0].spacing)
    assert evals.min() >= -1e-6


def test_direct_quantizer_oracles():
    k = Constants()
    g = QGrid.regular(1, 64, 0.24)
    fld = linear_a_field_1d(0.3)
    rho = density_from_pure(coherent_state(0.2, -0.1, g, k, gauge_tag=fld.tag))
    qg = husimi_gauge(rho, fld)
    direct, sel = quantizer_reconstruct_direct(qg, fld, phase_mode="chord")
    ref = rho.values[np.ix_(sel, sel)]
    assert np.abs(direct - ref).max() <= 1e-4
    qp = husimi_gauge_poincare(rho, fld)
    direct_r, sel_r = quantizer_reconstruct_direct(qp, fld, phase_mode="radial")
    assert np.abs(direct_r - rho.values[np.ix_(sel_r, sel_r)]).max() <= 1e-4


def test_smoothing_spec_validation():
    with pytest.raises(ValueError):
        SmoothingSpec(band_fraction=1.5)
    with pytest.raises(ValueError):
        SmoothingSpec(reg_floor=-1e-3)
