import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gipsp import (Axis, BoundaryMassError, Constants, DensityMatrix, GaugeField, GaugeFn,
                   GaugeTagError, PhaseGrid, PhaseSpaceFunction, Poly,
                   QGrid, WaveFunction, coherent_state, density_from_pure, gauge_rotate,
                   husimi_from_wigner, inverse_wigner,
                   inverse_wigner_gauge, inverse_wigner_poincare, mix, wigner,
                   wigner_gauge_poincare, wigner_gauge_stratonovich)

from gipsp.acceptance import (landau_pair, linear_a_field_1d, linear_b_field, mixture_1d,
                              random_density_1d)

from helpers import (coherent_closed_form, ground_state_1d, oracle_wigner_point, random_poly,
                     reference_inverse, reference_wigner, separable_2d)


def test_ground_state_value_and_oracle():
    k, g, rho = ground_state_1d()
    W = wigner(rho)
    iq, ip = W.grid.qaxes[0].n // 2, W.grid.paxes[0].n // 2
    assert abs(W.values[iq, ip] - 1 / np.pi) <= 1e-6
    oracle = oracle_wigner_point(lambda x: coherent_closed_form(x, 0.0, 0.0, k),
                                 0.0, 0.0, k)
    assert abs(W.values[iq, ip] - oracle) <= 1e-9


def test_wigner_off_center_points_against_oracle():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    rho = density_from_pure(coherent_state(0.8, -0.5, g, k))
    W = wigner(rho)
    psi_fn = lambda x: coherent_closed_form(x, 0.8, -0.5, k)
    for iq, ip in [(130, 70), (120, 58), (140, 64)]:
        qv = W.grid.qaxes[0].points[iq]
        pv = W.grid.paxes[0].points[ip]
        assert abs(W.values[iq, ip] - oracle_wigner_point(psi_fn, qv, pv, k)) <= 1e-9


def test_marginal_matches_position_density():
    k, g, rho = mixture_1d()
    W = wigner(rho)
    marg = W.marginal_position()
    assert np.abs(marg[::2] - rho.diagonal()).max() <= 1e-8


def test_normalization_and_reality():
    k, g, rho = mixture_1d()
    W = wigner(rho)
    assert abs(W.integrate() - 1.0) <= 1e-6
    assert W.imag_max <= 1e-10


def test_cat_state_negativity():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    a = coherent_state(2.5, 0.0, g, k)
    b = coherent_state(-2.5, 0.0, g, k)
    cat = a.values + b.values
    from gipsp import WaveFunction, density_from_pure
    psi = WaveFunction(cat, g, k).normalized()
    W = wigner(density_from_pure(psi))
    assert W.values.min() < -0.05
    # and the interference sits at the phase-space origin
    iq = W.grid.qaxes[0].n // 2
    assert W.values[iq].min() < -0.05


def test_purity_identity():
    k, g, rho = mixture_1d()
    W = wigner(rho)
    lhs = (2 * np.pi * k.hbar) * np.sum(W.values**2) * W.grid.cell
    assert abs(lhs - rho.purity()) <= 1e-6


def test_round_trip_random_density():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    rho = random_density_1d(g, k, seed=12)
    W = wigner(rho, threshold=None)
    back = inverse_wigner(W)
    assert np.abs(back.values - rho.values).max() <= 1e-10


def test_w_to_rho_to_w_and_zero():
    k, g, rho = mixture_1d()
    W = wigner(rho)
    again = wigner(inverse_wigner(W), threshold=None)
    assert np.abs(again.values - W.values).max() <= 1e-10
    zero = W.with_values(np.zeros_like(W.values))
    assert np.abs(inverse_wigner(zero).values).max() == 0.0


def test_pure_round_trip_purity():
    k, g, rho = ground_state_1d()
    back = inverse_wigner(wigner(rho))
    assert abs(back.purity() - 1.0) <= 1e-8
    assert back.hermiticity_defect() <= 1e-12


def test_gauge_zero_field_reduces_to_weyl():
    k, g, rho = ground_state_1d()
    free = GaugeField.free(1)
    assert np.abs(wigner_gauge_stratonovich(rho, free).values
                  - wigner(rho).values).max() <= 1e-14
    assert np.abs(wigner_gauge_poincare(rho, free).values
                  - wigner(rho).values).max() <= 1e-14


def test_gauge_tag_mismatch_raises():
    k, g, rho = ground_state_1d()
    fld = linear_a_field_1d(0.4)
    with pytest.raises(GaugeTagError):
        wigner_gauge_stratonovich(rho, fld)
    with pytest.raises(GaugeTagError):
        wigner_gauge_poincare(rho, fld)


def test_gauge_invariance_two_branch_2d():
    k, g, landau, chi, rho, rho2, gauged = landau_pair()
    a = wigner_gauge_stratonovich(rho, landau)
    b = wigner_gauge_stratonovich(rho2, gauged)
    assert np.abs(a.values - b.values).max() <= 1e-8
    ap = wigner_gauge_poincare(rho, landau)
    bp = wigner_gauge_poincare(rho2, gauged)
    assert np.abs(ap.values - bp.values).max() <= 1e-8


def test_gauge_marginal_and_reality_2d():
    k, g, landau, chi, rho, rho2, gauged = landau_pair()
    W = wigner_gauge_stratonovich(rho, landau)
    assert W.imag_max <= 1e-10
    marg = W.marginal_position()
    assert np.abs(marg[::2, ::2] - rho.diagonal()).max() <= 1e-8
    assert abs(W.integrate() - 1.0) <= 1e-6


def test_gauge_round_trip_1d():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    fld = linear_a_field_1d(0.4)
    rho = density_from_pure(coherent_state(0.5, -0.4, g, k, gauge_tag=fld.tag))
    W = wigner_gauge_stratonovich(rho, fld)
    back = inverse_wigner_gauge(W, fld)
    assert np.abs(back.values - rho.values).max() <= 1e-10
    assert back.hermiticity_defect() <= 1e-12
    # zero field reduces to the plain inverse
    free = GaugeField.free(1)
    rho0 = density_from_pure(coherent_state(0.5, -0.4, g, k))
    W0 = wigner(rho0)
    assert np.abs(inverse_wigner_gauge(W0.with_values(W0.values, kind="w_gauge"),
                                       free).values
                  - inverse_wigner(W0).values).max() <= 1e-14


def test_poincare_round_trip_1d():
    k = Constants()
    g = QGrid.regular(1, 128, 0.15)
    fld = linear_a_field_1d(0.4)
    rho = density_from_pure(coherent_state(0.5, -0.4, g, k, gauge_tag=fld.tag))
    W = wigner_gauge_poincare(rho, fld)
    back = inverse_wigner_poincare(W, fld)
    assert np.abs(back.values - rho.values).max() <= 1e-10


@pytest.mark.parametrize("dim, kind, inverse", [
    (1, "w_gauge", lambda W, fld: inverse_wigner(W)),
    (2, "w_poincare", inverse_wigner_gauge),
    (2, "w_gauge", inverse_wigner_poincare),
], ids=["inverse_wigner-of-w_gauge", "inverse_wigner_gauge-of-w_poincare",
        "inverse_wigner_poincare-of-w_gauge"])
def test_each_inverse_refuses_a_kind_it_does_not_invert(dim, kind, inverse):
    # each call returned a wrong kernel without an error: 0.117 off at a max
    # of 0.56 for the 1-D w_gauge (A = 0.4x), and 0.045 at a max of 0.30 for
    # either 2-D n=16 kind (Landau B = 0.5) in the other's inverse
    k = Constants()
    fld = GaugeField.uniform_b(0.5, "landau") if dim == 2 else linear_a_field_1d(0.4)
    rho = density_from_pure(coherent_state([0.3, -0.2][:dim], [0.1, 0.0][:dim],
                                           QGrid.regular(dim, 16, 0.4), k,
                                           gauge_tag=fld.tag, check=None))
    transform = wigner_gauge_poincare if kind == "w_poincare" else wigner_gauge_stratonovich
    with pytest.raises(ValueError, match=f"not '{kind}'"):
        inverse(transform(rho, fld, threshold=None), fld)


def test_poincare_symmetric_gauge_equals_weyl():
    b = 0.5
    k = Constants()
    g = QGrid.regular(2, 32, 0.3)
    sym = GaugeField.uniform_b(b, "symmetric")
    rho = density_from_pure(coherent_state([0.6, -0.4], [0.0, 0.0], g, k,
                                           gauge_tag=sym.tag))
    assert np.abs(wigner_gauge_poincare(rho, sym).values
                  - wigner(rho).values).max() <= 1e-12


def test_distinctness_guard():
    k, g, landau, chi, rho, rho2, gauged = landau_pair()
    wg = wigner_gauge_stratonovich(rho, landau)
    wp = wigner_gauge_poincare(rho, landau)
    assert np.abs(wg.values - wp.values).max() > 10 * 1e-8


def test_2d_round_trip_dense():
    k = Constants()
    g = QGrid.regular(2, 16, 0.55)
    fld = GaugeField.uniform_b(0.5, "landau")
    rho = density_from_pure(coherent_state([0.3, -0.2], [0.2, 0.0], g, k,
                                           gauge_tag=fld.tag, check=1e-4))
    W = wigner_gauge_stratonovich(rho, fld, threshold=None)
    back = inverse_wigner_gauge(W, fld)
    assert np.abs(back.values - rho.as_kernel()).max() <= 1e-10
    # forward transform of the dense reconstruction matches the component path
    W2 = wigner_gauge_stratonovich(back, fld, threshold=None)
    assert np.abs(W2.values - W.values).max() <= 1e-12


def test_2d_wigner_of_product_state_factorizes():
    k = Constants()
    psi_x, psi_y, psi = separable_2d(k)
    wx = wigner(density_from_pure(psi_x), threshold=None).values
    wy = wigner(density_from_pure(psi_y), threshold=None).values
    w2 = wigner(density_from_pure(psi), threshold=None).values
    assert np.abs(w2 - np.einsum("ap,bq->abpq", wx, wy)).max() <= 1e-14


def test_2d_round_trip_components_and_dense_kernel():
    k = Constants()
    rho = density_from_pure(separable_2d(k)[2])
    kernel = rho.as_kernel()
    dense = DensityMatrix(rho.grid, k, values=kernel)
    for state in (rho, dense):
        back = inverse_wigner(wigner(state, threshold=None))
        assert np.abs(back.values - kernel).max() <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_inverse_limits_total_point_count(monkeypatch, dim):
    import gipsp.phase_space
    # a low limit keeps the arrays small; 16 points per axis exceed it in 1-D and 2-D
    monkeypatch.setattr(gipsp.phase_space, "DENSE_POINT_LIMIT", 15)
    k = Constants()
    pgrid = PhaseGrid.wigner(QGrid.regular(dim, 16, 0.3), k.hbar)
    W = PhaseSpaceFunction(np.zeros(pgrid.shape), pgrid, "w", k)
    with pytest.raises(ValueError, match="limited to 15 grid points"):
        inverse_wigner(W)


def test_boundary_gates():
    k = Constants()
    g = QGrid.regular(1, 64, 0.15)  # deliberately small box
    rho = density_from_pure(coherent_state(3.8, 0.0, g, k, check=None))
    with pytest.raises(BoundaryMassError):
        wigner(rho, threshold=1e-6)
    # heavily oscillatory state overflows the momentum window
    x = g.axes[0].points
    from gipsp import WaveFunction
    osc = WaveFunction(np.exp(-x**2 / 2 + 1j * 9.0 * x), g, k).normalized()
    with pytest.raises(BoundaryMassError):
        wigner(density_from_pure(osc), threshold=1e-6)


# ---------------------------------------------------------------------------
# properties of the transforms on random low-rank states and random A
# ---------------------------------------------------------------------------

_PROPERTY = settings(max_examples=50, deadline=None)
_CASES = st.sampled_from([(1, 8), (1, 16), (1, 32), (2, 8)])


def _random_case(dim, n, seed):
    """A random polynomial A of degree <= 3 and a mixture of one to three
    random, normalized wavefunctions tagged with it, on an n-point grid."""
    rng = np.random.default_rng(seed)
    k = Constants()
    g = QGrid.regular(dim, n, float(rng.uniform(0.2, 0.5)))
    fld = GaugeField.from_polynomials([random_poly(dim, 3, rng) for _ in range(dim)],
                                      tag="random")
    weights = rng.random(int(rng.integers(1, 4))) + 0.1
    comps = [(w / weights.sum(),
              WaveFunction(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape),
                           g, k, gauge_tag=fld.tag).normalized())
             for w in weights]
    return k, fld, mix(comps)


@_PROPERTY
@given(case=_CASES, seed=st.integers(0, 2**32 - 1))
def test_purity_identity_random(case, seed):
    # for the canonical, the chord-phase and the radial-phase W:
    # (2 pi hbar)^N sum W^2 dGamma = Tr rho^2; the momentum sum on the even
    # (original) q nodes is the position density; W is real; and the
    # smoothing keeps the integral.  The integral itself is not Tr rho: on
    # states the grid does not resolve it missed by up to 83%
    k, fld, rho = _random_case(*case, seed)
    diagonal = rho.diagonal()
    for W in (wigner(rho, threshold=None), wigner_gauge_stratonovich(rho, fld, threshold=None),
              wigner_gauge_poincare(rho, fld, threshold=None)):
        lhs = (2 * np.pi * k.hbar) ** rho.dim * np.sum(W.values**2) * W.grid.cell
        assert abs(lhs - rho.purity()) <= 1e-13 * rho.purity()
        marginal = W.marginal_position()[(slice(None, None, 2),) * rho.dim]
        assert np.abs(marginal - diagonal).max() <= 1e-13 * np.abs(diagonal).max()
        assert W.imag_max <= 1e-12 * np.abs(W.values).max()
        smoothed = husimi_from_wigner(W).integrate() - W.integrate()
        assert abs(smoothed) <= 1e-13 * np.abs(W.values).sum() * W.grid.cell


@_PROPERTY
@given(case=_CASES, seed=st.integers(0, 2**32 - 1))
def test_round_trips_random(case, seed):
    k, fld, rho = _random_case(*case, seed)
    kernel = rho.as_kernel()
    back = inverse_wigner(wigner(rho, threshold=None))
    back_g = inverse_wigner_gauge(wigner_gauge_stratonovich(rho, fld, threshold=None), fld)
    back_p = inverse_wigner_poincare(wigner_gauge_poincare(rho, fld, threshold=None), fld)
    for b in (back, back_g, back_p):
        assert np.abs(b.values - kernel).max() <= 1e-12 * np.abs(kernel).max()


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_gauge_invariance_random(dim, seed):
    # all four gauge-independent kinds agree between a state in a random
    # polynomial A and its twin rotated by a random polynomial chi
    k, fld, rho = _random_case(dim, 8, seed)
    chi = GaugeFn(random_poly(dim, 3, np.random.default_rng([seed, 1])), tag="chi")

    def kinds(r, f):
        wg = wigner_gauge_stratonovich(r, f, threshold=None)
        wp = wigner_gauge_poincare(r, f, threshold=None)
        return wg, husimi_from_wigner(wg), wp, husimi_from_wigner(wp)

    for a, b in zip(kinds(rho, fld), kinds(gauge_rotate(rho, chi, +1), fld.gauged(chi, k))):
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(a.values).max()


# ---------------------------------------------------------------------------
# the fused chord walk against the per-axis reference in helpers
# ---------------------------------------------------------------------------

def _walk_field(name, dim, k):
    """A field of the walk comparisons; None stands for the Weyl transform."""
    if name == "weyl":
        return None
    if dim == 1:
        cubic = Poly(1, {(1, 0): 0.3, (2, 0): -0.2, (3, 0): 0.1})
        return {"linear": linear_a_field_1d(0.4),
                "cubic": GaugeField.from_polynomials([cubic], tag="cubic")}[name]
    landau = GaugeField.uniform_b(0.5, "landau")
    cubic = [Poly(2, {(0, 3, 0): 0.05, (1, 1, 0): -0.2}), Poly(2, {(2, 1, 0): 0.1, (1, 0, 0): 0.3})]
    return {"landau": landau,
            "symmetric": GaugeField.uniform_b(0.5, "symmetric"),
            "landau_chi": landau.gauged(GaugeFn(Poly(2, {(1, 1, 0): 0.3}), tag="chi"), k),
            "gradient_b": linear_b_field(0.5, 0.2),
            "cubic": GaugeField.from_polynomials(cubic, tag="cubic")}[name]


def _walk_grid(dim, n):
    """The grid of a walk comparison: 1-D n points at dq 0.3; in 2-D, n is
    the first axis's count: the 16 x 8 grid, its 8 x 16 transpose, or the
    32 x 32 gauge-pair grid at dq 0.3, whose blocks are one column each."""
    if dim == 1:
        return QGrid.regular(1, n, 0.3)
    wide, narrow = Axis(16, 0.35), Axis(8, 0.5, 0.1)
    return {16: QGrid((wide, narrow)), 8: QGrid((narrow, wide)),
            32: QGrid.regular(2, 32, 0.3)}[n]


def _walk_state(dim, n, fld, form, k):
    """A random state on the grid of ``_walk_grid``: a dense kernel, not
    Hermitian so that the transform has an imaginary part for imag_max to
    measure, or two components."""
    rng = np.random.default_rng(5)
    g = _walk_grid(dim, n)
    tag = "free" if fld is None else fld.tag
    if form == "dense":
        shape = g.shape + g.shape
        return DensityMatrix(g, k, values=rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape), gauge_tag=tag)
    return mix([(w, WaveFunction(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape),
                                 g, k, gauge_tag=tag).normalized()) for w in (0.7, 0.3)])


_WALK_FIELDS_2D = ("weyl", "landau", "symmetric", "landau_chi", "gradient_b", "cubic")
_WALK_CASES = ([(1, n, name) for n in (16, 32) for name in ("weyl", "linear", "cubic")]
               + [(2, n, name) for n in (16, 8) for name in _WALK_FIELDS_2D]
               + [(2, 32, "landau")])


@pytest.mark.parametrize("form", ["dense", "components"])
@pytest.mark.parametrize("dim, n, name", _WALK_CASES)
def test_chord_walk_matches_per_axis_reference(dim, n, name, form):
    # catches, among others: a chord inside the grid sent to the zero slot,
    # a row of the block's slab dropped, a parity given the other parity's
    # pre- or post-multiplier, a chord-phase factor left out or not
    # conjugated in the inverse, and the inverse writing the chords that
    # leave the grid into the kernel
    k = Constants()
    fld = _walk_field(name, dim, k)
    rho = _walk_state(dim, n, fld, form, k)
    if fld is None:
        W = wigner(rho, threshold=None)
        back = inverse_wigner(W)
    else:
        W = wigner_gauge_stratonovich(rho, fld, threshold=None)
        back = inverse_wigner_gauge(W, fld)
    ref, ref_imag = reference_wigner(rho, fld)
    scale = np.abs(ref.real).max()
    assert np.abs(W.values - ref.real).max() <= 1e-14 * scale
    assert abs(W.imag_max - ref_imag) <= 1e-12 * scale
    # the last refined column of each axis, l = 2n - 1, holds no chord
    for axis in range(dim):
        assert not np.take(W.values, -1, axis=axis).any()
    ref_kernel = reference_inverse(W, fld)
    assert np.abs(back.values - ref_kernel).max() <= 1e-14 * np.abs(ref_kernel).max()


@pytest.mark.parametrize("name", ["landau", "symmetric", "landau_chi"])
def test_uniform_b_chord_phase_factors_are_smaller_than_a_block(name):
    # for A of degree <= 1 the chord phase is a product of slices; on the
    # 2-D n=32 grid every block is one column.  Catches chord_integral
    # broadcasting q + tau u at tau = 0, or the phase summed before its exp
    from gipsp.phase_space import _chord_phase_factory, _column_blocks
    k = Constants()
    factors = _chord_phase_factory(_walk_field(name, 2, k), 0.0, k, +1)
    for cols, rows, c in _column_blocks(QGrid.regular(2, 32, 0.3)):
        block = np.broadcast_shapes(*(a.shape for a in c.q + c.u))
        sizes = [f.size for f in factors(c.q, c.u)]
        assert sizes and max(sizes) < np.prod(block)


def test_chord_walk_holds_no_full_size_array():
    # one 2-D n=32 transform allocates the 32 MiB output and, beyond it,
    # block-sized workspaces (about 5.5 MiB in all); a full-size index,
    # mask or temporary would exceed the bound
    import tracemalloc
    k = Constants()
    fld = GaugeField.uniform_b(0.5, "landau")
    rho = density_from_pure(coherent_state([0.3, -0.2], [0.1, 0.0], QGrid.regular(2, 32, 0.3),
                                           k, gauge_tag=fld.tag))
    tracemalloc.start()
    try:
        W = wigner_gauge_stratonovich(rho, fld, threshold=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - W.values.nbytes <= 10e6
