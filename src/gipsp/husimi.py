"""Husimi functions and density-matrix reconstruction from them.

The smoothing route convolves a Wigner-type function with the unit-mass
Gaussian kernel (pi hbar)^(-N) exp(-lam dq^2/hbar - dp^2/(lam hbar)),
computed spectrally; its inverse is the growing Fourier multiplier
exp(+hbar a^2/(4 lam) + hbar lam b^2/4), which is ill posed, so the
deconvolution is hard band-limited to a fraction ``band_fraction`` of the
Nyquist radius and gated on the spectral mass outside that band.  The
multiplier is real and even, so the ``rfft`` half spectrum of the real
values carries everything, and it factorizes into one Gaussian per axis.
The smoothing applies it one axis at a time: an axis of at most
``_MATRIX_POINTS`` points by its real circulant matrix
(``lattice.spectral_matrices``) in one BLAS product, the longer ones by
one real FFT over them.  The deconvolution's band and
amplification mask do not factor by axis, so it runs on ``rfftn``/``irfftn``
(leading axes in place).  A real transform leaves no imaginary part, so
both routes carry the input's ``imag_max``; for the smoothing this bounds
the imaginary part the result would have inherited (the kernel is positive
with unit mass), so it keeps reporting how real the Wigner transform was.

Each gauge-independent Husimi function is the smoothing of its own Wigner
kind (``q_gauge`` of ``w_gauge``, ``q_poincare`` of ``w_poincare``),
non-negative to round-off on a grid that holds the state.  The overlap route
evaluates (2 pi hbar)^(-N) <alpha(q,p)| rho |alpha(q,p)> directly with
windowed transforms, non-negative by construction: it gives the canonical
``q``, never touches the Wigner pipeline and is the smoothing's independent
oracle (of the ray-rotated state, for ``q_poincare``).  A direct kernel
quadrature of the quantizer integral is provided at low resolution as a
validation oracle.
The quantizer integrand contains growing Gaussian factors and converges only
in the stipulated order (position sum, then momentum, then the auxiliary
frequency), which limits the direct oracle to a central window of the kernel
where the growth stays within floating-point reach; the production inverse
always goes through the band-limited Wigner route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em_fields import GaugeField
from .lattice import TWO_PI, PhaseGrid, spectral_matrices, wavenumbers
from .phase_space import (
    HUSIMI_KINDS,
    PhaseSpaceFunction,
    inverse_wigner_gauge,
    inverse_wigner_poincare,
    wigner_gauge_poincare,
    wigner_gauge_stratonovich,
)
from .states import DensityMatrix

__all__ = [
    "MAX_AMPLIFICATION",
    "SmoothingSpec",
    "DeconvolutionError",
    "husimi_from_wigner",
    "wigner_from_husimi",
    "husimi_overlap",
    "husimi_gauge",
    "density_from_husimi_gauge",
    "husimi_gauge_poincare",
    "density_from_husimi_poincare",
    "quantizer_reconstruct_direct",
]


class DeconvolutionError(ValueError):
    """The inverse smoothing is unreliable for this input (out-of-band mass)."""


# Cap on the inverse smoothing multiplier inside the band: beyond it the
# deconvolution would lift floating-point round-off above any useful signal,
# so those modes are zeroed (truncation and amplified noise both land near
# 1e-8 for double precision).
MAX_AMPLIFICATION = 1e8


@dataclass(frozen=True)
class SmoothingSpec:
    """Deconvolution settings; the squeeze lam is that of the constants in use
    (``Constants.lam``) and the amplification cap is ``MAX_AMPLIFICATION``.

    ``band_fraction`` is the deconvolution band limit as a fraction of the
    Nyquist radius; ``reg_floor`` is the admissible out-of-band spectral mass.
    """

    band_fraction: float = 0.5
    reg_floor: float = 1e-10

    def __post_init__(self):
        if not 0 < self.band_fraction <= 1:
            raise ValueError("band_fraction must lie in (0, 1]")
        if self.reg_floor < 0:
            raise ValueError("reg_floor must be non-negative")


_SMOOTH_KIND = {"w": "q", "w_gauge": "q_gauge", "w_poincare": "q_poincare",
                "classical": "classical"}
_SHARPEN_KIND = {"q": "w", "q_gauge": "w_gauge", "q_poincare": "w_poincare",
                 "classical": "classical"}


def _half_spectrum_axes(grid: PhaseGrid, hbar: float, lam: float, axes):
    """For each phase axis in ``axes``, broadcast shaped on the half spectrum
    of a real FFT over ``axes`` (the last of them halved): the angular
    frequencies f_i and the Gaussian exponents c_i f_i^2, c_i = hbar/(4 lam)
    on position axes and hbar lam/4 on momentum axes."""
    rates = [hbar / (4.0 * lam)] * grid.dim + [hbar * lam / 4.0] * grid.dim
    phase_axes = grid.qaxes + grid.paxes
    freqs = [wavenumbers(phase_axes[i], grid.ndim, i, half=i == axes[-1]) for i in axes]
    return freqs, [rates[i] * f**2 for i, f in zip(axes, freqs)]


def _rfftn(values: np.ndarray, axes) -> np.ndarray:
    """``rfftn`` of real values over ``axes``, written into one preallocated
    half spectrum: numpy then transforms the leading axes in place instead of
    allocating an array per axis (twice as fast at 64x64x32x32)."""
    half = list(values.shape)
    half[axes[-1]] = half[axes[-1]] // 2 + 1
    return np.fft.rfftn(values, axes=axes, out=np.empty(half, dtype=complex))


def _irfftn(spec: np.ndarray, shape: tuple, axes) -> np.ndarray:
    """``irfftn`` over ``axes`` back to ``shape``, the leading axes inverted
    in place in ``spec`` in numpy's own order, so the result is bitwise that
    of ``np.fft.irfftn``."""
    for axis in axes[:-1]:
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, n=shape[axes[-1]], axis=axes[-1])


# An axis of at most this many points is smoothed by its circulant matrix,
# the longer ones by one real FFT over them.  On one core, one pass over a
# 4M-point array took 4-13 ms by matrix at n = 16-64 and 15-25 ms at
# n = 128, against 33-57 ms by FFT; at n = 256 the two were level (32-44 ms
# against 34-57 ms).  A matrix on every axis smoothed 1-D n = 256 (512 x
# 256) in 7.9-8.5 ms against 1.7-2.4 ms by FFT, and 1-D n = 1024 (2048 x
# 1024) in 293-302 ms against 38-39 ms.
_MATRIX_POINTS = 128


def _matrix_pass(matrix: np.ndarray, values: np.ndarray, axis: int, out: np.ndarray):
    """``matrix`` applied along ``axis`` of ``values``, written to ``out``:
    ``values`` viewed as (lead, n, trail) under one batched matmul, or as
    (..., n) @ matrix^T on the last axis, so nothing is transposed."""
    n = values.shape[axis]
    if axis == values.ndim - 1:
        np.matmul(values.reshape(-1, n), matrix.T, out=out.reshape(-1, n))
    else:
        lead = math.prod(values.shape[:axis])
        np.matmul(matrix, values.reshape(lead, n, -1), out=out.reshape(lead, n, -1))


def husimi_from_wigner(psf: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Gaussian smoothing of a Wigner-type function over one quantum cell,
    squeezed by ``psf.constants.lam``.

    The input's ``imag_max`` is carried over: the kernel is positive with
    unit mass, so it bounds the imaginary part the smoothed function would
    have inherited.
    """
    if psf.kind not in _SMOOTH_KIND:
        raise ValueError(f"cannot smooth kind {psf.kind!r}")
    grid, k = psf.grid, psf.constants
    # the matrix passes alternate between two arrays of their own; the input
    # is only read
    values, spare = psf.values, None
    for axis in [i for i, n in enumerate(grid.shape) if n <= _MATRIX_POINTS]:
        _, (expo,) = _half_spectrum_axes(grid, k.hbar, k.lam, [axis])
        matrix = spectral_matrices(np.exp(-expo.ravel()), grid.shape[axis])
        out = np.empty(values.shape) if spare is None else spare
        _matrix_pass(matrix, values, axis, out)
        values, spare = out, (None if values is psf.values else values)
    long = [i for i, n in enumerate(grid.shape) if n > _MATRIX_POINTS]
    if long:
        _, expos = _half_spectrum_axes(grid, k.hbar, k.lam, long)
        spec_vals = _rfftn(values, long)
        for e in expos:
            spec_vals *= np.exp(-e)
        values = _irfftn(spec_vals, values.shape, long)
    return psf.with_values(values, kind=_SMOOTH_KIND[psf.kind])


def wigner_from_husimi(psf: PhaseSpaceFunction,
                       spec: SmoothingSpec | None = None) -> PhaseSpaceFunction:
    """Band-limited deconvolution of the Gaussian smoothing.

    Exact inside the band; raises :class:`DeconvolutionError` when the
    spectral mass outside the band exceeds the configured floor, which
    signals that the inverse is unreliable for this input.  The masses are
    norms over the full spectrum, taken on the half spectrum with Hermitian
    weights (2 for the interior bins of the halved axis, 1 for bin 0 and the
    Nyquist bin).  The input's ``imag_max`` is carried over.
    """
    if psf.kind not in _SHARPEN_KIND:
        raise ValueError(f"cannot sharpen kind {psf.kind!r}")
    spec = spec or SmoothingSpec()
    grid = psf.grid
    every = list(range(grid.ndim))
    freqs, expos = _half_spectrum_axes(grid, psf.constants.hbar, psf.constants.lam, every)
    radius2 = 0.0
    for f, ax in zip(freqs, grid.qaxes + grid.paxes):
        nyq = np.pi / ax.spacing
        radius2 = radius2 + (f / nyq) ** 2
    band = radius2 <= spec.band_fraction**2
    spec_vals = _rfftn(psf.values, every)
    herm = np.full(spec_vals.shape[-1], 2.0)
    herm[0] = 1.0
    if grid.shape[-1] % 2 == 0:
        herm[-1] = 1.0
    power = np.abs(spec_vals) ** 2
    power *= herm
    total = power.sum()
    out_mass = 0.0
    if total > 0:
        out_mass = float(np.sqrt(power[~band].sum() / total))
    if out_mass > spec.reg_floor:
        raise DeconvolutionError(
            f"out-of-band spectral mass {out_mass:.3e} exceeds floor "
            f"{spec.reg_floor:.3e}; the deconvolution is unreliable for this input"
        )
    expo = 0.0
    for e in expos:
        expo = expo + e
    mask = band & (expo <= np.log(MAX_AMPLIFICATION))
    trunc_mass = 0.0
    if total > 0:
        trunc_mass = float(np.sqrt(power[band & ~mask].sum() / total))
    spec_vals *= np.exp(expo, where=mask, out=np.zeros(mask.shape))
    res = psf.with_values(_irfftn(spec_vals, psf.values.shape, every),
                          kind=_SHARPEN_KIND[psf.kind])
    res.diagnostics["out_of_band_mass"] = out_mass
    res.diagnostics["amplification_truncated_mass"] = trunc_mass
    return res


# ---------------------------------------------------------------------------
# coherent-state overlap route
# ---------------------------------------------------------------------------

def _window_matrix(qax, centers, hbar, lam):
    """g(x - q) per probe center: rows q-tilde points, columns grid points."""
    x = qax.points
    g = (lam / (np.pi * hbar)) ** 0.25 * np.exp(
        -lam * (x[None, :] - centers[:, None]) ** 2 / (2.0 * hbar)
    )
    return g


def _plane_waves(qax, pax, hbar):
    """E[b, m] = exp(i x_b P_m / hbar)."""
    return np.exp(1j * np.outer(qax.points, pax.points) / hbar)


def husimi_overlap(rho: DensityMatrix) -> PhaseSpaceFunction:
    """Canonical Husimi function ``q`` as the coherent-state sandwich,
    evaluated directly.

    (2 pi hbar)^(-N) <alpha(q,p)| rho |alpha(q,p)> at every point of the
    refined phase lattice.  Real and non-negative by construction; this is
    the smoothing route's independent oracle.  The coherent state factorizes
    over axes into a window G_i and a plane wave E_i, so each component's
    overlap is one contraction of psi with every G_i and E_i*.  A kernel
    without components is split into the eigenvectors of its Hermitian part,
    weighted by their eigenvalues: Re<alpha|K|alpha> = <alpha|(K + K^H)/2|alpha>.
    """
    k = rho.constants
    qgrid = rho.grid
    pgrid = PhaseGrid.wigner(qgrid, k.hbar)
    d = qgrid.dim
    G = [_window_matrix(ax, qax.points, k.hbar, k.lam)
         for ax, qax in zip(qgrid.axes, pgrid.qaxes)]
    E = [_plane_waves(ax, pax, k.hbar) for ax, pax in zip(qgrid.axes, pgrid.paxes)]
    # einsum subscripts: x_i grid points, l_i probe positions, m_i momenta
    x, l, m = list(range(d)), list(range(d, 2 * d)), list(range(2 * d, 3 * d))
    if rho.components is not None:
        comps = [(w, psi.values) for w, psi in rho.components]
    else:
        kern = rho.values.reshape(math.prod(qgrid.shape), -1)
        # unit eigenvectors u weighted by their eigenvalues: the contraction
        # below then gives cell^2 <alpha|u><u|alpha>, the sandwich's own scaling
        ev, vecs = np.linalg.eigh((kern + kern.conj().T) / 2)
        comps = zip(ev, vecs.T.reshape(-1, *qgrid.shape))
    operands = []
    for i in range(d):
        operands += [G[i], [l[i], x[i]], E[i].conj(), [x[i], m[i]]]
    # contraction order: psi (last operand) meets G_0, then E_0*, which is
    # one matrix product, (G_0 psi) E_0*; every further axis first joins
    # G_i and E_i* and then meets the running result in one matrix
    # product, so no intermediate outgrows the output
    path = ["einsum_path", (0, 2 * d), (0, 2 * d - 1)] + [(0, 1), (0, 1)] * (d - 1)
    vals = np.zeros(pgrid.shape)
    buf = None
    for w, psi in comps:
        overl = np.einsum(*operands, psi, x, l + m, optimize=path)
        overl *= qgrid.cell
        buf = np.abs(overl, out=buf)
        np.square(buf, out=buf)
        buf *= w
        vals += buf
    vals *= (TWO_PI * k.hbar) ** (-d)
    return PhaseSpaceFunction(vals, pgrid, "q", k)


def husimi_gauge(rho: DensityMatrix, field: GaugeField, t: float = 0.0) -> PhaseSpaceFunction:
    """Gauge-independent Husimi function over kinetic momentum: the smoothed
    gauge-independent Wigner function."""
    return husimi_from_wigner(wigner_gauge_stratonovich(rho, field, t))


def density_from_husimi_gauge(psf: PhaseSpaceFunction, field: GaugeField,
                              t: float = 0.0,
                              spec: SmoothingSpec | None = None) -> DensityMatrix:
    """Reconstruct the density matrix from the gauge-independent Husimi
    function: band-limited deconvolution followed by the exact chord-phase
    inversion."""
    if psf.kind != "q_gauge":
        raise ValueError(f"expected kind 'q_gauge', got {psf.kind!r}")
    wg = wigner_from_husimi(psf, spec)
    return inverse_wigner_gauge(wg, field, t)


def husimi_gauge_poincare(rho: DensityMatrix, field: GaugeField,
                          t: float = 0.0) -> PhaseSpaceFunction:
    """Radial-phase Husimi function: the smoothed radial-phase Wigner
    function, behind its default boundary gate.  It equals the overlap with the
    phase-dressed coherent state exp(i Lambda(q')) alpha(q') up to what the
    box cuts off."""
    return husimi_from_wigner(wigner_gauge_poincare(rho, field, t))


def density_from_husimi_poincare(psf: PhaseSpaceFunction, field: GaugeField,
                                 t: float = 0.0,
                                 spec: SmoothingSpec | None = None) -> DensityMatrix:
    """Inverse of :func:`husimi_gauge_poincare` through the Wigner route."""
    if psf.kind != "q_poincare":
        raise ValueError(f"expected kind 'q_poincare', got {psf.kind!r}")
    wp = wigner_from_husimi(psf, spec)
    return inverse_wigner_poincare(wp, field, t)


# ---------------------------------------------------------------------------
# direct quantizer quadrature (validation oracle, 1-D, central window)
# ---------------------------------------------------------------------------

# Gauss-Hermite order of the v quadrature, the largest scaled node kept, and
# the half-width of the central kernel window in units of sqrt(hbar/lam)
_GH_ORDER = 70
_NODE_CUT = 4.5
_WINDOW_WIDTHS = 2.5


def quantizer_reconstruct_direct(psf: PhaseSpaceFunction, field: GaugeField, t: float = 0.0):
    """Direct quadrature of the quantizer integral on a central window.

    Integration order: position sum first (grid quadrature), then momentum,
    then the auxiliary frequency v by Gauss-Hermite with nodes restricted to
    ``|x| <= _NODE_CUT`` scaled units; beyond that the growing factor
    exp(v^2/(4 hbar lam)) amplifies round-off past the target accuracy.  The
    growing chord factor exp(lam (q2-q1)^2 / (4 hbar)) limits the
    reconstruction to kernel entries within ``_WINDOW_WIDTHS`` sqrt(hbar/lam)
    of the grid center.  The kernel of either gauge-independent kind takes
    one phase: in 1-D the chord phase of ``q_gauge`` and the ray phase of
    ``q_poincare`` are the same gauge difference, chi_P(q1) - chi_P(q2) of
    ``field.ray_gauge()``.  Returns ``(kernel_window, indices)``.
    """
    if psf.grid.dim != 1:
        raise ValueError("the direct quantizer quadrature is a 1-D validation path")
    if psf.kind not in HUSIMI_KINDS:
        raise ValueError(f"expected a Husimi kind, got {psf.kind!r}")
    k = psf.constants
    lam, hbar = k.lam, k.hbar
    qgrid = psf.grid.source
    qax = qgrid.axes[0]
    x = qax.points
    sel = np.where(np.abs(x - qax.center) <= _WINDOW_WIDTHS * np.sqrt(hbar / lam))[0]
    xs = x[sel]
    nw = sel.size

    qt = psf.grid.qaxes[0].points
    pv = psf.grid.paxes[0].points
    dqt, dpv = psf.grid.qaxes[0].spacing, psf.grid.paxes[0].spacing

    deltas = xs[None, :] - xs[:, None]
    d_unique, d_inverse = np.unique(np.round(deltas / qax.spacing).astype(int),
                                    return_inverse=True)
    d_vals = d_unique * qax.spacing

    # Gauss-Hermite nodes in v, filtered to the numerically resolvable range
    xg, wg = np.polynomial.hermite.hermgauss(_GH_ORDER)
    keep = np.abs(xg) <= _NODE_CUT
    xg, wg = xg[keep], wg[keep]
    scale_v = 2.0 * np.sqrt(lam * hbar)
    v_nodes = scale_v * xg
    # position sum first: S[r, m] = sum_l exp(-i v_r qt_l / hbar) Q[l, m] dq
    S = np.exp(-1j * np.outer(v_nodes, qt) / hbar) @ psf.values.astype(complex) * dqt
    # then momentum: G[r, d] = sum_m S[r, m] exp(-i P_m Delta_d / hbar) dP
    G = S @ np.exp(-1j * np.outer(pv, d_vals) / hbar) * dpv

    grow = np.exp(v_nodes**2 / (4.0 * hbar * lam))
    coef = scale_v * wg * np.exp(xg**2) * grow / (TWO_PI * hbar)

    ymid = 0.5 * (xs[None, :] + xs[:, None])
    osc = np.exp(1j * np.einsum("r,ab->rab", v_nodes, ymid) / hbar)
    vint = np.einsum("r,rab->ab", coef, G[:, d_inverse.reshape(nw, nw)] * osc)

    kernel = np.exp(lam * deltas**2 / (4.0 * hbar)) * vint
    lam_q = (k.charge / (k.light_speed * k.hbar)) * np.asarray(field.ray_gauge()([xs], t))
    return kernel * np.exp(1j * (lam_q[:, None] - lam_q[None, :])), sel
