"""Test-only builders and independent quadrature oracles.  The reference
scenarios the tests share with the acceptance criteria live in
`gipsp.acceptance`.

Oracles here never reuse the transform pipelines they check: Wigner and
Husimi values come from dense Riemann sums of the defining integrals on
refined auxiliary grids, with states given by their closed-form expressions.
"""
from functools import reduce
from operator import and_

import numpy as np

from gipsp import Constants, Poly, QGrid, coherent_state, density_from_pure


def ground_state_1d(n=128, dq=0.15, constants=None):
    k = constants or Constants()
    g = QGrid.regular(1, n, dq)
    return k, g, density_from_pure(coherent_state(0.0, 0.0, g, k))


def separable_2d(k):
    """Product state psi_x (x) psi_y on a non-square 2-D grid with unequal
    spacings and an off-center y axis; returns (psi_x, psi_y, psi)."""
    from gipsp import Axis, WaveFunction, gaussian_packet
    gx = QGrid((Axis(16, 0.45),))
    gy = QGrid((Axis(8, 0.7, 0.1),))
    psi_x = coherent_state(0.3, 0.2, gx, k, check=None)
    psi_y = gaussian_packet(-0.1, -0.3, 0.6, gy, k, check=None)
    psi = WaveFunction(np.multiply.outer(psi_x.values, psi_y.values),
                       QGrid(gx.axes + gy.axes), k)
    return psi_x, psi_y, psi


def coherent_closed_form(x, q0, p0, k):
    """Position-space coherent state, the same convention the package fixes."""
    lam, hbar = k.lam, k.hbar
    return ((lam / (np.pi * hbar)) ** 0.25
            * np.exp(-lam * (x - q0) ** 2 / (2 * hbar) + 1j * p0 * (x - q0) / hbar))


def oracle_wigner_point(psi_fn, q, p, k, u_max=20.0, n_u=4001):
    """W(q, p) by direct quadrature of the chord integral, 1-D.

    Independent of the package pipeline: fine trapezoid in the chord variable
    with the state given in closed form.
    """
    u = np.linspace(-u_max, u_max, n_u)
    ch = psi_fn(q - u / 2) * np.conj(psi_fn(q + u / 2))
    integrand = ch * np.exp(1j * u * p / k.hbar)
    val = np.trapezoid(integrand, u) / (2 * np.pi * k.hbar)
    return val.real


def oracle_husimi_point(psi_fn, q, p, k, x_max=20.0, n_x=4001):
    """Q(q, p) = (2 pi hbar)^-1 |<alpha(q,p)|psi>|^2 by direct quadrature."""
    x = np.linspace(-x_max, x_max, n_x)
    alpha = coherent_closed_form(x, q, p, k)
    ovl = np.trapezoid(np.conj(alpha) * psi_fn(x), x)
    return abs(ovl) ** 2 / (2 * np.pi * k.hbar)


def random_poly(dim, degree, rng, time_dependent=False, scale=0.5):
    terms = {}
    for _ in range(4):
        exps = tuple(int(rng.integers(0, degree + 1)) for _ in range(dim))
        while sum(exps) > degree:
            exps = tuple(int(rng.integers(0, degree + 1)) for _ in range(dim))
        kt = int(rng.integers(0, 2)) if time_dependent else 0
        terms[exps + (kt,)] = float(rng.normal() * scale)
    return Poly(dim, terms)


# ---------------------------------------------------------------------------
# complex-FFT references for the real-FFT smoothing route
# ---------------------------------------------------------------------------

def _reference_freqs(grid):
    axes = grid.qaxes + grid.paxes
    out = []
    for i, ax in enumerate(axes):
        f = 2 * np.pi * np.fft.fftfreq(ax.n, d=ax.spacing)
        shape = [1] * grid.ndim
        shape[i] = ax.n
        out.append(f.reshape(shape))
    return out


def _reference_exponent(grid, hbar, lam):
    freqs = _reference_freqs(grid)
    expo = 0.0
    for i in range(grid.dim):
        expo = expo + (hbar / (4.0 * lam)) * freqs[i] ** 2
    for i in range(grid.dim, 2 * grid.dim):
        expo = expo + (hbar * lam / 4.0) * freqs[i] ** 2
    return expo


def reference_smoothing(values, grid, hbar, lam):
    """Gaussian smoothing on the full complex spectrum with a 4-D exponent;
    returns (values, imaginary residue)."""
    out = np.fft.ifftn(np.fft.fftn(values) * np.exp(-_reference_exponent(grid, hbar, lam)))
    return out.real, float(np.abs(out.imag).max())


def reference_deconvolution(values, grid, hbar, lam, band_fraction, max_amplification):
    """Band-limited deconvolution on the full complex spectrum; returns
    (values, out_of_band_mass, amplification_truncated_mass)."""
    radius2 = 0.0
    for f, ax in zip(_reference_freqs(grid), grid.qaxes + grid.paxes):
        radius2 = radius2 + (f / (np.pi / ax.spacing)) ** 2
    band = radius2 <= band_fraction**2
    spec = np.fft.fftn(values)
    total = np.linalg.norm(spec.ravel())
    out_mass = float(np.linalg.norm(spec[~band].ravel()) / total)
    expo = _reference_exponent(grid, hbar, lam)
    mask = band & (expo <= np.log(max_amplification))
    trunc_mass = float(np.linalg.norm(spec[band & ~mask].ravel()) / total)
    spec = np.where(mask, spec * np.exp(np.where(mask, expo, 0.0)), 0.0)
    return np.fft.ifftn(spec).real, out_mass, trunc_mass


def reference_overlap(rho, lam):
    """Coherent-state overlap of a state held as components, accumulated with
    full-size temporaries, ``vals += w * |overlap|^2``."""
    from gipsp import PhaseGrid
    from gipsp.husimi import _plane_waves, _window_matrix
    k, qgrid = rho.constants, rho.grid
    pgrid = PhaseGrid.wigner(qgrid, k.hbar)
    d = qgrid.dim
    x, l, m = list(range(d)), list(range(d, 2 * d)), list(range(2 * d, 3 * d))
    operands = []
    for ax, qax, pax, i in zip(qgrid.axes, pgrid.qaxes, pgrid.paxes, range(d)):
        operands += [_window_matrix(ax, qax.points, k.hbar, lam), [l[i], x[i]],
                     _plane_waves(ax, pax, k.hbar).conj(), [x[i], m[i]]]
    path = ["einsum_path", (0, 2 * d), (0, 2 * d - 1)] + [(0, 1), (0, 1)] * (d - 1)
    vals = np.zeros(pgrid.shape)
    for w, psi in rho.components:
        overl = np.einsum(*operands, psi.values, x, l + m, optimize=path)
        overl *= qgrid.cell
        vals += w * np.abs(overl) ** 2
    return vals * (2 * np.pi * k.hbar) ** (-d)


# ---------------------------------------------------------------------------
# direct dequantizer quadrature of the gauge-independent Husimi function
# ---------------------------------------------------------------------------

def _chord_pair_phase(field, qgrid, t, k):
    """exp[i (e/hbar c) (q2-q1) . avg_A] for every index pair, 1-D."""
    from gipsp import chord_integral
    x = qgrid.axes[0].points
    mid = 0.5 * (x[:, None] + x[None, :])
    u = x[None, :] - x[:, None]
    integ = chord_integral(field, [mid], [u], t)
    scale = k.charge / (k.light_speed * k.hbar)
    return np.exp(1j * scale * u * integ[0])


def husimi_gauge_direct(rho, field, t=0.0):
    """Gauge-independent Husimi function of a 1-D state by integrating the
    defining dequantizer sandwich on the grid, independent of the Wigner
    pipeline."""
    from gipsp import PhaseGrid, PhaseSpaceFunction
    from gipsp.husimi import _plane_waves, _window_matrix
    k = rho.constants
    qgrid = rho.grid
    pgrid = PhaseGrid.wigner(qgrid, k.hbar)
    qax, pax = qgrid.axes[0], pgrid.paxes[0]
    kern = rho.values if rho.values is not None else rho.as_kernel()
    M0 = kern * _chord_pair_phase(field, qgrid, t, k)
    G = _window_matrix(qax, pgrid.qaxes[0].points, k.hbar, k.lam)
    E = _plane_waves(qax, pax, k.hbar)
    dq = qax.spacing
    vals = np.zeros(pgrid.shape)
    for l in range(G.shape[0]):
        M = (G[l][:, None] * G[l][None, :]) * M0
        vals[l] = np.einsum("am,am->m", E.conj(), M @ E).real * dq**2
    vals /= 2 * np.pi * k.hbar
    return PhaseSpaceFunction(vals, pgrid, "q_gauge", k, field_tag=field.tag, time=t)


# ---------------------------------------------------------------------------
# per-axis references for the fused chord walk of phase_space: unlike the
# oracles above they share the chord index maps and the dual DFT with the
# package, one axis at a time, and check only the walk itself
# ---------------------------------------------------------------------------

def phase_weighted_dft(values, axis, x0, dx, y0, dy, hbar, sign):
    """F_m = sum_r f_r exp(sign*i*x_r*y_m/hbar) along one axis, on the
    FFT-dual samplings of ``lattice.dual_dft_factors``."""
    from gipsp.lattice import dual_dft, dual_dft_factors
    pre, post = dual_dft_factors(values.ndim, [(axis, values.shape[axis], x0, dx, y0, dy)],
                                 hbar, sign)
    work = dual_dft(values * pre, (axis,), sign)
    work *= post
    return work


def _reference_chord_phase(field, maps, t, k):
    """exp[(i e / hbar c) u . avg_A(q, u)] for every chord, from one exp."""
    from gipsp import chord_integral
    acc = 0.0
    for u, a in zip(maps.u, chord_integral(field, maps.q, maps.u, t)):
        acc = acc + u * a
    return np.exp(1j * (k.charge / (k.light_speed * k.hbar)) * acc)


def reference_wigner(rho, field=None, t=0.0):
    """Weyl (``field`` None) or chord-phase Wigner transform over all columns
    at once: gather every chord, zero those that leave the grid, multiply by
    the chord phase, then one ``phase_weighted_dft`` per axis; returns
    ``(complex values, imag_max)``."""
    from gipsp import PhaseGrid
    from gipsp.phase_space import _chord_maps
    k, qgrid, d = rho.constants, rho.grid, rho.grid.dim
    pgrid, maps = PhaseGrid.wigner(qgrid, k.hbar), _chord_maps(qgrid)
    ch = rho.as_kernel()[(*maps.j1, *maps.j2)] * reduce(and_, maps.valid)
    if field is not None:
        ch = ch * _reference_chord_phase(field, maps, t, k)
    for i, (ax, pax) in enumerate(zip(qgrid.axes, pgrid.paxes)):
        ch = phase_weighted_dft(ch, d + i, maps.x0[i], 2 * ax.spacing,
                                pax.origin, pax.spacing, k.hbar, +1)
    ch *= np.prod([2 * dq for dq in qgrid.spacings]) / (2 * np.pi * k.hbar) ** d
    return ch, float(np.abs(ch.imag).max())


def reference_inverse(psf, field=None, t=0.0):
    """Kernel of a Weyl or chord-phase Wigner function: one
    ``phase_weighted_dft`` per axis back to chords, the conjugate chord phase,
    then the chords inside the grid scattered into the kernel."""
    from gipsp.phase_space import _chord_maps
    k, pgrid = psf.constants, psf.grid
    qgrid, d = pgrid.source, pgrid.dim
    maps = _chord_maps(qgrid)
    ch = psf.values.astype(complex)
    for i, (ax, pax) in enumerate(zip(qgrid.axes, pgrid.paxes)):
        ch = phase_weighted_dft(ch, d + i, pax.origin, pax.spacing,
                                maps.x0[i], 2 * ax.spacing, k.hbar, -1)
    ch *= pgrid.p_cell
    if field is not None:
        ch *= np.conj(_reference_chord_phase(field, maps, t, k))
    valid = np.broadcast_to(reduce(and_, maps.valid), ch.shape)
    kernel = np.zeros(qgrid.shape + qgrid.shape, dtype=complex)
    kernel[tuple(np.broadcast_to(j, ch.shape)[valid] for j in (*maps.j1, *maps.j2))] = ch[valid]
    return kernel
