"""Wigner-type transforms: standard, chord-phase gauge-independent, and
radial-phase gauge-independent, with exact inverses.

Discretization.  The density matrix is resampled along chords,
C(q, u) = <q - u/2| rho |q + u/2>, using pure index arithmetic: with the
midpoint q on the half-spacing refinement of the position grid (2n columns
per axis) and the chord u on the same lattice as the doubled coordinate
(step dq), every matrix entry lands on exactly one (q, u) pair and no
interpolation ever happens.  Odd columns carry odd chords and even columns
even chords, so each column holds n chords of effective step 2*dq, and the
FFT over u per column is an exact 2*pi*hbar-dual pair with the momentum axis
of :meth:`PhaseGrid.wigner` (n points, half the dual spacing).  Consequences,
all exact up to FFT round-off: the transform is a bijection (round trips on
arbitrary mixed states are identity), the momentum sum on even columns
reproduces the position density, and (2 pi hbar)^N * sum(W^2) dGamma equals
Tr rho^2.

The chord map is a tensor product of per-axis index maps, so one code path
serves every dimension and both state representations: the forward
transform gathers the chords of a block of leading refined-position columns
(from the dense kernel or from the low-rank components), multiplies them by
one pre-multiplier (the offset phases of every axis's chord -> momentum DFT
and the grid mask), runs an in-place FFT along each momentum axis and
multiplies by one post-multiplier (the other phases and the normalization);
both are built once per call and column parity, which is exact because each
axis's phases are constant along the other axes' transforms.  The inverse
runs the same walk backwards and scatters the chords into the kernel.

The gauge-independent variant multiplies the chords by the unimodular phase
exp[(i e / hbar c) u . integral_{-1/2}^{1/2} A(q + tau u) dtau] before the
FFT, one exp per broadcast shape of the terms u_i avg_A_i (for linear A,
a few 2-D slices of the block); the radial-phase variant rotates the state
into the Poincare gauge q . A = 0 with ``gauge_rotate`` and the closed-form
gauge function of ``GaugeField.ray_gauge``, and reuses the standard
transform.  Both leave every pipeline above machine-exact because the phases
cancel algebraically against the gauge rotation of the state.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .em_fields import GaugeField, chord_integral
from .lattice import (
    DENSE_POINT_LIMIT,
    TWO_PI,
    BoundaryMassError,
    Constants,
    PhaseGrid,
    QGrid,
    boundary_mass,
    dual_dft,
    dual_dft_factors,
)
from .states import DensityMatrix, gauge_rotate

__all__ = [
    "PhaseSpaceFunction",
    "GaugeTagError",
    "wigner",
    "inverse_wigner",
    "wigner_gauge_stratonovich",
    "inverse_wigner_gauge",
    "wigner_gauge_poincare",
    "inverse_wigner_poincare",
    "gaussian_phase_function",
    "WIGNER_KINDS",
    "HUSIMI_KINDS",
]

WIGNER_KINDS = ("w", "w_gauge", "w_poincare", "classical")
HUSIMI_KINDS = ("q", "q_gauge", "q_poincare")


class GaugeTagError(ValueError):
    """State and field disagree about the gauge; the result would be a hybrid."""


def _check_gauge_tag(tag: str | None, field: GaugeField, what: str) -> None:
    """Raise :class:`GaugeTagError` when a set tag differs from the field's."""
    if tag is not None and tag != field.tag:
        raise GaugeTagError(f"{what} {tag!r} does not match field {field.tag!r}")


@dataclass
class PhaseSpaceFunction:
    """A scalar field on a phase grid, tagged with what it represents."""

    values: np.ndarray
    grid: PhaseGrid
    kind: str
    constants: Constants
    field_tag: str | None = None
    time: float = 0.0
    imag_max: float = 0.0
    diagnostics: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in WIGNER_KINDS + HUSIMI_KINDS:
            raise ValueError(f"unknown phase-space kind {self.kind!r}")
        if self.values.shape != self.grid.shape:
            raise ValueError("phase-space values do not match the grid")

    def integrate(self) -> float:
        return float(self.values.sum() * self.grid.cell)

    def marginal_position(self) -> np.ndarray:
        axes = tuple(range(self.grid.dim, 2 * self.grid.dim))
        return self.values.sum(axis=axes) * self.grid.p_cell

    def with_values(self, values: np.ndarray, **changes) -> "PhaseSpaceFunction":
        changes.setdefault("diagnostics", dict(self.diagnostics))
        return replace(self, values=values, **changes)


def gaussian_phase_function(grid: PhaseGrid, constants: Constants, q0, p0,
                            q_widths, p_widths, kind: str = "classical") -> PhaseSpaceFunction:
    """Normalized Gaussian on a phase grid (classical test distribution)."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    qw = np.broadcast_to(np.asarray(q_widths, dtype=float), (grid.dim,))
    pw = np.broadcast_to(np.asarray(p_widths, dtype=float), (grid.dim,))
    expo = 0.0
    for x, c, s in zip(grid.q_mesh(), q0, qw):
        expo = expo + (-((x - c) ** 2) / (2.0 * s**2))
    for y, c, s in zip(grid.p_mesh(), p0, pw):
        expo = expo + (-((y - c) ** 2) / (2.0 * s**2))
    vals = np.exp(expo)
    vals /= vals.sum() * grid.cell
    return PhaseSpaceFunction(vals, grid, kind, constants)


# ---------------------------------------------------------------------------
# chord index bookkeeping
# ---------------------------------------------------------------------------

# Chords are processed in blocks of leading refined-position columns holding
# about this many bytes of complex values: large enough that short 1-D
# columns are batched, small enough that 2-D blocks stay cache-sized.
_BLOCK_BYTES = 1 << 20


class _ChordMaps(NamedTuple):
    """Per-axis lists of arrays broadcast over (l_0..l_{d-1}, r_0..r_{d-1})."""

    j1: list      # density-matrix index of q - u/2, clipped into the grid
    j2: list      # density-matrix index of q + u/2, clipped into the grid
    valid: list   # both indices inside the grid
    q: list       # refined midpoint position of column l
    u: list       # chord (2r + sigma - n) dq, sigma = l % 2
    x0: list      # chord of r = 0, (sigma - n) dq: offset of the chord DFT


@lru_cache(maxsize=16)
def _chord_maps(qgrid: QGrid) -> _ChordMaps:
    """Chord maps for columns l (0..2n-1) and chords r (0..n-1) of each axis."""
    d = qgrid.dim
    maps = _ChordMaps([], [], [], [], [], [])
    for i, (ax, ref) in enumerate(zip(qgrid.axes, qgrid.refined().axes)):
        n, dq = ax.n, ax.spacing
        col_shape = [1] * (2 * d)
        col_shape[i] = 2 * n
        chord_shape = [1] * (2 * d)
        chord_shape[d + i] = n
        l = np.arange(2 * n).reshape(col_shape)
        r = np.arange(n).reshape(chord_shape)
        sigma = l % 2
        j1 = (l - 2 * r - sigma) // 2 + n // 2
        j2 = (l + 2 * r + sigma) // 2 - n // 2
        maps.j1.append(np.clip(j1, 0, n - 1))
        maps.j2.append(np.clip(j2, 0, n - 1))
        maps.valid.append((j1 >= 0) & (j1 < n) & (j2 >= 0) & (j2 < n))
        maps.q.append(ref.points.reshape(col_shape))
        maps.u.append((2 * r + sigma - n) * dq)
        maps.x0.append((sigma - n) * dq)
    return maps


def _column_blocks(qgrid: QGrid):
    """Yield (slice, maps) for blocks of leading columns l_0 of one parity.

    Only axis 0's maps span l_0, so only they are restricted to the block;
    its chord u and chord offset x0 depend on the column only through the
    parity, so one row of each serves the whole block.  The first block of
    each parity starts at l_0 = parity.
    """
    maps = _chord_maps(qgrid)
    n_cols = 2 * qgrid.axes[0].n
    column_bytes = 16 * math.prod(2 * n * n for n in qgrid.shape) // n_cols
    per_block = max(1, _BLOCK_BYTES // column_bytes)
    for parity in (0, 1):
        for start in range(parity, n_cols, 2 * per_block):
            blk = slice(start, start + 2 * per_block, 2)
            c = _ChordMaps(*([arrs[0][blk], *arrs[1:]] for arrs in maps))
            yield blk, c._replace(u=[c.u[0][:1], *c.u[1:]], x0=[c.x0[0][:1], *c.x0[1:]])


def _flat_index(index, dims, out: np.ndarray) -> np.ndarray:
    """Row-major flat index into an array of shape ``dims`` of the broadcast
    per-axis index arrays ``index``, written into the integer array ``out``.
    The terms index * stride of one shape (each axis's maps) are summed while
    small, so the block is written once."""
    strides = np.cumprod((*dims[1:], 1)[::-1])[::-1]
    sums = {}
    for j, stride in zip(index, strides):
        sums[j.shape] = sums.get(j.shape, 0) + j * stride
    first, *rest = sums.values()
    return np.add(first, sum(rest), out=out)


def _dft_multipliers(qgrid: QGrid, pgrid: PhaseGrid, hbar: float, c: _ChordMaps, sign: int):
    """Pre- and post-multipliers of the chord -> momentum DFT over every axis
    (sign +1) or of its inverse (sign -1), for the columns of ``c``'s parity."""
    d = qgrid.dim
    lines = []
    for i, (ax, pax) in enumerate(zip(qgrid.axes, pgrid.paxes)):
        chords, momenta = (c.x0[i], 2 * ax.spacing), (pax.origin, pax.spacing)
        src, dst = (chords, momenta) if sign > 0 else (momenta, chords)
        lines.append((d + i, ax.n, *src, *dst))
    return dual_dft_factors(2 * d, lines, hbar, sign)


def _chord_phase_factory(field: GaugeField, t: float, constants: Constants, sign: int):
    """The chord phase exp[sign (i e / hbar c) u . avg_A(q, u)] as factors
    whose product it is: the terms u_i avg_A_i are summed by broadcast shape
    and each sum takes one exp.  For A of degree <= 1 every factor is a
    slice of the block."""
    scale = sign * constants.charge / (constants.light_speed * constants.hbar)

    def factors(qs, us):
        groups = {}
        for u, a, comp in zip(us, chord_integral(field, qs, us, t), field.a):
            if not comp.is_zero:
                term = u * a
                groups[term.shape] = groups.get(term.shape, 0.0) + term
        return [np.exp(1j * scale * g) for g in groups.values()]

    return factors


# ---------------------------------------------------------------------------
# forward transforms
# ---------------------------------------------------------------------------

def _wigner_core(rho: DensityMatrix, phase_fn, kind, field_tag, time, threshold):
    qgrid, constants, d = rho.grid, rho.constants, rho.grid.dim
    hbar = constants.hbar
    pgrid = PhaseGrid.wigner(qgrid, hbar)
    if threshold is not None:
        mass = boundary_mass(rho.diagonal())
        if mass > threshold:
            raise BoundaryMassError(mass, threshold, "position support before transform")
    pref = math.prod(2 * dq for dq in qgrid.spacings) / (TWO_PI * hbar) ** d
    vals = np.zeros(pgrid.shape)
    imag_max = 0.0
    ws = idx = None
    for blk, c in _column_blocks(qgrid):
        shape = np.broadcast_shapes(*(j.shape for j in c.j1 + c.j2))
        if ws is None:
            # sized by the first block, the largest.  One stacked array, not
            # one per buffer: freeing it lifts glibc's mmap threshold above
            # the block size, so later block-sized arrays reuse heap pages
            # (2-D n=32 gauge-pair run: 24k minor page faults, 253k with one
            # array per buffer)
            ws = np.empty((3, *shape), dtype=complex)
            idx = np.empty((2, *shape), dtype=np.intp)
        if blk.start < 2:
            # the first block of its parity; the chords that leave the grid
            # along axes >= 1 are zeroed by the pre-multiplier
            pre, post = _dft_multipliers(qgrid, pgrid, hbar, c, +1)
            pre = pre * reduce(operator.and_, c.valid[1:], True)
            post *= pref
        ch, left, right = ws[:, :shape[0]]
        i1, i2 = idx[:, :shape[0]]
        if rho.values is not None:
            _flat_index((*c.j1, *c.j2), rho.values.shape, i1)
            np.take(rho.values, i1, out=ch, mode="clip")
        else:
            _flat_index(c.j1, qgrid.shape, i1)
            _flat_index(c.j2, qgrid.shape, i2)
            for m, (w, psi) in enumerate(rho.components):
                np.take(w * psi.values, i1, out=left, mode="clip")
                np.take(psi.values.conj(), i2, out=right, mode="clip")
                if m == 0:
                    np.multiply(left, right, out=ch)
                else:
                    left *= right
                    ch += left
        ch *= pre
        ch *= c.valid[0]
        if phase_fn is not None:
            for factor in phase_fn(c.q, c.u):
                ch *= factor
        dual_dft(ch, range(d, 2 * d), +1)
        ch *= post
        imag_max = max(imag_max, float(ch.imag.max()), float(-ch.imag.min()))
        vals[blk] = ch.real
    out = PhaseSpaceFunction(vals, pgrid, kind, constants, field_tag=field_tag, time=time,
                             imag_max=imag_max)
    if threshold is not None:
        p_axes = tuple(range(pgrid.dim, 2 * pgrid.dim))
        pmass = boundary_mass(vals, axes=p_axes)
        out.diagnostics["momentum_edge_mass"] = pmass
        if pmass > threshold:
            raise BoundaryMassError(pmass, threshold, "momentum window after transform")
    return out


def wigner(rho: DensityMatrix, threshold: float | None = 1e-4,
           time: float = 0.0) -> PhaseSpaceFunction:
    """Weyl transform of the density matrix onto the refined phase lattice.

    W(q, p) = (2 pi hbar)^(-N) integral <q-u/2|rho|q+u/2> e^(i u p / hbar) du.
    Real for Hermitian input; the boundary-mass gate (position shell before,
    momentum shell after) rejects states the grid cannot represent.
    """
    return _wigner_core(rho, None, "w", None, time, threshold)


def wigner_gauge_stratonovich(rho: DensityMatrix, field: GaugeField, t: float = 0.0,
                              threshold: float | None = 1e-4) -> PhaseSpaceFunction:
    """Gauge-independent Wigner function over kinetic momentum.

    Inserts the chord phase exp[(i e / hbar c) u . avg_A(q, u)] into the Weyl
    kernel, where avg_A is the straight-chord average of the vector
    potential.  The state's gauge tag must match the field's.
    """
    _check_gauge_tag(rho.gauge_tag, field, "state gauge")
    phase_fn = None if field.is_zero_vector else _chord_phase_factory(field, t, rho.constants, +1)
    return _wigner_core(rho, phase_fn, "w_gauge", field.tag, t, threshold)


def wigner_gauge_poincare(rho: DensityMatrix, field: GaugeField, t: float = 0.0,
                          threshold: float | None = 1e-4) -> PhaseSpaceFunction:
    """Gauge-independent Wigner function built from the radial (ray) phase:
    the standard Weyl transform of the state taken into the Poincare gauge
    q . A = 0 by the gauge function -chi_P of :meth:`GaugeField.ray_gauge`,
    chi_P(q) = q . integral_0^1 A(tau q) dtau.  Its momentum is canonical in
    that gauge, where the chord-phase variant's is kinetic.
    """
    _check_gauge_tag(rho.gauge_tag, field, "state gauge")
    rot = gauge_rotate(rho, field.ray_gauge(), -1, t)
    return _wigner_core(rot, None, "w_poincare", field.tag, t, threshold)


# ---------------------------------------------------------------------------
# inverse transforms
# ---------------------------------------------------------------------------

def _inverse_core(psf: PhaseSpaceFunction, kinds, conj_phase_fn, gauge_tag) -> DensityMatrix:
    # each inverse undoes its own transform: any other kind would reconstruct
    # a wrong kernel without an error
    if psf.kind not in kinds:
        raise ValueError(f"this inverse takes kind {' or '.join(map(repr, kinds))}, "
                         f"not {psf.kind!r}")
    pgrid = psf.grid
    if pgrid.source is None:
        raise ValueError("phase grid does not remember its source position grid")
    qgrid, hbar, d = pgrid.source, psf.constants.hbar, pgrid.dim
    if math.prod(qgrid.shape) > DENSE_POINT_LIMIT:
        raise ValueError(f"dense reconstruction limited to {DENSE_POINT_LIMIT} grid points")
    size = math.prod(qgrid.shape) ** 2
    # one slot past the kernel takes the chords that leave the grid
    flat_kernel = np.zeros(size + 1, dtype=complex)
    kernel = flat_kernel[:size].reshape(qgrid.shape + qgrid.shape)
    ws = idx = None
    for blk, c in _column_blocks(qgrid):
        block = psf.values[blk]
        if ws is None:  # the first block is the largest
            ws = np.empty(block.shape, dtype=complex)
            idx = np.empty(block.shape, dtype=np.intp)
        if blk.start < 2:  # the first block of its parity
            pre, post = _dft_multipliers(qgrid, pgrid, hbar, c, -1)
            post *= pgrid.p_cell
        ch = np.multiply(block, pre, out=ws[:block.shape[0]])
        dual_dft(ch, range(d, 2 * d), -1)
        ch *= post
        if conj_phase_fn is not None:
            for factor in conj_phase_fn(c.q, c.u):
                ch *= factor
        flat = _flat_index((*c.j1, *c.j2), kernel.shape, idx[:ch.shape[0]])
        for ok in c.valid:
            np.copyto(flat, size, where=~ok)
        flat_kernel[flat] = ch
    return DensityMatrix(qgrid, psf.constants, values=kernel, gauge_tag=gauge_tag)


def inverse_wigner(psf: PhaseSpaceFunction, gauge_tag: str = "free") -> DensityMatrix:
    """Reconstruct <q|rho|q'> from a standard (``w``) or ``classical`` Wigner
    function; exact inverse."""
    return _inverse_core(psf, ("w", "classical"), None, gauge_tag)


def inverse_wigner_gauge(psf: PhaseSpaceFunction, field: GaugeField,
                         t: float = 0.0) -> DensityMatrix:
    """Invert the chord-phase transform: FFT back to chords, strip the
    unimodular phase, scatter chords into the kernel."""
    _check_gauge_tag(psf.field_tag, field, "function tagged")
    phase_fn = None if field.is_zero_vector else _chord_phase_factory(field, t, psf.constants, -1)
    return _inverse_core(psf, ("w_gauge",), phase_fn, field.tag)


def inverse_wigner_poincare(psf: PhaseSpaceFunction, field: GaugeField,
                            t: float = 0.0) -> DensityMatrix:
    """Invert the radial-phase transform: the standard inverse, rotated back
    from the Poincare gauge into the field's."""
    _check_gauge_tag(psf.field_tag, field, "function tagged")
    rho = _inverse_core(psf, ("w_poincare",), None, field.tag)
    return gauge_rotate(rho, field.ray_gauge(), +1, t, tag=field.tag)
