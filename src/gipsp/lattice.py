"""Grids, the Fourier convention, quadrature, and array serialization.

Position grids are uniform with a power-of-two point count per axis.  The
Fourier convention lives here and nowhere else: an axis with n points at
spacing dx has the angular wavenumbers k = 2*pi*fftfreq(n, dx) in FFT order
(:func:`wavenumbers`; bin 0 holds k = 0), momentum is p = hbar*k, so the dual
spacing is dp = 2*pi*hbar / (n*dx), and d/dx is the multiplier i*k
(:func:`spectral_derivative`).  Transforms with the continuum kernel
exp(-i p q / hbar) between offset, centered samplings are a plain in-place
FFT (:func:`dual_dft`) between offset phase factors built by
:func:`dual_dft_factors`.
Quasi-probability distributions live on a refined phase lattice (half spacing
in position, half of the dual spacing in momentum) built by
:meth:`PhaseGrid.wigner`; that choice keeps chord resampling of density
matrices an exact index bijection, see ``phase_space``.

All integrals are Riemann sums with the uniform cell weight, which is
spectrally accurate for smooth integrands that decay inside the box.  A
boundary-mass diagnostic (:func:`boundary_mass`) measures how well a field
honours that decay assumption; transforms gate on it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import fft

TWO_PI = 2.0 * np.pi

# Largest total grid-point count N for which dense N x N position kernels and
# operators (density matrices, reconstructions, Hamiltonians) are built.
DENSE_POINT_LIMIT = 4096


class LatticeError(ValueError):
    """Grid construction or transform consistency failure."""


class BoundaryMassError(LatticeError):
    """A field carries more mass near the grid edge than the gate allows."""

    def __init__(self, mass: float, threshold: float, where: str):
        self.mass = float(mass)
        self.threshold = float(threshold)
        self.where = where
        super().__init__(
            f"boundary mass {mass:.3e} exceeds threshold {threshold:.3e} ({where}); "
            "enlarge the grid or loosen the gate"
        )


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Constants:
    """Physical constants in Gaussian-style units.

    ``lam`` is the coherent-state squeeze parameter (momentum/length units):
    the smoothing Gaussian has position variance hbar/(2*lam) and momentum
    variance hbar*lam/2.  Defaults put everything equal to one.
    """

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    light_speed: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "light_speed", "lam"):
            if getattr(self, name) <= 0:
                raise LatticeError(f"constants.{name} must be positive")


@dataclass(frozen=True)
class Axis:
    """One uniform sampling axis: n points, spacing, center."""

    n: int
    spacing: float
    center: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise LatticeError("axis needs at least one point")
        if self.spacing <= 0:
            raise LatticeError("axis spacing must be positive")

    @property
    def points(self) -> np.ndarray:
        return self.center + (np.arange(self.n) - self.n // 2) * self.spacing

    @property
    def origin(self) -> float:
        """Coordinate of index 0."""
        return self.center - (self.n // 2) * self.spacing


@dataclass(frozen=True)
class QGrid:
    """Uniform position grid in 1 or 2 dimensions.

    Point counts are powers of two (>= 8) so every axis has an exact FFT
    dual, see :func:`wavenumbers`.
    """

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise LatticeError("QGrid supports 1 or 2 dimensions")
        for ax in self.axes:
            if not _is_power_of_two(ax.n) or ax.n < 8:
                raise LatticeError("grid sizes must be powers of two, at least 8")

    @classmethod
    def regular(cls, dim: int, n: int, spacing: float, center=0.0) -> "QGrid":
        centers = np.broadcast_to(np.asarray(center, dtype=float), (dim,))
        return cls(tuple(Axis(n, spacing, c) for c in centers))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(ax.spacing for ax in self.axes)

    @property
    def cell(self) -> float:
        return float(np.prod(self.spacings))

    def mesh(self) -> list[np.ndarray]:
        """Broadcast-ready coordinate arrays, one per axis."""
        out = []
        for i, ax in enumerate(self.axes):
            shape = [1] * self.dim
            shape[i] = ax.n
            out.append(ax.points.reshape(shape))
        return out

    def refined(self) -> "QGrid":
        """Midpoint-refined grid: twice the points at half the spacing."""
        return QGrid(tuple(Axis(2 * ax.n, ax.spacing / 2.0, ax.center) for ax in self.axes))


@dataclass(frozen=True)
class PhaseGrid:
    """Product grid over position and momentum axes.

    ``PhaseGrid.wigner`` is the refined lattice carrying quasi-probability
    distributions: position at half spacing (2n points) and momentum at half
    the dual spacing (n points), so each chord column transform is a
    2*pi*hbar-exact FFT pair.
    """

    qaxes: tuple[Axis, ...]
    paxes: tuple[Axis, ...]
    source: QGrid | None = None

    @classmethod
    def wigner(cls, qgrid: QGrid, hbar: float) -> "PhaseGrid":
        qaxes = qgrid.refined().axes
        paxes = tuple(
            Axis(ax.n, TWO_PI * hbar / (ax.n * ax.spacing) / 2.0, 0.0) for ax in qgrid.axes
        )
        return cls(qaxes, paxes, source=qgrid)

    @property
    def dim(self) -> int:
        return len(self.qaxes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.qaxes) + tuple(ax.n for ax in self.paxes)

    @property
    def ndim(self) -> int:
        return 2 * self.dim

    @property
    def cell(self) -> float:
        return float(np.prod([ax.spacing for ax in self.qaxes + self.paxes]))

    def _mesh(self, axes: tuple[Axis, ...], offset: int) -> list[np.ndarray]:
        out = []
        for i, ax in enumerate(axes):
            shape = [1] * self.ndim
            shape[offset + i] = ax.n
            out.append(ax.points.reshape(shape))
        return out

    def q_mesh(self) -> list[np.ndarray]:
        return self._mesh(self.qaxes, 0)

    def p_mesh(self) -> list[np.ndarray]:
        return self._mesh(self.paxes, self.dim)

    @property
    def p_cell(self) -> float:
        return float(np.prod([ax.spacing for ax in self.paxes]))


def integrate(values: np.ndarray, grid: QGrid | PhaseGrid) -> float | complex:
    """Riemann sum with the uniform cell weight."""
    if values.shape != grid.shape:
        raise LatticeError(f"field shape {values.shape} does not match grid {grid.shape}")
    total = values.sum() * grid.cell
    if np.iscomplexobj(values):
        return complex(total)
    return float(total)


def max_abs_diff(a, b) -> float:
    """max|a - b|, reduced one leading-axis slice at a time so that no
    temporary of the full size is made.  Bitwise equal to
    ``np.abs(a - b).max()``; a NaN anywhere gives NaN."""
    a, b = np.broadcast_arrays(np.atleast_2d(a), np.atleast_2d(b))
    # np.max, not the builtin max, which drops a NaN after the first slice
    return float(np.max([np.abs(x - y).max() for x, y in zip(a, b)]))


def boundary_mass(density: np.ndarray, axes=None) -> float:
    """Fraction of the sum of |density| in the outer shell of the grid.

    The shell is the union, over the selected axes, of the outer tenth of
    the points on each side.  It is summed as disjoint slabs, views of the
    density: along each selected axis in turn, the two outer slabs of what
    the axes before it left inner.  |density| is taken slab by slab, and for
    the total slice by slice: a signed density makes no full-size copy.
    """
    dens = np.asarray(density)
    if axes is None:
        axes = range(dens.ndim)
    total = np.sum([np.abs(x).sum() for x in np.atleast_2d(dens)])
    if total <= 0:
        return 0.0
    shell, inner = 0.0, dens
    for ax in axes:
        n = dens.shape[ax]
        k = max(1, int(round(0.1 * n)))
        lines = np.moveaxis(inner, ax, 0)
        shell += np.abs(lines[:k]).sum() + np.abs(lines[max(k, n - k):]).sum()
        inner = np.moveaxis(lines[k:n - k], 0, ax)
    return float(shell / total)


def dual_dft_factors(ndim: int, lines, hbar: float, sign: int):
    """Pre- and post-phase factors of F_m = sum_r f_r exp(sign*i*x_r*y_m/hbar)
    along several axes at once: F = post * dual_dft(values * pre, axes, sign).

    ``lines`` holds one ``(axis, n, x0, dx, y0, dy)`` per axis of an
    ``ndim``-dimensional array; x_r = x0 + r*dx and y_m = y0 + m*dy must be
    FFT-dual, dx*dy*n = 2*pi*hbar.  Offsets may be arrays of length 1 along
    ``axis``, giving every line of the transform its own offsets.
    """
    pre = post = 1.0
    for axis, n, x0, dx, y0, dy in lines:
        if abs(dx * dy * n - TWO_PI * hbar) > 1e-9 * TWO_PI * hbar:
            raise LatticeError("axis pair is not FFT-dual: dx*dy*n != 2*pi*hbar")
        shape = [1] * ndim
        shape[axis] = n
        idx = np.arange(n).reshape(shape)
        pre = pre * np.exp(sign * 1j * (dx * y0 / hbar) * idx)
        post = post * np.exp(sign * 1j * (x0 / hbar) * (y0 + idx * dy))
    return pre, post


def dual_dft(values: np.ndarray, axes, sign: int) -> np.ndarray:
    """In place along each of ``axes``: the unnormalized length-n DFT with
    kernel exp(sign*2*pi*i*r*m/n), the core of :func:`dual_dft_factors`."""
    for axis in axes:
        if sign < 0:
            np.fft.fft(values, axis=axis, out=values)
        else:
            np.fft.ifft(values, axis=axis, norm="forward", out=values)
    return values


def wavenumbers(ax: Axis, ndim: int, axis: int, half: bool = False) -> np.ndarray:
    """Angular wavenumbers 2*pi*fftfreq of ``ax`` in FFT order, or of the
    ``rfft`` half spectrum when ``half``, shaped to broadcast along ``axis``
    of an ``ndim``-dimensional array."""
    freq = np.fft.rfftfreq if half else np.fft.fftfreq
    k = TWO_PI * freq(ax.n, d=ax.spacing)
    shape = [1] * ndim
    shape[axis] = k.size
    return k.reshape(shape)


def spectral_matrices(multiplier, n: int) -> np.ndarray:
    """The real n x n matrices M of x -> irfft(multiplier * rfft(x)) on an
    axis of n points, so that M @ x applies the multiplier as one matrix
    product: ``multiplier`` holds ``rfft`` half spectra (n//2 + 1 bins) on
    its last axis, and each of its leading indices gets its own matrix."""
    multiplier = np.asarray(multiplier)[..., None]
    return fft.irfft(multiplier * fft.rfft(np.eye(n), axis=0), n=n, axis=-2)


def spectral_derivative(values: np.ndarray, axis: int, ax: Axis) -> np.ndarray:
    """d/dx of ``values`` along ``axis``, sampled on ``ax``: the multiplier i*k."""
    spectrum = fft.fft(values, axis=axis)
    spectrum *= 1j * wavenumbers(ax, values.ndim, axis)
    return fft.ifft(spectrum, axis=axis, overwrite_x=True)


# ---------------------------------------------------------------------------
# serialization: raw little-endian buffers with a JSON sidecar
# ---------------------------------------------------------------------------

_DTYPES = {"float64": "<f8", "complex128": "<c16"}


def grid_metadata(grid: QGrid | PhaseGrid) -> dict:
    if isinstance(grid, QGrid):
        return {
            "grid_type": "position",
            "axes": [[ax.n, ax.spacing, ax.center] for ax in grid.axes],
        }
    return {
        "grid_type": "phase",
        "qaxes": [[ax.n, ax.spacing, ax.center] for ax in grid.qaxes],
        "paxes": [[ax.n, ax.spacing, ax.center] for ax in grid.paxes],
    }


def save_field(basepath: str | Path, values: np.ndarray, sidecar: dict | None = None) -> None:
    """Write `<base>.bin` (raw little-endian buffer) plus `<base>.json`."""
    base = Path(basepath)
    dtype = "complex128" if np.iscomplexobj(values) else "float64"
    arr = np.ascontiguousarray(values, dtype=_DTYPES[dtype])
    arr.tofile(base.with_suffix(".bin"))
    meta = {"shape": list(arr.shape), "dtype": dtype}
    meta.update(sidecar or {})
    base.with_suffix(".json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def load_field(basepath: str | Path) -> tuple[np.ndarray, dict]:
    base = Path(basepath)
    meta = json.loads(base.with_suffix(".json").read_text())
    raw = np.fromfile(base.with_suffix(".bin"), dtype=_DTYPES[meta["dtype"]])
    return raw.reshape(meta["shape"]).astype(meta["dtype"]), meta


def export_csv(path: str | Path, values: np.ndarray, coords: list[np.ndarray]) -> None:
    """Write a 2-D real (q, p) slice as CSV rows (q, p, value), ``coords``
    holding the points of its two axes."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise LatticeError("CSV export writes 2-D slices only")
    xs, ys = np.meshgrid(*coords, indexing="ij")
    rows = np.stack([xs.ravel(), ys.ravel(), arr.real.ravel()], axis=1)
    np.savetxt(path, rows, delimiter=",", header="q,p,value", comments="")
