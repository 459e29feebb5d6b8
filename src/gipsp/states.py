"""Quantum states in the position representation and the gauge action on them.

Wavefunctions are complex fields on a :class:`QGrid`.  Density matrices are
stored as full (n x n) position kernels in 1-D; in 2-D they are kept in a
low-rank decomposition sum_i w_i |psi_i><psi_i| because every transform in
this package is linear in the density matrix, so applying it component by
component is exact.  Dense 2-D kernels appear only as reconstruction outputs.

A gauge transformation multiplies a wavefunction by exp(i e chi / (c hbar))
and conjugates a density matrix by the same phase, leaving every position
density unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .em_fields import GaugeFn
from .lattice import (DENSE_POINT_LIMIT, BoundaryMassError, Constants, QGrid, boundary_mass,
                      integrate)

__all__ = [
    "WaveFunction",
    "DensityMatrix",
    "coherent_state",
    "gaussian_packet",
    "density_from_pure",
    "mix",
    "gauge_rotate",
    "phase_rotate",
    "StateError",
]


class StateError(ValueError):
    pass


@dataclass
class WaveFunction:
    values: np.ndarray
    grid: QGrid
    constants: Constants
    gauge_tag: str = "free"

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise StateError("wavefunction shape does not match grid")

    def norm(self) -> float:
        return float(np.sqrt(integrate(np.abs(self.values) ** 2, self.grid).real))

    def normalized(self) -> "WaveFunction":
        return replace(self, values=self.values / self.norm())

    def position_density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def check_support(self, threshold: float = 1e-7) -> float:
        mass = boundary_mass(self.position_density())
        if threshold is not None and mass > threshold:
            raise BoundaryMassError(mass, threshold, "wavefunction position support")
        return mass


@dataclass
class DensityMatrix:
    """Density matrix: dense kernel, low-rank components, or both.

    ``values`` holds <q|rho|q'> on the grid (shape (n, n) in 1-D and
    (nx, ny, nx, ny) in 2-D); ``components`` holds (weight, WaveFunction)
    pairs.  At least one representation must be present.
    """

    grid: QGrid
    constants: Constants
    values: np.ndarray | None = None
    components: tuple | None = None
    gauge_tag: str = "free"

    def __post_init__(self):
        if self.values is None and self.components is None:
            raise StateError("density matrix needs a kernel or components")
        if self.values is not None:
            expected = self.grid.shape + self.grid.shape
            if self.values.shape != expected:
                raise StateError(f"kernel shape {self.values.shape}, expected {expected}")

    @property
    def dim(self) -> int:
        return self.grid.dim

    def as_kernel(self) -> np.ndarray:
        """Materialize the dense position kernel (small grids only in 2-D)."""
        if self.values is not None:
            return self.values
        n_total = int(np.prod(self.grid.shape))
        if n_total > DENSE_POINT_LIMIT:
            raise StateError("dense kernel too large; keep the component form")
        acc = np.zeros(self.grid.shape + self.grid.shape, dtype=complex)
        flat = acc.reshape(n_total, n_total)
        for w, psi in self.components:
            v = psi.values.reshape(-1)
            flat += w * np.outer(v, v.conj())
        return acc

    def trace(self) -> float:
        if self.components is not None:
            return float(sum(w * integrate(psi.position_density(), self.grid)
                             for w, psi in self.components))
        n_total = int(np.prod(self.grid.shape))
        flat = self.values.reshape(n_total, n_total)
        return float(np.trace(flat).real * self.grid.cell)

    def purity(self) -> float:
        """Tr rho^2 under the grid quadrature."""
        cell = self.grid.cell
        if self.components is not None:
            comps = self.components
            total = 0.0
            for wi, pi in comps:
                for wj, pj in comps:
                    ovl = np.vdot(pi.values, pj.values) * cell
                    total += wi * wj * abs(ovl) ** 2
            return float(total)
        n_total = int(np.prod(self.grid.shape))
        flat = self.values.reshape(n_total, n_total)
        return float(np.sum(np.abs(flat) ** 2) * cell**2)

    def diagonal(self) -> np.ndarray:
        """Position density <q|rho|q> as a real field on the grid."""
        if self.components is not None:
            out = np.zeros(self.grid.shape)
            for w, psi in self.components:
                out += w * psi.position_density()
            return out
        n_total = int(np.prod(self.grid.shape))
        flat = self.values.reshape(n_total, n_total)
        return np.diagonal(flat).real.reshape(self.grid.shape).copy()

    def hermiticity_defect(self) -> float:
        if self.components is not None:
            return 0.0
        n_total = int(np.prod(self.grid.shape))
        flat = self.values.reshape(n_total, n_total)
        return float(np.abs(flat - flat.conj().T).max())


def gaussian_packet(q0, p0, widths, grid: QGrid, constants: Constants,
                    gauge_tag: str = "free", check: float | None = 1e-5) -> WaveFunction:
    """Normalized Gaussian packet with position standard deviations ``widths``.

    psi(q) ~ exp(-(q - q0)^2 / (4 sigma^2) + i p0 . (q - q0) / hbar).
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    widths = np.broadcast_to(np.asarray(widths, dtype=float), (grid.dim,))
    mesh = grid.mesh()
    expo = 0.0
    for x, c, p, s in zip(mesh, q0, p0, widths):
        expo = expo + (-((x - c) ** 2) / (4.0 * s**2) + 1j * p * (x - c) / constants.hbar)
    values = np.exp(expo)
    psi = WaveFunction(values, grid, constants, gauge_tag).normalized()
    if check is not None:
        psi.check_support(check)
    return psi


def coherent_state(q0, p0, grid: QGrid, constants: Constants,
                   gauge_tag: str = "free", check: float | None = 1e-5) -> WaveFunction:
    """Minimum-uncertainty Gaussian centered at phase-space point (q0, p0).

    <q'|state> = (lam/(pi hbar))^(N/4)
                 exp(-lam (q'-q0)^2 / (2 hbar) + i p0 . (q'-q0) / hbar),
    the squeeze lam taken from the constants.  This fixes the phase so
    overlap oracles are deterministic.
    """
    sigma = np.sqrt(constants.hbar / (2.0 * constants.lam))
    return gaussian_packet(q0, p0, sigma, grid, constants, gauge_tag, check)


def density_from_pure(psi: WaveFunction) -> DensityMatrix:
    """|psi><psi|: the one-component :func:`mix`."""
    return mix([(1.0, psi)])


def mix(pairs) -> DensityMatrix:
    """Statistical mixture sum_i w_i |psi_i><psi_i|; weights must sum to one."""
    pairs = tuple((float(w), psi) for w, psi in pairs)
    if not pairs:
        raise StateError("empty mixture")
    for w, _ in pairs:
        if w < 0:
            raise StateError("negative weight in mixture")
    total = sum(w for w, _ in pairs)
    if abs(total - 1.0) > 1e-12:
        raise StateError(f"mixture weights sum to {total}, expected 1")
    grid = pairs[0][1].grid
    constants = pairs[0][1].constants
    tag = pairs[0][1].gauge_tag
    for _, psi in pairs:
        if psi.grid != grid:
            raise StateError("mixture components live on different grids")
        if psi.gauge_tag != tag:
            raise StateError("mixture components carry different gauge tags")
    if grid.dim == 1:
        kernel = np.zeros(grid.shape + grid.shape, dtype=complex)
        for w, psi in pairs:
            kernel += w * np.outer(psi.values, psi.values.conj())
        return DensityMatrix(grid, constants, values=kernel, components=pairs, gauge_tag=tag)
    return DensityMatrix(grid, constants, components=pairs, gauge_tag=tag)


def phase_rotate(state, theta: np.ndarray, tag: str | None = None):
    """Multiply by exp(i theta(q)); density matrices are conjugated.

    ``theta`` is a real field on the state's grid.  Diagonal densities are
    untouched; traces, purities, and spectra are preserved exactly.
    """
    phase = np.exp(1j * theta)
    if isinstance(state, WaveFunction):
        return replace(state, values=state.values * phase,
                       gauge_tag=tag if tag is not None else state.gauge_tag)
    new_tag = tag if tag is not None else state.gauge_tag
    values = None
    if state.values is not None:
        n_total = int(np.prod(state.grid.shape))
        flat = state.values.reshape(n_total, n_total)
        ph = phase.reshape(-1)
        values = (ph[:, None] * flat * ph.conj()[None, :]).reshape(state.values.shape)
    components = None
    if state.components is not None:
        components = tuple(
            (w, replace(psi, values=psi.values * phase, gauge_tag=new_tag))
            for w, psi in state.components
        )
    return DensityMatrix(state.grid, state.constants, values=values,
                         components=components, gauge_tag=new_tag)


def gauge_rotate(state, chi: GaugeFn, sign: int = +1, t: float = 0.0, tag: str | None = None):
    """Gauge action on a state: the phase exp(sign * i e chi / (c hbar)).

    With sign=+1 this is the companion of the potential change
    A -> A + grad(chi); sign=-1 undoes it.  The new gauge tag defaults to
    "<old>|<chi.tag>" so it pairs with ``GaugeField.gauged``.
    """
    if sign not in (+1, -1):
        raise StateError("sign must be +1 or -1")
    k = state.constants
    mesh = state.grid.mesh()
    theta = sign * (k.charge / (k.light_speed * k.hbar)) * np.asarray(chi(mesh, t))
    theta = np.broadcast_to(theta, state.grid.shape)
    if tag is None:
        tag = f"{state.gauge_tag}|{'-' if sign < 0 else ''}{chi.tag}"
    return phase_rotate(state, theta, tag=tag)
