"""Time evolution in four mutually checking forms.

* Classical Liouville transport: semi-Lagrangian, integrating characteristics
  backward per grid node (closed form for uniform static fields, a
  volume-preserving Boris-style pusher otherwise) and interpolating the
  initial distribution with a cubic spline.
* Minimal-coupling Schroedinger propagation: a dense spectral Hamiltonian
  diagonalized exactly (the trusted reference), and a Strang split-operator
  variant for gauges whose A_i does not depend on q_i.  Its kinetic factor
  exp(-i (p_i - e A_i/c)^2 dt / (2 m hbar)) is a multiplier in the mixed
  representation (p_i, q_j for j != i), sampled at p_i = hbar k_i in the FFT
  order of ``lattice.wavenumbers``, so each substep is one plain FFT along
  axis i and its inverse.
* The gauge-independent Moyal equation for the chord-phase Wigner function:
  the right-hand side
  -[(1/m)(p + dp_tilde) d_q + e(E_tilde + (1/mc)[(p + dp_tilde) x B_tilde]) d_p] W
  where the tilde fields are chord averages of E and B evaluated at the
  operator-shifted argument q + i hbar tau d_p.  An FFT over the momentum
  axes turns i hbar tau d_p into the real shift -tau*s, so for polynomial
  fields every tilde factor is an exact finite multiplier (or a finite
  operator sum when the Husimi shift q + (hbar/2 lam) d_q is present) and the
  tau integrals are Gauss-Legendre exact.  The momentum slot multiplies
  B_tilde in the written order, (p + dp_tilde) x B_tilde.
* The corresponding Husimi evolution: same pipeline with momentum slots
  p + (hbar lam / 2) d_p and the extra q-shift inside field arguments; by
  construction it intertwines exactly with the Moyal form under Gaussian
  smoothing.

All three right-hand sides (the Liouville one is the rule tau = 0) are
assembled in that mixed (q, s) representation: W is transformed once, every
term is formed there, the parts a momentum slot multiplies by p_i are summed
per axis and the rest once, and each sum goes back through one inverse
transform.  An RK4 stepper advances the phase-space equations.  The
right-hand side stays on complex FFTs although W is real: for uniform fields
real FFTs agree to 6e-17, but for a gradient B they move the right-hand side
by 5.4e-5 at a scale of 6.9e-2, because the complex route leaves an imaginary
Nyquist part (``rhs_imag_max`` 6.9e-3) that a second spectral factor folds
back into the real part.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.ndimage import map_coordinates

from .em_fields import GaugeField, Poly
from .husimi import SmoothingSpec
from .lattice import (DENSE_POINT_LIMIT, TWO_PI, Constants, PhaseGrid, QGrid,
                      spectral_derivative, wavenumbers)
from .phase_space import PhaseSpaceFunction
from .states import WaveFunction

__all__ = [
    "EvolutionSpec",
    "PropagatorError",
    "liouville_rhs",
    "liouville_propagate",
    "schrodinger_propagate",
    "moyal_gauge_rhs",
    "husimi_gauge_rhs",
    "propagate_phase_space",
]

_PROPAGATORS = ("liouville", "schrodinger_split", "schrodinger_dense",
                "moyal_gauge", "husimi_gauge")


class PropagatorError(RuntimeError):
    pass


@dataclass
class EvolutionSpec:
    """Field, time step, final time, and propagator selection."""

    field: GaugeField
    dt: float
    t_final: float
    propagator: str
    t0: float = 0.0
    smoothing: SmoothingSpec | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.propagator not in _PROPAGATORS:
            raise ValueError(f"unknown propagator {self.propagator!r}")


class _RhsEvaluator:
    """Right-hand side of the Liouville / Moyal / Husimi equations.

    W is transformed once over the momentum axes to the mixed (q, s)
    representation, where d/dp_i is the multiplier i s_i/hbar.  Every term is
    formed there as slot_i(factor(derivative W)).  The parts a momentum slot
    multiplies by p_i are summed per axis, everything else once, and each sum
    goes back through one inverse transform.

    A field factor is integral tau^w F(q + alpha_q d/dq - tau s) dtau: a
    multiplier when alpha_q is zero, the monomial operator otherwise; both
    commute with s.  For polynomial F a Gauss-Legendre rule of matching order
    makes the tau integral exact.  The Liouville form is the one-node rule
    tau = 0 with weight 1.
    """

    def __init__(self, grid: PhaseGrid, field: GaugeField, constants: Constants,
                 alpha_q: float = 0.0, lam_slot: float = 0.0, classical: bool = False):
        self.k = constants
        self.alpha_q = float(alpha_q)
        self.lam_slot = lam_slot
        self.dim = grid.dim
        self.e_polys = field.e_polys(constants)
        b_poly = field.b_poly()
        self.b_poly = None if b_poly is None or b_poly.is_zero else b_poly
        if classical:
            self.nodes, self.weights = np.zeros(1), np.ones(1)
        else:
            # the tau-weighted integrand has degree at most degree + 1
            degree = max([p.degree for p in self.e_polys]
                         + [self.b_poly.degree if self.b_poly is not None else 0])
            x, w = np.polynomial.legendre.leggauss(max(1, (degree + 3) // 2))
            self.nodes, self.weights = 0.5 * x, 0.5 * w
        # the momentum correction is B's odd tau moment: zero for a constant B or tau = 0
        self.corrects_p = (self.b_poly is not None and self.b_poly.degree > 0
                           and bool(self.nodes.any()))
        self.qm, self.pm = grid.q_mesh(), grid.p_mesh()
        self.sm = [constants.hbar * wavenumbers(ax, grid.ndim, grid.dim + i)
                   for i, ax in enumerate(grid.paxes)]
        self.qaxes = grid.qaxes
        self.p_axes = tuple(range(self.dim, 2 * self.dim))
        self._mult_cache: dict = {}
        self.imag_max = 0.0

    def _factor(self, key, poly: Poly, arr: np.ndarray, t: float, tau_power: int = 0):
        """Apply integral tau^w F(q + alpha_q d/dq - tau s) dtau to a (q, s) array."""
        moments = self.weights * self.nodes**tau_power
        if poly.degree == 0:
            return float(poly([0.0] * self.dim, t)) * moments.sum() * arr
        if self.alpha_q == 0.0:
            mult = self._mult_cache.get((key, tau_power))
            if mult is None:
                mult = 0.0
                for tau, c in zip(self.nodes, moments):
                    args = [q - tau * s if tau else q for q, s in zip(self.qm, self.sm)]
                    mult = mult + c * poly(args, t)
                if poly.is_static:
                    self._mult_cache[(key, tau_power)] = mult
            return mult * arr
        acc = 0.0
        for tau, c in zip(self.nodes, moments):
            res = 0.0
            for exps, coeff in poly.terms.items():
                term = arr
                for i in range(self.dim):
                    base = self.qm[i] - tau * self.sm[i]
                    for _ in range(exps[i]):
                        term = base * term + self.alpha_q * spectral_derivative(
                            term, i, self.qaxes[i])
                res = res + coeff * t ** exps[self.dim] * term
            acc = acc + c * res
        return acc

    def evaluate(self, values: np.ndarray, t: float) -> np.ndarray:
        k = self.k
        w = np.fft.fftn(values, axes=self.p_axes)
        grads = [(1j / k.hbar) * s * w for s in self.sm]
        # slot_in[i] is the argument of the momentum slot p_i + lam d/dp_i + dp_tilde_i
        slot_in = [(-1.0 / k.mass) * spectral_derivative(w, i, ax)
                   for i, ax in enumerate(self.qaxes)]
        rest = 0.0
        for i, poly in enumerate(self.e_polys):
            if not poly.is_zero:
                rest = rest - k.charge * self._factor(("e", i), poly, grads[i], t)
        if self.b_poly is not None:
            # the Lorentz term in its written order: slot_1(B g_0) - slot_0(B g_1)
            ec = k.charge / (k.mass * k.light_speed)
            slot_in[1] = slot_in[1] - ec * self._factor("b", self.b_poly, grads[0], t)
            slot_in[0] = slot_in[0] + ec * self._factor("b", self.b_poly, grads[1], t)
        if self.lam_slot:
            for s, arg in zip(self.sm, slot_in):
                rest = rest + (1j * self.lam_slot / k.hbar) * s * arg
        if self.corrects_p:
            cross = self.sm[0] * slot_in[1] - self.sm[1] * slot_in[0]
            rest = rest + (k.charge / k.light_speed) * self._factor("b", self.b_poly, cross, t, 1)
        rhs = sum(p * np.fft.ifftn(arg, axes=self.p_axes) for p, arg in zip(self.pm, slot_in))
        if not np.isscalar(rest):
            rhs = rhs + np.fft.ifftn(rest, axes=self.p_axes)
        self.imag_max = max(self.imag_max, float(np.abs(np.imag(rhs)).max()))
        return np.real(rhs)


def liouville_rhs(F: PhaseSpaceFunction, field: GaugeField, t: float = 0.0,
                  constants: Constants | None = None) -> PhaseSpaceFunction:
    """Classical transport right-hand side with the Lorentz force."""
    k = constants or F.constants
    ev = _RhsEvaluator(F.grid, field, k, classical=True)
    vals = ev.evaluate(F.values, t)
    return F.with_values(vals, imag_max=ev.imag_max)


def moyal_gauge_rhs(F: PhaseSpaceFunction, field: GaugeField, t: float = 0.0,
                    constants: Constants | None = None) -> PhaseSpaceFunction:
    """Right-hand side of the gauge-independent Moyal equation.

    Reduces identically to the Liouville form for uniform fields
    (all odd tau moments vanish and the tilde averages collapse to the field
    values), and differs at order hbar^2 for fields with curvature.
    """
    k = constants or F.constants
    ev = _RhsEvaluator(F.grid, field, k)
    vals = ev.evaluate(F.values, t)
    return F.with_values(vals, imag_max=ev.imag_max)


def husimi_gauge_rhs(F: PhaseSpaceFunction, field: GaugeField,
                     spec: SmoothingSpec | None = None, t: float = 0.0,
                     constants: Constants | None = None) -> PhaseSpaceFunction:
    """Right-hand side of the gauge-independent Husimi evolution equation.

    The Moyal pipeline with momentum slots p + (hbar lam/2) d_p and field
    arguments shifted by (hbar/2 lam) d_q; it satisfies
    smooth(moyal_rhs(W)) = husimi_rhs(smooth(W)) exactly on the grid.
    """
    k = constants or F.constants
    spec = spec or SmoothingSpec()
    lam = spec.resolve_lam(k)
    ev = _RhsEvaluator(F.grid, field, k, alpha_q=k.hbar / (2.0 * lam),
                       lam_slot=k.hbar * lam / 2.0)
    vals = ev.evaluate(F.values, t)
    return F.with_values(vals, imag_max=ev.imag_max)


# ---------------------------------------------------------------------------
# Liouville transport
# ---------------------------------------------------------------------------

def _uniform_backward(qs, ps, field: GaugeField, k: Constants, T: float, t: float):
    dim = len(qs)
    origin = [0.0] * dim
    e_vals, b_val = field.field_strengths(origin, t, k)
    e_vals = [float(np.asarray(v)) for v in e_vals]
    e, m, c = k.charge, k.mass, k.light_speed
    if dim == 1 or b_val is None or abs(float(np.asarray(b_val))) < 1e-300:
        q0s, p0s = [], []
        for q, p, E in zip(qs, ps, e_vals):
            a = e * E
            p0s.append(p - a * T)
            q0s.append(q - p * T / m + a * T * T / (2 * m))
        return q0s, p0s
    b = float(np.asarray(b_val))
    omega = e * b / (m * c)
    pdx = (m * c / b) * e_vals[1]
    pdy = -(m * c / b) * e_vals[0]
    ct, st = np.cos(omega * T), np.sin(omega * T)
    dx, dy = ps[0] - pdx, ps[1] - pdy
    d0x = ct * dx - st * dy
    d0y = st * dx + ct * dy
    p0x, p0y = pdx + d0x, pdy + d0y
    wx = (ct - 1.0) * d0x + st * d0y
    wy = -st * d0x + (ct - 1.0) * d0y
    q0x = qs[0] - pdx * T / m + wy / (m * omega)
    q0y = qs[1] - pdy * T / m - wx / (m * omega)
    return [q0x, q0y], [p0x, p0y]


def _boris_backward(qs, ps, field: GaugeField, k: Constants, T: float,
                    t_start: float, dt: float):
    dim = len(qs)
    e, m, c = k.charge, k.mass, k.light_speed
    nsub = max(1, int(np.ceil(T / dt)))
    h = -T / nsub
    q = [np.array(x, dtype=float) for x in qs]
    p = [np.array(x, dtype=float) for x in ps]
    t = t_start
    # position-staggered Boris: half drift, kick-rotate-kick at the midpoint
    # position, half drift; second order and volume preserving
    for _ in range(nsub):
        for i in range(dim):
            q[i] = q[i] + (h / 2.0) * p[i] / m
        t_mid = t + h / 2.0
        e_vals, b_val = field.field_strengths(q, t_mid, k)
        for i in range(dim):
            p[i] = p[i] + (e * h / 2.0) * e_vals[i]
        if dim == 2 and b_val is not None:
            # exact-angle rotation: the tan(theta/2) substitution keeps the
            # step a pure rotation of the momentum for any local field value
            theta = e * np.asarray(b_val) * h / (m * c)
            tv = np.tan(theta / 2.0)
            sv = 2.0 * tv / (1.0 + tv**2)
            cv = (1.0 - tv**2) / (1.0 + tv**2)
            px = cv * p[0] + sv * p[1]
            py = -sv * p[0] + cv * p[1]
            p[0], p[1] = px, py
        for i in range(dim):
            p[i] = p[i] + (e * h / 2.0) * e_vals[i]
        for i in range(dim):
            q[i] = q[i] + (h / 2.0) * p[i] / m
        t += h
    return q, p


def liouville_propagate(F0: PhaseSpaceFunction, spec: EvolutionSpec) -> PhaseSpaceFunction:
    """Semi-Lagrangian transport of a phase-space density.

    Characteristics are integrated backward once over the whole interval
    (closed form for uniform static fields, Boris-style substeps of length
    ``spec.dt`` otherwise) and the initial distribution is evaluated there by
    cubic-spline interpolation.  Mass that flows in from outside the grid is
    zero; the lost fraction is reported as ``boundary_loss``.
    """
    grid = F0.grid
    k = F0.constants
    dim = grid.dim
    T = spec.t_final - spec.t0
    pts = [ax.points for ax in grid.qaxes] + [ax.points for ax in grid.paxes]
    mesh = np.meshgrid(*pts, indexing="ij")
    qs, ps = mesh[:dim], mesh[dim:]
    if spec.field.is_uniform(k) and spec.field.is_static:
        qb, pb = _uniform_backward(qs, ps, spec.field, k, T, spec.t0)
    else:
        qb, pb = _boris_backward(qs, ps, spec.field, k, T, spec.t_final, spec.dt)
    coords = []
    outside = np.zeros(grid.shape, dtype=bool)
    for vals, ax in zip(qb + pb, grid.qaxes + grid.paxes):
        c = (vals - ax.origin) / ax.spacing
        outside |= (c < 0) | (c > ax.n - 1)
        coords.append(c)
    new_vals = map_coordinates(F0.values, coords, order=3, mode="grid-constant", cval=0.0)
    out = F0.with_values(new_vals, time=spec.t_final)
    mass0 = F0.integrate()
    out.diagnostics = dict(F0.diagnostics)
    out.diagnostics["boundary_loss"] = float(mass0 - out.integrate())
    out.diagnostics["outside_fraction"] = float(outside.mean())
    return out


# ---------------------------------------------------------------------------
# Schroedinger propagation
# ---------------------------------------------------------------------------

def _momentum_matrix(qax, hbar):
    pax_points = (TWO_PI * hbar / (qax.n * qax.spacing)) * (np.arange(qax.n) - qax.n // 2)
    U = np.exp(-1j * np.outer(pax_points, qax.points) / hbar) / np.sqrt(qax.n)
    return U.conj().T @ (pax_points[:, None] * U)


def dense_hamiltonian(grid: QGrid, field: GaugeField, constants: Constants,
                      t: float = 0.0) -> np.ndarray:
    """Spectral minimal-coupling Hamiltonian as a dense Hermitian matrix.

    H = sum_i (P_i - e A_i / c)^2 / (2m) + e phi, momentum operators exact for
    band-limited states.  Limited to DENSE_POINT_LIMIT total grid points.
    """
    n_tot = int(np.prod(grid.shape))
    if n_tot > DENSE_POINT_LIMIT:
        raise PropagatorError(f"dense Hamiltonian limited to {DENSE_POINT_LIMIT} grid points")
    k = constants
    eyes = [np.eye(ax.n) for ax in grid.axes]
    # P_i acts on axis i and as the identity on every other axis
    pops = [reduce(np.kron, eyes[:i] + [_momentum_matrix(ax, k.hbar)] + eyes[i + 1:])
            for i, ax in enumerate(grid.axes)]
    a_vals, phi_vals = field.potentials(grid.mesh(), t)
    H = np.diag(np.broadcast_to(k.charge * np.asarray(phi_vals), grid.shape).ravel()
                .astype(complex))
    for pop, a in zip(pops, a_vals):
        avec = np.broadcast_to(np.asarray(a, dtype=float), grid.shape).ravel()
        M = pop - (k.charge / k.light_speed) * np.diag(avec)
        H = H + (M @ M) / (2.0 * k.mass)
    return 0.5 * (H + H.conj().T)


def _dense_propagate(psi0: WaveFunction, spec: EvolutionSpec) -> WaveFunction:
    k = psi0.constants
    grid = psi0.grid
    T = spec.t_final - spec.t0
    # a static Hamiltonian is diagonalized once and applied as one step of length T
    nsteps = 1 if spec.field.is_static else max(1, int(round(T / spec.dt)))
    dt = T / nsteps
    vals = psi0.values.ravel()
    for j in range(nsteps):
        t_mid = spec.t0 + (j + 0.5) * dt
        H = dense_hamiltonian(grid, spec.field, k, t_mid)
        evals, vecs = np.linalg.eigh(H)
        vals = vecs @ ((vecs.conj().T @ vals) * np.exp(-1j * evals * dt / k.hbar))
    return WaveFunction(vals.reshape(grid.shape), grid, k, psi0.gauge_tag)


def _split_propagate(psi0: WaveFunction, spec: EvolutionSpec) -> WaveFunction:
    field = spec.field
    if not field.split_compatible():
        raise PropagatorError(
            "split propagator requires each A_i independent of q_i; "
            "use the dense variant for this gauge"
        )
    k = psi0.constants
    grid = psi0.grid
    dim = grid.dim
    T = spec.t_final - spec.t0
    nsteps = max(1, int(round(T / spec.dt)))
    dt = T / nsteps
    mesh = grid.mesh()
    seq = [(0, 1.0)] if dim == 1 else [(0, 0.5), (1, 1.0), (0, 0.5)]

    # kinetic factors in the FFT order of axis i, at p_i = hbar k_i
    pvals = [k.hbar * wavenumbers(ax, dim, i) for i, ax in enumerate(grid.axes)]

    def factors(t):
        a_vals, phi = field.potentials(mesh, t)
        expv = np.exp(-1j * k.charge * np.asarray(phi) * dt / (2.0 * k.hbar))
        expv = np.broadcast_to(expv, grid.shape)
        kin = []
        for ax_i, frac in seq:
            kfac = (pvals[ax_i] - (k.charge / k.light_speed) * np.asarray(a_vals[ax_i])) ** 2
            kin.append(np.exp(-1j * kfac * frac * dt / (2.0 * k.mass * k.hbar)))
        return expv, kin

    static = field.is_static
    if static:
        expv, kin = factors(spec.t0)
    vals = psi0.values
    for j in range(nsteps):
        if not static:
            expv, kin = factors(spec.t0 + (j + 0.5) * dt)
        vals = vals * expv
        for (ax_i, _), kf in zip(seq, kin):
            vals = np.fft.ifft(np.fft.fft(vals, axis=ax_i) * kf, axis=ax_i)
        vals = vals * expv
    return WaveFunction(vals, grid, k, psi0.gauge_tag)


def schrodinger_propagate(psi0: WaveFunction, spec: EvolutionSpec) -> WaveFunction:
    """Minimal-coupling Schroedinger evolution of a wavefunction.

    ``schrodinger_dense`` diagonalizes the spectral Hamiltonian exactly (the
    reference oracle, unitary to round-off); ``schrodinger_split`` is Strang
    splitting with mixed-representation kinetic factors, second order in the
    step and available whenever each A_i is independent of q_i.
    """
    if spec.propagator == "schrodinger_dense":
        return _dense_propagate(psi0, spec)
    if spec.propagator == "schrodinger_split":
        return _split_propagate(psi0, spec)
    raise PropagatorError(f"not a Schroedinger propagator: {spec.propagator!r}")


def energy_expectation(psi: WaveFunction, field: GaugeField, t: float = 0.0) -> float:
    """<psi|H|psi> for the minimal-coupling Hamiltonian (dense grids).

    Spectral evaluation without materializing the dense matrix would also
    work, but every grid this package evolves densely is small.
    """
    H = dense_hamiltonian(psi.grid, field, psi.constants, t)
    v = psi.values.ravel()
    return float((v.conj() @ (H @ v)).real * psi.grid.cell)


# ---------------------------------------------------------------------------
# phase-space time stepping
# ---------------------------------------------------------------------------

def _cfl_limit(F: PhaseSpaceFunction, field: GaugeField, k: Constants, t: float) -> float:
    """Largest stable RK4 step for the spectral advection.

    The spectral derivatives reach wavenumber pi/spacing, so the generator's
    eigenvalues are imaginary with |lambda| <= pi (p_max/(m dq) + f_max/dp);
    RK4 is stable on the imaginary axis up to |lambda dt| = 2 sqrt(2).
    """
    grid = F.grid
    p_max = max(float(np.abs(ax.points).max()) for ax in grid.paxes)
    qpts = [ax.points for ax in grid.qaxes]
    qmesh = np.meshgrid(*qpts, indexing="ij")
    e_vals, b_val = field.field_strengths(list(qmesh), t, k)
    e_max = max(float(np.abs(np.asarray(v)).max()) if np.size(v) else 0.0 for v in e_vals)
    b_max = float(np.abs(np.asarray(b_val)).max()) if b_val is not None else 0.0
    f_max = abs(k.charge) * (e_max + p_max * b_max / (k.mass * k.light_speed))
    dq_min = min(ax.spacing for ax in grid.qaxes)
    dp_min = min(ax.spacing for ax in grid.paxes)
    rate = np.pi * (p_max / (k.mass * dq_min) + f_max / dp_min)
    return 2.0 * np.sqrt(2.0) / max(rate, 1e-300)


def propagate_phase_space(F0: PhaseSpaceFunction, spec: EvolutionSpec,
                          constants: Constants | None = None) -> PhaseSpaceFunction:
    """RK4 integration of the Moyal or Husimi evolution equation.

    The Husimi equation is integrated through its exact grid similarity to the
    chord form: the mixed d_p d_q part of the Husimi generator carries a real
    spectrum of either sign (anti-diffusive in half the modes), so stepping it
    directly amplifies round-off without bound no matter how small the step.
    Conjugating by the Gaussian smoothing is exact on the grid (the
    intertwining identity holds to round-off), so the stepper deconvolves
    once, advances the chord-form equation, and smooths back; the smoothing
    spec's band limit and amplification cap govern the one deconvolution.
    """
    k = constants or F0.constants
    if spec.propagator not in ("moyal_gauge", "husimi_gauge"):
        raise PropagatorError(f"not a phase-space propagator: {spec.propagator!r}")
    husimi_route = spec.propagator == "husimi_gauge"
    smoothing = spec.smoothing or SmoothingSpec()
    if husimi_route:
        from dataclasses import replace as dc_replace
        from .husimi import husimi_from_wigner, wigner_from_husimi
        # internal deconvolution: the amplification cap is the regularizer,
        # the geometric band covers the whole grid (content between the spec
        # band and the grid edge is real signal on coarse grids)
        decon = dc_replace(smoothing, band_fraction=1.0, reg_floor=1.0)
        start = wigner_from_husimi(F0, decon)
    else:
        start = F0
    ev = _RhsEvaluator(F0.grid, spec.field, k)
    limit = _cfl_limit(F0, spec.field, k, spec.t0)
    if spec.dt > limit:
        warnings.warn(
            f"time step {spec.dt:.3e} exceeds the advection limit {limit:.3e}; "
            "expect instability", RuntimeWarning, stacklevel=2)
    T = spec.t_final - spec.t0
    nsteps = max(1, int(round(T / spec.dt)))
    dt = T / nsteps
    y = np.array(start.values, dtype=float)
    mass0 = float(y.sum() * F0.grid.cell)
    for j in range(nsteps):
        t = spec.t0 + j * dt
        k1 = ev.evaluate(y, t)
        k2 = ev.evaluate(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = ev.evaluate(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = ev.evaluate(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all() or np.abs(y).max() > 1e150:
            raise PropagatorError(f"propagation diverged at step {j + 1} (NaN/Inf)")
    if husimi_route:
        w_t = F0.with_values(y, kind=start.kind, time=spec.t_final)
        out = husimi_from_wigner(w_t, smoothing)
        out = out.with_values(out.values, imag_max=max(out.imag_max, ev.imag_max))
    else:
        out = F0.with_values(y, time=spec.t_final, imag_max=ev.imag_max)
    out.diagnostics = dict(F0.diagnostics)
    out.diagnostics["mass_drift"] = float(out.values.sum() * F0.grid.cell - mass0)
    out.diagnostics["rhs_imag_max"] = ev.imag_max
    return out
