"""Time evolution in four mutually checking forms.

* Classical Liouville transport of a phase-space density.
* Minimal-coupling Schroedinger propagation in any gauge, exp(-i H h/hbar)
  per step: by ``eigh`` of the dense spectral Hamiltonian
  (``schrodinger_dense``, the trusted reference, at most DENSE_POINT_LIMIT
  grid points) or as a Chebyshev series in the matrix-free action of H, two
  FFT passes per axis (``schrodinger_split``, any grid size).
* The gauge-independent Moyal equation for the chord-phase Wigner function:
  the right-hand side
  -[(1/m)(p + dp_tilde) d_q + e(E_tilde + (1/mc) F_tilde (p + dp_tilde)) d_p] W
  with F_ij = d_i A_j - d_j A_i (``GaugeField.f_polys``: F_01 = B in 2-D,
  no pair in 1-D), the tilde fields chord averages of E and F evaluated at
  the operator-shifted argument q + i hbar tau d_p.  An FFT over the momentum
  axes turns i hbar tau d_p into the real shift -tau*s, so for polynomial
  fields every tilde factor is an exact finite multiplier (or a finite
  operator sum when the Husimi shift q + (hbar/2 lam) d_q is present) and the
  tau integrals are Gauss-Legendre exact.  The momentum slot multiplies
  F_tilde in the written order.
* The corresponding Husimi evolution: same pipeline with momentum slots
  p + (hbar lam / 2) d_p and the extra q-shift inside field arguments; by
  construction it intertwines exactly with the Moyal form under Gaussian
  smoothing.

Every phase-space route, reused factor and correction reads the field only
through the nonzero entries of E and F (``_FieldTensor``), as the equations
do, so it is the same in every gauge.  For static, constant E and F the Moyal
generator is the Liouville one, and its flow is one affine symplectic map,
the exponential of the augmented generator of (q, p, 1), which Fourier shears
along one axis each apply exactly, with no time step; the Liouville, Moyal
and Husimi evolutions of such fields take it.
For any other field Liouville transport applies the same one-axis shears in
Strang steps, a position-staggered Boris substep each (drift, E kick, the turn
of p by the local F, kick, drift), so its mass keeps to round-off.  Where F
is at most linear in q (or has no entry, as in 1-D) Moyal minus Liouville is
exactly a shift along q and a phase in the (q, s) representation, so the
Moyal and Husimi equations take the same steps with that unitary correction
around each (Strang, C(h/2) L(h) C(h/2)).  Each of these flows is one list of
shears, an axis and a shift that is a function of z = (q, p), and of the
corrections, which act on the whole array: the list moves the values, and
its shears, run in reverse on the coordinates of the nodes, give the starts
from which the periodic wrap is reported.
Only an F of degree >= 2 leaves the Moyal and Husimi equations to RK4 steps
on right-hand sides assembled in the mixed (q, s) representation
(``_RhsEvaluator``; the Liouville right-hand side is the rule tau = 0), in
steps of at most dt and at most the evaluator's own stability bound.
There each field factor is applied once, and for the chord form every
constant and every s factor is folded into small precombined multipliers.
These stay on complex FFTs although W is real: for a gradient B real FFTs
move the right-hand side by 5.4e-5 at a scale of 6.9e-2, through the
imaginary Nyquist part (``rhs_imag_max`` 6.9e-3) that a second spectral
factor folds back into the real part.  Every transform here runs on
``scipy.fft``, which does the two-axis (q, s) transform faster than
``numpy.fft``.

Every evolution decision is taken here: ``_flow`` maps each of the five
propagator names to its flow and to how the walk takes that flow, and one
walk, :func:`evolve`, wraps the Husimi route in the smoothing conjugation and
yields each cut as it is computed, holding one state and no history; callers
only choose the cut times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np
from scipy import fft
from scipy.special import jv

from .em_fields import GaugeField, Poly, gauss_legendre
from .husimi import SmoothingSpec, husimi_from_wigner, wigner_from_husimi
from .lattice import (DENSE_POINT_LIMIT, TWO_PI, Constants, PhaseGrid, QGrid,
                      spectral_derivative, spectral_matrices, wavenumbers)
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
    "evolve",
]

_PROPAGATORS = ("liouville", "schrodinger_split", "schrodinger_dense",
                "moyal_gauge", "husimi_gauge")


class PropagatorError(RuntimeError):
    pass


@dataclass
class EvolutionSpec:
    """Field, time step, final time, and propagator selection.  Every
    propagator takes any gauge and ``schrodinger_split`` any grid size; only
    ``schrodinger_dense`` stops at DENSE_POINT_LIMIT points.  ``dt`` bounds
    the steps of every stepped route, none of which has a stability limit.
    Every flow steps forward, so ``t_final`` before ``t0`` raises here."""

    field: GaugeField
    dt: float
    t_final: float
    propagator: str
    t0: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.t_final < self.t0:
            raise ValueError(f"t_final {self.t_final} precedes t0 {self.t0}: "
                             "the flows step forward in time")
        if self.propagator not in _PROPAGATORS:
            raise ValueError(f"unknown propagator {self.propagator!r}")


def _present(mult) -> bool:
    """Whether a multiplier of ``_RhsEvaluator._multipliers`` is there: every
    term carries an s factor, so it is an array, and an absent one is 0."""
    return isinstance(mult, np.ndarray)


def _accumulate(total, part):
    """``total + part``, in place unless ``total`` is None (the empty sum)."""
    if total is None:
        return part
    total += part
    return total


class _FieldTensor:
    """The one read of a field on the phase-space side: the nonzero entries
    ``e`` (E_i by axis) and ``f`` (F_ij by pair) and whether they are all
    ``static``.  The phase-space equations contain only E and F, so a route,
    reused factor or correction taken from these is the same in any gauge."""

    def __init__(self, field: GaugeField, k: Constants):
        self.e = {i: p for i, p in enumerate(field.e_polys(k)) if not p.is_zero}
        self.f = {pair: p for pair, p in field.f_polys().items() if not p.is_zero}
        self.entries = [*self.e.values(), *self.f.values()]
        self.static = all(p.is_static for p in self.entries)


def _tau_rule(tensor: _FieldTensor, form: str):
    """The tau nodes and weights of ``form``: tau = 0 for Liouville, else
    Gauss-Legendre, exact for the tau-weighted factors (degree <= field's + 1)."""
    if form == "liouville":
        return np.zeros(1), np.ones(1)
    return gauss_legendre(-0.5, 0.5, max((p.degree for p in tensor.entries), default=0) + 1)


def _field_terms(tensor: _FieldTensor, k: Constants, rule, sm, t: float, qm):
    """The terms of the Liouville or Moyal right-hand side at t on the q nodes
    ``qm`` and s mesh ``sm`` (broadcasting arrays), by the tau ``rule``, as
    precombined multipliers: u_i gains ``of_w[i] w``, the rest ``rest_w w +
    sum_i rest_u[i] u_i``, summed over the entries of E and the pairs (i, j)
    of F in ``tensor``; a term that is absent is the scalar 0."""
    nodes, weights = rule
    g = [(1j / k.hbar) * s for s in sm]

    def integral(poly, tau_power=0):
        mult = 0.0
        for tau, c in zip(nodes, weights * nodes**tau_power):
            args = [q - tau * s if tau else q for q, s in zip(qm, sm)]
            mult = mult + c * poly(args, t)
        return mult

    rest_w = 0.0
    for i, poly in tensor.e.items():
        rest_w = rest_w - k.charge * g[i] * integral(poly)
    of_w, rest_u = [0.0] * len(sm), [0.0] * len(sm)
    for (i, j), poly in tensor.f.items():
        f = (k.charge / k.light_speed) * integral(poly)
        of_w[i], of_w[j] = of_w[i] - f * g[j], of_w[j] + f * g[i]
        if poly.degree > 0 and nodes.any():
            f1 = (k.charge / (k.mass * k.light_speed)) * integral(poly, 1)
            rest_u[i], rest_u[j] = rest_u[i] + f1 * sm[j], rest_u[j] - f1 * sm[i]
    return of_w, rest_w, rest_u


class _RhsEvaluator:
    """Right-hand side of the Liouville, Moyal or Husimi equation (``form``).

    W is transformed once over the momentum axes to the mixed (q, s)
    representation (``scipy.fft``, in place in work arrays the evaluator
    keeps), where d/dp_i is the multiplier g_i = i s_i/hbar.  The argument of
    the momentum slot p_i is carried as u_i = -m slot_i: the spectral
    d/dq_i of w (the multiplier i k_i along q_i) plus the Lorentz part
    -(e/c) sum_j F_ij g_j w.  The rest, the part no slot multiplies by p_i, is
    -e g_i E_i w plus the slot terms that act on u (the momentum correction,
    and the lam d/dp_i of the Husimi slots).  Each u_i goes back through one
    inverse transform times -p_i/m, the rest through one more.

    A field factor is integral tau^w P(q + alpha_q d/dq - tau s) dtau, P an
    entry of E or F; it commutes with s, so each factor is applied once to w
    and serves both Lorentz slots.  For polynomial P a Gauss-Legendre rule of matching order
    makes the tau integral exact; the Liouville form is the one-node rule
    tau = 0 with weight 1 (:func:`_tau_rule`).  In the Liouville and Moyal
    forms alpha_q is zero and each factor is a multiplier: s, i/hbar, e, m
    and c are folded into small broadcast multipliers (:func:`_field_terms`),
    built once for static E and F and at each t otherwise, and each term is
    one in-place multiply-add.  In the Husimi form (alpha_q = hbar/(2 lam))
    each factor is the monomial operator.
    """

    def __init__(self, grid: PhaseGrid, field: GaugeField, constants: Constants, form: str):
        self.k = constants
        self.husimi = form == "husimi"
        self.dim = grid.dim
        self.tensor = _FieldTensor(field, constants)
        self.rule = _tau_rule(self.tensor, form)
        self.qm = grid.q_mesh()
        self.qaxes = grid.qaxes
        self.p_out = [(-1.0 / constants.mass) * p for p in grid.p_mesh()]
        self.sm = [constants.hbar * wavenumbers(ax, grid.ndim, grid.dim + i)
                   for i, ax in enumerate(grid.paxes)]
        self.g = [(1j / constants.hbar) * s for s in self.sm]
        self.p_axes = tuple(range(self.dim, 2 * self.dim))
        self.ik = [1j * wavenumbers(ax, grid.ndim, i) for i, ax in enumerate(grid.qaxes)]
        self.shape = grid.shape
        self._work = None
        self._mults = None
        self.imag_max = 0.0

    def _operator(self, poly: Poly, arr: np.ndarray, t: float, tau_power: int = 0):
        """integral tau^w F(q + alpha_q d/dq - tau s) dtau, alpha_q = hbar/(2 lam),
        applied to a (q, s) array."""
        alpha_q = self.k.hbar / (2.0 * self.k.lam)
        nodes, weights = self.rule
        acc = 0.0
        for tau, c in zip(nodes, weights * nodes**tau_power):
            res = 0.0
            for exps, coeff in poly.terms.items():
                term = arr
                for i in range(self.dim):
                    base = self.qm[i] - tau * self.sm[i]
                    for _ in range(exps[i]):
                        term = base * term + alpha_q * spectral_derivative(
                            term, i, self.qaxes[i])
                res = res + coeff * t ** exps[self.dim] * term
            acc = acc + c * res
        return acc

    def _multipliers(self, t: float):
        """:func:`_field_terms` on the grid's q nodes, kept for the next call
        at t (at any t for static E and F)."""
        if self._mults is None or not (self.tensor.static or self._mults[0] == t):
            self._mults = (t, _field_terms(self.tensor, self.k, self.rule, self.sm, t, self.qm))
        return self._mults[1]

    def step_bound(self, t: float) -> float:
        """Largest stable RK4 step at t (Liouville, Moyal).  Each u_i =
        (i k_i + of_w_i) w goes back times -p_i/m and the rest is rest_w w +
        sum_i rest_u_i u_i, |k_i| <= pi/dq_i, unitary transforms between: the
        generator's norm is at most sum_i (max|p_i|/m + max|rest_u_i|)
        (pi/dq_i + max|of_w_i|) + max|rest_w|, and RK4 is stable on the
        imaginary axis up to |lambda dt| = 2 sqrt(2)."""
        of_w, rest_w, rest_u = self._multipliers(t)
        rate = float(np.abs(rest_w).max())
        for ax, p, ow, ru in zip(self.qaxes, self.p_out, of_w, rest_u):
            rate += (float(np.abs(p).max()) + float(np.abs(ru).max())) * (
                np.pi / ax.spacing + float(np.abs(ow).max()))
        return 2.0 * np.sqrt(2.0) / max(rate, 1e-300)

    def _assemble_multipliers(self, w, u, t):
        of_w, rest_w, rest_u = self._multipliers(t)
        for ui, m in zip(u, of_w):
            if _present(m):
                ui += m * w
        rest = rest_w * w if _present(rest_w) else None
        for ui, m in zip(u, rest_u):
            if _present(m):
                rest = _accumulate(rest, m * ui)
        return rest

    def _assemble_operators(self, w, u, t):
        k, g = self.k, self.g
        rest = 0.0
        for i, poly in self.tensor.e.items():
            rest = rest - k.charge * g[i] * self._operator(poly, w, t)
        for (i, j), poly in self.tensor.f.items():
            fw = (k.charge / k.light_speed) * self._operator(poly, w, t)
            u[i] -= g[j] * fw
            u[j] += g[i] * fw
        for gi, ui in zip(g, u):
            # the Husimi slot term (hbar lam/2) d/dp_i
            rest = rest - (k.hbar * k.lam / (2.0 * k.mass)) * gi * ui
        for (i, j), poly in self.tensor.f.items():
            # the momentum correction, F_ij's odd tau moment: zero for a constant F_ij
            if poly.degree > 0:
                cross = self.sm[i] * u[j] - self.sm[j] * u[i]
                rest = rest - (k.charge / (k.mass * k.light_speed)) * self._operator(
                    poly, cross, t, 1)
        return rest

    def evaluate(self, values: np.ndarray, t: float) -> np.ndarray:
        if self._work is None:
            # w and the u_i, transformed in place and kept from call to call:
            # an RK4 run then allocates no complex array per evaluation, and
            # peak RSS does not depend on where the freed ones fell in the heap
            self._work = [np.empty(self.shape, complex) for _ in range(self.dim + 1)]
        w, *u = self._work
        w[...] = values
        w = fft.fftn(w, axes=self.p_axes, overwrite_x=True)
        for i, ik in enumerate(self.ik):
            u[i][...] = w
            ui = fft.fft(u[i], axis=i, overwrite_x=True)
            ui *= ik
            u[i] = fft.ifft(ui, axis=i, overwrite_x=True)
        if self.husimi:
            rest = self._assemble_operators(w, u, t)
        else:
            rest = self._assemble_multipliers(w, u, t)
        rhs = None
        for p, ui in zip(self.p_out, u):
            part = fft.ifftn(ui, axes=self.p_axes, overwrite_x=True)
            part *= p
            rhs = _accumulate(rhs, part)
        if rest is not None:
            rhs += fft.ifftn(rest, axes=self.p_axes, overwrite_x=True)
        self.imag_max = max(self.imag_max, float(rhs.imag.max()), float(-rhs.imag.min()))
        # rhs lives in the work arrays, which the next call overwrites
        return rhs.real.copy()

    def apply(self, F: PhaseSpaceFunction, t: float) -> PhaseSpaceFunction:
        """The right-hand side as a phase-space function carrying ``imag_max``."""
        return F.with_values(self.evaluate(F.values, t), imag_max=self.imag_max)


def liouville_rhs(F: PhaseSpaceFunction, field: GaugeField, t: float = 0.0,
                  constants: Constants | None = None) -> PhaseSpaceFunction:
    """Classical transport right-hand side with the Lorentz force."""
    return _RhsEvaluator(F.grid, field, constants or F.constants, "liouville").apply(F, t)


def moyal_gauge_rhs(F: PhaseSpaceFunction, field: GaugeField, t: float = 0.0,
                    constants: Constants | None = None) -> PhaseSpaceFunction:
    """Right-hand side of the gauge-independent Moyal equation.

    Reduces identically to the Liouville form for uniform fields
    (all odd tau moments vanish and the tilde averages collapse to the field
    values), and differs at order hbar^2 for fields with curvature.
    """
    return _RhsEvaluator(F.grid, field, constants or F.constants, "moyal").apply(F, t)


def husimi_gauge_rhs(F: PhaseSpaceFunction, field: GaugeField, t: float = 0.0,
                     constants: Constants | None = None) -> PhaseSpaceFunction:
    """Right-hand side of the gauge-independent Husimi evolution equation.

    The Moyal pipeline with momentum slots p + (hbar lam/2) d_p and field
    arguments shifted by (hbar/2 lam) d_q, lam = ``constants.lam``; it
    satisfies smooth(moyal_rhs(W)) = husimi_rhs(smooth(W)) exactly on the grid.
    """
    return _RhsEvaluator(F.grid, field, constants or F.constants, "husimi").apply(F, t)


# ---------------------------------------------------------------------------
# Fourier-shear flows: the exact flow of static, constant E and F, and Liouville
# transport for any field in Boris steps
# ---------------------------------------------------------------------------

def _wrap(values: np.ndarray, starts, grid: PhaseGrid) -> dict:
    """What leaves the periodic box comes back on the nodes whose backward
    characteristic ``starts`` (one point per node) outside it: their share is
    ``outside_fraction``, their mass sum |W| ``wrapped_mass``."""
    axes = grid.qaxes + grid.paxes
    coords = [(x - ax.origin) / ax.spacing for x, ax in zip(starts, axes)]
    outside = reduce(np.logical_or, [(c < 0) | (c > ax.n - 1) for c, ax in zip(coords, axes)])
    outside = np.broadcast_to(outside, grid.shape)
    return {"outside_fraction": float(outside.mean()),
            "wrapped_mass": float(np.abs(values[outside]).sum() * grid.cell)}


def _nyquist(ax, k):
    """Where the wavenumbers ``k`` of ``ax`` are its Nyquist bin."""
    return np.isclose(np.abs(k) * ax.spacing, np.pi, rtol=1e-12)


def _unitary_wavenumbers(ax, ndim: int, axis: int, half: bool = False):
    """``lattice.wavenumbers`` with the Nyquist bin at k = 0, so that a
    multiplier exp(i k x) with x even in k is Hermitian and unitary."""
    k = wavenumbers(ax, ndim, axis, half=half)
    return np.where(_nyquist(ax, k), 0.0, k)


def _line_shear(grid: PhaseGrid, axis: int, shift):
    """The map of values to their values at x - ``shift`` along ``axis`` (the
    shift may vary along the other axes): real n x n matrices, one for each
    value the shift takes on the other axes (``lattice.spectral_matrices`` of
    exp(-i k s)), applied as one batched matmul.  On the 2-D n=16
    grid, one core, a shear took 0.3-1.3 ms this way and 1.5-2.1 ms on FFTs.
    A shift that varies along every other axis would need more matrix entries
    than there are values; it takes the multiplier exp(-i k shift) on a real
    FFT.  The Nyquist bin sits at k = 0, so that exp(-i k s) is Hermitian and
    unitary."""
    ax, n = (grid.qaxes + grid.paxes)[axis], grid.shape[axis]
    k = _unitary_wavenumbers(ax, grid.ndim, axis, half=True)
    shift = np.reshape(shift, np.broadcast_shapes(np.shape(shift), (1,) * grid.ndim))
    batch = [b for b in range(grid.ndim) if b != axis and shift.shape[b] > 1]
    count = math.prod(shift.shape[b] for b in batch)
    if count * n * n > math.prod(grid.shape):
        multiplier = np.exp(-1j * k * shift)

        def apply(values):
            spectrum = fft.rfft(values, axis=axis)
            spectrum *= multiplier
            return fft.irfft(spectrum, n=n, axis=axis, overwrite_x=True)
        return apply
    order = batch + [axis] + [b for b in range(grid.ndim) if b != axis and b not in batch]
    phase = k.reshape(1, -1) * shift.transpose(order).reshape(count, 1)
    matrices = spectral_matrices(np.exp(-1j * phase), n)
    back = np.argsort(order)

    def apply(values):
        lines = values.transpose(order)
        moved = np.matmul(matrices, lines.reshape(count, n, -1))
        return moved.reshape(lines.shape).transpose(back)
    return apply


def _quarter_turns(theta) -> int:
    """The number of pieces of at most a quarter turn in a turn by ``theta``."""
    return max(1, int(np.ceil(np.abs(theta).max() / (np.pi / 2.0))))


def _rotation(theta, qm, plane, offset=(0.0, 0.0)):
    """The p-shears that turn (p_i, p_j), ``plane`` (i, j), by ``theta(z)``, a
    function of q, in pieces of at most a quarter turn on the q nodes ``qm``,
    each three shears that take it back to R(piece) (p_i, p_j) + ``offset``
    (c_i, c_j): p_i by tan(piece/2) p_j + alpha, p_j by -sin(piece) (p_i +
    alpha) - c_j, p_i again, alpha = -(c_i + tan(piece/2) c_j)/2 (R turns p_i
    towards p_j)."""
    dim = len(qm)
    a, b = (dim + axis for axis in plane)
    ci, cj = offset
    turns = _quarter_turns(theta(qm))
    memo = []

    def shift(axis, other, z):
        # the coefficients are evaluated once for all the shears while z
        # holds the same q arrays: :func:`_trace_back` puts a new array in z
        # for each coordinate it moves
        if not memo or any(x is not y for x, y in zip(memo[0], z[:dim])):
            piece = theta(z) / turns
            # sin from the half-angle tangent: this runs at every node in
            # every step, and float64 sin costs about three tans
            tan_h = np.tan(piece / 2)
            sin_t = 2.0 * tan_h / (1.0 + tan_h * tan_h)
            alpha = -(ci + tan_h * cj) / 2.0
            memo[:] = [z[:dim], {a: (tan_h, alpha), b: (-sin_t, -(cj + sin_t * alpha))}]
        slope, intercept = memo[1][axis]
        return slope * z[other] + intercept
    shear_i, shear_j = (a, partial(shift, a, b)), (b, partial(shift, b, a))
    return [shear_i, shear_j, shear_i] * turns


def _exact_flow(grid: PhaseGrid, spec: EvolutionSpec, k: Constants) -> list:
    """The shears of the exact flow over T = t_final - t0 for static, constant
    E and F, from the values of their entries at t0.  z = (q, p, 1) solves
    z' = G z (q' = p/m, p' = eE + (e/mc) F p), so W(z) = W0(exp(-T G) z):
    the ``turns``-th power of one piece exp(-T G/turns), a power series of at
    most a quarter turn that divides by nothing.  It maps (q, p) to (q + a(p), p0(p)): first p (a p-shift with no
    pair of F, as in 1-D, else the :func:`_rotation` pieces in the plane of
    its one pair; a 3-D F needs another decomposition of the turn), then one
    q-shear per axis."""
    dim, T, origin = grid.dim, spec.t_final - spec.t0, [0.0] * grid.dim
    tensor = _FieldTensor(spec.field, k)
    omegas = {pair: k.charge * float(f(origin, spec.t0)) / (k.mass * k.light_speed)
              for pair, f in tensor.f.items()}
    turns = _quarter_turns(math.hypot(*omegas.values()) * T)
    G = np.zeros((2 * dim + 1,) * 2)
    G[range(dim), range(dim, 2 * dim)] = 1.0 / k.mass
    for (i, j), omega in omegas.items():
        G[dim + i, dim + j], G[dim + j, dim + i] = omega, -omega
    for i, e in tensor.e.items():
        G[dim + i, 2 * dim] = k.charge * float(e(origin, spec.t0))
    # at most a quarter turn: 30 terms reach round-off; for F = 0 G is
    # nilpotent, and the series stops at its first zero term
    piece = term = np.eye(2 * dim + 1)
    for j in range(1, 30):
        term = term @ ((-T / turns) * G) / j
        if not term.any():
            break
        piece = piece + term
    offset = piece[dim:2 * dim, 2 * dim]
    if omegas:
        (plane, omega), = omegas.items()
        p_part = _rotation(lambda z: omega * T, grid.q_mesh(), plane, offset[list(plane)])
    else:
        p_part = [(dim + i, lambda z, c=c: -c) for i, c in enumerate(offset)]
    # the backward map's q-rows over (p, 1) are the shifts a_i of q_i; zero
    # terms are left out, so that each keeps the broadcast shape of the p it
    # depends on
    return p_part + [(i, lambda z, row=row: -sum((c * p for c, p in zip(row[dim:], z[dim:]) if c),
                                                  row[-1]))
                     for i, row in enumerate(np.linalg.matrix_power(piece, turns)[:dim])]


def _steps(spec: EvolutionSpec) -> tuple[int, float]:
    """The count n >= 1 and length h of the fewest steps of at most dt from t0
    to t_final; a span of n dt up to round-off (two cut times) takes n."""
    T = spec.t_final - spec.t0
    n = max(1, math.ceil(T / spec.dt - 1e-9))
    return n, T / n


def _characteristics_flow(grid: PhaseGrid, spec: EvolutionSpec, k: Constants) -> list:
    """The shears of Liouville transport for any field, in Strang steps
    h = T / ceil(T / dt), a position-staggered Boris substep each: a half
    drift (a q-shear by p h/2m), an E half kick (a p-shift by
    e E(q, t_mid) h/2, absent for E = 0), the turn of p by e F_ij(q, t_mid)
    h/mc in the plane of each pair (:func:`_rotation`), another half kick
    and a half drift; adjacent half drifts merge, and without F so do the
    kicks.  Second order and volume preserving.  Static E and F repeat one
    step's shears; otherwise each t_mid makes its own.  For the Moyal and
    Husimi propagators each step is C(h/2) L(h) C(h/2), L(h) the Boris
    substep and C the factors of :func:`_corrections` (adjacent halves
    merge), unless the Moyal generator is the Liouville one."""
    dim, m, tensor = grid.dim, k.mass, _FieldTensor(spec.field, k)
    nsub, h = _steps(spec)

    def drift(tau):
        return [(i, lambda z, i=i: z[dim + i] * (tau / m)) for i in range(dim)]

    def kick(t, tau):
        return [(dim + i, lambda z, e=e: (k.charge * tau) * e(z[:dim], t))
                for i, e in tensor.e.items()]

    def middle(t):
        half, turn = kick(t, h / 2.0), k.charge * h / (m * k.light_speed)
        rotations = [shear for plane, poly in tensor.f.items() for shear in _rotation(
            lambda z, poly=poly: turn * poly(z[:dim], t), grid.q_mesh(), plane)]
        return half + rotations + half if rotations else kick(t, h)

    half_drift, full_drift = drift(h / 2.0), drift(h)
    mids = [spec.t0 + (j + 0.5) * h for j in range(nsub)]
    between = None if spec.propagator == "liouville" else _corrections(grid, tensor, k, h, mids)
    if between is None:
        joins = [half_drift] + [full_drift] * (nsub - 1) + [half_drift]
    else:
        joins = ([[between[0]] + half_drift]
                 + [half_drift + [c] + half_drift for c in between[1:-1]]
                 + [half_drift + [between[-1]]])
    fixed = middle(spec.t0) if tensor.static else None
    shears = list(joins[0])
    for j, t in enumerate(mids):
        shears += (fixed if fixed is not None else middle(t)) + joins[j + 1]
    return shears


def _moyal_defect(grid: PhaseGrid, tensor: _FieldTensor, k: Constants, meshes):
    """Moyal minus Liouville in the (q, s) representation for F of degree <= 1
    in q (or no F) and any polynomial E: exactly D = a(s).grad_q + c(q, s),
    from the terms of :func:`_field_terms` of the entries of ``tensor``.  a =
    ``rest_u``, the momentum correction (e/mc) M1(F_ij) (s_j, -s_i) on (a_i,
    a_j) per pair, M1(F) = -(grad F . s)/12, free of q; c = ``rest_w`` less
    Liouville's plus sum_i ``rest_u[i] of_w[i]``, imaginary and odd in s.
    Returns a map (t, q nodes) -> (a, c), each the mean over the s
    ``meshes``, and the degree of c in q; None where D is zero (a uniform F
    and an E affine in q)."""
    degree = max((p.degree for p in tensor.e.values()), default=0)
    if all(p.degree == 0 for p in tensor.f.values()) and degree <= 1:
        return None
    moyal, liouville = _tau_rule(tensor, "moyal"), _tau_rule(tensor, "liouville")

    def terms(t, qm):
        a_sum, c_sum = [0.0] * grid.dim, 0.0
        for sm in meshes:
            of_w, rest_w, rest_u = _field_terms(tensor, k, moyal, sm, t, qm)
            c_sum = c_sum + rest_w - _field_terms(tensor, k, liouville, sm, t, qm)[1]
            for i, (a, b) in enumerate(zip(rest_u, of_w)):
                c_sum = c_sum + a * b
                a_sum[i] = a_sum[i] + a
        return [a / len(meshes) for a in a_sum], c_sum / len(meshes)
    return terms, max(degree, 1)


def _corrections(grid: PhaseGrid, tensor: _FieldTensor, k: Constants, h: float, mids):
    """The factors exp(d D) of :func:`_moyal_defect` that take the Boris
    substeps of the Liouville equation to the Moyal equation: entries
    (None, build) to go before, between and after the steps at the midpoints
    ``mids``, or None where D is zero.  exp(d D) takes w(q, s) to
    w(q + d a, s) exp(integral_0^d c(q + sigma a, s) dsigma): a shift along q
    (the multiplier exp(i k.x) on an FFT over q) and a phase, whose integral
    the Gauss-Legendre rule makes exact for polynomial c.  Both are unitary
    and keep W real: s comes from a real FFT over the p axes, the Nyquist bin
    of k sits at 0, as in the shears, and on a Nyquist bin of s, where s and
    -s are one bin, a and c are the mean over the two signs of its Nyquist
    components (the real part the right-hand side takes of its generator
    there).  C(h/2) C(h/2) merges into one factor of two segments; static E
    and F build the two factors once, otherwise each segment takes the field
    at its step's midpoint."""
    dim, ndim = grid.dim, grid.ndim
    signed = []
    for i, ax in enumerate(grid.paxes):
        kp = wavenumbers(ax, ndim, dim + i, half=i == dim - 1)
        signed.append([k.hbar * np.where(_nyquist(ax, kp), sign * np.abs(kp), kp)
                       for sign in (-1.0, 1.0)])
    defect = _moyal_defect(grid, tensor, k, list(zip(*signed)))
    if defect is None:
        return None
    terms, degree = defect
    kq = [_unitary_wavenumbers(ax, ndim, i) for i, ax in enumerate(grid.qaxes)]
    q_axes, p_axes = tuple(range(dim)), tuple(range(dim, ndim))
    sigmas, weights = gauss_legendre(0.0, 1.0, degree)
    qm = grid.q_mesh()

    def build(segments):
        # the segments (d, t) act in turn: the last one's path starts at q,
        # each earlier one's where the later ones have shifted it
        shift, phase = [0.0] * dim, 0.0
        for d, t in reversed(segments):
            a = terms(t, [0.0] * dim)[0]    # free of q
            for sigma, wt in zip(sigmas, weights):
                nodes = [q + x + (sigma * d) * ai for q, x, ai in zip(qm, shift, a)]
                phase = phase + (wt * d) * terms(t, nodes)[1]
            shift = [x + d * ai for x, ai in zip(shift, a)]
        phase = np.exp(phase)
        moves = [np.exp(1j * kx * x) for kx, x in zip(kq, shift) if _present(x)]

        def apply(values):
            w = fft.rfftn(values, axes=p_axes)
            if moves:
                w = fft.fftn(w, axes=q_axes, overwrite_x=True)
                for move in moves:
                    w *= move
                w = fft.ifftn(w, axes=q_axes, overwrite_x=True)
            w *= phase
            return fft.irfftn(w, s=grid.shape[dim:], axes=p_axes, overwrite_x=True)
        return apply

    if tensor.static:
        ends = (None, partial(build, [(h / 2.0, mids[0])]))
        return [ends] + [(None, partial(build, [(h, mids[0])]))] * (len(mids) - 1) + [ends]
    halves = [[(h / 2.0, t)] for t in mids]
    return [(None, partial(build, segments))
            for segments in [halves[0]] + [a + b for a, b in zip(halves, halves[1:])]
            + [halves[-1]]]


# the trace runs blocks of about this many points through the whole list, so
# that their arrays stay in cache: on B(x, y) at 2-D n=16 (262k nodes) ten
# Boris substeps took 61-78 ms this way and 82-99 ms on whole arrays
_TRACE_BLOCK = 1 << 14


def _trace_back(shears: list, z) -> list:
    """The starts of the points ``z`` (q, then p: arrays of one ndim that
    broadcast together) under the maps of ``shears``: the list in reverse,
    each shear (axis, shift) taking z[axis] to z[axis] - shift(z).  The
    points go through the list in blocks along the first axis; a start
    broadcasts over the other axes it does not depend on.  Whole-array
    factors (axis None) move no node and are skipped."""
    shape = np.broadcast_shapes(*[np.shape(x) for x in z])
    rows = max(1, _TRACE_BLOCK * shape[0] // math.prod(shape))
    parts = []
    for lo in range(0, shape[0], rows):
        block = [x[lo:lo + rows] if x.shape[0] > 1 else x for x in z]
        for axis, shift in reversed(shears):
            if axis is not None:
                block[axis] = block[axis] - shift(block)
        n = min(rows, shape[0] - lo)
        parts.append([np.broadcast_to(x, (n,) + x.shape[1:]) for x in block])
    return [np.concatenate(starts) for starts in zip(*parts)]


def _shear_flow(values: np.ndarray, grid: PhaseGrid, spec: EvolutionSpec, k: Constants,
                shears):
    """The flow of the list ``shears(grid, spec, k)`` of shears (axis, shift):
    each takes the values to their values at z - shift(z) along its axis,
    z = (q, p), by :func:`_line_shear`, built once however often the list
    repeats it; an entry (None, build) is a whole-array factor, ``build()``.
    Every factor is unitary, so mass is kept to round-off; the periodic wrap
    of the span is reported by :func:`_wrap` from the same list traced back
    from the nodes."""
    factors = shears(grid, spec, k)
    z = grid.q_mesh() + grid.p_mesh()
    last = {id(shear): j for j, shear in enumerate(factors)}
    built = {}
    for j, shear in enumerate(factors):
        key, (axis, shift) = id(shear), shear
        if key not in built:
            built[key] = shift() if axis is None else _line_shear(grid, axis, shift(z))
        values = (built.pop(key) if last[key] == j else built[key])(values)
    values = np.ascontiguousarray(values)
    return values, _wrap(values, _trace_back(factors, z), grid)


def liouville_propagate(F0: PhaseSpaceFunction, spec: EvolutionSpec) -> PhaseSpaceFunction:
    """Transport of a phase-space density along classical characteristics:
    :func:`propagate_phase_space` with the ``liouville`` propagator."""
    return propagate_phase_space(F0, replace(spec, propagator="liouville"))


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
    if math.prod(grid.shape) > DENSE_POINT_LIMIT:
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


def _hamiltonian_action(grid: QGrid, field: GaugeField, k: Constants, t: float):
    """H(t) of :func:`dense_hamiltonian` as a map of wavefunction values, and
    bounds (lo, hi) of its spectrum.  (P_i - e A_i/c)^2 psi is two FFT passes
    along axis i at p_i = hbar k_i (``lattice.wavenumbers``, Nyquist at -pi
    hbar/dq as in :func:`_momentum_matrix`), which equals the dense matrix to
    round-off; it lies in [0, (pi hbar/dq_i + max|e A_i/c|)^2]."""
    a_vals, phi = field.potentials(grid.mesh(), t)
    v = k.charge * np.asarray(phi, dtype=float)
    eas = [(k.charge / k.light_speed) * np.asarray(a, dtype=float) for a in a_vals]
    ps = [k.hbar * wavenumbers(ax, grid.dim, i) for i, ax in enumerate(grid.axes)]

    def act(values):
        out = v * values
        for i, (p, ea) in enumerate(zip(ps, eas)):
            u = values
            for _ in range(2):
                u = fft.ifft(p * fft.fft(u, axis=i), axis=i, overwrite_x=True) - ea * u
            out += u / (2.0 * k.mass)
        return out

    kinetic = sum((np.pi * k.hbar / ax.spacing + np.abs(ea).max()) ** 2
                  for ax, ea in zip(grid.axes, eas)) / (2.0 * k.mass)
    return act, (float(v.min()), float(v.max()) + kinetic)


def _eigh_step(values, grid, field, k, t, h):
    """exp(-i H(t) h/hbar) values, by ``eigh`` of :func:`dense_hamiltonian`."""
    evals, vecs = np.linalg.eigh(dense_hamiltonian(grid, field, k, t))
    vals = vecs @ ((vecs.conj().T @ values.ravel()) * np.exp(-1j * evals * h / k.hbar))
    return vals.reshape(grid.shape)


def _chebyshev_step(values, grid, field, k, t, h):
    """exp(-i H(t) h/hbar) values as the Chebyshev series of H. Tal-Ezer &
    R. Kosloff, J. Chem. Phys. 81, 3967 (1984): with X = (H - mid)/half,
    spectrum in [-1, 1], exp(-i alpha X) = sum_n (2 - delta_n0) (-i)^n
    J_n(alpha) T_n(X), alpha = half h/hbar, cut after the last |coefficient|
    above 1e-18 (about alpha + 12 alpha^(1/3) terms)."""
    act, (lo, hi) = _hamiltonian_action(grid, field, k, t)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    alpha = half * h / k.hbar
    n = np.arange(int(alpha + 15.0 * alpha ** (1.0 / 3.0)) + 20)
    coeffs = (2.0 - (n == 0)) * jv(n, alpha) * (-1j) ** (n % 4)
    coeffs = coeffs[:max(2, np.flatnonzero(np.abs(coeffs) > 1e-18)[-1] + 1)]

    def x_of(v):
        return (act(v) - mid * v) / half

    prev, cur = values, x_of(values)
    total = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        prev, cur = cur, 2.0 * x_of(cur) - prev
        total += c * cur
    return np.exp(-1j * mid * h / k.hbar) * total


def _schrodinger_flow(values, grid, spec: EvolutionSpec, k, step):
    """The flow from t0 to t_final by ``step`` (:func:`_eigh_step` or
    :func:`_chebyshev_step`): one step of T for static potentials, else
    H(t_mid) per step of at most ``spec.dt``.  H reads the potentials, not E
    and F, so this is the one route that asks whether they are static: a
    static field in a time-dependent gauge takes the steps."""
    nsteps, h = (1, spec.t_final - spec.t0) if spec.field.is_static else _steps(spec)
    for j in range(nsteps):
        values = step(values, grid, spec.field, k, spec.t0 + (j + 0.5) * h, h)
    return values, {}


def schrodinger_propagate(psi0: WaveFunction, spec: EvolutionSpec) -> WaveFunction:
    """Minimal-coupling Schroedinger evolution of a wavefunction to
    ``spec.t_final`` in any gauge, the single-time case of :func:`evolve`:
    :func:`_eigh_step` for ``schrodinger_dense`` (the reference oracle, at
    most DENSE_POINT_LIMIT grid points), :func:`_chebyshev_step` for
    ``schrodinger_split`` (any grid size, equal to it to round-off).
    """
    return next(evolve(psi0, spec, [spec.t_final]))


def energy_expectation(psi: WaveFunction, field: GaugeField, t: float = 0.0) -> float:
    """<psi|H|psi> for the minimal-coupling Hamiltonian, at any grid size."""
    act, _ = _hamiltonian_action(psi.grid, field, psi.constants, t)
    return float(np.vdot(psi.values, act(psi.values)).real * psi.grid.cell)


# ---------------------------------------------------------------------------
# phase-space time stepping
# ---------------------------------------------------------------------------

def _rk4_flow(values: np.ndarray, grid: PhaseGrid, spec: EvolutionSpec, k: Constants):
    """RK4 steps (``rk4_step``) of the Moyal equation from t0 to t_final, of
    at most ``spec.dt`` and at most the step bound at t0; raises when the
    iterate diverges (a time-dependent field can outgrow that bound)."""
    # y is allocated once, before the evaluator's work arrays, which it
    # outlives: those are then freed from the top of the heap, where the
    # allocator can return them (allocated after them, y kept 12 MB of freed
    # work arrays resident through the rest of a gradient-B dynamics op)
    y = values.copy()
    ev = _RhsEvaluator(grid, spec.field, k, "moyal")
    nsteps, dt = _steps(replace(spec, dt=min(spec.dt, ev.step_bound(spec.t0))))
    # k1 + 2 k2 + 2 k3 + k4 is summed as the stages arrive, in that order:
    # the plain formula's arithmetic with one stage held at a time
    for j in range(nsteps):
        t = spec.t0 + j * dt
        k = ev.evaluate(y, t)
        total = k.copy()
        k = ev.evaluate(y + 0.5 * dt * k, t + 0.5 * dt)
        total += 2.0 * k
        k = ev.evaluate(y + 0.5 * dt * k, t + 0.5 * dt)
        total += 2.0 * k
        total += ev.evaluate(y + dt * k, t + dt)
        y += (dt / 6.0) * total
        if not np.isfinite(y).all() or np.abs(y).max() > 1e150:
            raise PropagatorError(f"propagation diverged at step {j + 1} (NaN/Inf)")
    return y, {"rhs_imag_max": ev.imag_max, "rk4_step": dt}


def _flow(spec: EvolutionSpec, k: Constants):
    """(flow, wave, restart) for ``spec.propagator``: a Schroedinger route on
    wavefunction values (``wave``), else, on the chord form and by the field
    tensor alone (:class:`_FieldTensor`): the shears of the exact flow for
    static, constant E and F, which map the start to every cut (``restart``),
    those of Boris substeps for ``liouville`` and, with the Moyal correction
    between them, for the other two where every entry of F is at most linear
    in q, and RK4 for those two otherwise."""
    if spec.propagator == "schrodinger_dense":
        return partial(_schrodinger_flow, step=_eigh_step), True, False
    if spec.propagator == "schrodinger_split":
        return partial(_schrodinger_flow, step=_chebyshev_step), True, False
    tensor = _FieldTensor(spec.field, k)
    if tensor.static and all(p.degree == 0 for p in tensor.entries):
        return partial(_shear_flow, shears=_exact_flow), False, True
    if spec.propagator == "liouville" or all(p.degree <= 1 for p in tensor.f.values()):
        return partial(_shear_flow, shears=_characteristics_flow), False, False
    return _rk4_flow, False, False


def evolve(state, spec: EvolutionSpec, times):
    """An iterator over the state (a wavefunction for the Schroedinger
    propagators) at each of the increasing cut ``times``, the last
    ``spec.t_final``; each cut is computed when it is asked for, so a caller
    that saves and drops each state holds one cut at a time.  The stepped
    routes (Schroedinger, RK4 and the Boris substeps) carry the state from
    cut to cut in steps of at most ``spec.dt`` (RK4: and its bound), so a
    walk costs its steps however it is cut.  Cuts on step boundaries move the
    result by round-off, except that a cut splits a Moyal correction in two
    halves, which compose as far as the grid resolves its phase in q.  The
    exact flow maps the start to each time, so its cuts leave the result
    bitwise unchanged.  Each cut reports the wrap of its own flow call: a
    carried cut that of its span, an exact-flow cut that from the start.
    ``husimi_gauge`` deconvolves its start once, carries the chord form and
    smooths each result.  The cut times and the state type are checked here,
    before the first cut."""
    flow, wave, restart = _flow(spec, state.constants)
    return _propagate_with(flow, state, spec, state.constants, times, wave, restart)


def propagate_phase_space(F0: PhaseSpaceFunction, spec: EvolutionSpec) -> PhaseSpaceFunction:
    """Evolve a density (``liouville``), a chord-phase Wigner function
    (``moyal_gauge``) or a Husimi function (``husimi_gauge``) to
    ``spec.t_final``: the single-time case of :func:`evolve`.

    Static, constant E and F (in any gauge) take the exact flow: no time
    step, mass and purity kept to round-off.  Otherwise ``liouville`` applies
    Boris substeps of at most ``spec.dt`` to the values as Fourier shears,
    and where F is at most linear in q (or has no entry, as in 1-D) the
    other two apply the same substeps with the exact Moyal correction (a
    q-shift and a phase in the (q, s) representation) around each: second
    order, mass and purity kept to round-off.  These report the periodic wrap of the span as
    ``outside_fraction`` and ``wrapped_mass``, from the starts of the nodes
    that the same shears traced back give (the corrections move no node).
    In an F of degree >= 2 Moyal and Husimi take RK4 steps of at most
    ``spec.dt`` and at most the stability bound of the right-hand side
    (``rk4_step``, ``rhs_imag_max``).  All report ``mass_drift``.  The Husimi
    equation is integrated through the chord form (``_CONJUGATION``).
    """
    return next(evolve(F0, spec, [spec.t_final]))


# The Husimi equation is integrated through its exact grid similarity to the
# chord form: the mixed d_p d_q part of the Husimi generator carries a real
# spectrum of either sign (anti-diffusive in half the modes), so stepping it
# directly amplifies round-off without bound no matter how small the step.
# Conjugating by the Gaussian smoothing is exact on the grid (the intertwining
# identity holds to round-off), so the walk deconvolves once with this spec,
# advances the chord form, and smooths back.  The amplification cap is the
# regularizer, and the band is widened to the ellipsoid inscribed in the
# spectral box (radius^2 <= 1 in Nyquist units; the box corners reach
# radius^2 = 2 dim, 4 in 2-D): on coarse grids the content beyond the
# default band is real signal.
_CONJUGATION = SmoothingSpec(band_fraction=1.0, reg_floor=1.0)


def _propagate_with(flow, state, spec: EvolutionSpec, k: Constants, times=None,
                    wave=False, restart=False):
    """The walk of :func:`evolve` with the ``flow`` given (without ``times``,
    the one cut ``spec.t_final``), taken as :func:`_flow` says (the defaults
    take ``_rk4_flow``).  It checks the cut times and the state type, then
    returns the iterator."""
    times = [spec.t_final] if times is None else list(times)
    if (not times or times[0] < spec.t0 or times[-1] != spec.t_final
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise ValueError("cut times must increase from spec.t0 and end at spec.t_final")
    if wave != isinstance(state, WaveFunction):
        raise PropagatorError(f"{spec.propagator!r} does not evolve a {type(state).__name__}")
    return _cuts(flow, state, spec, k, times, wave, restart)


def _cuts(flow, F0, spec: EvolutionSpec, k: Constants, times, wave: bool, restart: bool):
    """The states of :func:`_propagate_with`, each computed when it is asked for."""
    # a restarting flow maps the start to each cut, at a cost free of the
    # span; every other route carries the state from cut to cut, so a walk of
    # N steps costs N steps however it is cut
    husimi_route = spec.propagator == "husimi_gauge"
    start = wigner_from_husimi(F0, _CONJUGATION) if husimi_route else F0
    # the flows read the start values in place: none writes to its input
    y, t0, imag_max = start.values, spec.t0, 0.0 if wave else start.imag_max
    for t1 in times:
        y, diagnostics = flow(start.values if restart else y, start.grid,
                              replace(spec, t0=t0, t_final=t1), k)
        t0 = spec.t0 if restart else t1
        if wave:
            yield replace(start, values=y)
            continue
        imag_max = max(imag_max, diagnostics.get("rhs_imag_max", 0.0))
        state = start.with_values(y, time=t1, imag_max=imag_max)
        if husimi_route:
            state = husimi_from_wigner(state)
        state.diagnostics = {**start.diagnostics, **diagnostics,
                             "mass_drift": state.integrate() - start.integrate()}
        yield state
