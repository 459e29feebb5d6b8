"""Electromagnetic potentials, gauge transformations, and line-integral phases.

Potentials are multivariate polynomials in the spatial coordinates and time,
so gauge layers, field strengths, and the two straight-line integrals of A
used by the gauge-independent kernels are all exact:

* the chord average  integral_{-1/2}^{1/2} A(q + tau*u, t) dtau, by the
  Gauss-Legendre rule exact for the degree of A (:func:`gauss_legendre`), and
* the ray integral  chi_P(q, t) = q . integral_0^1 A(tau*q, t) dtau, in closed
  form: the gauge function to the Poincare gauge q . A = 0 (``ray_gauge``).

A gauge layer adds grad(chi) to A and subtracts (1/c) d(chi)/dt from phi;
field strengths are unchanged by construction, which the tests verify.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import Constants

__all__ = [
    "Poly",
    "GaugeFn",
    "GaugeField",
    "gauss_legendre",
    "chord_integral",
    "radial_phase",
    "FieldError",
]


class FieldError(ValueError):
    """Unsupported field variant or inconsistent dimensions."""


class Poly:
    """Real polynomial in N spatial variables and time.

    Terms map exponent tuples ``(k_1, .., k_N, k_t)`` to coefficients; the
    last slot is the power of t.  Evaluation broadcasts over numpy arrays.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = int(dim)
        clean: dict[tuple[int, ...], float] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dim + 1:
                raise FieldError(
                    f"exponent tuple {exps} needs {self.dim} spatial slots plus one time slot"
                )
            if any(e < 0 for e in exps):
                raise FieldError("negative exponents are not polynomials")
            c = float(coeff)
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0.0}

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim, {})

    @classmethod
    def const(cls, dim: int, value: float) -> "Poly":
        return cls(dim, {tuple([0] * (dim + 1)): value})

    @classmethod
    def coordinate(cls, dim: int, axis: int, coeff: float = 1.0) -> "Poly":
        exps = [0] * (dim + 1)
        exps[axis] = 1
        return cls(dim, {tuple(exps): coeff})

    # -- algebra ------------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        if other.dim != self.dim:
            raise FieldError("dimension mismatch in polynomial sum")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return Poly(self.dim, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1.0)

    def __neg__(self) -> "Poly":
        return self.scaled(-1.0)

    def scaled(self, a: float) -> "Poly":
        return Poly(self.dim, {e: a * c for e, c in self.terms.items()})

    def diff(self, axis) -> "Poly":
        """Partial derivative along a spatial axis (int) or time ("t")."""
        slot = self.dim if axis == "t" else int(axis)
        terms = {}
        for exps, coeff in self.terms.items():
            k = exps[slot]
            if k == 0:
                continue
            new = list(exps)
            new[slot] = k - 1
            terms[tuple(new)] = terms.get(tuple(new), 0.0) + coeff * k
        return Poly(self.dim, terms)

    # -- queries ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Maximum total spatial degree (zero for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(sum(e[: self.dim]) for e in self.terms)

    @property
    def is_static(self) -> bool:
        return all(e[self.dim] == 0 for e in self.terms)

    def __call__(self, qs, t=0.0):
        """Evaluate at coordinates ``qs`` (sequence of arrays/scalars) and time t."""
        if len(qs) != self.dim:
            raise FieldError(f"expected {self.dim} coordinates, got {len(qs)}")
        total = 0.0
        for exps, coeff in self.terms.items():
            term = coeff
            for x, k in zip(qs, exps[: self.dim]):
                if k:
                    term = term * np.asarray(x) ** k
            kt = exps[self.dim]
            if kt:
                term = term * t**kt
            total = total + term
        if not self.terms:
            shapes = [np.shape(np.asarray(x)) for x in qs]
            out = np.zeros(np.broadcast_shapes(*shapes)) if shapes else 0.0
            return out
        return total

    def __repr__(self):
        return f"Poly(dim={self.dim}, terms={self.terms!r})"

    def __eq__(self, other):
        return isinstance(other, Poly) and other.dim == self.dim and other.terms == self.terms


class GaugeFn:
    """Gauge function chi(q, t): a polynomial with closed-form derivatives."""

    def __init__(self, poly: Poly, tag: str = "chi"):
        self.poly = poly
        self.tag = tag

    @property
    def dim(self) -> int:
        return self.poly.dim

    def gradient(self) -> tuple[Poly, ...]:
        return tuple(self.poly.diff(i) for i in range(self.dim))

    def time_derivative(self) -> Poly:
        return self.poly.diff("t")

    def __call__(self, qs, t=0.0):
        return self.poly(qs, t)


class GaugeField:
    """Vector potential A (polynomial components) and scalar potential phi.

    Built from presets (uniform magnetic/electric fields in a named gauge) or
    raw polynomial tables; gauge layers and superpositions stay in the same
    representation.  The ``tag`` identifies the gauge a state is expressed in
    and is matched against state tags by the gauge-dependent transforms.
    """

    def __init__(self, dim: int, a, phi: Poly | None = None, tag: str = "field"):
        self.dim = int(dim)
        a = tuple(a)
        if len(a) != self.dim:
            raise FieldError("one vector-potential component per spatial axis required")
        for comp in a:
            if comp.dim != self.dim:
                raise FieldError("vector-potential component dimension mismatch")
        self.a = a
        self.phi = phi if phi is not None else Poly.zero(self.dim)
        if self.phi.dim != self.dim:
            raise FieldError("scalar-potential dimension mismatch")
        self.tag = tag

    # -- presets ------------------------------------------------------------
    @classmethod
    def free(cls, dim: int) -> "GaugeField":
        return cls(dim, [Poly.zero(dim)] * dim, Poly.zero(dim), tag="free")

    @classmethod
    def uniform_b(cls, b: float, gauge: str = "symmetric") -> "GaugeField":
        """Uniform out-of-plane magnetic field in two dimensions."""
        if gauge == "symmetric":
            ax = Poly.coordinate(2, 1, -b / 2.0)
            ay = Poly.coordinate(2, 0, +b / 2.0)
        elif gauge == "landau":
            ax = Poly.coordinate(2, 1, -b)
            ay = Poly.zero(2)
        else:
            raise FieldError(f"unknown uniform-B gauge preset {gauge!r}")
        return cls(2, [ax, ay], Poly.zero(2), tag=f"uniform_b[{gauge}]")

    @classmethod
    def uniform_e(cls, e_vec) -> "GaugeField":
        e_vec = np.atleast_1d(np.asarray(e_vec, dtype=float))
        dim = e_vec.size
        phi = Poly.zero(dim)
        for i, ei in enumerate(e_vec):
            phi = phi + Poly.coordinate(dim, i, -float(ei))
        return cls(dim, [Poly.zero(dim)] * dim, phi, tag="uniform_e")

    @classmethod
    def from_polynomials(cls, a, phi=None, tag="polynomial") -> "GaugeField":
        dim = a[0].dim
        return cls(dim, a, phi, tag=tag)

    # -- composition --------------------------------------------------------
    def gauged(self, chi: GaugeFn, constants: Constants, tag: str | None = None) -> "GaugeField":
        """Apply a gauge layer: A -> A + grad(chi), phi -> phi - (1/c) d(chi)/dt."""
        if chi.dim != self.dim:
            raise FieldError("gauge function dimension mismatch")
        grad = chi.gradient()
        a_new = tuple(ai + gi for ai, gi in zip(self.a, grad))
        phi_new = self.phi - chi.time_derivative().scaled(1.0 / constants.light_speed)
        return GaugeField(self.dim, a_new, phi_new, tag=tag or f"{self.tag}|{chi.tag}")

    def __add__(self, other: "GaugeField") -> "GaugeField":
        if other.dim != self.dim:
            raise FieldError("superposition dimension mismatch")
        return GaugeField(
            self.dim,
            tuple(a1 + a2 for a1, a2 in zip(self.a, other.a)),
            self.phi + other.phi,
            tag=f"{self.tag}+{other.tag}",
        )

    # -- queries ------------------------------------------------------------
    @property
    def degree(self) -> int:
        return max([comp.degree for comp in self.a] + [0])

    @property
    def is_zero_vector(self) -> bool:
        return all(comp.is_zero for comp in self.a)

    @property
    def is_static(self) -> bool:
        return all(c.is_static for c in self.a) and self.phi.is_static

    def e_polys(self, constants: Constants) -> tuple[Poly, ...]:
        """Electric field components -grad(phi) - (1/c) dA/dt, symbolically."""
        c = constants.light_speed
        return tuple(
            -self.phi.diff(i) - self.a[i].diff("t").scaled(1.0 / c) for i in range(self.dim)
        )

    def f_polys(self) -> dict[tuple[int, int], Poly]:
        """The field tensor F_ij = d_i A_j - d_j A_i per axis pair i < j (B = F_01 in 2-D)."""
        return {(i, j): self.a[j].diff(i) - self.a[i].diff(j)
                for i in range(self.dim) for j in range(i + 1, self.dim)}

    def is_uniform(self, constants: Constants) -> bool:
        """Constant-in-space, static E and F."""
        return self.is_static and all(
            p.degree == 0 for p in [*self.e_polys(constants), *self.f_polys().values()])

    def ray_gauge(self) -> GaugeFn:
        """chi_P(q, t) = q . integral_0^1 A(tau q, t) dtau, in closed form: a
        term of spatial degree n in A_i gives q_i times it over n + 1.  The
        layer GaugeFn(-chi_P) takes A into the Poincare gauge q . A = 0."""
        terms = {}
        for i, comp in enumerate(self.a):
            for exps, coeff in comp.terms.items():
                key = tuple(e + (j == i) for j, e in enumerate(exps))
                terms[key] = terms.get(key, 0.0) + coeff / (sum(exps[:self.dim]) + 1)
        return GaugeFn(Poly(self.dim, terms), tag="poincare")

    # -- evaluation ---------------------------------------------------------
    def potentials(self, qs, t=0.0):
        """(A components, phi) evaluated at coordinates ``qs`` and time t."""
        a_vals = [comp(qs, t) for comp in self.a]
        return a_vals, self.phi(qs, t)

    def field_strengths(self, qs, t, constants: Constants):
        """(E components, {(i, j): F_ij}) at the given points."""
        return ([p(qs, t) for p in self.e_polys(constants)],
                {pair: f(qs, t) for pair, f in self.f_polys().items()})


@lru_cache(maxsize=32)
def gauss_legendre(lo: float, hi: float, degree: int):
    """Gauss-Legendre nodes and weights on [lo, hi], exact for polynomials of
    the given degree (degree // 2 + 1 nodes); built once, read-only."""
    x, w = np.polynomial.legendre.leggauss(degree // 2 + 1)
    half = 0.5 * (hi - lo)
    nodes, weights = lo + half * (x + 1.0), half * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def chord_integral(field: GaugeField, q, u, t=0.0):
    """integral_{-1/2}^{1/2} A(q + tau*u, t) dtau, exact for polynomial A.

    ``q`` and ``u`` are sequences of broadcast-compatible coordinate arrays,
    one entry per axis; the result is a list of arrays, one per component.
    At tau = 0 the points are q itself, so for A of degree <= 1 (whose rule
    has only that node) the result keeps the shape of q.
    """
    nodes, weights = gauss_legendre(-0.5, 0.5, field.degree)
    out = None
    for tau, w in zip(nodes, weights):
        pts = [np.asarray(qi) + tau * np.asarray(ui) if tau else np.asarray(qi)
               for qi, ui in zip(q, u)]
        vals = [w * comp(pts, t) for comp in field.a]
        out = vals if out is None else [o + v for o, v in zip(out, vals)]
    return out


def radial_phase(field: GaugeField, q, t, constants: Constants):
    """Lambda(q) = (e/(hbar*c)) chi_P(q, t), chi_P = q . integral_0^1 A(tau*q, t) dtau
    of :meth:`GaugeField.ray_gauge`."""
    scale = constants.charge / (constants.hbar * constants.light_speed)
    return scale * field.ray_gauge()(q, t)
