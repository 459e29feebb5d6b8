"""The benchmark's workloads.

``gauge_pair_2d`` and ``dynamics_2d`` are the ones ``BENCHMARK.json`` lists.
``dynamics_2d`` runs the ops of ``cyclotron_2d`` and ``curved_b_2d`` back to
back; those two and ``reconstruct`` can also be run on their own, with the
same command, for a before/after comparison of the paths they measure.

Each workload draws the parameters of one op from a seeded generator
(``draw``), builds the program's inputs from them (``build``), runs the
program (``run``) and checks the outputs (``verify``).  ``build`` and ``run``
are timed; ``draw`` and ``verify`` are not.  The program is always called
through module attributes (``ps.wigner_gauge_stratonovich``), so the
benchmark's tracer can wrap those calls.

Every op draws fresh inputs: a cache across calls then scores only the hits
that a user running one scenario per process would also get.  The warm-up op
runs on fixed reference inputs (``oracle_params``) instead; its residual is
the run's ``oracle_err``, which therefore repeats exactly from run to run.

Gates.  Round-off identities (gauge invariance 1e-8, exact round trips
1e-10, unitarity and the uniform-field Moyal = Liouville identity 1e-10) use
the acceptance suite's tolerances.  Two routes are not exact and get their
own gates, stated where they are defined: the band-limited Husimi
deconvolution (``HUSIMI_ROUTE_TOL``) and the dynamics cross-checks on the
n=16 grids (``tracks`` of each dynamics workload).
"""
from __future__ import annotations

import copy
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from gipsp import cli
from gipsp import dynamics as dyn
from gipsp import husimi as hu
from gipsp import phase_space as ps
from gipsp import states as st
from gipsp.em_fields import GaugeField, Poly
from gipsp.lattice import Constants, QGrid

ORACLE_SEED = 20180617

GAUGE_INVARIANCE_TOL = 1e-8     # acceptance criterion 1
ROUND_TRIP_TOL = 1e-10          # acceptance criterion 4
ROUND_OFF_TOL = 1e-10           # criterion 6 identity; unitarity and mass drift
# The Husimi routes reconstruct through a band-limited, amplification-capped
# deconvolution, so they are not exact.  Criterion 4 states 1e-5 for one
# coherent state under a linear A; four-component mixtures under a cubic A
# measured 6e-6 to 1.5e-4.  A broken inverse misses by the kernel's own
# size (about 0.1), so 1e-3 still catches it.
HUSIMI_ROUTE_TOL = 1e-3


def _maxabs(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _canonical_p0(field: GaugeField, k: Constants, q0, pi0):
    """Canonical momentum whose kinetic part at q0 is pi0: p = pi + (e/c) A(q0)."""
    a_vals, _ = field.potentials([np.asarray(x) for x in q0], 0.0)
    return [float(p + k.charge / k.light_speed * np.asarray(a)) for p, a in zip(pi0, a_vals)]


class Workload:
    name = ""
    why = ""
    grids: dict = {}

    def __init__(self, root: Path):
        self.root = root

    def oracle_params(self):
        return self.draw(np.random.default_rng(ORACLE_SEED))

    def draw(self, rng):
        raise NotImplementedError

    def build(self, params):
        return params

    def run(self, inputs):
        raise NotImplementedError

    def verify(self, inputs, outputs) -> tuple[list, float]:
        """Return the gates as (name, value, tolerance) and the oracle residual."""
        raise NotImplementedError

    def release(self, inputs) -> None:
        """Free what ``build`` created outside the process (files)."""


class GaugePair2D(Workload):
    # The README's headline user path.  Forward 2-D chord transforms,
    # smoothing, the overlap route and artifact writes do nearly all the work;
    # dynamics does none.
    name = "gauge_pair_2d"
    why = ("README headline: cli run on seeded gauge-pair configs; "
           "chord transforms, smoothing, overlap, artifact I/O")
    grids = {"position": "2-D n=32 dq=0.3", "phase": "64x64x32x32"}

    def __init__(self, root: Path):
        super().__init__(root)
        self.base = json.loads((root / "configs" / "gauge-pair.json").read_text())
        self.out_root = root / "perfbench" / "out"
        self.out_root.mkdir(parents=True, exist_ok=True)

    def oracle_params(self):
        return copy.deepcopy(self.base)

    def draw(self, rng):
        raw = copy.deepcopy(self.base)
        raw["field"]["b"] = float(rng.uniform(0.3, 0.7))
        raw["chi"]["coefficients"] = [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4))]
        raw["state"]["q0"] = [float(x) for x in rng.uniform(-0.5, 0.5, 2)]
        raw["state"]["p0"] = [float(x) for x in rng.uniform(-0.3, 0.3, 2)]
        return raw

    def build(self, params):
        return params, Path(tempfile.mkdtemp(prefix="gauge-pair-", dir=self.out_root))

    def run(self, inputs):
        raw, out = inputs
        cfg = cli.ScenarioConfig.from_dict(raw, out_override=out)
        return cli.run_scenario(cfg)

    def verify(self, inputs, report):
        _, out = inputs
        checks = report["checks"]
        gates = [("all_passed", 0.0 if report["all_passed"] else 1.0, 0.0),
                 ("artifacts_missing",
                  float(sum(not (out / a).exists() for a in report["artifacts"])), 0.0)]
        for kind in ("wg", "qg", "wp", "qp"):
            gates.append((f"{kind}_gauge_invariance",
                          checks[f"{kind}_gauge_invariance_max_err"]["value"],
                          GAUGE_INVARIANCE_TOL))
        residual = max(c["value"] for name, c in checks.items()
                       if name.endswith("_normalization_err"))
        return gates, residual

    def release(self, inputs):
        shutil.rmtree(inputs[1], ignore_errors=True)


class Reconstruct(Workload):
    # Exact reconstruction: the same layers as gauge_pair_2d in the inverse
    # direction (scatter and deconvolution instead of gather and smoothing),
    # plus the 1-D paths gauge_pair_2d never touches.  Both sides of the
    # 1-D/2-D split in phase_space are measured.  The 2-D Husimi
    # deconvolution is left out: at n=32, dq=0.3 it raises DeconvolutionError
    # at the default band limit (out-of-band mass about 1e-5).
    name = "reconstruct"
    why = ("inverse paths: 1-D chord, Husimi and Weyl round trips "
           "(dense kernels, BLAS overlap) plus 2-D chord and ray inverses")
    grids = {"position_1d": "n=256 dq=0.1", "position_2d": "n=32 dq=0.3"}

    def __init__(self, root: Path):
        super().__init__(root)
        self.k = Constants()
        self.g1 = QGrid.regular(1, 256, 0.1)
        self.g2 = QGrid.regular(2, 32, 0.3)

    def draw(self, rng):
        n = self.g1.axes[0].n
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kern = m @ m.conj().T
        kern /= np.trace(kern).real * self.g1.axes[0].spacing
        return {
            "cubic": [float(x) for x in rng.uniform(-0.05, 0.05, 3)],
            "mix_1d": [(float(w), float(q), float(p)) for w, q, p in zip(
                rng.dirichlet(np.ones(4)), rng.uniform(-2, 2, 4), rng.uniform(-1, 1, 4))],
            "random_kernel": kern,
            "b": float(rng.uniform(0.3, 0.7)),
            "mix_2d": [(float(w), [float(x) for x in rng.uniform(-0.5, 0.5, 2)],
                        [float(x) for x in rng.uniform(-0.3, 0.3, 2)])
                       for w in rng.dirichlet(np.ones(2))],
        }

    def build(self, params):
        c1, c2, c3 = params["cubic"]
        a1 = GaugeField.from_polynomials([Poly(1, {(1, 0): c1, (2, 0): c2, (3, 0): c3})],
                                         tag="cubic")
        mixture = st.mix([(w, st.coherent_state(q, p, self.g1, self.k, gauge_tag=a1.tag))
                          for w, q, p in params["mix_1d"]])
        rho1 = st.DensityMatrix(self.g1, self.k, values=mixture.values, gauge_tag=a1.tag)
        rand = st.DensityMatrix(self.g1, self.k, values=params["random_kernel"])
        f2 = GaugeField.uniform_b(params["b"], "landau")
        rho2 = st.mix([(w, st.coherent_state(q, _canonical_p0(f2, self.k, q, p), self.g2,
                                             self.k, gauge_tag=f2.tag))
                       for w, q, p in params["mix_2d"]])
        return {"a1": a1, "rho1": rho1, "rand": rand, "f2": f2, "rho2": rho2}

    def run(self, x):
        a1, rho1, f2, rho2 = x["a1"], x["rho1"], x["f2"], x["rho2"]
        wg = ps.wigner_gauge_stratonovich(rho1, a1)
        out = {"chord_1d": ps.inverse_wigner_gauge(wg, a1)}
        out["husimi_chord_1d"] = hu.density_from_husimi_gauge(hu.husimi_from_wigner(wg), a1)
        out["husimi_ray_1d"] = hu.density_from_husimi_poincare(
            hu.husimi_gauge_poincare(rho1, a1), a1)
        out["weyl_random_1d"] = ps.inverse_wigner(ps.wigner(x["rand"], threshold=None))
        out["chord_2d"] = ps.inverse_wigner_gauge(ps.wigner_gauge_stratonovich(rho2, f2), f2)
        out["ray_2d"] = ps.inverse_wigner_poincare(ps.wigner_gauge_poincare(rho2, f2), f2)
        return out

    def verify(self, x, out):
        k1, k2 = x["rho1"].values, x["rho2"].as_kernel()
        gates = [
            ("chord_round_trip_1d", _maxabs(out["chord_1d"].values, k1), ROUND_TRIP_TOL),
            ("weyl_round_trip_random_1d",
             _maxabs(out["weyl_random_1d"].values, x["rand"].values), ROUND_TRIP_TOL),
            ("chord_round_trip_2d", _maxabs(out["chord_2d"].values, k2), ROUND_TRIP_TOL),
            ("ray_round_trip_2d", _maxabs(out["ray_2d"].values, k2), ROUND_TRIP_TOL),
            ("husimi_chord_route_1d", _maxabs(out["husimi_chord_1d"].values, k1),
             HUSIMI_ROUTE_TOL),
            ("husimi_ray_route_1d", _maxabs(out["husimi_ray_1d"].values, k1),
             HUSIMI_ROUTE_TOL),
        ]
        return gates, max(v for name, v, _ in gates if name.startswith("husimi"))


class _Dynamics2D(Workload):
    """Shared grid, state and reference for the two dynamics workloads."""

    grids = {"position": "2-D n=16 dq=0.5", "phase": "32x32x16x16", "steps": "10 x dt=0.012"}
    dt = 0.012
    steps = 10

    def __init__(self, root: Path):
        super().__init__(root)
        self.k = Constants()
        self.grid = QGrid.regular(2, 16, 0.5)
        self.t_final = self.dt * self.steps

    def spec(self, field, propagator):
        return dyn.EvolutionSpec(field, self.dt, self.t_final, propagator)

    def draw_state(self, rng):
        return ([float(x) for x in rng.uniform(-0.5, 0.5, 2)],
                [float(x) for x in rng.uniform(-0.3, 0.3, 2)])

    def build_state(self, field, q0, pi0):
        psi = st.coherent_state(q0, _canonical_p0(field, self.k, q0, pi0), self.grid, self.k,
                                gauge_tag=field.tag, check=None)
        return psi, st.density_from_pure(psi)

    def reference(self, field, psi_dense):
        return ps.wigner_gauge_stratonovich(st.density_from_pure(psi_dense), field,
                                            self.t_final, threshold=None)

    # At n=16 the grid truncates a coherent state (boundary mass about 1e-2 in
    # momentum), and every route then misses the dense-Schroedinger reference
    # by 2e-4 to 3e-3 after 10 steps; criterion 6's 1e-4 is stated at n=32.
    # The gate asks each route to follow the reference: its distance from it,
    # as a share of how far the reference itself moved, stays below the
    # route's entry in ``tracks``, set above the largest share measured over
    # 30 seeded draws and the 16 corners of the draw box; a stalled or wrongly
    # signed propagator scores 1 or more.
    tracks: dict = {}

    def tracking_gate(self, name, route, ref, start):
        """Distance from the reference as a share of the reference's own change."""
        return (name, _maxabs(route, ref) / _maxabs(ref, start), self.tracks[name])


class Cyclotron2D(_Dynamics2D):
    # Uniform B: dynamics does all the work, about 78% in RK4 and 20% in the
    # spline.  This is the mechanism that exact Fourier-shear flows and a
    # real-FFT spectral layer would replace.
    name = "cyclotron_2d"
    why = ("uniform B, all four propagation routes; RK4 Moyal/Husimi "
           "plus spline Liouville, the uniform-field dynamics path")
    # Largest measured shares: Moyal 0.038, Husimi 0.0042, Liouville 0.034,
    # split 1.2e-5 (split and dense Schroedinger differ only by the
    # second-order splitting error).
    tracks = {"moyal_tracks_dense": 0.1, "husimi_tracks_dense": 0.015,
              "liouville_tracks_dense": 0.1, "split_tracks_dense": 5e-5}

    def __init__(self, root: Path):
        super().__init__(root)
        self.field = GaugeField.uniform_b(1.0, "symmetric")

    def draw(self, rng):
        return self.draw_state(rng)

    def build(self, params):
        return self.build_state(self.field, *params)

    def run(self, inputs):
        psi, rho = inputs
        f = self.field
        w0 = ps.wigner_gauge_stratonovich(rho, f, threshold=None)
        q0 = hu.husimi_from_wigner(w0)
        return {
            "w0": w0, "q0": q0,
            "moyal": dyn.propagate_phase_space(w0, self.spec(f, "moyal_gauge")),
            "husimi": dyn.propagate_phase_space(q0, self.spec(f, "husimi_gauge")),
            "liouville": dyn.liouville_propagate(w0, self.spec(f, "liouville")),
            "split": dyn.schrodinger_propagate(psi, self.spec(f, "schrodinger_split")),
            "dense": dyn.schrodinger_propagate(psi, self.spec(f, "schrodinger_dense")),
        }

    def verify(self, inputs, out):
        psi, _ = inputs
        f = self.field
        w0, q0 = out["w0"], out["q0"]
        w_ref = self.reference(f, out["dense"])
        q_ref = hu.husimi_from_wigner(w_ref)
        identity = _maxabs(dyn.moyal_gauge_rhs(w0, f).values, dyn.liouville_rhs(w0, f).values)
        gates = [
            ("dense_norm_drift", abs(out["dense"].norm() - 1.0), ROUND_OFF_TOL),
            ("split_norm_drift", abs(out["split"].norm() - 1.0), ROUND_OFF_TOL),
            ("moyal_equals_liouville_rhs", identity, ROUND_OFF_TOL),
            self.tracking_gate("moyal_tracks_dense", out["moyal"].values, w_ref.values,
                               w0.values),
            self.tracking_gate("husimi_tracks_dense", out["husimi"].values, q_ref.values,
                               q0.values),
            self.tracking_gate("liouville_tracks_dense", out["liouville"].values,
                               w_ref.values, w0.values),
            self.tracking_gate("split_tracks_dense", out["split"].values,
                               out["dense"].values, psi.values),
        ]
        residual = max(_maxabs(out["moyal"].values, w_ref.values),
                       _maxabs(out["husimi"].values, q_ref.values),
                       _maxabs(out["liouville"].values, w_ref.values))
        return gates, residual


class CurvedB2D(_Dynamics2D):
    # The same layer on the non-uniform path: tau-moment multipliers, the
    # delta-p correction and the Boris pusher.  Uniform-field optimisations
    # must bypass it, so the prediction there is no change.
    name = "curved_b_2d"
    why = ("gradient-B polynomial field: non-uniform Moyal RK4, "
           "Boris-pusher Liouville and dense Schroedinger oracle")
    # Largest measured shares: Moyal 0.39, Liouville 0.34, both at the corner
    # b0=1.2, g=0.3, q0=(0.5, 0.5), pi0=(0.3, -0.3) of the draw box (random
    # draws reached 0.17).  The gradient field pushes the canonical momentum
    # towards the edge of the n=16 grid, so this path cannot be checked more
    # tightly there; 0.6 still fails a stalled or wrongly signed propagator.
    tracks = {"moyal_tracks_dense": 0.6, "liouville_tracks_dense": 0.6}

    def draw(self, rng):
        return (float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.1, 0.3)),
                *self.draw_state(rng))

    def build(self, params):
        b0, bgrad, q0, pi0 = params
        field = GaugeField.from_polynomials(
            [Poly.zero(2), Poly(2, {(1, 0, 0): b0, (2, 0, 0): bgrad / 2.0})],
            tag="b_gradient")
        return (field, *self.build_state(field, q0, pi0))

    def run(self, inputs):
        field, psi, rho = inputs
        w0 = ps.wigner_gauge_stratonovich(rho, field, threshold=None)
        return {
            "w0": w0,
            "moyal": dyn.propagate_phase_space(w0, self.spec(field, "moyal_gauge")),
            "liouville": dyn.liouville_propagate(w0, self.spec(field, "liouville")),
            "dense": dyn.schrodinger_propagate(psi, self.spec(field, "schrodinger_dense")),
        }

    def verify(self, inputs, out):
        field = inputs[0]
        w0 = out["w0"]
        w_ref = self.reference(field, out["dense"])
        gates = [
            ("dense_norm_drift", abs(out["dense"].norm() - 1.0), ROUND_OFF_TOL),
            ("moyal_mass_drift", abs(out["moyal"].diagnostics["mass_drift"]), ROUND_OFF_TOL),
            self.tracking_gate("moyal_tracks_dense", out["moyal"].values, w_ref.values,
                               w0.values),
            self.tracking_gate("liouville_tracks_dense", out["liouville"].values,
                               w_ref.values, w0.values),
        ]
        return gates, _maxabs(out["moyal"].values, w_ref.values)


class Dynamics2D(Workload):
    # Both dynamics paths in one op: the uniform field of cyclotron_2d (the
    # mechanism that Fourier-shear flows and a real-FFT spectral layer would
    # replace) and the gradient field of curved_b_2d (the path they must
    # bypass).  Sharing one workload leaves each run of the benchmark's
    # rotation long enough to average out minute-scale host drift; the
    # traced run still separates the two paths by span.
    name = "dynamics_2d"
    why = ("uniform-B and gradient-B dynamics in one op: RK4 Moyal/Husimi, "
           "spline and Boris Liouville, split and dense Schroedinger")

    def __init__(self, root: Path):
        super().__init__(root)
        self.parts = (Cyclotron2D(root), CurvedB2D(root))
        self.grids = {p.name: p.grids for p in self.parts}

    def oracle_params(self):
        return [p.oracle_params() for p in self.parts]

    def draw(self, rng):
        return [p.draw(rng) for p in self.parts]

    def build(self, params):
        return [p.build(x) for p, x in zip(self.parts, params)]

    def run(self, inputs):
        return [p.run(x) for p, x in zip(self.parts, inputs)]

    def verify(self, inputs, outputs):
        gates, residual = [], 0.0
        for p, x, out in zip(self.parts, inputs, outputs):
            part_gates, part_residual = p.verify(x, out)
            gates += [(f"{p.name}.{n}", v, tol) for n, v, tol in part_gates]
            residual = max(residual, part_residual)
        return gates, residual


WORKLOADS = {w.name: w for w in (GaugePair2D, Reconstruct, Cyclotron2D, CurvedB2D, Dynamics2D)}
