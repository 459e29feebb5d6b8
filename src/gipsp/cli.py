"""Scenario-driven command line: build states and fields from a JSON config,
run transforms and evolutions, write arrays/CSV and a verification report.

Subcommands: ``run`` (execute a scenario), ``report`` (tabulate a finished
run), ``selftest`` (run the acceptance suite).  Exit codes: 0 success,
1 invariant failure (report written), 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .em_fields import GaugeField, GaugeFn, Poly
from .husimi import (SmoothingSpec, husimi_from_wigner, husimi_gauge_poincare,
                     husimi_overlap)
from .lattice import Axis, Constants, QGrid, export_csv, grid_metadata, save_field
from .phase_space import (wigner, wigner_gauge_poincare, wigner_gauge_stratonovich)
from .states import coherent_state, density_from_pure, gauge_rotate, gaussian_packet, mix
from .dynamics import EvolutionSpec, liouville_propagate, propagate_phase_space, \
    schrodinger_propagate

_TRANSFORMS = ("w", "w_gauge", "w_poincare", "q", "q_gauge", "q_poincare")


class ConfigError(ValueError):
    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"config error in '{where}': {message}")


def _require(cond, where, message):
    if not cond:
        raise ConfigError(where, message)


def _number(value, where) -> float:
    """``float(value)``, or a :class:`ConfigError` naming ``where``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(where, f"expected a number, got {value!r}") from None


def _numbers(value, dim, where, broadcast=True) -> list[float]:
    """``dim`` numbers from a number or a list, or a :class:`ConfigError` naming ``where``.

    A list holds ``dim`` entries, or one entry repeated on every axis when
    ``broadcast`` is set.
    """
    entries = value if isinstance(value, list) else [value]
    counts = sorted({1, dim} if broadcast else {dim})
    _require(len(entries) in counts, where,
             f"got {len(entries)} entries, expected {' or '.join(map(str, counts))}")
    return [_number(v, where) for v in entries] * (dim // len(entries))


def _grid_sizes(raw, dim) -> list[int]:
    """``grid.n`` as ``dim`` point counts, or a :class:`ConfigError` naming it."""
    sizes = _numbers(raw, dim, "grid.n")
    for n in sizes:
        _require(math.isfinite(n) and n.is_integer(), "grid.n",
                 f"expected an integer, got {n!r}")
    return [int(n) for n in sizes]


def _parse_poly(spec, dim, where) -> Poly:
    _require(isinstance(spec, dict), where, "expected an object with exponents/coefficients")
    exps = spec.get("exponents")
    coeffs = spec.get("coefficients")
    _require(isinstance(exps, list) and isinstance(coeffs, list) and len(exps) == len(coeffs),
             where, "exponents and coefficients must be lists of equal length")
    terms = {}
    for e, c in zip(exps, coeffs):
        _require(isinstance(e, list) and len(e) == dim + 1, where,
                 f"each exponent needs {dim} spatial entries plus a time entry")
        terms[tuple(e)] = terms.get(tuple(e), 0.0) + float(c)
    return Poly(dim, terms)


def _parse_constants(raw) -> Constants:
    raw = raw or {}
    kwargs = {}
    for key in ("hbar", "mass", "charge", "light_speed", "lam"):
        if key in raw:
            kwargs[key] = _number(raw[key], f"constants.{key}")
    for key, val in kwargs.items():
        if key != "charge" and val <= 0:
            raise ConfigError(f"constants.{key}", "must be positive")
    return Constants(**kwargs)


def _parse_grid(raw) -> QGrid:
    _require(isinstance(raw, dict), "grid", "missing grid object")
    dim = _number(raw.get("dim", 1), "grid.dim")
    _require(dim in (1, 2), "grid.dim", "must be 1 or 2")
    dim = int(dim)
    n = raw.get("n")
    spacing = raw.get("spacing")
    _require(n is not None, "grid.n", "required")
    _require(spacing is not None, "grid.spacing", "required")
    ns = _grid_sizes(n, dim)
    sp = _numbers(spacing, dim, "grid.spacing")
    cen = _numbers(raw.get("center", 0.0), dim, "grid.center")
    try:
        return QGrid(tuple(Axis(a, b, c) for a, b, c in zip(ns, sp, cen)))
    except Exception as exc:
        raise ConfigError("grid", str(exc)) from None


def _parse_field(raw, constants: Constants) -> GaugeField:
    from .em_fields import FieldError
    raw = raw or {"type": "free", "dim": 1}
    kind = raw.get("type", "free")
    try:
        if kind == "free":
            return GaugeField.free(int(raw.get("dim", 1)))
        if kind == "uniform_b":
            _require("b" in raw, "field.b", "required for uniform_b")
            return GaugeField.uniform_b(float(raw["b"]), raw.get("gauge", "symmetric"))
        if kind == "uniform_e":
            _require("e" in raw, "field.e", "required for uniform_e")
            return GaugeField.uniform_e(raw["e"])
        if kind == "polynomial":
            dim = int(raw.get("dim", 1))
            a_specs = raw.get("a")
            _require(isinstance(a_specs, list) and len(a_specs) == dim, "field.a",
                     f"needs {dim} vector-potential components")
            a = [_parse_poly(s, dim, f"field.a[{i}]") for i, s in enumerate(a_specs)]
            phi = _parse_poly(raw["phi"], dim, "field.phi") if "phi" in raw else None
            return GaugeField.from_polynomials(a, phi, tag=raw.get("tag", "polynomial"))
    except FieldError as exc:
        raise ConfigError("field", str(exc)) from None
    raise ConfigError("field.type", f"unknown variant {kind!r}")


def _parse_chi(raw, dim) -> GaugeFn | None:
    if raw is None:
        return None
    return GaugeFn(_parse_poly(raw, dim, "chi"), tag=raw.get("tag", "chi"))


def _parse_state(raw, grid, constants, gauge_tag):
    raw = raw or {}
    kind = raw.get("type", "coherent")
    dim = grid.dim
    if kind in ("coherent", "gaussian"):
        q0 = _numbers(raw.get("q0", [0.0] * dim), dim, "state.q0", broadcast=False)
        p0 = _numbers(raw.get("p0", [0.0] * dim), dim, "state.p0", broadcast=False)
        if kind == "coherent":
            psi = coherent_state(q0, p0, grid, constants, gauge_tag=gauge_tag, check=None)
        else:
            widths = raw.get("widths")
            _require(widths is not None, "state.widths", "required for gaussian packets")
            psi = gaussian_packet(q0, p0, _numbers(widths, dim, "state.widths"), grid,
                                  constants, gauge_tag=gauge_tag, check=None)
        return density_from_pure(psi)
    if kind == "mixture":
        comps = raw.get("components")
        _require(isinstance(comps, list) and comps, "state.components", "non-empty list required")
        pairs = []
        for i, comp in enumerate(comps):
            where = f"state.components[{i}]"
            _require(isinstance(comp, dict), where, "expected an object")
            w = comp.get("weight")
            _require(w is not None, f"{where}.weight", "required")
            w = _number(w, f"{where}.weight")
            _require(w >= 0, f"{where}.weight", "non-negative weight required")
            q0 = _numbers(comp.get("q0", [0.0] * dim), dim, f"{where}.q0", broadcast=False)
            p0 = _numbers(comp.get("p0", [0.0] * dim), dim, f"{where}.p0", broadcast=False)
            pairs.append((w, coherent_state(q0, p0, grid, constants, gauge_tag=gauge_tag,
                                            check=None)))
        try:
            return mix(pairs)
        except Exception as exc:
            raise ConfigError("state.components", str(exc)) from None
    raise ConfigError("state.type", f"unknown variant {kind!r}")


def _parse_smoothing(raw) -> SmoothingSpec:
    raw = raw or {}
    kwargs = {key: _number(raw[key], f"smoothing.{key}")
              for key in ("lam", "band_fraction", "reg_floor", "max_amplification")
              if raw.get(key) is not None}
    try:
        return SmoothingSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError("smoothing", str(exc)) from None


_DEFAULT_TOLERANCES = {
    "gauge_invariance": 1e-8,
    "reduction": 1e-12,
    "normalization": 1e-6,
    "reality": 1e-10,
}


@dataclass
class ScenarioConfig:
    grid: QGrid
    constants: Constants
    field: GaugeField
    chi: GaugeFn | None
    state_raw: dict
    transforms: tuple[str, ...]
    smoothing: SmoothingSpec
    evolution_raw: dict | None
    output_dir: Path
    tolerances: dict

    @classmethod
    def from_dict(cls, raw: dict, out_override=None, tolerance_scale: float = 1.0):
        _require(isinstance(raw, dict), "<root>", "top-level object expected")
        constants = _parse_constants(raw.get("constants"))
        grid = _parse_grid(raw.get("grid"))
        fld = _parse_field(raw.get("field"), constants)
        _require(fld.dim == grid.dim, "field", "field and grid dimensions differ")
        chi = _parse_chi(raw.get("chi"), grid.dim)
        transforms = tuple(raw.get("transforms", ["w"]))
        for t in transforms:
            _require(t in _TRANSFORMS, "transforms", f"unknown transform {t!r}")
        smoothing = _parse_smoothing(raw.get("smoothing"))
        tol = dict(_DEFAULT_TOLERANCES)
        for key, val in (raw.get("tolerances") or {}).items():
            tol[key] = _number(val, f"tolerances.{key}")
            _require(tol[key] > 0, f"tolerances.{key}", "must be positive")
        if tolerance_scale != 1.0:
            tol = {k: v * tolerance_scale for k, v in tol.items()}
        out = Path(out_override or raw.get("output_dir", "out"))
        return cls(grid, constants, fld, chi, raw.get("state") or {},
                   transforms, smoothing, raw.get("evolution"), out, tol)


def _compute_transforms(rho, fld, cfg, t=0.0):
    out = {}
    for name in cfg.transforms:
        if name == "w":
            out[name] = wigner(rho, threshold=None, time=t)
        elif name == "w_gauge":
            out[name] = wigner_gauge_stratonovich(rho, fld, t, threshold=None)
        elif name == "w_poincare":
            out[name] = wigner_gauge_poincare(rho, fld, t, threshold=None)
        elif name == "q":
            out[name] = husimi_overlap(rho, lam=cfg.smoothing.resolve_lam(rho.constants))
        elif name == "q_gauge":
            wg = out.get("w_gauge") or wigner_gauge_stratonovich(rho, fld, t, threshold=None)
            out[name] = husimi_from_wigner(wg, cfg.smoothing)
        elif name == "q_poincare":
            out[name] = husimi_gauge_poincare(rho, fld, t, cfg.smoothing)
    return out


def _center_slice(psf):
    """A 2-D (q1, p1) slice through the center of the remaining axes."""
    vals = psf.values
    if psf.grid.dim == 1:
        return vals, psf.grid.qaxes[0].points, psf.grid.paxes[0].points
    iy = psf.grid.qaxes[1].n // 2
    ipy = psf.grid.paxes[1].n // 2
    return vals[:, iy, :, ipy], psf.grid.qaxes[0].points, psf.grid.paxes[0].points


def _evolution_spec(cfg: ScenarioConfig, rho) -> EvolutionSpec | None:
    """The evolution block as a spec, checked before any transform runs."""
    ev = cfg.evolution_raw
    if not ev:
        return None
    try:
        spec = EvolutionSpec(cfg.field, float(ev["dt"]), float(ev["t_final"]),
                             ev.get("propagator", "schrodinger_dense"),
                             t0=float(ev.get("t0", 0.0)), smoothing=cfg.smoothing)
    except (KeyError, ValueError) as exc:
        raise ConfigError("evolution", str(exc)) from None
    if spec.propagator.startswith("schrodinger") and len(rho.components) != 1:
        raise ConfigError("state", "wavefunction propagation needs a pure state, "
                                   "not a mixture")
    return spec


def _phase_space_start(spec: EvolutionSpec, fields, rho, cfg):
    """The function a phase-space propagator evolves: the chord-phase Wigner
    function (``moyal_gauge``, ``liouville``) or its smoothing
    (``husimi_gauge``), taken from the transforms when they computed it."""
    if spec.propagator == "husimi_gauge" and "q_gauge" in fields:
        return fields["q_gauge"]
    wg = fields.get("w_gauge") or wigner_gauge_stratonovich(rho, cfg.field, spec.t0,
                                                            threshold=None)
    if spec.propagator == "husimi_gauge":
        return husimi_from_wigner(wg, cfg.smoothing)
    return wg


def run_scenario(cfg: ScenarioConfig) -> dict:
    start = time.time()
    checks = {}
    artifacts = []

    def check(name, value, tol):
        checks[name] = {"value": float(value), "tolerance": float(tol),
                        "pass": bool(value <= tol)}

    rho = _parse_state(cfg.state_raw, cfg.grid, cfg.constants, cfg.field.tag)
    spec = _evolution_spec(cfg, rho)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    fields = _compute_transforms(rho, cfg.field, cfg)
    for name, psf in fields.items():
        check(f"{name}_normalization_err", abs(psf.integrate() - rho.trace()),
              cfg.tolerances["normalization"])
        check(f"{name}_reality_err", psf.imag_max, cfg.tolerances["reality"])
        base = cfg.output_dir / name
        sidecar = {"kind": psf.kind, "field_tag": psf.field_tag, "time": psf.time}
        sidecar.update(grid_metadata(psf.grid))
        save_field(base, psf.values, sidecar)
        slice2d, xs, ps = _center_slice(psf)
        export_csv(base.with_suffix(".csv"), slice2d, [xs, ps], header="q,p,value")
        artifacts.extend([f"{name}.bin", f"{name}.json", f"{name}.csv"])

    if cfg.field.is_zero_vector:
        if "w" in fields and "w_gauge" in fields:
            check("wg_equals_w_max_err",
                  np.abs(fields["w"].values - fields["w_gauge"].values).max(),
                  cfg.tolerances["reduction"])
        if "w" in fields and "w_poincare" in fields:
            check("wp_equals_w_max_err",
                  np.abs(fields["w"].values - fields["w_poincare"].values).max(),
                  cfg.tolerances["reduction"])
        if "q" in fields and "q_gauge" in fields:
            check("qg_equals_q_max_err",
                  np.abs(fields["q"].values - fields["q_gauge"].values).max(),
                  cfg.tolerances["normalization"])

    if cfg.chi is not None:
        gauged = cfg.field.gauged(cfg.chi, cfg.constants)
        rho2 = gauge_rotate(rho, cfg.chi, +1)
        twin = _compute_transforms(rho2, gauged, cfg)
        pairs = {"w_gauge": "wg", "q_gauge": "qg", "w_poincare": "wp", "q_poincare": "qp"}
        for name, short in pairs.items():
            if name in fields and name in twin:
                check(f"{short}_gauge_invariance_max_err",
                      np.abs(fields[name].values - twin[name].values).max(),
                      cfg.tolerances["gauge_invariance"])

    if spec is not None:
        stride = int(cfg.evolution_raw.get("snapshot_stride", 0))
        # cut the interval at snapshot boundaries; each segment reuses spec.dt
        times = [spec.t0]
        if stride > 0:
            step = stride * spec.dt
            t = spec.t0 + step
            while t < spec.t_final - 1e-12:
                times.append(t)
                t += step
        times.append(spec.t_final)
        from dataclasses import replace as dc_replace
        if spec.propagator.startswith("schrodinger"):
            psi_t = rho.components[0][1]
            for i in range(1, len(times)):
                seg = dc_replace(spec, t0=times[i - 1], t_final=times[i])
                psi_t = schrodinger_propagate(psi_t, seg)
                if stride > 0 and i < len(times) - 1:
                    base = cfg.output_dir / f"psi_{i:04d}"
                    save_field(base, psi_t.values,
                               {"kind": "wavefunction", "time": times[i],
                                **grid_metadata(cfg.grid)})
                    artifacts.extend([f"psi_{i:04d}.bin", f"psi_{i:04d}.json"])
            check("evolution_norm_err", abs(psi_t.norm() - 1.0), 1e-10)
            base = cfg.output_dir / "psi_final"
            save_field(base, psi_t.values, {"kind": "wavefunction", "time": spec.t_final,
                                            **grid_metadata(cfg.grid)})
            artifacts.extend(["psi_final.bin", "psi_final.json"])
        else:
            F0 = _phase_space_start(spec, fields, rho, cfg)
            mover = liouville_propagate if spec.propagator == "liouville" \
                else propagate_phase_space
            F_t = F0
            for i in range(1, len(times)):
                seg = dc_replace(spec, t0=times[i - 1], t_final=times[i])
                F_t = mover(F_t, seg)
                if stride > 0 and i < len(times) - 1:
                    base = cfg.output_dir / f"evolved_{i:04d}"
                    save_field(base, F_t.values,
                               {"kind": F_t.kind, "time": times[i],
                                **grid_metadata(F_t.grid)})
                    artifacts.extend([f"evolved_{i:04d}.bin", f"evolved_{i:04d}.json"])
            check("evolution_mass_err", abs(F_t.integrate() - F0.integrate()),
                  max(1e-7 * max(spec.t_final - spec.t0, 1.0),
                      cfg.tolerances["normalization"]))
            base = cfg.output_dir / "evolved"
            sidecar = {"kind": F_t.kind, "time": F_t.time, **grid_metadata(F_t.grid)}
            save_field(base, F_t.values, sidecar)
            artifacts.extend(["evolved.bin", "evolved.json"])

    report = {
        "checks": {k: checks[k] for k in sorted(checks)},
        "artifacts": sorted(artifacts),
        "grid": grid_metadata(cfg.grid),
        "transforms": list(cfg.transforms),
        "runtime_seconds": round(time.time() - start, 3),
    }
    report["all_passed"] = all(c["pass"] for c in report["checks"].values())
    (cfg.output_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    return report


def _cmd_run(args) -> int:
    path = args.config or args.config_flag
    if path is None:
        print("error: no config given (positional or --config)", file=sys.stderr)
        return 2
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = ScenarioConfig.from_dict(raw, out_override=args.out,
                                       tolerance_scale=args.tolerance_scale)
        report = run_scenario(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "ok" if report["all_passed"] else "INVARIANT FAILURE"
    print(f"{status}: {len(report['checks'])} checks, "
          f"{report['runtime_seconds']}s, artifacts in {cfg.output_dir}")
    for name, c in report["checks"].items():
        flag = "pass" if c["pass"] else "FAIL"
        print(f"  [{flag}] {name} = {c['value']:.3e} (tol {c['tolerance']:.1e})")
    return 0 if report["all_passed"] else 1


def _cmd_report(args) -> int:
    out = Path(args.directory)
    report_path = out / "report.json"
    if not report_path.exists():
        print(f"error: missing {report_path}; expected files: report.json plus "
              "<transform>.bin/.json/.csv artifacts", file=sys.stderr)
        return 2
    report = json.loads(report_path.read_text())
    missing = [a for a in report.get("artifacts", []) if not (out / a).exists()]
    if missing:
        print("error: missing artifact files: " + ", ".join(missing), file=sys.stderr)
        return 2
    header = f"{'check':44s} {'value':>12s} {'tolerance':>12s} {'status':>8s}"
    print(header)
    print("-" * len(header))
    for name in sorted(report["checks"]):
        c = report["checks"][name]
        status = "pass" if c["pass"] else "FAIL"
        print(f"{name:44s} {c['value']:12.3e} {c['tolerance']:12.1e} {status:>8s}")
    print(f"runtime: {report.get('runtime_seconds', '?')}s; "
          f"all_passed: {report.get('all_passed')}")
    return 0 if report.get("all_passed") else 1


def _cmd_selftest(args) -> int:
    from .acceptance import run_acceptance
    results = run_acceptance(verbose=True)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gipsp",
        description="Gauge-independent phase-space distributions: transforms, "
                    "reconstruction, and dynamics driven by JSON scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", nargs="?", help="path to the JSON scenario")
    p_run.add_argument("--config", dest="config_flag", help="path to the JSON scenario")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--tolerance-scale", type=float, default=1.0,
                       help="multiply all configured tolerances")

    p_rep = sub.add_parser("report", help="summarize a finished run")
    p_rep.add_argument("directory", help="output directory of a previous run")

    sub.add_parser("selftest", help="run the acceptance suite")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    return _cmd_selftest(args)


def console_entry():
    sys.exit(main())
