"""Scenario-driven command line: build states and fields from a JSON config,
run transforms and evolutions, write arrays/CSV and a verification report.

Subcommands: ``run`` (execute a scenario), ``report`` (tabulate a finished
run), ``selftest`` (run the acceptance suite).  Exit codes: 0 success,
1 invariant failure (report written) or a diverged evolution (no report),
2 configuration error.

:meth:`ScenarioConfig.from_dict` checks the whole config, the evolution block
included, and builds the state and the evolution spec, so every
:class:`ConfigError` is raised before anything is written;
:func:`run_scenario` only runs a parsed config.  An evolution gets its start
state and snapshot cut times from here; :func:`gipsp.dynamics.evolve` makes
every evolution decision (the flow, the Husimi deconvolution, the carries).
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

from .em_fields import FieldError, GaugeField, GaugeFn, Poly
from .husimi import husimi_from_wigner, husimi_overlap
from .lattice import (DENSE_POINT_LIMIT, Axis, Constants, QGrid, export_csv, grid_metadata,
                      max_abs_diff, save_field)
from .phase_space import (wigner, wigner_gauge_poincare, wigner_gauge_stratonovich)
from .states import (DensityMatrix, StateError, coherent_state, density_from_pure,
                     gauge_rotate, gaussian_packet, mix)
from .dynamics import EvolutionSpec, PropagatorError, evolve

_TRANSFORMS = ("w", "w_gauge", "w_poincare", "q", "q_gauge", "q_poincare")


class ConfigError(ValueError):
    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"config error in '{where}': {message}")


def _require(cond, where, message):
    if not cond:
        raise ConfigError(where, message)


def _number(value, where) -> float:
    """``float(value)`` when finite, or a :class:`ConfigError` naming ``where``
    (JSON as Python reads it admits NaN and Infinity)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    _require(math.isfinite(x), where, f"expected a finite number, got {value!r}")
    return x


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


def _integer(value, where, minimum=0) -> int:
    """``value`` as an integer of at least ``minimum``, or a :class:`ConfigError`."""
    x = _number(value, where)
    _require(x.is_integer() and x >= minimum, where,
             f"expected an integer >= {minimum}, got {value!r}")
    return int(x)


def _keys(raw: dict, known, where: str) -> None:
    """A :class:`ConfigError` naming the first key of ``raw`` not in ``known``:
    no parser reads it, so a misspelt key would otherwise change nothing."""
    for key in raw:
        _require(key in known, f"{where}.{key}" if where else key,
                 f"unknown key; known are {', '.join(known)}")


def _tag(raw, default, where) -> str:
    """The ``tag`` entry of ``raw`` (``default`` when absent), or a
    :class:`ConfigError`: a tag names a gauge, and states compare it."""
    tag = raw.get("tag", default)
    _require(isinstance(tag, str), f"{where}.tag", f"expected a string, got {tag!r}")
    return tag


# x^1000 overflows on a box of half-width above 2.03 and wrote NaN artifacts;
# a power of 8 stays below 1e16 on a box of half-width 100
_MAX_EXPONENT = 8


# a packet a twelfth of the spacing wide holds exp(-36) = 2e-16 of its peak
# at the next node: every narrower width is the same one-node state on the
# grid, and a width near 1e-154 overflows the packet's exponent
_NARROWEST = 1.0 / 12.0


def _parse_poly(spec, dim, where, known=("exponents", "coefficients")) -> Poly:
    _require(isinstance(spec, dict), where, "expected an object with exponents/coefficients")
    _keys(spec, known, where)
    exps = spec.get("exponents")
    coeffs = spec.get("coefficients")
    _require(isinstance(exps, list) and isinstance(coeffs, list) and len(exps) == len(coeffs),
             where, "exponents and coefficients must be lists of equal length")
    terms = {}
    for e, c in zip(exps, coeffs):
        _require(isinstance(e, list) and len(e) == dim + 1, where,
                 f"each exponent needs {dim} spatial entries plus a time entry")
        key = tuple(_integer(k, f"{where}.exponents") for k in e)
        _require(max(key) <= _MAX_EXPONENT, f"{where}.exponents",
                 f"each power is at most {_MAX_EXPONENT}, got {max(key)}")
        terms[key] = terms.get(key, 0.0) + _number(c, f"{where}.coefficients")
    return Poly(dim, terms)


def _parse_constants(raw) -> Constants:
    raw = {} if raw is None else raw
    _require(isinstance(raw, dict), "constants", "expected an object")
    _keys(raw, ("hbar", "mass", "charge", "light_speed", "lam"), "constants")
    kwargs = {key: _number(val, f"constants.{key}") for key, val in raw.items()}
    for key, val in kwargs.items():
        if key != "charge" and val <= 0:
            raise ConfigError(f"constants.{key}", "must be positive")
    return Constants(**kwargs)


def _parse_grid(raw) -> QGrid:
    _require(isinstance(raw, dict), "grid", "missing grid object")
    _keys(raw, ("dim", "n", "spacing", "center"), "grid")
    dim = _integer(raw.get("dim", 1), "grid.dim")
    _require(dim in (1, 2), "grid.dim", "must be 1 or 2")
    for key in ("n", "spacing"):
        _require(raw.get(key) is not None, f"grid.{key}", "required")
    ns = [_integer(n, "grid.n", 1) for n in _numbers(raw["n"], dim, "grid.n")]
    sp = _numbers(raw["spacing"], dim, "grid.spacing")
    cen = _numbers(raw.get("center", 0.0), dim, "grid.center")
    try:
        return QGrid(tuple(Axis(a, b, c) for a, b, c in zip(ns, sp, cen)))
    except Exception as exc:
        raise ConfigError("grid", str(exc)) from None


# the keys each field and state variant reads, besides ``type``
_FIELD_KEYS = {"free": ("dim",), "uniform_b": ("b", "gauge"), "uniform_e": ("e",),
               "polynomial": ("dim", "a", "phi", "tag")}
_STATE_KEYS = {"coherent": ("q0", "p0"), "gaussian": ("q0", "p0", "widths"),
               "mixture": ("components",)}


def _variant(raw, variants, default, where) -> str:
    """The ``type`` of the ``where`` block ``raw``, once every key of ``raw``
    is one its variant reads."""
    kind = raw.get("type", default)
    _require(isinstance(kind, str) and kind in variants, f"{where}.type",
             f"unknown variant {kind!r}")
    _keys(raw, ("type", *variants[kind]), where)
    return kind


def _parse_field(raw, dim) -> GaugeField:
    """The field block on the ``dim``-D grid: absent, it is a free field, and a
    ``free`` or ``polynomial`` field without ``dim`` takes the grid's."""
    raw = raw or {"type": "free"}
    _require(isinstance(raw, dict), "field", "expected an object")
    kind = _variant(raw, _FIELD_KEYS, "free", "field")
    try:
        if kind == "free":
            return GaugeField.free(_integer(raw.get("dim", dim), "field.dim", 1))
        if kind == "uniform_b":
            _require("b" in raw, "field.b", "required for uniform_b")
            return GaugeField.uniform_b(_number(raw["b"], "field.b"),
                                        raw.get("gauge", "symmetric"))
        if kind == "uniform_e":
            _require("e" in raw, "field.e", "required for uniform_e")
            return GaugeField.uniform_e(_numbers(raw["e"], dim, "field.e", broadcast=False))
        # the polynomial variant
        fdim = _integer(raw.get("dim", dim), "field.dim", 1)
        a_specs = raw.get("a")
        _require(isinstance(a_specs, list) and len(a_specs) == fdim, "field.a",
                 f"needs {fdim} vector-potential components")
        a = [_parse_poly(s, fdim, f"field.a[{i}]") for i, s in enumerate(a_specs)]
        phi = _parse_poly(raw["phi"], fdim, "field.phi") if "phi" in raw else None
        return GaugeField.from_polynomials(a, phi, tag=_tag(raw, "polynomial", "field"))
    except FieldError as exc:
        raise ConfigError("field", str(exc)) from None


def _parse_chi(raw, dim) -> GaugeFn | None:
    if raw is None:
        return None
    return GaugeFn(_parse_poly(raw, dim, "chi", ("exponents", "coefficients", "tag")),
                   tag=_tag(raw, "chi", "chi"))


def _packet(where, build, *args, **kwargs):
    """The packet ``build(*args, **kwargs)`` with no support check, or a
    :class:`ConfigError` naming ``where`` (its q0) when the grid holds none of
    it (its norm there is zero or not finite)."""
    try:
        return build(*args, check=None, **kwargs)
    except StateError as exc:
        raise ConfigError(where, f"the grid holds none of this packet ({exc}): q0 must lie "
                                 "in the box, and each width above the spacing") from None


def _parse_state(raw, grid, constants, gauge_tag) -> DensityMatrix:
    raw = raw or {}
    _require(isinstance(raw, dict), "state", "expected an object")
    kind = _variant(raw, _STATE_KEYS, "coherent", "state")
    dim = grid.dim
    if kind in ("coherent", "gaussian"):
        q0 = _numbers(raw.get("q0", [0.0] * dim), dim, "state.q0", broadcast=False)
        p0 = _numbers(raw.get("p0", [0.0] * dim), dim, "state.p0", broadcast=False)
        if kind == "coherent":
            psi = _packet("state.q0", coherent_state, q0, p0, grid, constants,
                          gauge_tag=gauge_tag)
        else:
            widths = raw.get("widths")
            _require(widths is not None, "state.widths", "required for gaussian packets")
            widths = _numbers(widths, dim, "state.widths")
            _require(all(w >= _NARROWEST * ax.spacing for w, ax in zip(widths, grid.axes)),
                     "state.widths", "each width must be at least 1/12 of the grid spacing")
            psi = _packet("state.q0", gaussian_packet, q0, p0, widths, grid, constants,
                          gauge_tag=gauge_tag)
        return density_from_pure(psi)
    comps = raw.get("components")
    _require(isinstance(comps, list) and comps, "state.components", "non-empty list required")
    pairs = []
    for i, comp in enumerate(comps):
        where = f"state.components[{i}]"
        _require(isinstance(comp, dict), where, "expected an object")
        _keys(comp, ("weight", "q0", "p0"), where)
        w = comp.get("weight")
        _require(w is not None, f"{where}.weight", "required")
        w = _number(w, f"{where}.weight")
        _require(w >= 0, f"{where}.weight", "non-negative weight required")
        q0 = _numbers(comp.get("q0", [0.0] * dim), dim, f"{where}.q0", broadcast=False)
        p0 = _numbers(comp.get("p0", [0.0] * dim), dim, f"{where}.p0", broadcast=False)
        pairs.append((w, _packet(f"{where}.q0", coherent_state, q0, p0, grid, constants,
                                 gauge_tag=gauge_tag)))
    try:
        return mix(pairs)
    except Exception as exc:
        raise ConfigError("state.components", str(exc)) from None


def _parse_evolution(raw, fld, rho) -> tuple[EvolutionSpec | None, int]:
    """The evolution block as a spec (``None`` when absent) and its snapshot stride."""
    if not raw:
        return None, 0
    _require(isinstance(raw, dict), "evolution", "expected an object")
    _keys(raw, ("propagator", "dt", "t_final", "t0", "snapshot_stride"), "evolution")
    for key in ("dt", "t_final"):
        _require(raw.get(key) is not None, f"evolution.{key}", "required")
    dt = _number(raw["dt"], "evolution.dt")
    _require(dt > 0, "evolution.dt", "must be positive")
    t_final = _number(raw["t_final"], "evolution.t_final")
    t0 = _number(raw.get("t0", 0.0), "evolution.t0")
    _require(t_final >= t0, "evolution.t_final", "must not precede evolution.t0")
    stride = _integer(raw.get("snapshot_stride", 0), "evolution.snapshot_stride")
    try:
        spec = EvolutionSpec(fld, dt, t_final, raw.get("propagator", "schrodinger_dense"), t0)
    except ValueError as exc:
        raise ConfigError("evolution.propagator", str(exc)) from None
    _require(spec.propagator != "schrodinger_dense"
             or math.prod(rho.grid.shape) <= DENSE_POINT_LIMIT, "evolution.propagator",
             f"schrodinger_dense is limited to {DENSE_POINT_LIMIT} grid points; "
             "schrodinger_split runs at any size")
    _require(not spec.propagator.startswith("schrodinger") or len(rho.components) == 1,
             "state", "wavefunction propagation needs a pure state, not a mixture")
    return spec, stride


_DEFAULT_TOLERANCES = {
    "gauge_invariance": 1e-8,
    "reduction": 1e-12,
    "normalization": 1e-6,
    "reality": 1e-10,
}


@dataclass
class ScenarioConfig:
    """A checked scenario: the state and the evolution spec are already built."""

    grid: QGrid
    constants: Constants
    field: GaugeField
    chi: GaugeFn | None
    rho: DensityMatrix
    transforms: tuple[str, ...]
    evolution: EvolutionSpec | None
    snapshot_stride: int
    output_dir: Path
    tolerances: dict

    @classmethod
    def from_dict(cls, raw: dict, out_override=None):
        _require(isinstance(raw, dict), "<root>", "top-level object expected")
        _keys(raw, ("grid", "constants", "field", "chi", "state", "transforms", "smoothing",
                    "tolerances", "evolution", "output_dir"), "")
        constants = _parse_constants(raw.get("constants"))
        grid = _parse_grid(raw.get("grid"))
        fld = _parse_field(raw.get("field"), grid.dim)
        _require(fld.dim == grid.dim, "field", "field and grid dimensions differ")
        chi = _parse_chi(raw.get("chi"), grid.dim)
        transforms = raw.get("transforms", ["w"])
        _require(isinstance(transforms, list), "transforms", "expected a list of transform names")
        for t in transforms:
            _require(t in _TRANSFORMS, "transforms", f"unknown transform {t!r}")
        smoothing = raw.get("smoothing")
        if smoothing:
            # a setting that used to work is rejected, not silently dropped
            raise ConfigError(f"smoothing.{next(iter(smoothing))}"
                              if isinstance(smoothing, dict) else "smoothing",
                              "no smoothing settings are read: the squeeze is "
                              "constants.lam and the evolution's deconvolution is fixed")
        tol = dict(_DEFAULT_TOLERANCES)
        given = raw.get("tolerances", {})
        _require(isinstance(given, dict), "tolerances", "expected an object")
        _keys(given, tuple(tol), "tolerances")
        for key, val in given.items():
            tol[key] = _number(val, f"tolerances.{key}")
            _require(tol[key] > 0, f"tolerances.{key}", "must be positive")
        rho = _parse_state(raw.get("state"), grid, constants, fld.tag)
        spec, stride = _parse_evolution(raw.get("evolution"), fld, rho)
        out = raw.get("output_dir", "out")
        _require(isinstance(out, str), "output_dir", "expected a path string")
        out = Path(out_override or out)
        _require(all(p.is_dir() for p in (out, *out.parents) if p.exists()),
                 "--out" if out_override else "output_dir",
                 f"{out} cannot be a directory: a file stands on its path")
        return cls(grid, constants, fld, chi, rho, tuple(transforms), spec, stride, out, tol)


def _transform(name, rho, fld, built, t=0.0):
    """Transform ``name`` of ``rho``; a kind already in ``built`` is reused, and
    ``q_gauge`` and ``q_poincare`` smooth the ``w_gauge`` and ``w_poincare``
    there."""
    if name in built:
        return built[name]
    if name == "w":
        return wigner(rho, threshold=None, time=t)
    if name == "w_gauge":
        return wigner_gauge_stratonovich(rho, fld, t, threshold=None)
    if name == "w_poincare":
        return wigner_gauge_poincare(rho, fld, t, threshold=None)
    if name == "q":
        return husimi_overlap(rho)
    return husimi_from_wigner(_transform("w" + name[1:], rho, fld, built, t))


def _center_slice(psf):
    """A 2-D (q1, p1) slice through the center of the remaining axes."""
    vals = psf.values
    if psf.grid.dim == 1:
        return vals, psf.grid.qaxes[0].points, psf.grid.paxes[0].points
    iy = psf.grid.qaxes[1].n // 2
    ipy = psf.grid.paxes[1].n // 2
    return vals[:, iy, :, ipy], psf.grid.qaxes[0].points, psf.grid.paxes[0].points


# A = 0 reductions (check, canonical kind, gauge-independent kind, tolerance);
# q (overlap) and q_gauge (smoothing) are different routes
_REDUCTIONS = (("wg_equals_w", "w", "w_gauge", "reduction"),
               ("wp_equals_w", "w", "w_poincare", "reduction"),
               ("qg_equals_q", "q", "q_gauge", "normalization"))
# gauge-independent kinds compared with the gauge-rotated twin, and their check prefixes
_TWINS = {"w_gauge": "wg", "q_gauge": "qg", "w_poincare": "wp", "q_poincare": "qp"}


def run_scenario(cfg: ScenarioConfig) -> dict:
    start = time.time()
    checks = {}
    artifacts = []

    def check(name, value, tol):
        checks[name] = {"value": float(value), "tolerance": float(tol),
                        "pass": bool(value <= tol)}

    def save(name, values, grid, **sidecar):
        save_field(cfg.output_dir / name, values, {**sidecar, **grid_metadata(grid)})
        artifacts.extend([f"{name}.bin", f"{name}.json"])

    def gap(a, b):
        return max_abs_diff(a.values, b.values)

    rho, spec = cfg.rho, cfg.evolution
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    fields = {}
    for name in cfg.transforms:
        fields[name] = _transform(name, rho, cfg.field, fields)
    for name, psf in fields.items():
        check(f"{name}_normalization_err", abs(psf.integrate() - rho.trace()),
              cfg.tolerances["normalization"])
        check(f"{name}_reality_err", psf.imag_max, cfg.tolerances["reality"])
        save(name, psf.values, psf.grid, kind=psf.kind, field_tag=psf.field_tag, time=psf.time)
        slice2d, xs, ps = _center_slice(psf)
        export_csv(cfg.output_dir / f"{name}.csv", slice2d, [xs, ps])
        artifacts.append(f"{name}.csv")

    if cfg.field.is_zero_vector:
        for short, a, b, tol in _REDUCTIONS:
            if a in fields and b in fields:
                check(f"{short}_max_err", gap(fields[a], fields[b]), cfg.tolerances[tol])

    if cfg.chi is not None:
        gauged = cfg.field.gauged(cfg.chi, cfg.constants)
        rho2 = gauge_rotate(rho, cfg.chi, +1)
        twin = {}
        for name, short in _TWINS.items():
            if name in fields:
                twin[name] = _transform(name, rho2, gauged, twin)
                check(f"{short}_gauge_invariance_max_err", gap(fields[name], twin[name]),
                      cfg.tolerances["gauge_invariance"])

    if spec is not None:
        if spec.propagator.startswith("schrodinger"):
            state, kind, prefix, final = rho.components[0][1], "wavefunction", "psi", "psi_final"
        else:
            start_kind = "q_gauge" if spec.propagator == "husimi_gauge" else "w_gauge"
            # the transforms above were taken at t = 0
            state = _transform(start_kind, rho, cfg.field, fields if spec.t0 == 0 else {},
                               spec.t0)
            kind, prefix, final = state.kind, "evolved", "evolved"
        # cut the interval every snapshot_stride steps; dynamics.evolve decides
        # how each cut is reached
        times, step = [spec.t0], cfg.snapshot_stride * spec.dt
        while step > 0 and times[-1] + step < spec.t_final - 1e-12:
            times.append(times[-1] + step)
        times = times[1:] + [spec.t_final]
        names = [f"{prefix}_{i:04d}" for i in range(1, len(times))] + [final]
        # each cut is saved as it arrives, so one state is held at a time
        for name, t1, saved in zip(names, times, evolve(state, spec, times)):
            save(name, saved.values, saved.grid, kind=kind, time=t1)
        if kind == "wavefunction":
            check("evolution_norm_err", abs(saved.norm() - 1.0), 1e-10)
        else:
            check("evolution_mass_err", abs(saved.integrate() - state.integrate()),
                  max(1e-7 * max(spec.t_final - spec.t0, 1.0), cfg.tolerances["normalization"]))

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
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        # ValueError: json.JSONDecodeError, or UnicodeDecodeError for a file not in UTF-8
        print(f"error: cannot read config {args.config} as UTF-8 JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = ScenarioConfig.from_dict(raw, out_override=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(cfg)
    except PropagatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    try:
        # every read of the report's shape is here, so that a file that is not
        # a run report (no JSON object, no checks table) exits 2
        report = json.loads(report_path.read_text(encoding="utf-8"))
        rows = [(name, float(c["value"]), float(c["tolerance"]), "pass" if c["pass"] else "FAIL")
                for name, c in sorted(report["checks"].items())]
        missing = [a for a in report.get("artifacts", []) if not (out / a).exists()]
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        print(f"error: {report_path} is not a run report ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 2
    if missing:
        print("error: missing artifact files: " + ", ".join(missing), file=sys.stderr)
        return 2
    header = f"{'check':44s} {'value':>12s} {'tolerance':>12s} {'status':>8s}"
    print(header)
    print("-" * len(header))
    for name, value, tolerance, status in rows:
        print(f"{name:44s} {value:12.3e} {tolerance:12.1e} {status:>8s}")
    print(f"runtime: {report.get('runtime_seconds', '?')}s; "
          f"all_passed: {report.get('all_passed')}")
    return 0 if report.get("all_passed") else 1


def _cmd_selftest(args) -> int:
    from .acceptance import run_acceptance
    results = run_acceptance()
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gipsp",
        description="Gauge-independent phase-space distributions: transforms, "
                    "reconstruction, and dynamics driven by JSON scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to the JSON scenario")
    p_run.add_argument("--out", help="override the output directory")

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
