"""Benchmark of gipsp: one workload, one process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The process sets itself up (imports, grid, field, the reference
inputs), runs one warm-up op on fixed reference inputs, then runs ops on
fresh seeded inputs back to back until the next one would end after
``--seconds``.  Every op is verified; a failed gate or an exception counts
against ``error_rate`` and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops, wraps the calls between gipsp's modules on the
traced ones and reports per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Fixed before numpy loads: one BLAS thread keeps runs steady on a shared
# host and is within the core count of any machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2          # fresh set-up-only processes before and again after the ops
HOST_PROBE_REPS = 3

LAYERS = ("lattice", "em_fields", "states", "phase_space", "husimi", "dynamics", "cli")

# Per-span statistics reported by the traced run, "<span>.<stat>".
SPAN_STATS = (
    ("phase_space.wigner", ("s", "self_s", "calls", "unique_ratio")),
    ("phase_space.wigner_gauge_stratonovich", ("s", "self_s", "calls", "unique_ratio")),
    ("phase_space.wigner_gauge_poincare", ("s", "self_s", "calls", "unique_ratio")),
    ("phase_space.inverse_wigner", ("s", "self_s", "calls")),
    ("phase_space.inverse_wigner_gauge", ("s", "self_s", "calls")),
    ("phase_space.inverse_wigner_poincare", ("s", "self_s", "calls")),
    ("em_fields.chord_integral", ("s", "calls", "unique_ratio")),
    ("em_fields.radial_phase", ("s", "calls")),
    ("lattice.phase_weighted_dft", ("s", "calls", "bytes")),
    ("lattice.dft_axis", ("s",)),
    ("lattice.boundary_mass", ("s",)),
    ("lattice.save_field", ("s", "bytes")),
    ("lattice.export_csv", ("s", "bytes")),
    ("husimi.husimi_from_wigner", ("s", "calls", "bytes")),
    ("husimi.wigner_from_husimi", ("s", "calls", "errors")),
    ("husimi.husimi_overlap", ("s", "calls")),
    ("husimi.density_from_husimi_gauge", ("s",)),
    ("husimi.density_from_husimi_poincare", ("s",)),
    ("dynamics.propagate_phase_space", ("s", "calls")),
    ("dynamics.rhs_evaluate", ("s",)),
    ("dynamics.liouville_propagate", ("self_s",)),
    ("dynamics.map_coordinates", ("s",)),
    ("states.coherent_state", ("s",)),
    ("states.density_from_pure", ("s",)),
    ("states.mix", ("s",)),
    ("states.gauge_rotate", ("s",)),
    ("states.phase_rotate", ("s",)),
    ("cli.ScenarioConfig.from_dict", ("s",)),
    ("cli.run_scenario", ("self_s",)),
)
# Spans measured under another name: span -> metric prefix and stat.
RENAMED = {
    "dynamics.schrodinger_dense": ("dynamics.schrodinger_propagate", "dense_s"),
    "dynamics.schrodinger_split": ("dynamics.schrodinger_propagate", "split_s"),
}
_UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "B", "errors": "count",
          "unique_ratio": "ratio"}
DIAGNOSTICS = (
    ("process.cpu_s_per_op", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("host_ref_s", "s", "lower"),
)
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB"),
              ("oracle_err", "abs"))


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, stats in SPAN_STATS:
        for stat in stats:
            better = "higher" if stat == "unique_ratio" else "lower"
            out.append((f"{span}.{stat}", _UNITS[stat], better))
        if span == "dynamics.propagate_phase_space":
            out.append((f"{span}.rk4_steps", "count", "lower"))
    for prefix, stat in RENAMED.values():
        out.append((f"{prefix}.{stat}", "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += list(DIAGNOSTICS)
    return out


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def host_probe() -> float:
    """Fixed numpy-only FFT plus matmul loop; gipsp is not involved.

    The 16 MB FFT outgrows a core's L2 like the workloads' arrays do, so the
    probe feels the same shared-cache and memory contention they feel.  It
    runs in a child process (``--host-probe``) so that its arrays do not
    count in the run's ``peak_rss_mb``.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    x = rng.standard_normal((32, 32, 32, 32)) + 0j
    times = []
    for _ in range(HOST_PROBE_REPS + 1):
        t = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(x))
        for _ in range(4):
            a @ a
        times.append(time.perf_counter() - t)
    return _median(times[1:])          # the first repetition warms caches


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info():
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict mode
        return "unknown"
    return f"{deps.get('name')} {deps.get('version')}"


def child(args, flag: str) -> float:
    """Run this script in a fresh process with a hidden ``flag``; its one number."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", flag],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["value"])


def setup_probes(args) -> list[float]:
    """Set-up times of fresh processes that stop right after setting up."""
    return [child(args, "--setup-only") for _ in range(SETUP_PROBES)]


@dataclass
class OpResult:
    traced: bool
    wall: float | None = None       # build + run, seconds; None when the op raised
    cpu: float | None = None
    failed: bool = True
    reason: str = ""
    residual: float = float("nan")


def execute(wl, params, prebuilt, tracer, op_id, known_errors) -> OpResult:
    """One op: build and run (timed), then verify.  Never raises."""
    res = OpResult(traced=tracer is not None)
    inputs = prebuilt
    try:
        scope = tracer.active(op_id) if tracer is not None else contextlib.nullcontext()
        t, c = time.perf_counter(), time.process_time()
        with scope:
            if inputs is None:
                inputs = wl.build(params)
            outputs = wl.run(inputs)
        res.wall, res.cpu = time.perf_counter() - t, time.process_time() - c
        gates, res.residual = wl.verify(inputs, outputs)
        bad = [f"{n}={v:.3e} > {tol:.1e}" for n, v, tol in gates if not v <= tol]
        res.failed = bool(bad)
        res.reason = "; ".join(bad)
    except known_errors as exc:
        res.reason = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a run must go on; the op counts as failed
        traceback.print_exc(file=sys.stderr)
        res.reason = f"{type(exc).__name__}: {exc}"
    finally:
        if inputs is not None:
            wl.release(inputs)
    return res


def bindings_for(modules):
    """Every boundary the traced run wraps, see tracer.discover."""
    from tracer import Binding, discover
    out = discover(modules)
    dyn, cli = modules["dynamics"], modules["cli"]
    extra = [
        (dyn, "map_coordinates", "dynamics.map_coordinates"),
        (dyn, "_dense_propagate", "dynamics.schrodinger_dense"),
        (dyn, "_split_propagate", "dynamics.schrodinger_split"),
        (getattr(dyn, "_RhsEvaluator", None), "evaluate", "dynamics.rhs_evaluate"),
        (getattr(cli, "ScenarioConfig", None), "from_dict", "cli.ScenarioConfig.from_dict"),
    ]
    for owner, attr, span in extra:
        if owner is not None and hasattr(owner, attr):
            out.append(Binding(owner, attr, span))
    return out


def layer_metrics(spans, results, host_ref) -> dict:
    from tracer import summarize
    traced = [r for r in results if r.traced]
    plain = [r for r in results if not r.traced and r.wall is not None]
    n = max(1, len(traced))
    stats = summarize(spans)
    values = {}
    for span, wanted in SPAN_STATS:
        st = stats.get(span)
        for stat in wanted:
            if stat == "unique_ratio":
                values[f"{span}.{stat}"] = st.unique / st.calls if st and st.calls else 1.0
            else:
                values[f"{span}.{stat}"] = getattr(st, stat) / n if st else 0.0
        if span == "dynamics.propagate_phase_space":
            rhs = stats.get("dynamics.rhs_evaluate")
            values[f"{span}.rk4_steps"] = rhs.calls / 4 / n if rhs else 0.0
    for span, (prefix, stat) in RENAMED.items():
        st = stats.get(span)
        values[f"{prefix}.{stat}"] = st.s / n if st else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            st.self_s for name, st in stats.items() if name.startswith(layer + ".")) / n
    traced_wall = [r.wall for r in traced if r.wall is not None]
    top = sum(s.duration for s in spans if s.parent < 0)
    values["process.cpu_s_per_op"] = _median([r.cpu for r in plain])
    values["trace_overhead"] = _median(traced_wall) / _median([r.wall for r in plain]) - 1.0
    values["unattributed_share"] = 1.0 - top / sum(traced_wall) if traced_wall else 1.0
    values["host_ref_s"] = host_ref
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--host-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.host_probe:
        print(json.dumps({"value": host_probe()}))
        return 0

    if not (ROOT / "src" / "gipsp").is_dir():
        print(f"error: no gipsp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](ROOT)
    oracle_inputs = wl.build(wl.oracle_params())
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        wl.release(oracle_inputs)
        print(json.dumps({"value": own_setup}))
        return 0

    import importlib

    from tracer import Tracer, assert_untraced
    modules = {name: importlib.import_module(f"gipsp.{name}") for name in LAYERS}
    known_errors = (
        modules["husimi"].DeconvolutionError, modules["lattice"].BoundaryMassError,
        modules["dynamics"].PropagatorError, modules["phase_space"].GaugeTagError)
    bindings = bindings_for(modules)
    assert_untraced(bindings)
    setups = [own_setup] + setup_probes(args)
    host_ref = [child(args, "--host-probe")]

    tracer = Tracer(bindings, fingerprinted=frozenset({
        "phase_space.wigner", "phase_space.wigner_gauge_stratonovich",
        "phase_space.wigner_gauge_poincare", "em_fields.chord_integral"}))
    warm = execute(wl, None, oracle_inputs, None, -1, known_errors)
    results = []
    rng = np.random.default_rng(args.seed)
    min_ops = 2 if args.trace else 1
    start = time.perf_counter()
    while True:
        times = [r.wall for r in results if r.wall is not None] or [warm.wall or 0.0]
        if len(results) >= min_ops and \
                time.perf_counter() - start + _median(times) > args.seconds:
            break
        traced = bool(args.trace) and len(results) % 2 == 1
        results.append(execute(wl, wl.draw(rng), None, tracer if traced else None,
                               len(results), known_errors))
        assert_untraced(bindings)
    host_ref.append(child(args, "--host-probe"))
    setups += setup_probes(args)

    everything = [warm] + results
    failed = sum(r.failed for r in everything)
    plain = [r.wall for r in results if not r.traced and r.wall is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {"setup_s": _median(setups), "op_s_p50": _median(plain),
           "peak_rss_mb": peak_rss_mb, "oracle_err": warm.residual}

    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"setup_s      {e2e['setup_s']:.4f} s   median of {len(setups)} set-ups "
          f"{[round(s, 4) for s in setups]}")
    print(f"op_s_p50     {e2e['op_s_p50']:.4f} s   n={len(plain)} untraced warm ops; "
          f"warm-up {warm.wall or float('nan'):.4f} s excluded; "
          + tail_note(plain))
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"oracle_err   {warm.residual:.6e} abs   (fixed reference inputs)")
    print(f"error_rate   {failed / len(everything):.4f} ratio   ({failed}/{len(everything)} "
          "ops failed)")
    for i, r in enumerate(everything):
        if r.failed:
            print(f"  op {i - 1} failed: {r.reason}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "grids": wl.grids,
        "ops": {"warm_up": 1, "measured": len(results),
                "traced": sum(r.traced for r in results), "failed": failed},
        "op_wall_s": [r.wall for r in results], "op_cpu_s": [r.cpu for r in results],
        "warm_up_s": warm.wall,
        "host_ref_s": host_ref, "setup_s": setups,
    }
    print("record " + json.dumps(record))

    if args.trace:
        metrics = layer_metrics(tracer.spans, results, _median(host_ref))
        units = {name: unit for name, unit, _ in per_layer_specs()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{wl.name}-seed{args.seed}.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]))
        for name, value in metrics.items():
            print(f"  {name:52s} {value:.6g} {units[name]}")
    else:
        metrics = e2e
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(everything), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def tail_note(samples) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {q:.4f} s"
    return "no tail percentile (fewer than ten samples beyond p90)"


if __name__ == "__main__":
    sys.exit(main())
