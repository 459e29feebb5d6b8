"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py -q

The tracer tests use a synthetic module and a fake clock, so their
arithmetic is exact.  The smoke runs start the real benchmark on small runs
(about a minute in total).
"""
import json
import shutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

FAKE_SOURCE = """
def inner(clock):
    clock[0] += 2.0

def outer(clock):
    clock[0] += 1.0
    inner(clock)
    inner(clock)
    clock[0] += 3.0

def boom():
    raise ValueError("boom")

class Maker:
    @classmethod
    def make(cls):
        return cls()
"""


@pytest.fixture
def fake():
    mod = types.ModuleType("fakelayer")
    exec(textwrap.dedent(FAKE_SOURCE), mod.__dict__)
    return mod


def test_self_time_of_nested_calls(fake):
    clock = [0.0]
    t = tracer.Tracer(tracer.discover({"fake": fake}), clock=lambda: clock[0])
    with t.active(op=0):
        fake.outer(clock)
    stats = tracer.summarize(t.spans)
    assert stats["fake.outer"].s == 1.0 + 2 * 2.0 + 3.0
    assert stats["fake.outer"].self_s == 4.0
    assert stats["fake.inner"].calls == 2
    assert stats["fake.inner"].s == stats["fake.inner"].self_s == 4.0
    outer = next(i for i, sp in enumerate(t.spans) if sp.name == "fake.outer")
    assert [sp.parent for sp in t.spans if sp.name == "fake.inner"] == [outer, outer]
    assert {sp.op for sp in t.spans} == {0}


def test_wrappers_restored_after_exception(fake):
    originals = {name: getattr(fake, name) for name in ("inner", "outer", "boom")}
    make = vars(fake.Maker)["make"]
    bindings = tracer.discover({"fake": fake}) + [
        tracer.Binding(fake.Maker, "make", "fake.Maker.make")]
    t = tracer.Tracer(bindings)
    with pytest.raises(ValueError):
        with t.active(op=3):
            assert getattr(fake.boom, "__perfbench_original__", None) is originals["boom"]
            fake.Maker.make()
            fake.boom()
    for name, obj in originals.items():
        assert getattr(fake, name) is obj
    assert vars(fake.Maker)["make"] is make
    tracer.assert_untraced(bindings)
    assert [(sp.name, sp.error) for sp in t.spans] == [
        ("fake.Maker.make", False), ("fake.boom", True)]


def test_assert_untraced_catches_a_leftover_wrapper(fake):
    bindings = tracer.discover({"fake": fake})
    t = tracer.Tracer(bindings)
    t.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.assert_untraced(bindings)
    finally:
        t.restore()
    tracer.assert_untraced(bindings)


def test_fingerprint_tracks_values_not_identity():
    import numpy as np
    a = np.arange(4.0)
    assert tracer.fingerprint((a, 0.0), {}) == tracer.fingerprint((a.copy(), 0.0), {})
    assert tracer.fingerprint((a, 0.0), {}) != tracer.fingerprint((a + 1, 0.0), {})
    assert tracer.fingerprint((a, 0.0), {}) != tracer.fingerprint((a, 0.5), {})


def test_benchmark_json_lists_what_the_runner_reports():
    import run
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.per_layer_specs()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    for w in bench["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def test_smoke_untraced():
    proc = _run("--workload", "reconstruct", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == {"setup_s", "op_s_p50", "peak_rss_mb", "oracle_err"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_gauge_pair_counts():
    proc = _run("--workload", "gauge_pair_2d", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["lattice.phase_weighted_dft.calls"] == 1152
    assert m["em_fields.chord_integral.calls"] == 256
    assert m["phase_space.wigner_gauge_stratonovich.calls"] == 4
    assert m["phase_space.wigner_gauge_stratonovich.unique_ratio"] == 0.5
    assert m["unattributed_share"] < 0.1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "reconstruct", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
