import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gipsp import cli
from gipsp.cli import ConfigError, ScenarioConfig, main
from gipsp.dynamics import PropagatorError, propagate_phase_space
from gipsp.lattice import load_field

REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path, cfg):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _free_cfg(out):
    return {
        "grid": {"dim": 1, "n": 64, "spacing": 0.3},
        "field": {"type": "free", "dim": 1},
        "state": {"type": "coherent", "q0": [0.5], "p0": [-0.3]},
        "transforms": ["w", "w_gauge", "q"],
        "output_dir": str(out),
        "tolerances": {"reduction": 1e-14},
    }


def _gauge_pair_cfg(out):
    # n=16 keeps the CLI tests fast; box truncation then costs a few 1e-3 of
    # normalization, so that tolerance is opened while the gauge-invariance
    # checks stay at the acceptance level (they are exact on any grid)
    return {
        "grid": {"dim": 2, "n": 16, "spacing": 0.55},
        "field": {"type": "uniform_b", "b": 0.5, "gauge": "landau"},
        "chi": {"exponents": [[1, 1, 0]], "coefficients": [0.25]},
        "state": {"type": "coherent", "q0": [0.3, -0.2], "p0": [0.1, 0.0]},
        "transforms": ["w_gauge", "q_gauge", "w_poincare", "q_poincare"],
        "output_dir": str(out),
        "tolerances": {"gauge_invariance": 1e-8, "normalization": 2e-2},
    }


def test_free_packet_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, _free_cfg(out))])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["wg_equals_w_max_err"]["value"] <= 1e-14
    assert report["all_passed"]
    vals, meta = load_field(out / "w")
    assert meta["kind"] == "w" and vals.shape == (128, 64)
    assert (out / "w.csv").exists()


def test_gauge_pair_run(tmp_path):
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, _gauge_pair_cfg(out))])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("wg_gauge_invariance_max_err", "qg_gauge_invariance_max_err",
                "wp_gauge_invariance_max_err", "qp_gauge_invariance_max_err"):
        assert report["checks"][key]["value"] <= 1e-8


def _assert_rejected(tmp_path, capsys, cfg, where):
    """Exit 2 naming ``where``, with nothing written to the output directory."""
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert where in capsys.readouterr().err
    out = Path(cfg["output_dir"])
    assert not out.exists() or not any(out.iterdir())


def test_sample_configs_run(tmp_path):
    paths = sorted((REPO / "configs").glob("*.json"))
    assert len(paths) >= 3
    for path in paths:
        code = main(["run", str(path), "--out", str(tmp_path / path.stem)])
        assert code == 0, path.name


def test_negative_lam_exits_2(tmp_path, capsys):
    cfg = _free_cfg(tmp_path / "out")
    cfg["constants"] = {"lam": -1.0}
    _assert_rejected(tmp_path, capsys, cfg, "constants.lam")


@pytest.mark.parametrize("section, key, value", [
    ("grid", "dim", "two"),
    ("grid", "dim", 1.9),
    ("grid", "n", 64.7),
    ("grid", "n", "sixty-four"),
    ("grid", "n", [64, 32]),
    ("tolerances", "reduction", "tight"),
    ("grid", "spacing", [0.3, 0.3, 0.3]),
    ("grid", "spacing", ["wide"]),
    ("grid", "center", [0.0, 1.0]),
    ("state", "q0", [0.5, 0.1]),
    ("state", "p0", []),
    ("state", "p0", ["fast"]),
    # Python's json reads NaN and Infinity
    ("grid", "spacing", float("inf")),
    ("grid", "spacing", float("nan")),
    ("grid", "center", float("nan")),
    ("state", "q0", [float("nan")]),
])
def test_malformed_number_exits_2(tmp_path, capsys, section, key, value):
    cfg = _free_cfg(tmp_path / "out")
    cfg[section][key] = value
    _assert_rejected(tmp_path, capsys, cfg, f"{section}.{key}")


def _poly_field(exponent=(1, 0), coefficient=0.4, dim=1):
    return {"type": "polynomial", "dim": dim,
            "a": [{"exponents": [list(exponent)], "coefficients": [coefficient]}]}


_MOYAL = {"propagator": "moyal_gauge", "dt": 0.005, "t_final": 0.02}


@pytest.mark.parametrize("section, block, where", [
    ("field", {"type": "uniform_b", "b": "strong"}, "field.b"),
    ("field", {"type": "uniform_e", "e": ["big"]}, "field.e"),
    ("field", {"type": "free", "dim": "one"}, "field.dim"),
    ("field", _poly_field(coefficient="x"), "field.a[0]"),
    ("field", _poly_field(dim=1.9), "field.dim"),
    ("field", _poly_field(exponent=(1.5, 0)), "field.a[0]"),
    ("field", _poly_field(exponent=(1000, 0)), "field.a[0].exponents"),
    ("evolution", {**_MOYAL, "snapshot_stride": "x"}, "evolution.snapshot_stride"),
    ("evolution", {**_MOYAL, "snapshot_stride": 2.5}, "evolution.snapshot_stride"),
    ("evolution", [1, 2], "'evolution'"),
    ("evolution", {**_MOYAL, "dt": "small"}, "evolution.dt"),
    ("field", "uniform_b", "'field'"),
    ("state", ["coherent"], "'state'"),
    ("smoothing", {"lam": 0.5}, "smoothing.lam"),
    ("smoothing", {"band_fraction": 0.2, "reg_floor": 0.0}, "smoothing.band_fraction"),
    ("smoothing", {"max_amplification": 1e6}, "smoothing.max_amplification"),
    ("evolution", {**_MOYAL, "t_final": float("nan")}, "evolution.t_final"),
    ("constants", {"lam": float("nan")}, "constants.lam"),
    ("field", {"type": "uniform_e", "e": [float("nan")]}, "field.e"),
    ("transforms", 5, "'transforms'"),
    ("transforms", "q", "'transforms'"),
    ("tolerances", [1], "'tolerances'"),
    ("tolerances", {"gauge": 1e-8}, "tolerances.gauge"),
    ("constants", [1], "'constants'"),
    ("output_dir", 5, "'output_dir'"),
    # a tag names a gauge and states compare it: NaN != NaN made the one
    # packet of a pure state a mixture of two gauges
    ("field", {**_poly_field(), "tag": float("nan")}, "field.tag"),
    ("chi", {"exponents": [[1, 0]], "coefficients": [0.1], "tag": 5}, "chi.tag"),
    # a key that no parser reads: each ran to exit 0 as if it were absent
    ("evolutoin", _MOYAL, "'evolutoin'"),
    ("evolution", {"propagtor": "moyal_gauge", "dt": 0.005, "t_final": 0.02},
     "evolution.propagtor"),
    ("evolution", {**_MOYAL, "propagator": "rk4"}, "evolution.propagator"),
    ("constants", {"hbar": 1.0, "plank": 1.0}, "constants.plank"),
    ("grid", {"dim": 1, "n": 64, "spacing": 0.3, "centre": 0.0}, "grid.centre"),
    ("field", {"type": "free", "dim": 1, "tag": "none"}, "field.tag"),
    ("field", {**_poly_field(), "b": 0.5}, "field.b"),
    ("field", {"type": "polynomial", "dim": 1,
               "a": [{"exponents": [[1, 0]], "coefficients": [0.4], "tag": "x"}]},
     "field.a[0].tag"),
    ("chi", {"exponents": [[1, 0]], "coefficients": [0.1], "coefficient": [0.2]},
     "chi.coefficient"),
], ids=["b-word", "e-word", "dim-word", "coefficient-word", "dim-fraction", "exponent-fraction",
        "exponent-overflow",
        "stride-word", "stride-fraction", "evolution-list", "dt-word", "field-word", "state-list",
        "smoothing-lam", "smoothing-band_fraction", "smoothing-max_amplification",
        "t_final-nan", "lam-nan", "e-nan", "transforms-number", "transforms-word",
        "tolerances-list", "tolerances-unknown", "constants-list", "output_dir-number",
        "field-tag-nan", "chi-tag-number", "root-key", "evolution-key", "propagator-unknown",
        "constants-key", "grid-key", "free-field-key", "polynomial-field-key", "poly-key",
        "chi-key"])
def test_malformed_block_exits_2(tmp_path, capsys, monkeypatch, section, block, where):
    # every entry of the config is checked before a file is written
    cfg = _free_cfg(tmp_path / "out")
    cfg[section] = block
    if section != "output_dir":
        _assert_rejected(tmp_path, capsys, cfg, where)
        return
    # no path to look in: run from tmp_path, which must hold only the config after
    monkeypatch.chdir(tmp_path)
    assert main(["run", _write(tmp_path, cfg)]) == 2
    assert where in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


_MIXTURE = {"type": "mixture", "components": [
    {"weight": 0.5, "q0": [0.3, -0.2], "p0": [0.1, 0.0]},
    {"weight": 0.5, "q0": [-0.3, 0.2], "p0": [0.0, 0.1]}]}


@pytest.mark.parametrize("state, where", [
    ({"type": "coherent", "q0": [0.3], "p0": [0.1, 0.0]}, "state.q0"),
    ({"type": "coherent", "q0": [0.3, -0.2, 0.1], "p0": [0.1, 0.0]}, "state.q0"),
    ({"type": "coherent", "q0": [0.3, -0.2], "p0": [0.1]}, "state.p0"),
    ({"type": "gaussian", "q0": [0.3, -0.2], "p0": [0.1, 0.0], "widths": [0.5, 0.5, 0.5]},
     "state.widths"),
    ({**_MIXTURE, "components": [{**_MIXTURE["components"][0], "weight": "half"},
                                 _MIXTURE["components"][1]]},
     "state.components[0].weight"),
    ({**_MIXTURE, "components": [_MIXTURE["components"][0],
                                 {**_MIXTURE["components"][1], "q0": [0.2]}]},
     "state.components[1].q0"),
    # a packet needs positive widths, and one the grid holds nothing of has
    # no norm to divide by: each once wrote NaN artifacts
    ({"type": "gaussian", "q0": [0.3, -0.2], "p0": [0.1, 0.0], "widths": [0.0, 0.5]},
     "state.widths"),
    ({"type": "gaussian", "q0": [0.3, -0.2], "p0": [0.1, 0.0], "widths": -0.5},
     "state.widths"),
    ({"type": "coherent", "q0": [1000.0, 0.0], "p0": [0.1, 0.0]}, "state.q0"),
    ({"type": "gaussian", "q0": [0.0, -1000.0], "p0": [0.1, 0.0], "widths": 0.5},
     "state.q0"),
    ({**_MIXTURE, "components": [_MIXTURE["components"][0],
                                 {**_MIXTURE["components"][1], "q0": [0.2, 1000.0]}]},
     "state.components[1].q0"),
    # 1e-200 squared to 0 in the packet's exponent: a divide-by-zero warning,
    # then exit 2 naming state.q0 (under -W error, a traceback)
    ({"type": "gaussian", "q0": [0.3, -0.2], "p0": [0.1, 0.0], "widths": [1e-200, 0.5]},
     "state.widths"),
    # a key no parser reads
    ({"type": "coherent", "q0": [0.3, -0.2], "p0": [0.1, 0.0], "widths": 0.5}, "state.widths"),
    ({**_MIXTURE, "components": [_MIXTURE["components"][0],
                                 {**_MIXTURE["components"][1], "width": 0.5}]},
     "state.components[1].width"),
])
@pytest.mark.filterwarnings("error")
def test_malformed_state_list_exits_2(tmp_path, capsys, state, where):
    cfg = _gauge_pair_cfg(tmp_path / "out")
    cfg["state"] = state
    _assert_rejected(tmp_path, capsys, cfg, where)


def test_mixture_under_schrodinger_exits_2(tmp_path, capsys):
    cfg = _free_cfg(tmp_path / "out")
    cfg["state"] = {"type": "mixture", "components": [
        {"weight": 0.5, "q0": [0.5], "p0": [-0.3]},
        {"weight": 0.5, "q0": [-0.5], "p0": [0.3]}]}
    cfg["evolution"] = {"propagator": "schrodinger_dense", "dt": 0.1, "t_final": 0.2}
    _assert_rejected(tmp_path, capsys, cfg, "'state'")


def test_split_runs_a_gauge_whose_a_i_depends_on_q_i(tmp_path):
    # A = 0.4 x depends on x; the split route gives the dense route's state
    cfg = _free_cfg(tmp_path / "out")
    cfg["field"] = _poly_field()
    finals = []
    for propagator in ("schrodinger_split", "schrodinger_dense"):
        out = tmp_path / propagator
        cfg["evolution"] = {"propagator": propagator, "dt": 0.005, "t_final": 0.02}
        assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        finals.append(load_field(out / "psi_final")[0])
    split, dense = finals
    assert np.abs(split - dense).max() <= 1e-12 * np.abs(dense).max()


def test_dense_above_its_limit_exits_2(tmp_path, capsys):
    # 2-D n=128 has 16384 points, above the dense Hamiltonian's 4096
    cfg = _free_cfg(tmp_path / "out")
    cfg["grid"] = {"dim": 2, "n": 128, "spacing": 0.15}
    cfg["field"] = {"type": "uniform_b", "b": 0.5, "gauge": "landau"}
    cfg["state"] = {"type": "coherent", "q0": [0.5, 0.0], "p0": [-0.3, 0.0]}
    cfg["transforms"] = []
    cfg["evolution"] = {"propagator": "schrodinger_dense", "dt": 0.005, "t_final": 0.02}
    assert main(["run", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "evolution.propagator" in err and "schrodinger_split" in err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_backward_time_span_exits_2(tmp_path, capsys):
    # a final time before t0 is refused, not run as one backward step
    cfg = _free_cfg(tmp_path / "out")
    cfg["field"] = {"type": "polynomial", "dim": 1, "a": [{"exponents": [], "coefficients": []}],
                    "phi": {"exponents": [[3, 0]], "coefficients": [0.1]}}
    cfg["evolution"] = {**_MOYAL, "t0": 0.5, "t_final": 0.2}
    _assert_rejected(tmp_path, capsys, cfg, "evolution.t_final")


def _quadratic_b_cfg(out):
    # B = 1 + 0.3 x^2 leaves moyal_gauge to RK4, whose bound here is 0.013;
    # the coherent state is not resolved to the normalization tolerance on
    # this grid, so no transform is checked
    return {
        "grid": {"dim": 2, "n": 8, "spacing": 0.5},
        "field": {"type": "polynomial", "tag": "b_quadratic",
                  "a": [{"exponents": [], "coefficients": []},
                        {"exponents": [[1, 0, 0], [3, 0, 0]], "coefficients": [1.0, 0.1]}]},
        "state": {"type": "coherent", "q0": [0.0, 0.0], "p0": [0.0, 0.0]},
        "transforms": [],
        "evolution": {"propagator": "moyal_gauge", "dt": 0.2, "t_final": 0.4},
        "output_dir": str(out),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rk4_evolution_takes_steps_within_its_bound(tmp_path):
    # dt 0.2 is 15 times RK4's bound: the steps are cut to the bound
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, _quadratic_b_cfg(out))]) == 0
    assert (out / "evolved.bin").exists()


def test_diverged_evolution_exits_1(tmp_path, capsys, monkeypatch):
    # the divergence guard of the RK4 walk ends the run with a message
    def diverged(*args, **kwargs):
        raise PropagatorError("propagation diverged at step 45 (NaN/Inf)")

    monkeypatch.setattr(cli, "evolve", diverged)
    assert main(["run", _write(tmp_path, _quadratic_b_cfg(tmp_path / "out"))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: propagation diverged") and "Traceback" not in err


def test_gauge_pair_builds_each_chord_wigner_once(tmp_path, monkeypatch):
    calls = []
    inner = cli.wigner_gauge_stratonovich

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "wigner_gauge_stratonovich", counted)
    raw = json.loads((REPO / "configs" / "gauge-pair.json").read_text())
    cli.run_scenario(cli.ScenarioConfig.from_dict(raw, out_override=tmp_path / "out"))
    # one for the state, one for its gauge-rotated twin; q_gauge reuses w_gauge
    assert len(calls) == 2


def test_bad_transform_exits_2(tmp_path, capsys):
    cfg = _free_cfg(tmp_path / "out")
    cfg["transforms"] = ["weyl_symbol"]
    _assert_rejected(tmp_path, capsys, cfg, "transforms")


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def _assert_error_exit(argv, capsys, *words):
    """Exit 2 with one ``error: ...`` line that holds ``words``, no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(word in err for word in words)


def test_config_that_is_a_directory_exits_2(tmp_path, capsys):
    _assert_error_exit(["run", str(tmp_path)], capsys, str(tmp_path))


def test_unreadable_config_exits_2(tmp_path, capsys, monkeypatch):
    # a file the process may not read (mode bits do not stop root, so the
    # refusal is made by the read itself)
    path = _write(tmp_path, _free_cfg(tmp_path / "out"))

    def refused(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refused)
    _assert_error_exit(["run", path], capsys, "Permission denied")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"output_dir": "caf\xe9"}')
    _assert_error_exit(["run", str(path)], capsys, "UTF-8")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [True, False], ids=["out", "output_dir"])
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, flag):
    taken = tmp_path / "taken"
    taken.write_text("a file")
    cfg = _free_cfg(tmp_path / "out" if flag else taken)
    argv = ["run", _write(tmp_path, cfg)] + (["--out", str(taken)] if flag else [])
    _assert_error_exit(argv, capsys, "--out" if flag else "output_dir")
    assert taken.read_text() == "a file" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"artifacts": []}',
                                  '{"checks": {"a": {"value": 1.0}}}'],
                         ids=["invalid-json", "not-an-object", "no-checks", "check-fields"])
def test_report_that_is_not_a_run_report_exits_2(tmp_path, capsys, text):
    (tmp_path / "report.json").write_text(text)
    _assert_error_exit(["report", str(tmp_path)], capsys, "report.json")


def test_determinism(tmp_path):
    cfg = _gauge_pair_cfg(tmp_path / "out1")
    code1 = main(["run", _write(tmp_path, cfg)])
    r1 = json.loads((tmp_path / "out1" / "report.json").read_text())
    cfg["output_dir"] = str(tmp_path / "out2")
    code2 = main(["run", _write(tmp_path, cfg)])
    r2 = json.loads((tmp_path / "out2" / "report.json").read_text())
    assert code1 == code2 == 0
    for key in r1["checks"]:
        assert abs(r1["checks"][key]["value"] - r2["checks"][key]["value"]) <= 1e-13
    # sidecar metadata identical apart from nothing (no timestamps recorded)
    m1 = json.loads((tmp_path / "out1" / "w_gauge.json").read_text())
    m2 = json.loads((tmp_path / "out2" / "w_gauge.json").read_text())
    assert m1 == m2


def test_report_table(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", _write(tmp_path, _gauge_pair_cfg(out))])
    capsys.readouterr()
    code = main(["report", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    for key in ("wg_gauge_invariance_max_err", "qg_gauge_invariance_max_err"):
        assert key in text
    # one row per transform-level check for every requested kind
    for kind in ("w_gauge", "q_gauge", "w_poincare", "q_poincare"):
        assert f"{kind}_normalization_err" in text


def test_report_missing_artifacts(tmp_path, capsys):
    assert main(["report", str(tmp_path / "empty")]) == 2
    assert "expected" in capsys.readouterr().err
    out = tmp_path / "out"
    main(["run", _write(tmp_path, _free_cfg(out))])
    (out / "w.bin").unlink()
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert "w.bin" in capsys.readouterr().err


def test_evolution_scenario(tmp_path):
    cfg = _free_cfg(tmp_path / "out")
    cfg["evolution"] = {"propagator": "schrodinger_dense", "dt": 0.1, "t_final": 0.5}
    code = main(["run", _write(tmp_path, cfg)])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"]["evolution_norm_err"]["pass"]
    assert (tmp_path / "out" / "psi_final.bin").exists()


def _linear_a_cfg(out, transforms, propagator):
    cfg = _free_cfg(out)
    cfg["field"] = {"type": "polynomial", "dim": 1, "tag": "ax_linear",
                    "a": [{"exponents": [[1, 0]], "coefficients": [0.4]}]}
    cfg["transforms"] = transforms
    cfg["evolution"] = {"propagator": propagator, "dt": 0.005, "t_final": 0.02}
    return cfg


def test_moyal_evolution_starts_from_chord_wigner(tmp_path):
    # with a non-zero A the canonical W differs from the chord-phase W; the
    # gauge-independent Moyal equation evolves the latter
    cfg = _linear_a_cfg(tmp_path / "out", ["w"], "moyal_gauge")
    assert main(["run", _write(tmp_path, cfg)]) == 0
    vals, meta = load_field(tmp_path / "out" / "evolved")
    assert meta["kind"] == "w_gauge"
    parsed = cli.ScenarioConfig.from_dict(cfg)
    wg = cli.wigner_gauge_stratonovich(parsed.rho, parsed.field, threshold=None)
    spec = cli.EvolutionSpec(parsed.field, 0.005, 0.02, "moyal_gauge")
    assert np.array_equal(vals, propagate_phase_space(wg, spec).values)


@pytest.mark.parametrize("transforms", [["w"], ["q_gauge"]])
def test_husimi_evolution_scenario(tmp_path, transforms):
    # the stepper deconvolves its start, so it must receive a Husimi function
    cfg = _linear_a_cfg(tmp_path / "out", transforms, "husimi_gauge")
    assert main(["run", _write(tmp_path, cfg)]) == 0
    vals, meta = load_field(tmp_path / "out" / "evolved")
    assert meta["kind"] == "q_gauge"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"]["evolution_mass_err"]["pass"]


def test_liouville_evolution_scenario(tmp_path):
    cfg = _gauge_pair_cfg(tmp_path / "out")
    cfg.pop("chi")
    cfg["transforms"] = ["w_gauge"]
    cfg["evolution"] = {"propagator": "liouville", "dt": 0.05, "t_final": 1.0}
    code = main(["run", _write(tmp_path, cfg)])
    assert code == 0
    assert (tmp_path / "out" / "evolved.bin").exists()


def test_default_field_matches_grid(tmp_path):
    # no field block on a 2-D grid means a 2-D free field
    cfg = _free_cfg(tmp_path / "out")
    cfg.pop("field")
    cfg["grid"] = {"dim": 2, "n": 16, "spacing": 0.55}
    cfg["state"] = {"type": "coherent", "q0": [0.3, -0.2], "p0": [0.1, 0.0]}
    cfg["transforms"] = ["w"]
    cfg["tolerances"] = {"normalization": 2e-2}
    assert main(["run", _write(tmp_path, cfg)]) == 0


def test_phase_space_start_is_taken_at_t0(tmp_path):
    # with a time-dependent A the chord Wigner function at t0 differs from the
    # one the requested transforms were taken at (t = 0)
    evolved = []
    for transforms in (["w_gauge"], ["w"]):
        out = tmp_path / transforms[0]
        cfg = _linear_a_cfg(out, transforms, "moyal_gauge")
        cfg["field"] = _poly_field(exponent=(1, 1))
        cfg["evolution"].update(t0=0.5, t_final=0.52)
        assert main(["run", _write(tmp_path, cfg)]) == 0
        evolved.append((out / "evolved.bin").read_bytes())
    assert evolved[0] == evolved[1]


@pytest.mark.parametrize("propagator, uniform_b", [
    ("liouville", False), ("husimi_gauge", False), ("moyal_gauge", False),
    ("schrodinger_dense", False), ("schrodinger_split", False),
    ("liouville", True), ("husimi_gauge", True), ("moyal_gauge", True),
], ids=["liouville", "husimi_gauge", "moyal_gauge", "schrodinger_dense", "schrodinger_split",
        "liouville-uniform_b_2d", "husimi_gauge-uniform_b_2d", "moyal_gauge-uniform_b_2d"])
def test_snapshots_leave_final_state_unchanged(tmp_path, propagator, uniform_b):
    # a stride of 3 steps of 0.005 writes one snapshot at t = 0.015 before t_final = 0.03
    cfg = _free_cfg(tmp_path / "out")
    cfg["field"] = _poly_field()
    cfg["field"]["phi"] = {"exponents": [[2, 0]], "coefficients": [0.1]}
    if propagator == "schrodinger_split":
        cfg["field"] = {"type": "uniform_e", "e": [0.3]}
    cfg["transforms"] = ["w", "w_gauge", "q_gauge"]
    if uniform_b:
        # the exact flow of a static uniform field takes every snapshot from the start
        cfg = _gauge_pair_cfg(tmp_path / "out")
        cfg.pop("chi")
        cfg["transforms"] = ["w_gauge", "q_gauge"]
    schrodinger = propagator.startswith("schrodinger")
    prefix, final = ("psi", "psi_final") if schrodinger else ("evolved", "evolved")
    finals = []
    for stride in (0, 3):
        out = tmp_path / f"stride{stride}"
        cfg["evolution"] = {"propagator": propagator, "dt": 0.005, "t_final": 0.03,
                            "snapshot_stride": stride}
        assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / f"{prefix}_0001.bin").exists() == (stride > 0)
        finals.append(load_field(out / final)[0])
    _, meta = load_field(tmp_path / "stride3" / f"{prefix}_0001")
    assert meta["time"] == pytest.approx(0.015, abs=1e-15)
    assert not (tmp_path / "stride3" / f"{prefix}_0002.bin").exists()
    plain, cut = finals
    assert np.abs(cut - plain).max() <= 1e-14 * np.abs(plain).max()
    if uniform_b:
        assert np.array_equal(cut, plain)


def test_snapshots_stream_one_cut_at_a_time(tmp_path):
    # each cut is saved as evolve yields it, so forty cuts of a 2-D n=16 run
    # need about the memory of one (all held at once, they took 7.7 times as much)
    cfg = _gauge_pair_cfg(tmp_path / "out")
    cfg.pop("chi")
    cfg["transforms"] = ["w_gauge"]
    peaks = []
    for stride in (0, 1):
        cfg["evolution"] = {"propagator": "liouville", "dt": 0.025, "t_final": 1.0,
                            "snapshot_stride": stride}
        parsed = cli.ScenarioConfig.from_dict(cfg, out_override=tmp_path / f"stride{stride}")
        tracemalloc.start()
        try:
            cli.run_scenario(parsed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "stride1").glob("evolved_*.bin"))) == 39
    assert peaks[1] <= 1.5 * peaks[0]


def test_python_m_gipsp_runs_a_config(tmp_path):
    # ``python -m gipsp`` is the command line from a checkout
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "gipsp", "run", _write(tmp_path, _free_cfg(out))],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (out / "report.json").exists()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run = subprocess.run([sys.executable, "-m", "gipsp", "run", str(bad)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 2


def _paths(node, prefix=()):
    """Every (path, value) inside a parsed config, the root included."""
    yield prefix, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


# wrong types, wrong lengths, non-finite and non-positive numbers, far-off
# packets; sizes stay small, so that every mutant runs in well under a second
_MUTANTS = ["x", None, True, [], {}, [1.0], [1.0, 2.0, 3.0], {"extra": 1}, 0, -1, 0.5, 2,
            1000.0, float("nan"), float("inf"), -float("inf")]


@st.composite
def _mutated(draw, raw):
    """``raw`` with one entry replaced, deleted, or given an extra key."""
    cfg = json.loads(json.dumps(raw))
    path, node = draw(st.sampled_from(list(_paths(cfg))[1:]))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "extra"]))
    if action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "extra" and isinstance(node, dict):
        node["unexpected"] = draw(st.sampled_from(_MUTANTS))
    else:
        parent[path[-1]] = draw(st.sampled_from(_MUTANTS))
    return cfg


def _config(name):
    return json.loads((REPO / "configs" / name).read_text())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_1d_configs_end_in_an_exit_code(tmp_path_factory, data):
    # a mutated shipped config runs to exit 0, 1 or 2 and never to a traceback
    raw = data.draw(st.sampled_from([_config("evolution.json"), _config("free-packet.json")]))
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = ["run", _write(tmp, data.draw(_mutated(raw))), "--out", str(tmp / "out")]
    assert main(argv) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(cfg=_mutated(_config("gauge-pair.json")))
def test_mutated_2d_config_parses_or_names_its_field(cfg):
    # the 2-D n=32 scenario is only parsed: a mutant is built or refused
    try:
        ScenarioConfig.from_dict(cfg, out_override="unwritten")
    except ConfigError as exc:
        assert exc.where
