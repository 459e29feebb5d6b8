"""Source-scan guards on the package layout."""
import ast
import inspect
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gipsp"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fourier_convention_lives_in_lattice(path):
    # FFT-order wavenumbers are built by lattice.wavenumbers only
    if path.name != "lattice.py":
        assert "fftfreq" not in path.read_text()


def test_dynamics_transforms_on_scipy_fft():
    # the right-hand side, the shears and the split steps all run on
    # scipy.fft, which does the two-axis (q, s) transform faster than numpy.fft
    assert "np.fft" not in (SRC / "dynamics.py").read_text()


def _dynamics_imports():
    imported = []
    for node in ast.walk(ast.parse((SRC / "dynamics.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return imported


def test_dynamics_imports_nothing_from_scipy_ndimage():
    # Liouville transport moves values by Fourier shears; no interpolating
    # spline (scipy.ndimage.map_coordinates) evaluates them at off-grid points
    assert [name for name in _dynamics_imports() if "ndimage" in name] == []


def test_dynamics_imports_nothing_from_scipy_linalg():
    # the exact flow sums the power series of its small generator itself:
    # importing scipy.linalg (for expm) adds about 50 ms to every import of
    # gipsp, which the benchmark reads as setup_s
    assert [name for name in _dynamics_imports() if "linalg" in name] == []


def test_the_turn_of_p_lives_in_one_place():
    # the values and the nodes' starts share one list of shears: no second
    # Boris tracer, and tan(piece/2) is taken by _rotation alone
    tree = ast.parse((SRC / "dynamics.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    tans = [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.tan"]
    assert "_boris_backward" not in defined
    assert len(tans) == 1


def _package_imports(path):
    """The names ``path`` imports from gipsp modules (relative or absolute)."""
    return [alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "gipsp")
            for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_from_dynamics(path):
    # no module imports a private name from another, dynamics or any other:
    # what modules share is public, as the one Gauss-Legendre rule is
    assert [name for name in _package_imports(path) if name.startswith("_")] == []


def test_radial_phase_kinds_rotate_by_the_ray_gauge():
    # the radial-phase kinds take the state into the Poincare gauge with
    # gauge_rotate and GaugeField.ray_gauge: no private rotation, and no
    # second phase built from the radial phase
    tree = ast.parse((SRC / "phase_space.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_ray_rotate" not in defined
    imported = _package_imports(SRC / "phase_space.py")
    assert {"phase_rotate", "radial_phase"}.isdisjoint(imported)
    calls = _calls(SRC / "phase_space.py")
    for name in ("wigner_gauge_poincare", "inverse_wigner_poincare"):
        assert "gauge_rotate" in calls[name] and "field.ray_gauge" in calls[name]


def test_one_exactness_rule_for_gauss_legendre():
    # em_fields.gauss_legendre is the one builder of Gauss-Legendre rules,
    # and the ray integral chi_P is closed-form, with no rule at all
    users = [path.name for path in MODULES if "leggauss" in path.read_text()]
    assert users == ["em_fields.py"]
    from gipsp.em_fields import radial_phase
    assert "gauss_legendre" not in inspect.getsource(radial_phase)


@pytest.mark.parametrize("name", ["is_uniform", "conjugation", "wigner_from_husimi",
                                  "liouville_propagate", "propagate_phase_space",
                                  "schrodinger_propagate", "SmoothingSpec",
                                  "split_compatible"])
def test_cli_leaves_evolution_routing_to_dynamics(name):
    # the flow, the smoothing conjugation and its settings, the snapshot
    # carry and any gauge check are chosen by dynamics alone
    assert name not in (SRC / "cli.py").read_text()


def test_schrodinger_routes_are_named_only_in_the_flow_map():
    # _flow is the one map from a propagator name to its flow
    owners = set()
    for stmt in ast.parse((SRC / "dynamics.py").read_text()).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and node.value in ("schrodinger_dense",
                                                                 "schrodinger_split"):
                owners.add(ast.unparse(stmt.targets[0]) if isinstance(stmt, ast.Assign)
                           else stmt.name)
    assert owners == {"_PROPAGATORS", "_flow"}


def test_reference_scenarios_live_in_acceptance():
    # gipsp.acceptance is the one builder of the scenarios it exports; no test
    # module defines a function of the same name, public or private
    from gipsp.acceptance import __all__ as exported
    defined = {node.name.lstrip("_") for path in TESTS.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint(exported)


def _calls(path):
    """The names each top-level function of ``path`` calls."""
    return {node.name: {ast.unparse(call.func) for call in ast.walk(node)
                        if isinstance(call, ast.Call)}
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def test_gauge_independent_husimi_kinds_are_smoothings():
    # the coherent-state overlap gives the canonical q and the oracle alone:
    # it takes the state only, and each gauge-independent Husimi function
    # smooths its own Wigner kind
    from gipsp.husimi import husimi_overlap
    assert list(inspect.signature(husimi_overlap).parameters) == ["rho"]
    calls = _calls(SRC / "husimi.py")
    assert [name for name, called in calls.items() if "husimi_overlap" in called] == []
    for name in ("husimi_gauge", "husimi_gauge_poincare"):
        assert "husimi_from_wigner" in calls[name]


def test_rk4_step_bound_comes_from_the_evaluator_it_steps():
    # RK4 reads its step bound from the one evaluator it steps with, and the
    # Moyal correction reads the field terms without an evaluator: nothing
    # warns about the step, and no evaluator is built only to read terms
    assert "warnings" not in _dynamics_imports()
    builders = {stmt.name for stmt in ast.parse((SRC / "dynamics.py").read_text()).body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_RhsEvaluator"}
    assert builders == {"liouville_rhs", "moyal_gauge_rhs", "husimi_gauge_rhs", "_rk4_flow"}


def test_lorentz_terms_loop_over_the_field_tensor():
    # the magnetic field is the tensor F_ij of GaugeField.f_polys in every
    # dimension: no out-of-plane scalar, and no momentum pair picked by a
    # literal index in the Lorentz terms, the turn of p or the exact flow
    assert [path.name for path in MODULES if "b_poly" in path.read_text()] == []
    source = (SRC / "dynamics.py").read_text()
    literal = [name for name in ("g[1]", "sm[1]", "u[1]", "5 - axis") if name in source]
    assert literal == []
