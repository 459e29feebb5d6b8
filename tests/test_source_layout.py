"""Source-scan guards on the package layout."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gipsp"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fourier_convention_lives_in_lattice(path):
    # FFT-order wavenumbers are built by lattice.wavenumbers only
    if path.name != "lattice.py":
        assert "fftfreq" not in path.read_text()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_from_dynamics(path):
    tree = ast.parse(path.read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("dynamics", "gipsp.dynamics")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("name", ["is_uniform", "conjugation", "wigner_from_husimi",
                                  "liouville_propagate", "propagate_phase_space",
                                  "schrodinger_propagate"])
def test_cli_leaves_evolution_routing_to_dynamics(name):
    # the flow, the smoothing conjugation and the snapshot carry are chosen
    # by dynamics.evolve alone
    assert name not in (SRC / "cli.py").read_text()
