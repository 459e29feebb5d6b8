import json

import numpy as np
import pytest
from scipy.special import erf

from gipsp import (Axis, Constants, LatticeError, PhaseGrid, QGrid, boundary_mass,
                   dft_axis, export_csv, integrate, load_field, save_field)

K = Constants()


def test_grid_validation():
    with pytest.raises(LatticeError):
        QGrid.regular(1, 100, 0.1)      # not a power of two
    with pytest.raises(LatticeError):
        QGrid.regular(1, 4, 0.1)        # below the minimum size
    with pytest.raises(LatticeError):
        QGrid.regular(3, 16, 0.1)       # unsupported dimension
    with pytest.raises(LatticeError):
        Axis(16, -0.1)


def test_dual_grid_identity():
    g = QGrid.regular(2, 64, 0.21, center=[0.3, -0.2])
    for i, qa in enumerate(g.axes):
        pa = g.dual_axis(i, K.hbar)
        assert qa.spacing * pa.spacing * qa.n == pytest.approx(2 * np.pi * K.hbar, rel=1e-14)
        assert pa.points[pa.n // 2] == 0.0  # momentum axis centered at zero


def test_wigner_grid_layout():
    g = QGrid.regular(1, 64, 0.2, center=0.5)
    pg = PhaseGrid.wigner(g, K.hbar)
    assert pg.qaxes[0].n == 128 and pg.qaxes[0].spacing == pytest.approx(0.1)
    assert pg.paxes[0].n == 64
    # chord-column transform is an exact 2*pi*hbar pair: (2 dq) * dP * n
    assert 2 * 0.2 * pg.paxes[0].spacing * 64 == pytest.approx(2 * np.pi * K.hbar)
    assert pg.source == g


def test_dft_round_trip_random():
    rng = np.random.default_rng(3)
    g = QGrid.regular(2, 32, 0.3, center=[0.2, -0.1])
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    out = f
    for ax in range(2):
        out = dft_axis(out, g, ax, K, "forward")
    for ax in range(2):
        out = dft_axis(out, g, ax, K, "inverse")
    assert np.abs(out - f).max() <= 1e-12


def test_dft_delta_flat_spectrum():
    g = QGrid.regular(1, 64, 0.25)
    f = np.zeros(64, dtype=complex)
    f[32] = 1.0  # delta at the grid center
    spec = dft_axis(f, g, 0, K, "forward")
    mags = np.abs(spec)
    assert mags.std() / mags.mean() <= 1e-12


def test_dft_gaussian_analytic_and_quadrature_oracle():
    g = QGrid.regular(1, 128, 0.15)
    x = g.axes[0].points
    psi = np.exp(-x**2 / (2 * K.hbar)).astype(complex)
    spec = dft_axis(psi, g, 0, K, "forward")
    pax = g.dual_axis(0, K.hbar)
    p = pax.points
    # independent oracle: direct Riemann sum of the defining integral
    kernel = np.exp(-1j * np.outer(p, x) / K.hbar)
    oracle = kernel @ psi * g.axes[0].spacing / np.sqrt(2 * np.pi * K.hbar)
    assert np.abs(spec - oracle).max() <= 1e-12
    # analytic transform: Gaussian again, exp(-p^2 / (2 hbar)) up to normalization
    analytic = np.exp(-p**2 / (2 * K.hbar))
    ratio = spec[64] / analytic[64]
    assert np.abs(spec - ratio * analytic).max() <= 1e-12


def test_parseval():
    rng = np.random.default_rng(11)
    g = QGrid.regular(1, 128, 0.21, center=0.4)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    spec = dft_axis(f, g, 0, K, "forward")
    n_q = integrate(np.abs(f) ** 2, g)
    n_p = np.sum(np.abs(spec) ** 2) * g.dual_axis(0, K.hbar).spacing
    assert abs(n_q - n_p) <= 1e-12 * abs(n_q)


def test_integrate_constant_volume():
    g = QGrid.regular(2, 16, 0.5)
    assert integrate(np.ones(g.shape), g) == pytest.approx(16 * 0.5 * 16 * 0.5)


def test_integrate_gaussian_against_erf():
    g = QGrid.regular(1, 128, 0.15)
    x = g.axes[0].points
    sigma = 0.8
    f = np.exp(-x**2 / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
    a, b = x[0], x[-1] + 0.15  # cell-weighted sum covers [x0, x0 + n dx)
    expected = 0.5 * (erf(b / (np.sqrt(2) * sigma)) - erf(a / (np.sqrt(2) * sigma)))
    assert abs(integrate(f, g) - expected) <= 1e-10


def test_integrate_odd_function():
    g = QGrid.regular(1, 128, 0.15)
    x = g.axes[0].points
    assert abs(integrate(x * np.exp(-x**2), g)) <= 1e-14


def test_boundary_mass():
    g = QGrid.regular(1, 64, 0.3)
    x = g.axes[0].points
    well_inside = np.exp(-x**2)
    assert boundary_mass(well_inside) <= 1e-12
    at_edge = np.exp(-((x - x[-1]) ** 2))
    assert boundary_mass(at_edge) > 0.1
    flat = np.ones(64)
    k = max(1, round(0.1 * 64))
    assert boundary_mass(flat) == pytest.approx(2 * k / 64)


def test_field_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    base = tmp_path / "field"
    save_field(base, arr, {"kind": "test", "note": 1})
    loaded, meta = load_field(base)
    assert np.array_equal(loaded, arr)
    assert meta["kind"] == "test" and meta["dtype"] == "complex128"
    raw = json.loads((tmp_path / "field.json").read_text())
    assert raw["shape"] == [8, 6]


def test_csv_export(tmp_path):
    arr = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "slice.csv"
    export_csv(path, arr, [np.arange(3.0), np.arange(4.0)])
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (12, 3)
    assert rows[5, 2] == arr[1, 1]
