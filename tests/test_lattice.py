import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from gipsp import (Axis, Constants, LatticeError, PhaseGrid, QGrid, boundary_mass,
                   export_csv, integrate, load_field, save_field)
from gipsp.lattice import max_abs_diff, spectral_derivative, wavenumbers
from helpers import phase_weighted_dft

K = Constants()


def _dual(qax):
    """The centered momentum axis FFT-dual to ``qax``."""
    return Axis(qax.n, 2 * np.pi * K.hbar / (qax.n * qax.spacing))


def _dft(values, qax, axis, direction="forward"):
    """Unitary transform along ``axis`` with the kernel exp(-i p q / hbar) from
    ``qax`` to its centered dual, or back when ``direction`` is "inverse"."""
    src, dst, sign = (qax, _dual(qax), -1) if direction == "forward" else (_dual(qax), qax, 1)
    w = src.spacing / np.sqrt(2 * np.pi * K.hbar)
    return w * phase_weighted_dft(values, axis, src.origin, src.spacing, dst.origin,
                                  dst.spacing, K.hbar, sign)


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
        p = K.hbar * wavenumbers(qa, g.dim, i)
        assert p.shape[i] == qa.n and p.size == qa.n
        p = p.ravel()
        assert qa.spacing * p[1] * qa.n == pytest.approx(2 * np.pi * K.hbar, rel=1e-14)
        assert p[0] == 0.0  # FFT order: zero momentum in bin 0
        # the same momenta as the centered dual axis
        assert np.allclose(np.sort(p), _dual(qa).points, rtol=0, atol=1e-12)


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
        out = _dft(out, g.axes[ax], ax, "forward")
    for ax in range(2):
        out = _dft(out, g.axes[ax], ax, "inverse")
    assert np.abs(out - f).max() <= 1e-12


def test_dft_delta_flat_spectrum():
    g = QGrid.regular(1, 64, 0.25)
    f = np.zeros(64, dtype=complex)
    f[32] = 1.0  # delta at the grid center
    spec = _dft(f, g.axes[0], 0)
    mags = np.abs(spec)
    assert mags.std() / mags.mean() <= 1e-12


def test_dft_gaussian_analytic_and_quadrature_oracle():
    g = QGrid.regular(1, 128, 0.15)
    x = g.axes[0].points
    psi = np.exp(-x**2 / (2 * K.hbar)).astype(complex)
    spec = _dft(psi, g.axes[0], 0)
    pax = _dual(g.axes[0])
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
    spec = _dft(f, g.axes[0], 0)
    n_q = integrate(np.abs(f) ** 2, g)
    n_p = np.sum(np.abs(spec) ** 2) * _dual(g.axes[0]).spacing
    assert abs(n_q - n_p) <= 1e-12 * abs(n_q)


_SIZES = st.sampled_from([8, 16, 32, 64, 128, 256])
_SPACINGS = st.floats(0.01, 2.0)
_LAYER = settings(max_examples=30, deadline=None)


@_LAYER
@given(n=_SIZES, spacing=_SPACINGS, axis=st.sampled_from([0, 1]), data=st.data())
def test_spectral_derivative_of_trig_polynomial(n, spacing, axis, data):
    # f = sum_m a_m cos(k_m x + phi_m), k_m = 2 pi m / (n dx), modes below Nyquist;
    # the top mode has amplitude >= 1/2, so max |f'| is of the order of sum |a_m| k_m
    top = data.draw(st.integers(1, n // 2 - 1))
    amps = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=top, max_size=top))
    amps.append(data.draw(st.floats(0.5, 1.0)))
    phases = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=top + 1,
                                max_size=top + 1))
    ax = Axis(n, spacing)
    x = ax.points
    f = np.zeros(n)
    df = np.zeros(n)
    for m, (a, phi) in enumerate(zip(amps, phases)):
        km = 2 * np.pi * m / (n * spacing)
        f += a * np.cos(km * x + phi)
        df -= a * km * np.sin(km * x + phi)
    # the same line three times along the other axis, scaled per line
    scale = np.array([1.0, -2.0, 0.5])
    values = np.multiply.outer(f, scale) if axis == 0 else np.multiply.outer(scale, f)
    exact = np.multiply.outer(df, scale) if axis == 0 else np.multiply.outer(scale, df)
    got = spectral_derivative(values.astype(complex), axis, ax)
    assert np.abs(got - exact).max() <= 1e-10 * np.abs(exact).max()


@_LAYER
@given(n=_SIZES, spacing=_SPACINGS, ndim=st.integers(1, 4), data=st.data())
def test_half_spectrum_wavenumbers(n, spacing, ndim, data):
    axis = data.draw(st.integers(0, ndim - 1))
    ax = Axis(n, spacing)
    full = wavenumbers(ax, ndim, axis)
    half = wavenumbers(ax, ndim, axis, half=True)
    shape = [1] * ndim
    shape[axis] = n // 2 + 1
    assert half.shape == tuple(shape) and full.shape[axis] == n
    assert np.array_equal(half.ravel(), np.abs(full.ravel()[: n // 2 + 1]))


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
    # a signed density (a Wigner function) is gated by its |W|
    signed = np.random.default_rng(3).standard_normal((16, 12, 8))
    for axes in (None, (1, 2)):
        assert boundary_mass(signed, axes) == pytest.approx(
            boundary_mass(np.abs(signed), axes), rel=1e-14, abs=0.0)


def _shell_by_mask(dens, axes):
    """The shell fraction as a full-size mask of the inner points."""
    if dens.sum() <= 0:
        return 0.0
    inner = np.ones(dens.shape, dtype=bool)
    for ax in axes:
        n = dens.shape[ax]
        k = max(1, int(round(0.1 * n)))
        idx = np.arange(n)
        shape = [1] * dens.ndim
        shape[ax] = n
        inner &= ((idx >= k) & (idx < n - k)).reshape(shape)
    return dens[~inner].sum() / dens.sum()


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 24), min_size=1, max_size=4), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_boundary_mass_slabs_match_the_mask(shape, data, seed):
    axes = data.draw(st.none() | st.lists(st.integers(0, len(shape) - 1), unique=True))
    rng = np.random.default_rng(seed)
    # non-negative, with exact zeros, some of them on whole slabs
    dens = rng.random(shape) * (rng.random(shape) < 0.7)
    expected = _shell_by_mask(dens, range(len(shape)) if axes is None else axes)
    assert boundary_mass(dens, axes) == pytest.approx(expected, rel=1e-14, abs=0.0)


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


def _artifact_inputs():
    rng = np.random.default_rng(11)
    real = rng.standard_normal((3, 5)).T   # not C-contiguous
    real[0, 0] = -0.0
    return {"float64": real,
            "complex128": rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)),
            "int": np.arange(15).reshape(5, 3) - 7}


@pytest.mark.parametrize("name", ["float64", "complex128", "int"])
def test_artifacts_keep_their_byte_format(tmp_path, name):
    # .bin is the little-endian float64 or complex128 buffer in C order,
    # .json the indented, sorted sidecar and .csv one "%.18e" row (q, p,
    # real value) per element, q slowest; written here element by element
    arr = _artifact_inputs()[name]
    coords = [np.linspace(-1.0, 1.0, 5), np.linspace(-0.6, 0.6, 3)]
    save_field(tmp_path / "f", arr, {"kind": "w", "time": 0.5})
    export_csv(tmp_path / "f.csv", arr, coords)
    dtype = "complex128" if name == "complex128" else "float64"
    pack = (lambda v: struct.pack("<dd", v.real, v.imag)) if name == "complex128" else (
        lambda v: struct.pack("<d", float(v)))
    assert (tmp_path / "f.bin").read_bytes() == b"".join(pack(v) for row in arr for v in row)
    meta = {"shape": [5, 3], "dtype": dtype, "kind": "w", "time": 0.5}
    assert (tmp_path / "f.json").read_text() == json.dumps(meta, indent=2, sort_keys=True)
    rows = [f"{x:.18e},{y:.18e},{float(arr[i, j].real):.18e}\n"
            for i, x in enumerate(coords[0]) for j, y in enumerate(coords[1])]
    assert (tmp_path / "f.csv").read_text() == "q,p,value\n" + "".join(rows)


@pytest.mark.parametrize("shape", [(37,), (9, 13), (5, 4, 3, 6)])
def test_max_abs_diff_is_bitwise_numpy(shape):
    rng = np.random.default_rng(len(shape))
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    assert max_abs_diff(a, b) == np.abs(a - b).max()
    c = a + 1j * rng.standard_normal(shape)
    assert max_abs_diff(c, b) == np.abs(c - b).max()


@pytest.mark.parametrize("where", [0, 2, -1])
def test_max_abs_diff_keeps_nan(where):
    # a NaN in any leading slice must survive the reduction, or a broken
    # transform would pass a "<= tol" check
    a = np.zeros((5, 4, 3))
    a[where, 1, 2] = np.nan
    assert np.isnan(max_abs_diff(a, np.ones_like(a)))
    assert np.isnan(max_abs_diff(np.ones_like(a), a))
