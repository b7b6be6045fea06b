"""The one lateral derivative: the dense Fourier differentiation matrix.

``fourier_diff_matrix`` is the FFT derivative of the identity, and every
lateral derivative of the package applies it to the samples minus each
line's first value.  The FFT route with its constant-line mask lives on in
``oracles.fft_derivative`` as the reference.
"""

import numpy as np
import pytest

from filmstab.geometry import Profile, build_grid
from filmstab.spectral import fourier_derivative, fourier_diff_matrix, fourier_nodes
from oracles import fft_derivative, fft_gradient

CURVED_MODES = {
    2: [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.1}, {"mode": 3, "amplitude": 0.02}],
    3: [
        {"mode": [0, 0], "amplitude": 1.0},
        {"mode": [1, 0], "amplitude": 0.05},
        {"mode": [1, 1], "amplitude": 0.02, "phase": 0.5},
    ],
}


@pytest.mark.parametrize("width", [1.0, 1.7, 300.0])
def test_matrix_is_the_fft_derivative_of_the_identity_bit_for_bit(width):
    for n in range(4, 65):
        assert np.array_equal(fourier_diff_matrix(n, width), fft_derivative(np.eye(n), width, axis=0)), n


@pytest.mark.parametrize("n", [14, 22])
@pytest.mark.parametrize("dim", [2, 3])
def test_lines_constant_along_an_axis_get_exact_zeros(dim, n):
    # a nodal array of a 2D film is (n, ny, m), of a 3D film (n, n, ny, m);
    # along each lateral axis, the lines at even positions of the next axis
    # are made constant and the rest stay random
    rng = np.random.default_rng(n)
    shape = (n,) * (dim - 1) + (6, dim)
    for axis in range(dim - 1):
        values = rng.standard_normal(shape)
        lines = np.moveaxis(values, axis, 0)
        lines[:, ::2] = lines[:1, ::2]
        d = np.moveaxis(fourier_derivative(values, 1.7, axis=axis), axis, 0)
        assert np.all(d[:, ::2] == 0.0)
        assert np.all(np.abs(d[:, 1::2]).max(axis=0) > 0.0)


@pytest.mark.parametrize("n", [14, 22])
@pytest.mark.parametrize("dim, ny", [(2, 8), (3, 6)])
def test_flat_grid_gradient_of_a_laterally_uniform_field_has_exact_lateral_zeros(dim, n, ny):
    grid = build_grid(Profile.flat(dim, n, 1600.0), ny)
    column = np.random.default_rng(1).standard_normal((ny, dim))
    u = np.broadcast_to(column, grid.xshape + (ny, dim)).copy()
    g = grid.gradient(u)
    assert np.all(g[..., : dim - 1] == 0.0)
    assert np.all(g[..., dim - 1] == g.reshape((-1, ny, dim, dim))[0, ..., dim - 1])


@pytest.mark.parametrize("n", [13, 14, 21, 22])
@pytest.mark.parametrize("width", [1.0, 1.7, 300.0])
def test_trigonometric_polynomials_below_half_n_are_differentiated_exactly(n, width):
    rng = np.random.default_rng(n)
    x = fourier_nodes(n, width)
    k = 2.0 * np.pi * np.arange((n - 1) // 2 + 1) / width  # every mode below n/2
    a, b = rng.standard_normal((2, k.size))
    f = np.cos(np.outer(x, k)) @ a + np.sin(np.outer(x, k)) @ b
    df = np.cos(np.outer(x, k)) @ (k * b) - np.sin(np.outer(x, k)) @ (k * a)
    assert np.abs(fourier_derivative(f, width) - df).max() <= 1e-12 * np.abs(df).max()
    # the same lines along the second axis of a 2D array, each shifted by a constant
    shifts = rng.standard_normal((3, 1))
    d2 = fourier_derivative(f + shifts, width, axis=1)
    assert np.abs(d2 - df).max() <= 1e-12 * np.abs(df).max()


@pytest.mark.parametrize("dim, n, ny", [(2, 24, 12), (3, 10, 6)])
def test_grid_gradient_matches_the_fft_gradient_on_a_curved_film(dim, n, ny):
    grid = build_grid(Profile.from_fourier_modes(dim, n, CURVED_MODES[dim]), ny)
    assert np.abs(grid.slope).max() > 0.01
    u = np.random.default_rng(dim).standard_normal(grid.xshape + (ny, dim))
    g, ref = grid.gradient(u), fft_gradient(grid, u)
    assert g.shape == ref.shape == u.shape + (dim,)
    assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
