"""The one lateral derivative: the dense Fourier differentiation matrix.

``fourier_diff_matrix`` is the FFT derivative of the identity.  Each
``Profile`` builds it once, and every lateral derivative of the package
applies it, through ``Profile.lateral_derivative`` to the samples minus each
line's first value, or as the grid's ``Lx``.  The FFT route with its
constant-line mask lives on in ``oracles.fft_derivative`` as the reference.
"""

import json

import numpy as np
import pytest

import filmstab
from filmstab.cli import main
from filmstab.geometry import Profile, build_grid
from filmstab.spectral import fourier_diff_matrix, fourier_nodes
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
        d = np.moveaxis(Profile.flat(dim, n, 1.0, width=1.7).lateral_derivative(values, axis), axis, 0)
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
    assert np.abs(Profile.flat(2, n, 1.0, width).lateral_derivative(f) - df).max() <= 1e-12 * np.abs(df).max()
    # the same lines along the second axis of a 2D array, each shifted by a constant
    shifts = rng.standard_normal((3, 1))
    d2 = Profile.flat(3, n, 1.0, width).lateral_derivative(f + shifts, 1)
    assert np.abs(d2 - df).max() <= 1e-12 * np.abs(df).max()


@pytest.mark.parametrize("dim, n, ny", [(2, 24, 12), (3, 10, 6)])
def test_grid_gradient_matches_the_fft_gradient_on_a_curved_film(dim, n, ny):
    grid = build_grid(Profile.from_fourier_modes(dim, n, CURVED_MODES[dim]), ny)
    assert np.abs(grid.slope).max() > 0.01
    u = np.random.default_rng(dim).standard_normal(grid.xshape + (ny, dim))
    g, ref = grid.gradient(u), fft_gradient(grid, u)
    assert g.shape == ref.shape == u.shape + (dim,)
    assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_profile_rejects_a_width_that_is_not_finite_and_positive(width):
    with pytest.raises(ValueError, match="cell width must be finite and positive"):
        Profile(np.ones(8), width=width)


@pytest.mark.parametrize("dim, n", [(2, 14), (3, 9)])
def test_profile_matrix_is_read_only_and_the_spectral_matrix_bit_for_bit(dim, n):
    profile = Profile.flat(dim, n, 1.0, width=1.7)
    D = profile.diff_matrix
    assert D is profile.diff_matrix
    assert np.array_equal(D, fourier_diff_matrix(n, 1.7))
    assert not D.flags.writeable


def _count_matrix_builds(monkeypatch) -> tuple:
    """Counts every ``fourier_diff_matrix`` call in the package, and tracks the profiles made."""
    builds, profiles = [], []

    def counted(n, width=1.0):
        builds.append((n, width))
        return fourier_diff_matrix(n, width)

    for module in vars(filmstab).values():
        if getattr(module, "fourier_diff_matrix", None) is fourier_diff_matrix:
            monkeypatch.setattr(module, "fourier_diff_matrix", counted)
    init = Profile.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        profiles.append(self)

    monkeypatch.setattr(Profile, "__init__", tracked)
    return builds, profiles


@pytest.mark.parametrize("dim, n, ny", [(2, 24, 12), (3, 10, 6)])
def test_a_grid_build_makes_one_matrix(monkeypatch, dim, n, ny):
    builds, _ = _count_matrix_builds(monkeypatch)
    grid = build_grid(Profile.from_fourier_modes(dim, n, CURVED_MODES[dim]), ny)
    grid.gradient(np.ones(grid.xshape + (ny, dim)))
    assert builds == [(n, 1.0)]
    Lx, _, _ = grid.assembly_operators()
    D = grid.profile.diff_matrix
    if dim == 2:
        assert Lx[0] is D
    else:
        assert np.array_equal(Lx[0], np.kron(D, np.eye(n))) and np.array_equal(Lx[1], np.kron(np.eye(n), D))


def test_a_stability_run_builds_one_matrix_per_profile_it_differentiates(monkeypatch, tmp_path):
    builds, profiles = _count_matrix_builds(monkeypatch)
    modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.05}]
    cfg = {
        "geometry": {"dim": 2, "n": 16, "ny": 8, "profile": {"kind": "fourier", "modes": modes}},
        "material": {"kind": "linear", "lam": 2.0, "mu": 1.0},
        "anisotropy": {"kind": "isotropic"},
        "mismatch": {"e0": 0.05},
        "analysis": {"max_mode": 2},
    }
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert main(["stability", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]) == 0
    differentiated = [p for p in profiles if "diff_matrix" in vars(p)]
    assert len(differentiated) >= 1
    assert len(builds) == len(differentiated)
