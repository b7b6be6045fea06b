"""The block-column Cholesky factor of a dense stiffness against LAPACK on the full matrix.

``assemble_hessian`` writes the lower triangle of a stiffness by lateral
block columns (``BlockColumns``), and a field that is not laterally uniform
factors it in place (``BlockCholesky``).  The dense reference assembly and
``scipy.linalg.cho_factor`` stay the reference: the whole matrix that
``BlockColumns.full`` mirrors from the block columns must match the
reference assembly, and every solve against the factor must agree with
LAPACK's on it.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from filmstab.elasticity import (
    BlockCholesky,
    ElasticField,
    LinearDensity,
    MismatchDatum,
    NonlinearDensity,
    assemble_hessian,
)
from filmstab.geometry import Profile, build_grid
from oracles import reference_assemble_hessian

# 48 x 32 fills 12 blocks of 248 dofs; 20 x 12 and the 3D grids end on a
# partial block; the 2D 8 x 6 is smaller than one block
CASES = [
    (2, "linear", 48, 32),
    (2, "nonlinear", 20, 12),
    (3, "linear", 8, 6),
    (3, "nonlinear", 8, 5),
    (2, "linear", 8, 6),
]
IDS = [f"{d}D-{n}x{ny}-{kind}" for d, kind, n, ny in CASES]


def curved_field(dim: int, kind: str, n: int, ny: int) -> ElasticField:
    """A curved film with a smooth non-equilibrium field, so the tangent varies from node to node."""
    if dim == 2:
        modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.06},
                 {"mode": 2, "amplitude": 0.02, "phase": 0.5}]
    else:
        modes = [{"mode": [0, 0], "amplitude": 1.0}, {"mode": [1, 0], "amplitude": 0.05},
                 {"mode": [1, 1], "amplitude": 0.02, "phase": 0.5}]
    grid = build_grid(Profile.from_fourier_modes(dim, n, modes), ny)
    density = LinearDensity.isotropic(dim, 2.0, 1.0) if kind == "linear" else NonlinearDensity(dim, 2.0, 1.0)
    y = grid.y[..., None]
    p = 0.02 * np.arange(1, dim + 1) * y * (y - 0.5 * grid.h[..., None, None])
    return ElasticField(grid, MismatchDatum.from_misfit(0.05, dim, kind), density, p=p)


def rel_err(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("dim, kind, n, ny", CASES, ids=IDS)
def test_full_matrix_mirrors_the_block_columns(dim, kind, n, ny):
    field = curved_field(dim, kind, n, ny)
    Cw = field._weighted_tangent()
    lower = assemble_hessian(field.grid, Cw)
    K = lower.full()
    nd, m = K.shape[0], K.shape[0] // field.grid.nx
    widths = np.diff(lower.starts)
    assert lower.shape == K.shape and lower.starts[-1] == nd
    assert np.all(widths % m == 0) and np.all(widths[:-1] == widths[0])
    if nd <= 256:
        assert len(widths) == 1
    assert K.flags.f_contiguous and np.array_equal(K, K.T)
    for s, e, M in zip(lower.starts, lower.starts[1:], lower.columns):
        assert M.shape == (nd - s, e - s) and M.flags.c_contiguous
        assert np.array_equal(np.tril(M[: e - s]), np.tril(K[s:e, s:e]))
        assert np.array_equal(M[e - s :], K[e:, s:e])
        # full() reads only the lower triangle, as the factor does
        M[: e - s][np.triu_indices(e - s, 1)] = np.nan
    assert np.array_equal(lower.full(), K)
    assert rel_err(K, reference_assemble_hessian(field.grid, Cw)) <= 1e-13


def test_the_test_grids_cover_partial_and_single_blocks():
    widths = {
        (dim, n, ny): np.diff(assemble_hessian(f.grid, f._weighted_tangent()).starts)
        for dim, kind, n, ny in CASES
        for f in [curved_field(dim, kind, n, ny)]
    }
    assert len(widths[(2, 48, 32)]) == 12 and np.all(widths[(2, 48, 32)] == 248)
    assert widths[(2, 20, 12)][-1] < widths[(2, 20, 12)][0]
    assert widths[(3, 8, 6)][-1] < widths[(3, 8, 6)][0]
    assert widths[(3, 8, 5)][-1] < widths[(3, 8, 5)][0]
    assert len(widths[(2, 8, 6)]) == 1


@pytest.mark.parametrize("dim, kind, n, ny", CASES, ids=IDS)
def test_block_factor_solves_agree_with_lapack_on_the_full_matrix(dim, kind, n, ny):
    field = curved_field(dim, kind, n, ny)
    c, lower = cho_factor(field.stiffness.full(), lower=True)
    factor = field.stiffness_cho
    assert isinstance(factor, BlockCholesky)
    rng = np.random.default_rng(11)
    nd = c.shape[0]
    for b in (rng.standard_normal(nd), rng.standard_normal((nd, 3)), np.asfortranarray(rng.standard_normal((nd, 2)))):
        before = b.copy()
        for got, want in [
            (factor.solve(b), cho_solve((c, lower), b)),
            (factor.forward(b), solve_triangular(c, b, lower=True)),
            (factor.backward(b), solve_triangular(c, b, lower=True, trans="T")),
        ]:
            assert got.shape == b.shape
            assert rel_err(got, want) <= 1e-12
        assert np.array_equal(b, before)


def test_factor_of_the_48x32_film_holds_about_half_a_full_matrix():
    field = curved_field(2, "nonlinear", 48, 32)
    nd = field.grid.nx * (field.grid.ny - 1) * 2
    tracemalloc.start()
    try:
        factor = field.stiffness_cho
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(factor, BlockCholesky) and factor.shape == (nd, nd)
    assert sum(L_inv.nbytes + P.nbytes for _, _, L_inv, P in factor.blocks) <= 0.6 * nd * nd * 8
    # everything alive while the factor was built, the factor included, is
    # less than one nd x nd array
    assert peak < nd * nd * 8


def test_a_non_finite_tangent_sample_fails_the_factor_by_name():
    class OneBadSample(LinearDensity):
        def tangent(self, xi):
            C = np.array(super().tangent(xi))
            C[5, 3, 0, 1, 0, 1] = np.inf
            return C

    field = curved_field(2, "linear", 16, 8)
    bad = ElasticField(field.grid, field.datum, OneBadSample(field.density.C), field.p)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        bad.stiffness_cho
