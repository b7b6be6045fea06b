"""The lateral-Fourier block factor of flat films against the dense path.

A laterally uniform field factors its stiffness one wavenumber at a time
(``ElasticField.stiffness_blocks`` and ``LateralCholesky``).  The dense
assembly and Cholesky factor stay the reference: a twin of the same field
with its blocks withheld takes the dense path, and every quantity read off
the factor must agree with it.
"""

import numpy as np
import pytest

import filmstab.elasticity as elasticity
from filmstab.anisotropy import IsotropicDensity
from filmstab.elasticity import (
    BlockCholesky,
    ElasticField,
    LateralCholesky,
    LinearDensity,
    MismatchDatum,
    NonlinearDensity,
    build_grid,
    solve_critical_point,
)
from filmstab.flat import FlatFilm, critical_thickness, flat_field, stability_of_thickness
from filmstab.geometry import Profile
from filmstab.stability import StabilityProblem, cosine_mode, fd_oracle_second_variation


def dense_twin(field: ElasticField) -> ElasticField:
    """The same field on its own grid, with its lateral blocks withheld: it takes the dense path."""
    grid = build_grid(field.grid.profile, field.grid.ny)
    twin = ElasticField(grid, field.datum, field.density, field.p)
    twin._stiffness["blocks"] = None
    return twin


def refuse_assembly(monkeypatch, grid) -> None:
    """Make ``assemble_hessian`` fail on ``grid``, before it allocates the matrix."""
    assemble = elasticity.assemble_hessian

    def guarded(on, coefficients, **kwargs):
        assert on is not grid, "the block path assembled a stiffness"
        return assemble(on, coefficients, **kwargs)

    monkeypatch.setattr(elasticity, "assemble_hessian", guarded)


def density_of(kind: str, dim: int):
    if kind == "linear":
        return LinearDensity.isotropic(dim, 2.0, 1.0)
    return NonlinearDensity(dim, 2.0, 1.0)


def rel_err(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / np.abs(b).max())


# n = 10 and 20 have the prime factor 5, where the FFT of a constant carries round-off
GRIDS = [(2, 16, 8), (2, 48, 32), (3, 8, 6), (2, 10, 6), (2, 20, 8), (3, 10, 6)]


@pytest.mark.parametrize("width", [1.0, 3.0], ids=["width-1", "cube-cell"])
@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("dim, n, ny", GRIDS, ids=[f"{d}D-{n}x{ny}" for d, n, ny in GRIDS])
def test_block_factor_matches_the_dense_path(monkeypatch, dim, n, ny, kind, width):
    density = density_of(kind, dim)
    datum = MismatchDatum.from_misfit(0.05, dim, kind)
    field = flat_field(density, datum, 3.0, n, ny, width=width)
    dense = dense_twin(field)
    # the flat film never assembles its stiffness
    refuse_assembly(monkeypatch, field.grid)
    assert isinstance(field.stiffness_cho, LateralCholesky)
    assert isinstance(dense.stiffness_cho, BlockCholesky)

    rng = np.random.default_rng(7)
    nd = dense.stiffness.shape[0]
    for b in (rng.standard_normal(nd), rng.standard_normal((nd, 3))):
        x = field.stiffness_cho.solve(b)
        assert x.shape == b.shape
        assert rel_err(x, dense.stiffness_cho.solve(b)) <= 1e-10

    psi = IsotropicDensity(dim)
    blocks, ref = StabilityProblem(field, psi), StabilityProblem(dense, psi)
    assert blocks.c0 == pytest.approx(ref.c0, rel=1e-10)
    assert blocks.lambda1()[0] == pytest.approx(ref.lambda1()[0], rel=1e-10)
    assert blocks.mu1() == pytest.approx(ref.mu1(), rel=1e-10)
    for phi in (cosine_mode(field.grid.profile, 1), rng.standard_normal(field.grid.xshape)):
        assert blocks.full_second_variation(phi) == pytest.approx(
            ref.full_second_variation(phi), rel=1e-10
        )


def gram_blocks(grid, componentwise: bool):
    gram = lambda v: elasticity._h1_gram_matvec(grid, v)
    return elasticity._lateral_blocks(grid, gram, componentwise=componentwise)


@pytest.mark.parametrize("dim, n, ny", [(2, 32, 20), (2, 9, 7), (3, 8, 6), (3, 9, 6)])
def test_componentwise_gram_blocks_match_the_blocks_of_every_unit_vector(dim, n, ny):
    grid = build_grid(Profile.flat(dim, n, 1.3), ny)
    blocks, every = gram_blocks(grid, True), gram_blocks(grid, False)
    assert blocks.shape == every.shape
    assert rel_err(blocks, every) <= 1e-15


@pytest.mark.parametrize("n, ny", [(16, 8), (9, 7)])
def test_componentwise_gram_blocks_are_the_fourier_blocks_of_the_dense_gram(n, ny):
    grid = build_grid(Profile.flat(2, n, 1.3), ny)
    blocks, G = gram_blocks(grid, True), elasticity.h1_gram(grid).full()
    m = G.shape[0] // n
    column = G[:, :m].reshape(n, m, m)
    for k in range(n // 2 + 1):
        dft = np.exp(-2j * np.pi * k * np.arange(n) / n)
        assert rel_err(np.einsum("j,jpq->pq", dft, column), blocks[k]) <= 1e-13


def test_dispatch_rejects_a_curved_profile():
    density = density_of("linear", 2)
    datum = MismatchDatum.from_misfit(0.05, 2, "linear")
    modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 1e-3}]
    field = ElasticField(build_grid(Profile.from_fourier_modes(2, 16, modes), 8), datum, density)
    assert field.stiffness_blocks is None
    assert isinstance(field.stiffness_cho, BlockCholesky)


def test_dispatch_rejects_a_tangent_with_one_perturbed_column():
    density = density_of("nonlinear", 2)
    datum = MismatchDatum.from_misfit(0.05, 2, "nonlinear")
    field = flat_field(density, datum, 1.0, 16, 8)
    assert field.stiffness_blocks is not None
    p = field.p.copy()
    p[3, 2, 0] += 1e-12
    perturbed = ElasticField(field.grid, datum, density, p)
    assert perturbed.stiffness_blocks is None
    assert isinstance(perturbed.stiffness_cho, BlockCholesky)


def test_fd_oracle_takes_the_same_pcg_iterations_with_either_factor(monkeypatch):
    density = density_of("linear", 2)
    datum = MismatchDatum.from_misfit(0.05, 2, "linear")
    field, _ = solve_critical_point(Profile.flat(2, 16, 1.0), datum, density, ny=8)
    dense = dense_twin(field)
    assert isinstance(field.stiffness_cho, LateralCholesky)
    assert isinstance(dense.stiffness_cho, BlockCholesky)

    # each PCG iteration applies the matrix-free tangent once
    applies = []
    original = elasticity._form_apply

    def counting(grid, v, flux):
        applies.append(1)
        return original(grid, v, flux)

    monkeypatch.setattr(elasticity, "_form_apply", counting)
    psi, phi = IsotropicDensity(2), cosine_mode(field.grid.profile, 1)
    values, counts = [], []
    for f in (field, dense):
        applies.clear()
        values.append(fd_oracle_second_variation(f, psi, phi))
        counts.append(len(applies))
    assert counts[0] == counts[1] > 0
    assert values[0] == pytest.approx(values[1], rel=1e-6)


def test_3d_flat_critical_thickness_at_n32(monkeypatch):
    """The 3D flat threshold at n = 32, where a dense stiffness would not fit.

    At ny = 6 the stiffness has 15,360 dofs, ≈1.9 GB per dense copy.  The
    lowest lateral modes are exact on both grids, so the cube cell's
    ``lambda1(1)`` equals the dense-path value at n = 8.
    """
    density = density_of("linear", 3)
    datum = MismatchDatum.from_misfit(0.05, 3, "linear")
    psi = IsotropicDensity(3)
    film = FlatFilm(density, psi, datum, cell="cube", n=32, ny=6)
    refuse_assembly(monkeypatch, film.base.grid)
    assert isinstance(film.base.field.stiffness_cho, LateralCholesky)
    coarse = FlatFilm(density, psi, datum, cell="cube", n=8, ny=6).base
    coarse = StabilityProblem(dense_twin(coarse.field), psi)

    rate, ref = film.lambda1(1.0), coarse.lambda1()[0]
    assert rate == pytest.approx(ref, rel=1e-10)
    bracket = (0.5 / ref, 2.0 / ref)
    found = critical_thickness(film.lambda1, bracket)
    # the dense twin's rate, injected as the cube-cell law
    expected = critical_thickness(lambda d: d * ref, bracket)
    assert found.d_crit == pytest.approx(expected.d_crit, rel=1e-12)
    assert found.lambda_low < 1.0 < found.lambda_high


@pytest.mark.parametrize("d", [1.0, 100.0, 1600.0], ids=["d1", "d100", "d1600"])
# e0 = 2 is the nonlinear stretch A = 3, whose full affine Newton step is inadmissible
@pytest.mark.parametrize(
    "kind, e0", [("linear", 0.05), ("nonlinear", 0.05), ("nonlinear", 2.0)],
    ids=["linear", "nonlinear", "nonlinear-A3"],
)
# n = 14 has the prime factor 7, where an FFT derivative leaves round-off on constant lines
@pytest.mark.parametrize(
    "dim, n, ny", [(2, 16, 8), (2, 14, 8), (3, 8, 6), (3, 14, 6)],
    ids=["2D-16x8", "2D-14x8", "3D-8x6", "3D-14x6"],
)
def test_cold_flat_solve_accepts_the_affine_state_and_keeps_the_block_factor(
    monkeypatch, dim, n, ny, kind, e0, d
):
    # the cold solve starts at the affine equilibrium and accepts it, so the
    # solution's stiffness passes the exact uniformity test
    density = density_of(kind, dim)
    datum = MismatchDatum.from_misfit(e0, dim, kind)
    field, info = solve_critical_point(Profile.flat(dim, n, d), datum, density, ny=ny)
    assert info["iterations"] == 0
    assert info["residual_norm"] <= elasticity.NEWTON_TOL
    assert np.array_equal(field.p, flat_field(density, datum, d, n, ny).p)
    refuse_assembly(monkeypatch, field.grid)
    assert isinstance(field.stiffness_cho, LateralCholesky)
    psi = IsotropicDensity(dim)
    report = StabilityProblem(field, psi).report()
    affine = stability_of_thickness(d, density, psi, datum, n=n, ny=ny)
    assert report.c0 == pytest.approx(affine.c0, rel=1e-12)
    assert report.lambda1 == pytest.approx(affine.lambda1, rel=1e-12)
