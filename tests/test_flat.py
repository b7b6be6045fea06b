"""Tests for flat configurations and the thickness threshold."""

import csv
import functools
import itertools

import numpy as np
import pytest

from filmstab.anisotropy import IsotropicDensity, ShiftedFacetDensity
from filmstab.elasticity import (
    MismatchDatum,
    NonlinearDensity,
    _affine_gradient,
    elastic_density_from_config,
    solve_affine,
    solve_critical_point,
)
from filmstab.flat import (
    BracketError,
    FlatFilm,
    critical_thickness,
    crystalline_epsilon0,
    crystalline_sweep,
    flat_field,
    lambda1_of_thickness,
    stability_of_thickness,
    threshold_rows,
    write_crystalline_csv,
    write_threshold_csv,
)
from filmstab.geometry import Profile
from filmstab.stability import StabilityProblem
from diagnostics import scaling_law_check
from oracles import two_term_second_variation

LAM, MU = 2.0, 1.0
# the grid of the golden values
N, NY = 32, 20


@functools.lru_cache(maxsize=None)
def linear_density():
    return elastic_density_from_config({"kind": "linear", "lam": LAM, "mu": MU}, 2)


@functools.lru_cache(maxsize=None)
def nonlinear_density():
    return elastic_density_from_config({"kind": "nonlinear", "lam": LAM, "mu": MU}, 2)


def benchmark_datum(e0=0.05):
    return MismatchDatum(np.array([[e0]]), 2)


def benchmark_film(e0=0.05, *, cell="cube", n=N, ny=NY):
    return FlatFilm(linear_density(), PSI, benchmark_datum(e0), cell=cell, n=n, ny=ny)


PSI = IsotropicDensity(2)

# frozen after the first verified run of the cube-cell bisection at n=32, ny=20
GOLDEN_D_CRIT = 419.15283203125
# largest correction eigenvalue of the unit-thickness benchmark at n=32, ny=20
GOLDEN_LAMBDA_UNIT = 0.002386654364870762


# -- affine solve ----------------------------------------------------------------


def test_solve_affine_linear_benchmark():
    b = solve_affine(linear_density(), benchmark_datum())
    # plane strain: the vertical contraction is -e0 * lam / (lam + 2 mu)
    expected = -0.05 * LAM / (LAM + 2.0 * MU)
    assert b == pytest.approx([0.0, expected], abs=1e-14)
    M = _affine_gradient(benchmark_datum(), b)
    assert np.linalg.det(np.eye(2) + M) > 0.0
    assert M[0, 0] == 0.05 and M[1, 0] == 0.0
    assert np.abs(linear_density().stress(M)[:, 1]).max() < 1e-14


def test_solve_affine_nonlinear_identity():
    datum = MismatchDatum(np.array([[1.0]]), 2)
    b = solve_affine(nonlinear_density(), datum)
    assert b == pytest.approx([0.0, 1.0], abs=1e-13)
    M = _affine_gradient(datum, b)
    assert np.abs(nonlinear_density().stress(M)[:, 1]).max() < 1e-13
    assert nonlinear_density().value(M) == pytest.approx(0.0, abs=1e-14)


def test_solve_affine_nonlinear_stretch_at_any_moduli():
    # Newton on the traction steps out of det > 0 at A = 3 and stalls at A = 4
    # with lam = 10, even halved; at moduli 1e9 its rounding floor is ~1e-7
    cases = [(2, 2.0, 1.0, 1.1), (2, 2.0, 1.0, 3.0), (2, 10.0, 1.0, 4.0),
             (3, 10.0, 1.0, 10.0), (3, 1e9, 1e9, 1.05)]
    for dim, lam, mu, A in cases:
        density = elastic_density_from_config({"kind": "nonlinear", "lam": lam, "mu": mu}, dim)
        datum = MismatchDatum(A * np.eye(dim - 1), dim)
        b = solve_affine(density, datum)
        assert np.all(b[:-1] == 0.0)
        assert 0.0 < b[-1] < 1.0  # lateral stretch contracts the film vertically
        assert np.abs(density.stress(_affine_gradient(datum, b))[:, -1]).max() < 1e-13 * (lam + mu)
    with pytest.raises(ValueError, match="det A > 0"):
        solve_affine(nonlinear_density(), MismatchDatum(np.array([[-0.5]]), 2))


def test_solve_affine_slope_is_at_rounding_level_at_extreme_moduli():
    # g(s) = mu (e^2s - 1) + lam (s + log det A) at s = log beta, against its
    # own terms; e^2s - 1 rounded to zero near s = 0 once kept Newton stepping
    # forever when lam is tiny against mu
    eps = np.finfo(float).eps
    moduli = [10.0**k for k in range(-300, 301, 25)]
    for dim, e0 in [(2, 0.05), (3, 0.05), (2, -0.5), (3, 9.0)]:
        datum = MismatchDatum.from_misfit(e0, dim, "nonlinear")
        log_det_A = np.log(np.linalg.det(datum.A))
        for lam, mu in itertools.product(moduli, moduli):
            b = solve_affine(NonlinearDensity(dim, lam, mu), datum)
            s = np.log(b[-1])
            g = mu * np.expm1(2.0 * s) + lam * (s + log_det_A)
            terms = mu * np.exp(2.0 * s) + mu + lam * abs(s) + lam * abs(log_det_A)
            assert abs(g) <= 4.0 * eps * terms, (dim, e0, lam, mu)


def test_solve_affine_newton_that_does_not_end_is_named(monkeypatch):
    import filmstab.elasticity as elasticity

    monkeypatch.setattr(elasticity, "_AFFINE_MAX_STEPS", 1)
    datum = MismatchDatum.from_misfit(1.0, 3, "nonlinear")
    with pytest.raises(ValueError, match="the affine slope's Newton iterates still decrease after 1 steps"):
        solve_affine(NonlinearDensity(3, 10.0, 1.0), datum)


def test_solve_affine_rejects_substrate_modes():
    datum = MismatchDatum(np.array([[0.05]]), 2, modes=[{"component": 0, "mode": 1, "amplitude": 0.1}])
    with pytest.raises(ValueError, match="laterally uniform"):
        solve_affine(linear_density(), datum)


def test_flat_field_rejects_orientation_reversing_linear_slope():
    # e0 = -1.5 folds the film: I + gradient = diag(-0.5, 1.75)
    with pytest.raises(ValueError, match="not orientation preserving"):
        flat_field(linear_density(), benchmark_datum(-1.5), 1.0, 16, 12)


def test_cold_solve_of_a_folded_linear_film_starts_at_its_equilibrium():
    # only flat_field refuses the folded slope: the grid solve accepts it at iteration 0
    datum = benchmark_datum(-1.5)
    field, info = solve_critical_point(Profile.flat(2, 16, 1.0), datum, linear_density(), ny=12)
    assert info["iterations"] == 0
    assert np.linalg.det(np.eye(2) + field.gradient()).min() < 0.0


def test_affine_field_matches_grid_solve():
    field = flat_field(linear_density(), benchmark_datum(), 1.0, 32, 20)
    solved, _ = solve_critical_point(Profile.flat(2, 32, 1.0), benchmark_datum(), linear_density(), ny=20)
    assert np.abs(field.total() - solved.total()).max() < 1e-10

    nl_field = flat_field(nonlinear_density(), MismatchDatum(np.array([[1.05]]), 2), 1.0, 16, 12)
    nl_solved, _ = solve_critical_point(
        Profile.flat(2, 16, 1.0), MismatchDatum(np.array([[1.05]]), 2), nonlinear_density(), ny=12
    )
    assert np.abs(nl_field.total() - nl_solved.total()).max() < 1e-10


# -- eigenvalues vs thickness -------------------------------------------------------


def test_lambda1_zero_without_mismatch():
    datum = MismatchDatum(np.array([[0.0]]), 2)
    assert lambda1_of_thickness(1.0, linear_density(), PSI, datum, n=16, ny=10) == 0.0


def test_lambda1_monotone_in_thickness():
    values = [
        lambda1_of_thickness(d, linear_density(), PSI, benchmark_datum(), n=N, ny=NY)
        for d in (0.25, 0.5, 1.0, 2.0)
    ]
    assert values[0] > 0.0
    assert all(a <= b * (1.0 + 1e-12) for a, b in zip(values, values[1:]))
    assert values[2] == pytest.approx(GOLDEN_LAMBDA_UNIT, rel=1e-12)


def test_lambda1_refinement_agreement():
    coarse = lambda1_of_thickness(1.0, linear_density(), PSI, benchmark_datum(), n=24, ny=16)
    fine = lambda1_of_thickness(1.0, linear_density(), PSI, benchmark_datum(), n=48, ny=32)
    assert abs(coarse - fine) < 0.01 * fine


def test_mu1_increases_under_thickness_halving():
    mus = [
        1.0 / lambda1_of_thickness(d, linear_density(), PSI, benchmark_datum(), n=N, ny=NY)
        for d in (1.0, 0.5, 0.25)
    ]
    assert mus[0] < mus[1] < mus[2]


def test_cell_conventions_agree_at_unit_thickness():
    unit = lambda1_of_thickness(1.0, linear_density(), PSI, benchmark_datum(), n=N, ny=NY)
    assert benchmark_film(cell="unit").lambda1(1.0) == unit
    assert benchmark_film(cell="cube").lambda1(1.0) == unit
    with pytest.raises(ValueError, match="cell"):
        benchmark_film(cell="torus")


def test_scaling_law():
    lam_unit, _ = benchmark_film().problem(1.0).lambda1()
    for d in (0.5, 2.0):
        lhs, rhs = scaling_law_check(linear_density(), PSI, benchmark_datum(), d)
        assert lhs >= rhs - 1e-3 * lam_unit
        # the rescaling maps the discrete eigen-systems onto each other exactly
        assert lhs == pytest.approx(rhs, rel=1e-12)


def surface_density(surface, dim):
    return IsotropicDensity(dim) if surface == "isotropic" else ShiftedFacetDensity(0.8, 1.1, 0.3, dim)


GRIDS = [(2, 16, 12), (3, 8, 6)]


@pytest.mark.parametrize("surface", ["isotropic", "shifted-facet"])
@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("dim, n, ny", GRIDS)
def test_scaling_law_is_exact_on_the_grid(dim, n, ny, kind, surface):
    # the cube-cell film reads d * lambda1(1); the per-thickness problems are
    # the oracle
    density = elastic_density_from_config({"kind": kind, "lam": LAM, "mu": MU}, dim)
    datum = MismatchDatum.from_misfit(0.06, dim, kind)
    psi = surface_density(surface, dim)
    film = FlatFilm(density, psi, datum, cell="cube", n=n, ny=ny)
    assert film.lambda1(1.0) > 0.0
    for d in (3.0, 100.0, 1600.0):
        lam, _ = film.problem(d).lambda1()
        assert film.lambda1(d) == pytest.approx(lam, rel=1e-12)


# -- critical thickness ---------------------------------------------------------------


def test_critical_thickness_benchmark():
    res = critical_thickness(benchmark_film().lambda1, (100.0, 1600.0))
    assert res.d_crit == pytest.approx(GOLDEN_D_CRIT, rel=1e-12)
    assert res.lambda_low < 1.0 < res.lambda_high
    assert res.d_high - res.d_low < 1e-3 * res.d_crit
    # the cube-cell eigenvalue scales linearly, so the root sits at 1 / lambda1(1)
    assert res.d_crit * GOLDEN_LAMBDA_UNIT == pytest.approx(1.0, rel=1e-3)


def test_critical_thickness_decreases_with_mismatch():
    strong = critical_thickness(benchmark_film(0.1).lambda1, (25.0, 400.0))
    assert strong.d_crit < GOLDEN_D_CRIT
    # the eigenvalue is quadratic in the mismatch, so doubling it quarters the root
    assert strong.d_crit == pytest.approx(GOLDEN_D_CRIT / 4.0, rel=5e-3)


def test_critical_thickness_bracket_error():
    with pytest.raises(BracketError) as err:
        critical_thickness(benchmark_film().lambda1, (1.0, 2.0))
    assert err.value.lambda_low == pytest.approx(GOLDEN_LAMBDA_UNIT, rel=1e-12)
    assert err.value.lambda_high == pytest.approx(2.0 * GOLDEN_LAMBDA_UNIT, rel=1e-10)
    assert "0.00238" in str(err.value) and "0.00477" in str(err.value)


def test_critical_thickness_bisects_a_closed_form_law():
    # no film: the bisection sees only the thickness law
    root = 419.15

    def law(d):
        return d / root

    res = critical_thickness(law, (100.0, 1600.0), rel_tol=1e-6)
    assert res.d_low < res.d_crit < res.d_high
    assert res.d_low < root < res.d_high
    assert res.d_high - res.d_low < 1e-6 * res.d_crit
    assert res.d_crit == pytest.approx(root, rel=1e-6)
    assert (res.lambda_low, res.lambda_high) == (law(res.d_low), law(res.d_high))
    for bracket in ((500.0, 1600.0), (1.0, 2.0)):
        with pytest.raises(BracketError) as err:
            critical_thickness(law, bracket)
        assert err.value.bracket == bracket
        assert (err.value.lambda_low, err.value.lambda_high) == (law(bracket[0]), law(bracket[1]))


# -- crystalline regularization ---------------------------------------------------------


def test_crystalline_sweep_linear_in_eps():
    rows = crystalline_sweep(
        linear_density(), benchmark_datum(1.2), 1.0, 1.0, 1.0, n=N, ny=NY, max_steps=6
    )
    eps = np.array([r[0] for r in rows])
    lam = np.array([r[1] for r in rows])
    assert np.all(np.diff(eps) < 0.0)
    slope = np.polyfit(np.log(eps), np.log(lam), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_crystalline_epsilon0_and_suppression():
    density, datum = linear_density(), benchmark_datum(1.2)
    # the isotropic density cannot hold this mismatch even at unit thickness
    assert lambda1_of_thickness(1.0, density, PSI, datum, n=N, ny=NY) > 1.0

    eps0 = crystalline_epsilon0(
        crystalline_sweep(density, datum, 1.0, 1.0, 1.0, n=N, ny=NY, max_steps=20)
    )
    assert eps0 == 0.5  # first halving step is already stable
    psi_reg = ShiftedFacetDensity(1.0, 1.0, eps0 / 2.0, 2)
    for d in (1.0, 10.0):
        report = stability_of_thickness(d, density, psi_reg, datum, n=N, ny=32)
        assert report.verdict == "strictly_stable"
        assert report.lambda1 < 1.0


def test_crystalline_sweep_exhaustion():
    # a mismatch so strong that twenty halvings never stabilize would indicate
    # a scaling bug; emulate it with a tiny facet coefficient and few steps
    with pytest.raises(RuntimeError, match="no stable regularization"):
        crystalline_epsilon0(
            crystalline_sweep(
                linear_density(), benchmark_datum(1.2), 1.0, 1e-4, 1e-4, n=N, ny=NY, max_steps=2
            )
        )


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("dim, n, ny", [(2, 16, 12), (3, 8, 6)])
def test_crystalline_sweep_matches_fresh_facet_problems(dim, n, ny, kind):
    # every row is read off the isotropic problem; each must be the largest
    # eigenvalue of a problem built with its own facet density
    density = elastic_density_from_config({"kind": kind, "lam": LAM, "mu": MU}, dim)
    datum = MismatchDatum.from_misfit(0.06, dim, kind)
    a, b = 0.8, 1.1
    rows = crystalline_sweep(density, datum, 1.0, a, b, n=n, ny=ny, max_steps=3)
    field = flat_field(density, datum, 1.0, n, ny)
    for eps, lam in rows:
        fresh, _ = StabilityProblem(field, ShiftedFacetDensity(a, b, eps, dim)).lambda1()
        assert lam == pytest.approx(fresh, rel=1e-12)


def test_two_term_form_matches_generic_assembly():
    field = flat_field(linear_density(), benchmark_datum(1.2), 1.0, 32, 20)
    eps = 0.25  # b / (4 a)
    x = np.arange(32) / 32
    phi = np.cos(2.0 * np.pi * x) + 0.3 * np.sin(6.0 * np.pi * x)
    explicit = two_term_second_variation(field, 1.0, eps, phi)
    generic = StabilityProblem(field, ShiftedFacetDensity(1.0, 1.0, eps, 2)).second_variation(phi)
    assert abs(explicit - generic) < 1e-8 * abs(generic)


# -- CSV emission -----------------------------------------------------------------------


def test_threshold_csv_round_trip(tmp_path):
    rows = threshold_rows(benchmark_film(n=16, ny=12), [200.0, 800.0])
    assert rows[0][1] < 1.0 < rows[1][1]
    assert rows[0][3] == "strictly_stable" and rows[1][3] == "not_strictly_stable"

    path = tmp_path / "threshold.csv"
    write_threshold_csv(path, rows)
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))
    assert read[0] == ["d", "lambda1", "mu1", "verdict"]
    assert float(read[1][1]) == rows[0][1]
    assert read[2][3] == "not_strictly_stable"


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("dim, n, ny", GRIDS)
def test_cube_threshold_rows_match_per_thickness_reports(dim, n, ny, kind):
    density = elastic_density_from_config({"kind": kind, "lam": LAM, "mu": MU}, dim)
    datum = MismatchDatum.from_misfit(0.06, dim, kind)
    film = FlatFilm(density, IsotropicDensity(dim), datum, cell="cube", n=n, ny=ny)
    d_crit = 1.0 / film.problem(1.0).lambda1()[0]
    ds = [f * d_crit for f in (0.25, 0.9, 1.1, 4.0)]
    rows = threshold_rows(film, ds)
    assert [row[3] for row in rows] == ["strictly_stable"] * 2 + ["not_strictly_stable"] * 2
    for (d, lam, mu, verdict), want in zip(rows, ds):
        report = film.problem(want).report()
        assert d == want
        assert lam == pytest.approx(report.lambda1, rel=1e-12)
        assert mu == pytest.approx(report.mu1, rel=1e-12)
        assert verdict == report.verdict


def test_cube_threshold_rows_without_mismatch():
    # no correction at any thickness: mu1 is the +inf sentinel, with its warning
    film = benchmark_film(0.0, n=16, ny=12)
    ds = [1.0, 500.0]
    with pytest.warns(UserWarning, match="elastic correction vanishes"):
        rows = threshold_rows(film, ds)
    assert rows == [(d, 0.0, float("inf"), "strictly_stable") for d in ds]
    for row, d in zip(rows, ds):
        with pytest.warns(UserWarning, match="elastic correction vanishes"):
            report = film.problem(d).report()
        assert row == (d, report.lambda1, report.mu1, report.verdict)


@pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
def test_cube_threshold_rejects_bad_thicknesses(bad):
    film = benchmark_film(n=16, ny=12)
    with pytest.raises(ValueError):
        threshold_rows(film, [200.0, bad])
    if bad > 0.0:
        with pytest.raises(ValueError):
            critical_thickness(film.lambda1, (100.0, bad))


def test_crystalline_csv_round_trip(tmp_path):
    rows = crystalline_sweep(
        linear_density(), benchmark_datum(1.2), 1.0, 1.0, 1.0, n=N, ny=NY, max_steps=3
    )
    path = tmp_path / "crystalline.csv"
    write_crystalline_csv(path, rows)
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))
    assert read[0] == ["epsilon", "lambda1"]
    assert [float(r[0]) for r in read[1:]] == [r[0] for r in rows]
    assert [float(r[1]) for r in read[1:]] == [r[1] for r in rows]
