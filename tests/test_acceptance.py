"""Acceptance gate: the nine shipped guarantees, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` summary line (shown
with ``pytest -s``, or in the captured output on failure) and then enforces
the stated tolerances with plain assertions.  ``pytest -v`` therefore shows
one pass/fail line per criterion through the test names as well.
"""

import time

import numpy as np
import pytest

from filmstab.anisotropy import IsotropicDensity, QuadraticFormDensity, ShiftedFacetDensity
from filmstab.elasticity import (
    ElasticField,
    MismatchDatum,
    NonlinearDensity,
    _from_interior,
    assemble_residual,
    build_grid,
    elastic_density_from_config,
    solve_critical_point,
)
from filmstab.flat import (
    FlatFilm,
    critical_thickness,
    crystalline_epsilon0,
    crystalline_sweep,
    flat_field,
    lambda1_of_thickness,
    stability_of_thickness,
)
from filmstab.geometry import Profile, SurfaceGeometry
from filmstab.polyident import build_M, verify_identity
from filmstab.spectral import fourier_nodes
from filmstab.stability import StabilityProblem, fd_oracle_second_variation
from diagnostics import curvature_velocity_defect, normal_velocity_defect, scaling_law_check
from oracles import lanczos_mu1, three_term_form, two_term_second_variation

LIN = {"kind": "linear", "lam": 2.0, "mu": 1.0}
ISO = IsotropicDensity(2)


def density():
    return elastic_density_from_config(LIN, 2)


def datum(e0=0.05):
    return MismatchDatum.from_misfit(e0, 2, "linear")


def benchmark_field(n, ny, e0=0.05):
    field, _ = solve_critical_point(Profile.flat(2, n, 1.0), datum(e0), density(), ny)
    return field


def cos_mode(n, k):
    return np.cos(2.0 * np.pi * k * fourier_nodes(n, 1.0))


def report_line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_assembled_form_matches_energy_oracle():
    """Benchmark film, three cosine speeds: assembled form vs energy second difference."""
    field = benchmark_field(64, 48)
    problem = StabilityProblem(field, ISO)
    rows = []
    for k in (1, 2, 3):
        start = time.perf_counter()
        phi = cos_mode(64, k)
        assembled = problem.full_second_variation(phi)
        oracle = fd_oracle_second_variation(field, ISO, phi)
        elapsed = time.perf_counter() - start
        rows.append((k, abs(assembled - oracle) / abs(oracle), elapsed))
    ok = all(rel < 1e-3 and elapsed < 60.0 for _, rel, elapsed in rows)
    detail = ", ".join(f"mode {k}: rel {rel:.2e} in {elapsed:.0f}s" for k, rel, elapsed in rows)
    report_line(1, ok, f"{detail} (n=64, ny=48, tol 1e-3, 60s budget)")
    for k, rel, elapsed in rows:
        assert rel < 1e-3, f"mode {k}: relative error {rel:.3e}"
        assert elapsed < 60.0, f"mode {k}: took {elapsed:.1f}s"


def test_criterion_2_pure_surface_value_is_two_pi_squared():
    """No mismatch: the form at the first cosine equals 2*pi^2 exactly in the limit."""
    field, _ = solve_critical_point(
        Profile.flat(2, 32, 1.0), MismatchDatum(np.array([[0.0]]), 2), density(), 20
    )
    value = StabilityProblem(field, ISO).full_second_variation(cos_mode(32, 1))
    target = 2.0 * np.pi**2
    rel = abs(value - target) / target
    report_line(2, rel < 1e-6, f"form value {value:.10f} vs 2*pi^2 = {target:.10f}, rel {rel:.2e}")
    assert value == pytest.approx(target, rel=1e-6)


def test_criterion_3_decomposition_identity_on_random_speeds():
    """Three-term form by quadrature equals the surface norm minus the correction pairing.

    The left side is the direct route of ``tests/oracles.py`` (adjoint solve,
    bulk and surface quadrature); the right side is the production
    ``second_variation`` on the assembled surface Gram and coupling.
    """
    problem = StabilityProblem(benchmark_field(32, 20), ISO)
    Z = problem.zero_mean_basis
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        phi = Z @ rng.normal(size=Z.shape[1])
        lhs = three_term_form(problem, phi)
        norm_sq = phi @ problem.sim_matrix @ phi
        correction = phi @ problem.t_matrix @ phi
        scale = max(abs(norm_sq), abs(correction), abs(lhs))
        worst = max(worst, abs(lhs - problem.second_variation(phi)) / scale)
    report_line(3, worst < 1e-10, f"20 random zero-mean speeds, worst rel defect {worst:.2e}")
    assert worst < 1e-10


def test_criterion_4_eigenvalue_and_minimum_criteria_agree():
    """sign(lambda1 - 1) = -sign(mu1 - 1) across 12 thickness/mismatch configurations."""
    thicknesses = (50.0, 200.0, 800.0, 2000.0)
    misfits = (0.05, 0.1, 0.2)
    checked, disagreements, worst_sym, worst_neg = 0, 0, 0.0, 0.0
    for d in thicknesses:
        for e0 in misfits:
            field = flat_field(density(), datum(e0), d, 16, 12, width=d)
            problem = StabilityProblem(field, ISO)
            lam, _ = problem.lambda1()
            mu = lanczos_mu1(problem)
            if np.sign(lam - 1.0) != -np.sign(mu - 1.0):
                disagreements += 1
            T = problem.t_matrix
            worst_sym = max(worst_sym, np.abs(T - T.T).max() / np.abs(T).max())
            spectrum = problem._pencil[0]
            worst_neg = max(worst_neg, -spectrum.min() / max(spectrum.max(), 1.0))
            checked += 1
    ok = disagreements == 0 and worst_sym < 1e-10 and worst_neg < 1e-10
    report_line(
        4,
        ok,
        f"{checked} configurations, {disagreements} sign disagreements, "
        f"T asymmetry {worst_sym:.2e}, most negative spectrum {worst_neg:.2e}",
    )
    assert checked == 12
    assert disagreements == 0
    assert worst_sym < 1e-10
    assert worst_neg < 1e-10


def test_criterion_5_flat_film_regime_structure():
    """Eigenvalue crosses one exactly at the bisected thickness; small films are rigid."""
    dens, dat = density(), datum()
    cube = FlatFilm(dens, ISO, dat, cell="cube", n=16, ny=12)
    found = critical_thickness(cube.lambda1, (100.0, 1600.0))
    sweep = np.geomspace(found.d_crit / 8.0, 8.0 * found.d_crit, 10)
    mislabeled = 0
    for d in sweep:
        lam, _ = cube.problem(float(d)).lambda1()
        if (lam < 1.0) != (d < found.d_crit):
            mislabeled += 1

    mus = [
        1.0 / lambda1_of_thickness(d, dens, ISO, dat, n=16, ny=12)
        for d in (1.0, 0.5, 0.25, 0.125)
    ]
    increasing = all(a < b for a, b in zip(mus, mus[1:]))

    scaling_ok = True
    margins = []
    for d in (0.5, 2.0):
        lhs, rhs = scaling_law_check(dens, ISO, dat, d, n=16, ny=12)
        lam_unit = rhs / d
        margins.append(lhs - rhs)
        scaling_ok = scaling_ok and lhs >= rhs - 1e-3 * lam_unit

    ok = mislabeled == 0 and increasing and scaling_ok
    report_line(
        5,
        ok,
        f"d_crit {found.d_crit:.4g}, 10-point sweep mislabels {mislabeled}, "
        f"mu1 along d-halving {', '.join(f'{m:.4g}' for m in mus)}, "
        f"scaling margins {margins[0]:.2e}, {margins[1]:.2e}",
    )
    assert mislabeled == 0
    assert increasing
    assert scaling_ok


def test_criterion_6_facet_regularization_suppresses_instability():
    """Half the found stable regularization keeps thick films strictly stable."""
    dens, dat = density(), datum(1.2)
    eps0 = crystalline_epsilon0(
        crystalline_sweep(dens, dat, 1.0, 1.0, 1.0, n=32, ny=20, max_steps=20)
    )
    psi_star = ShiftedFacetDensity(1.0, 1.0, 0.5 * eps0, 2)
    verdicts = []
    for d, ny in ((1.0, 32), (10.0, 32), (100.0, 48)):
        rep = stability_of_thickness(d, dens, psi_star, dat, n=32, ny=ny)
        verdicts.append((d, rep.lambda1, rep.verdict))
    all_stable = all(v == "strictly_stable" for _, _, v in verdicts)

    field = flat_field(dens, dat, 1.0, 32, 20)
    x = fourier_nodes(32, 1.0)
    phi = np.cos(2.0 * np.pi * x) + 0.3 * np.sin(6.0 * np.pi * x)
    explicit = two_term_second_variation(field, 1.0, 0.5 * eps0, phi)
    generic = StabilityProblem(field, psi_star).second_variation(phi)
    rel = abs(explicit - generic) / abs(generic)

    ok = all_stable and rel < 1e-8
    report_line(
        6,
        ok,
        f"eps0 {eps0:g}, at eps0/2 verdicts "
        + ", ".join(f"d={d:g}: {v} (lambda1 {lam:.3f})" for d, lam, v in verdicts)
        + f"; two-term vs generic rel {rel:.2e}",
    )
    assert all_stable
    assert rel < 1e-8


def test_criterion_7_boundary_determinant_identities():
    """Planar case exactly zero; spatial case randomized with a tiny failure bound."""
    planar = verify_identity(2)
    spatial = verify_identity(3, trials=40, seed=2026)

    mutated = build_M(3)
    mutated[1, 2] = -mutated[1, 2]
    detection = verify_identity(3, trials=3, matrix=mutated, seed=5)

    ok = (
        planar.verified
        and planar.exact
        and spatial.verified
        and spatial.failure_bound < 1e-15
        and not detection.verified
    )
    report_line(
        7,
        ok,
        f"planar exact: {planar.verified}; spatial verified over {spatial.trials} trials, "
        f"failure bound {spatial.failure_bound:.1e}; sign mutation detected within 3 trials: "
        f"{not detection.verified}",
    )
    assert planar.verified and planar.exact
    assert spatial.verified
    assert spatial.failure_bound < 1e-15
    assert not detection.verified and detection.counterexample is not None


def test_criterion_8_resolution_convergence_and_gradient_check():
    """Doubling the grid moves lambda1 and c0 by under 1%; residual is the energy gradient."""
    coarse = StabilityProblem(benchmark_field(32, 32), ISO)
    fine = StabilityProblem(benchmark_field(64, 64), ISO)
    lam_c, _ = coarse.lambda1()
    lam_f, _ = fine.lambda1()
    lam_drift = abs(lam_c - lam_f) / abs(lam_f)
    c0_drift = abs(coarse.c0 - fine.c0) / abs(fine.c0)

    rng = np.random.default_rng(4)
    x = np.arange(16) / 16
    profile = Profile(1.0 + 0.12 * np.cos(2.0 * np.pi * x))
    grid = build_grid(profile, 8)
    dens = NonlinearDensity(2, 2.0, 1.0)
    field = ElasticField(grid, MismatchDatum.from_misfit(0.08, 2, "nonlinear"), dens)
    p = 0.01 * rng.normal(size=field.p.shape)
    p[..., 0, :] = 0.0
    work = field.with_p(p)
    residual = assemble_residual(grid, grid.wq[..., None, None] * dens.stress(work.gradient()))
    dvec = rng.normal(size=residual.shape)
    dp = _from_interior(grid, dvec)
    t = 1e-6
    fd_grad = (field.with_p(p + t * dp).energy() - field.with_p(p - t * dp).energy()) / (2.0 * t)
    grad_rel = abs(fd_grad - float(residual @ dvec)) / abs(fd_grad)

    ok = lam_drift < 0.01 and c0_drift < 0.01 and grad_rel < 1e-6
    report_line(
        8,
        ok,
        f"lambda1 drift {lam_drift:.2e}, c0 drift {c0_drift:.2e} under grid doubling; "
        f"energy-vs-residual gradient rel {grad_rel:.2e}",
    )
    assert lam_drift < 0.01
    assert c0_drift < 0.01
    assert grad_rel < 1e-6


def test_criterion_9_transport_identities_first_order_in_t():
    """Normal-velocity and curvature-velocity identities have O(t) defects."""
    n = 96
    x = np.arange(n) / n
    profile = Profile(1.0 + 0.1 * np.cos(2.0 * np.pi * x))
    geom = SurfaceGeometry(profile)
    phi = (0.05 * np.cos(2.0 * np.pi * x) + 0.02 * np.sin(4.0 * np.pi * x)) / geom.area_jacobian

    velocity_ratio = normal_velocity_defect(profile, phi, 1e-2) / normal_velocity_defect(
        profile, phi, 5e-3
    )
    rng = np.random.default_rng(11)
    A = rng.normal(size=(2, 2))
    psi = QuadraticFormDensity(A @ A.T + 2.0 * np.eye(2))
    curvature_ratio = curvature_velocity_defect(profile, psi, phi, 1e-2) / curvature_velocity_defect(
        profile, psi, phi, 5e-3
    )

    ok = 1.6 < velocity_ratio < 2.4 and 1.6 < curvature_ratio < 2.4
    report_line(
        9,
        ok,
        f"defect ratios under t-halving: velocity {velocity_ratio:.3f}, "
        f"curvature {curvature_ratio:.3f} (target 2 +- 20%)",
    )
    assert 1.6 < velocity_ratio < 2.4
    assert 1.6 < curvature_ratio < 2.4
