"""Tests for the second-variation machinery."""

import functools

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh

from filmstab.anisotropy import IsotropicDensity, QuadraticFormDensity, ShiftedFacetDensity
from filmstab.elasticity import (
    ElasticField,
    LinearDensity,
    MismatchDatum,
    assemble_residual,
    build_grid,
    continue_critical_point,
    elastic_density_from_config,
    h1_gram,
    isotropic_tensor,
    solve_critical_point,
)
from filmstab.geometry import Profile, SurfaceGeometry
from filmstab.stability import (
    CriticalityWarning,
    SimGramError,
    StabilityProblem,
    dispersion_curve,
    fd_oracle_second_variation,
    total_energy,
)
from diagnostics import curvature_velocity_defect, first_variation, normal_velocity_defect
from oracles import (
    elastic_pairing,
    identity_surface_form,
    lanczos_mu1,
    sim_inner_product,
    solve_vphi,
    three_term_form,
    trigonometric_subnyquist_modes,
)

LIN = {"kind": "linear", "lam": 2.0, "mu": 1.0}


@functools.lru_cache(maxsize=None)
def flat_pair(n=32, ny=20, e0=0.05, thickness=1.0, modes=None):
    density = elastic_density_from_config(LIN, 2)
    mode_list = [dict(component=c, mode=m, amplitude=a) for (c, m, a) in (modes or ())]
    datum = MismatchDatum(np.array([[e0]]), 2, modes=mode_list or None)
    profile = Profile.flat(2, n, thickness)
    field, _ = solve_critical_point(profile, datum, density, ny=ny)
    return field


@functools.lru_cache(maxsize=None)
def curved_pair(n=32, ny=20, e0=0.1, bump=0.03):
    density = elastic_density_from_config(LIN, 2)
    datum = MismatchDatum.from_misfit(e0, 2, "linear")
    x = np.arange(n) / n
    profile = Profile(1.0 + bump * np.cos(2.0 * np.pi * x))
    field, _ = solve_critical_point(profile, datum, density, ny=ny)
    return field


def cos_mode(n, k, width=1.0):
    x = np.arange(n) * width / n
    return np.cos(2.0 * np.pi * k * x / width)


# -- zero-mean speeds ---------------------------------------------------------------


def test_zero_mean_basis_orthonormal_and_weighted():
    prob = StabilityProblem(curved_pair(), IsotropicDensity(2))
    Z = prob.zero_mean_basis
    n = prob.grid.nx
    assert Z.shape == (n, n - 2)  # constants and the Nyquist mode excluded
    assert np.abs(Z.T @ Z - np.eye(n - 2)).max() < 1e-12
    assert np.abs(prob.geom.surface_weights.ravel() @ Z).max() < 1e-13


CURVED_MODES = {
    2: [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.1}, {"mode": 3, "amplitude": 0.02}],
    3: [
        {"mode": [0, 0], "amplitude": 1.0},
        {"mode": [1, 0], "amplitude": 0.05},
        {"mode": [1, 1], "amplitude": 0.02, "phase": 0.5},
    ],
}


def curved_problem(dim, n, ny, psi):
    """Stability problem of the zero periodic field over a curved profile (not an equilibrium)."""
    grid = build_grid(Profile.from_fourier_modes(dim, n, CURVED_MODES[dim]), ny)
    field = ElasticField(grid, MismatchDatum.from_misfit(0.05, dim, "linear"), elastic_density_from_config(LIN, dim))
    return StabilityProblem(field, psi)


@pytest.mark.parametrize("dim, n", [(2, 23), (2, 24), (3, 9), (3, 10)])
def test_zero_mean_basis_spans_the_trigonometric_basis(dim, n):
    prob = curved_problem(dim, n, 6, IsotropicDensity(dim))
    Z = prob.zero_mean_basis
    B = trigonometric_subnyquist_modes(prob.profile)
    w = prob.geom.surface_weights.ravel()
    Z0, _ = np.linalg.qr(B - (w @ B)[None, :] / w.sum())
    assert Z.shape == Z0.shape
    assert np.abs(Z @ Z.T - Z0 @ Z0.T).max() <= 1e-12


@pytest.mark.parametrize("dim, n, ny", [(2, 24, 8), (3, 10, 6)])
@pytest.mark.parametrize("density", ["isotropic", "shifted-facet"])
def test_surface_forms_match_the_identity_route(dim, n, ny, density):
    psi = IsotropicDensity(dim) if density == "isotropic" else ShiftedFacetDensity(1.0, 1.5, 0.3, dim)
    prob = curved_problem(dim, n, ny, psi)
    assert np.abs(prob.geom.grad_h).max() > 0.01
    nx = prob.grid.nx
    ref = identity_surface_form(prob, prob.surface_hessian.reshape(nx, dim, dim), prob.coefficient_a.ravel())
    assert np.abs(prob.sim_matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    Z = prob.zero_mean_basis
    h1 = Z.T @ identity_surface_form(prob, np.broadcast_to(np.eye(dim), (nx, dim, dim)), np.ones(nx)) @ Z
    ref_h1 = 0.5 * (h1 + h1.T)
    assert np.abs(prob.surface_h1_gram_z() - ref_h1).max() <= 1e-13 * np.abs(ref_h1).max()


# -- coefficient a ------------------------------------------------------------------


def test_coefficient_a_vanishes_flat_affine():
    field = flat_pair()
    a = StabilityProblem(field, IsotropicDensity(2)).coefficient_a
    assert np.abs(a).max() < 1e-9


def test_coefficient_a_flat_substrate_modes():
    field = flat_pair(modes=((0, 1, 0.2),))
    prob = StabilityProblem(field, IsotropicDensity(2))
    # flat surface: the shape-operator trace term is exactly zero, so the
    # coefficient is the normal derivative of the energy density alone
    dgrad = field.grid.surface_trace(field.gradient_derivative())
    elastic = np.einsum("...iab,...b->...ia", dgrad, prob.geom.normal)
    expected = np.einsum("...ia,...ia->...", field.surface_stress(), elastic)
    assert np.abs(prob.coefficient_a - expected).max() < 1e-12
    assert np.abs(prob.coefficient_a).max() > 1e-3


# -- adjoint solves (the quadrature oracle and the coupling matrix) -------------------


def test_solve_vphi_zero_and_linearity():
    field = flat_pair()
    prob = StabilityProblem(field, IsotropicDensity(2))
    assert not np.any(solve_vphi(prob, np.zeros(32)))

    phi = cos_mode(32, 1)
    theta = cos_mode(32, 2)
    lhs = solve_vphi(prob, 0.7 * phi - 1.3 * theta)
    rhs = 0.7 * solve_vphi(prob, phi) - 1.3 * solve_vphi(prob, theta)
    assert np.abs(lhs - rhs).max() < 1e-11 * max(np.abs(rhs).max(), 1e-300)


def test_coupling_matches_general_assembly():
    field = curved_pair()
    prob = StabilityProblem(field, IsotropicDensity(2))
    grid = field.grid
    N, ny = grid.dim, grid.ny
    normal = grid.geom.normal
    proj = np.eye(N) - normal[..., :, None] * normal[..., None, :]
    stress = np.einsum("...ib,...ba->...ia", field.surface_stress(), proj)
    rng = np.random.default_rng(1)
    phi = rng.normal(size=grid.profile.xshape)
    F = np.zeros(grid.profile.xshape + (ny, N, N))
    F[..., ny - 1, :, :] = (
        grid.geom.surface_weights[..., None, None] * stress * phi[..., None, None]
    )
    general = -assemble_residual(grid, F)
    special = prob.coupling @ phi.ravel()
    assert np.abs(general - special).max() < 1e-13 * (1.0 + np.abs(general).max())


def test_solve_vphi_decay_and_self_convergence():
    field = flat_pair(n=24, ny=16)
    prob = StabilityProblem(field, IsotropicDensity(2))
    phi = cos_mode(24, 1)
    v = solve_vphi(prob, phi)
    # driven at the free surface, the correction decays toward the substrate
    lower = np.abs(v[:, : 16 // 4]).max()
    assert lower < 0.2 * np.abs(v).max()

    energy = elastic_pairing(prob, v, v)
    fine = flat_pair(n=48, ny=32)
    prob_fine = StabilityProblem(fine, IsotropicDensity(2))
    v_fine = solve_vphi(prob_fine, cos_mode(48, 1))
    energy_fine = elastic_pairing(prob_fine, v_fine, v_fine)
    assert abs(energy - energy_fine) < 1e-3 * abs(energy_fine)


# -- surface inner product -----------------------------------------------------------


def test_sim_inner_product_flat_isotropic():
    field = flat_pair()
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    phi = cos_mode(32, 1)
    value = sim_inner_product(prob, phi, phi)
    assert value == pytest.approx(2.0 * np.pi**2, rel=1e-12)

    theta = cos_mode(32, 3)
    assert sim_inner_product(prob, phi, theta) == pytest.approx(
        sim_inner_product(prob, theta, phi), abs=1e-12
    )

    # matrix path against quadrature path
    S = prob.sim_matrix
    assert phi @ S @ phi == pytest.approx(value, rel=1e-12)


def test_sim_gram_positive_definite_at_benchmark():
    field = flat_pair()
    psi = IsotropicDensity(2)
    Sz = StabilityProblem(field, psi).sim_matrix_z
    assert np.abs(Sz - Sz.T).max() < 1e-12
    vals = np.linalg.eigvalsh(Sz)
    # smallest retained mode is k = 1 with weight 1/n
    assert vals[0] == pytest.approx((2.0 * np.pi) ** 2 / 32, rel=1e-10)


# -- quadratic forms ------------------------------------------------------------------


def test_second_variation_scaling_and_zero():
    field = flat_pair()
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    phi = cos_mode(32, 2)
    one = prob.second_variation(phi)
    four = prob.second_variation(2.0 * phi)
    assert four == pytest.approx(4.0 * one, rel=1e-10)
    assert prob.second_variation(np.zeros(32)) == 0.0


def test_second_variation_rejects_non_finite_speed():
    # the form is read off cached matrices, so no solve sees the speed:
    # the speed itself is checked
    prob = StabilityProblem(flat_pair(n=16, ny=8), IsotropicDensity(2))
    phi = cos_mode(16, 1)
    phi[5] = np.nan
    with pytest.raises(ValueError):
        prob.second_variation(phi)


def test_second_variation_warns_off_equilibrium():
    field = curved_pair()
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    assert prob.criticality_residual() > 1e-2
    with pytest.warns(CriticalityWarning):
        prob.second_variation(cos_mode(32, 1))


LEAKING_TESTS = """
import numpy as np
import pytest

from filmstab.anisotropy import IsotropicDensity
from filmstab.elasticity import LinearDensity, MismatchDatum
from filmstab.flat import flat_field
from filmstab.stability import StabilityProblem


def problem():
    datum = MismatchDatum(np.array([[0.0]]), 2)
    field = flat_field(LinearDensity.isotropic(2, 2.0, 1.0), datum, 1.0, 8, 4)
    return StabilityProblem(field, IsotropicDensity(2))


def test_leaks():
    assert problem().mu1() == np.inf


def test_expects():
    with pytest.warns(UserWarning, match="elastic correction vanishes"):
        assert problem().mu1() == np.inf
"""


def test_a_leaked_filmstab_warning_fails_the_suite(tmp_path):
    # mu1 warns with stacklevel=2, so the leak is attributed to the test module
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_leak.py").write_text(LEAKING_TESTS)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "FilmstabWarning: the elastic correction vanishes" in done.stdout


def test_full_second_variation_flat_equals_three_term():
    field = flat_pair()
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    phi = cos_mode(32, 1) + 0.4 * cos_mode(32, 3)
    # the transport field vanishes identically on a flat profile
    assert prob.full_second_variation(phi) == pytest.approx(
        prob.second_variation(phi), rel=1e-14
    )


def test_decomposition_identity_random_speeds():
    field = flat_pair(e0=0.1)
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    rng = np.random.default_rng(7)
    Z = prob.zero_mean_basis
    for _ in range(20):
        phi = Z @ rng.normal(size=Z.shape[1])
        lhs = three_term_form(prob, phi)
        norm_sq = phi @ prob.sim_matrix @ phi
        correction = phi @ prob.t_matrix @ phi
        scale = max(abs(norm_sq), abs(correction), abs(lhs))
        assert abs(lhs - (norm_sq - correction)) < 1e-10 * scale


# -- eigenvalues -----------------------------------------------------------------------


def test_t_matrix_symmetric_positive():
    prob = StabilityProblem(flat_pair(e0=0.2), IsotropicDensity(2))
    T = prob.t_matrix
    assert np.abs(T - T.T).max() < 1e-10 * np.abs(T).max()
    assert prob._pencil[0].min() > -1e-10


def test_lambda1_zero_without_mismatch():
    density = elastic_density_from_config(LIN, 2)
    datum = MismatchDatum(np.array([[0.0]]), 2)
    profile = Profile.flat(2, 24, 1.0)
    field, _ = solve_critical_point(profile, datum, density, ny=12)
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    lam, efn = prob.lambda1()
    assert lam == 0.0
    assert abs(prob.geom.surface_weights.ravel() @ efn) < 1e-12 * np.abs(efn).max()
    with pytest.warns(UserWarning):
        assert StabilityProblem(field, psi).mu1() == np.inf
    with pytest.warns(UserWarning):
        report = StabilityProblem(field, psi).report()
    assert report.verdict == "strictly_stable"
    assert report.lambda1 == 0.0 and report.mu1 == np.inf


def test_lambda1_rayleigh_and_weak_equations():
    prob = StabilityProblem(flat_pair(e0=0.2), IsotropicDensity(2))
    lam, efn = prob.lambda1()
    assert lam > 0.0
    assert sim_inner_product(prob, efn, efn) == pytest.approx(1.0, rel=1e-10)

    v = solve_vphi(prob, efn)
    rayleigh = elastic_pairing(prob, v, v) / sim_inner_product(prob, efn, efn)
    assert abs(rayleigh - lam) < 1e-10 * lam

    grid = prob.grid
    vvec = v.reshape(grid.nx, grid.ny, grid.dim)[:, 1:].ravel()
    rhs = prob.coupling @ efn.ravel()
    r_state = np.linalg.norm(prob.stiffness.full() @ vvec - rhs) / np.linalg.norm(rhs)
    z = prob.zero_mean_basis.T @ efn.ravel()
    lhs = prob.t_matrix_z @ z
    r_eigen = np.linalg.norm(lhs - lam * (prob.sim_matrix_z @ z)) / np.linalg.norm(lhs)
    assert r_state < 1e-8
    assert r_eigen < 1e-8


def test_lambda1_sign_convention():
    prob = StabilityProblem(flat_pair(e0=0.2), IsotropicDensity(2))
    _, efn = prob.lambda1()
    coeff = np.fft.fft(efn)
    mags = np.abs(coeff)
    lead = coeff[int(np.flatnonzero(mags > 1e-12 * mags.max())[0])]
    key = lead.real if abs(lead.real) >= abs(lead.imag) else lead.imag
    assert key >= 0.0


def test_lambda1_refinement_agreement():
    psi = IsotropicDensity(2)
    lam_coarse, _ = StabilityProblem(flat_pair(n=24, ny=16, e0=0.1), psi).lambda1()
    lam_fine, _ = StabilityProblem(flat_pair(n=48, ny=24, e0=0.1), psi).lambda1()
    assert abs(lam_coarse - lam_fine) < 0.01 * lam_fine


def test_mu1_inverse_relation_and_thickness_monotonicity():
    psi = IsotropicDensity(2)
    prob = StabilityProblem(flat_pair(n=24, ny=16, e0=0.2), psi)
    lam, _ = prob.lambda1()
    mu = lanczos_mu1(prob)
    assert mu == pytest.approx(1.0 / lam, rel=1e-6)
    assert prob.mu1() == pytest.approx(mu, rel=1e-6)

    thin = StabilityProblem(flat_pair(n=24, ny=16, e0=0.2, thickness=0.5), psi)
    assert lanczos_mu1(thin) > mu  # thinner film resists the constrained minimum more


@pytest.mark.parametrize(
    "dim, kind, n, ny, modes",
    [
        (2, "nonlinear", 16, 10, [{"mode": 0, "amplitude": 1.0},
                                  {"mode": 1, "amplitude": 0.05, "phase": 0.3},
                                  {"mode": 2, "amplitude": 0.02}]),
        (3, "linear", 8, 6, [{"mode": [0, 0], "amplitude": 1.0},
                             {"mode": [1, 0], "amplitude": 0.05, "phase": 0.3},
                             {"mode": [1, 1], "amplitude": 0.02}]),
    ],
    ids=["2d-nonlinear", "3d-linear"],
)
def test_mu1_matches_lanczos_oracle_on_curved_films(dim, kind, n, ny, modes):
    density = elastic_density_from_config({"kind": kind, "lam": 2.0, "mu": 1.0}, dim)
    datum = MismatchDatum.from_misfit(0.1, dim, kind)
    profile = Profile.from_fourier_modes(dim, n, modes)
    field, _ = solve_critical_point(profile, datum, density, ny=ny)
    prob = StabilityProblem(field, IsotropicDensity(dim))
    mu = prob.mu1()
    assert np.isfinite(mu) and mu > 1.0
    assert mu == pytest.approx(lanczos_mu1(prob), rel=1e-6)


def _indefinite_problem(profile):
    density = object.__new__(LinearDensity)  # bypasses the positivity check
    density.dim, density.C = 2, isotropic_tensor(2, 1.0, -0.3)
    datum = MismatchDatum.from_misfit(0.05, 2, "linear")
    return StabilityProblem(ElasticField(build_grid(profile, 8), datum, density), IsotropicDensity(2))


def _record_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recording(A, *args, **kwargs):
        calls.append(A)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_indefinite_stiffness_is_factored_once(monkeypatch):
    """A dense stiffness without a Cholesky factor is tried once; c0 is the dense value."""
    import filmstab.elasticity as elasticity
    import filmstab.stability as stability

    # a curved film, where the block-column path runs
    modes = [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.05}]
    prob = _indefinite_problem(Profile.from_fourier_modes(2, 16, modes))
    factored = _record_calls(monkeypatch, elasticity, "BlockCholesky")
    lapack = [_record_calls(monkeypatch, module, "cho_factor") for module in (elasticity, stability)]
    report = prob.report()
    # the failed factor of K, then the factor of K - sigma G at the
    # tangent's pointwise bound, which c0's recurrence runs on
    assert len(factored) == 2 and lapack == [[], []]
    dense = eigh(prob.stiffness.full(), h1_gram(prob.grid).full(), eigvals_only=True, subset_by_index=[0, 0])
    assert report.c0 == pytest.approx(float(dense[0]), rel=1e-12)
    assert report.c0 < 0.0
    assert report.verdict == "not_strictly_stable"
    assert np.isnan(report.lambda1) and np.isnan(report.mu1)
    with pytest.raises(LinAlgError):
        prob.lambda1()
    assert len(factored) == 2 and lapack == [[], []]


def test_indefinite_flat_stiffness_fails_its_blocks_once(monkeypatch):
    """A flat film's block factor fails once, with no dense retry and no assembly."""
    import filmstab.elasticity as elasticity

    prob = _indefinite_problem(Profile.flat(2, 16, 1.0))
    factored = _record_calls(monkeypatch, elasticity, "cho_factor")
    assembled = _record_calls(monkeypatch, elasticity, "assemble_hessian")
    report = prob.report()
    m = 7 * 2  # (ny - 1) * N dofs per lateral column
    assert factored and all(A.shape == (m, m) for A in factored)
    assert not assembled
    assert prob.field.stiffness_cho is False
    assert report.c0 < 0.0
    assert report.verdict == "not_strictly_stable"
    assert np.isnan(report.lambda1) and np.isnan(report.mu1)
    with pytest.raises(LinAlgError):
        prob.lambda1()
    attempts = len(factored)
    assert prob.field.stiffness_cho is False and len(factored) == attempts
    dense = eigh(prob.stiffness.full(), h1_gram(prob.grid).full(), eigvals_only=True, subset_by_index=[0, 0])
    assert report.c0 == pytest.approx(float(dense[0]), rel=1e-12)


def test_sim_gram_error_carries_eigenvalue():
    density = elastic_density_from_config(LIN, 2)
    datum = MismatchDatum(np.array([[0.0]]), 2)
    x = np.arange(32) / 32
    profile = Profile(1.0 + 0.3 * np.cos(2.0 * np.pi * x))
    field, _ = solve_critical_point(profile, datum, density, ny=16)
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    assert prob.coefficient_a.max() <= 0.0
    assert prob.sim_gram_min < 0.0
    with pytest.raises(SimGramError) as err:
        prob.lambda1()
    assert err.value.sim_gram_min == prob.sim_gram_min

    report = prob.report()
    assert report.verdict == "indefinite_sim_product"
    assert np.isnan(report.lambda1) and np.isnan(report.mu1)
    assert np.isnan(report.coercivity_const)


# -- criticality -----------------------------------------------------------------------


def test_criticality_residual_flat_and_perturbation_slope():
    field = flat_pair()
    psi = IsotropicDensity(2)
    assert StabilityProblem(field, psi).criticality_residual() < 1e-10

    density = elastic_density_from_config(LIN, 2)
    datum = MismatchDatum.from_misfit(0.05, 2, "linear")

    def residual_at(delta):
        x = np.arange(32) / 32
        profile = Profile(1.0 + delta * np.cos(2.0 * np.pi * x))
        moved, _ = solve_critical_point(profile, datum, density, ny=20)
        return StabilityProblem(moved, psi).criticality_residual()

    r1 = residual_at(0.01)
    r2 = residual_at(0.005)
    assert r1 > 1e-4  # strictly positive, far above quadrature noise
    assert 1.5 < r1 / r2 < 2.5  # first-order in the perturbation


def test_first_variation_matches_energy_rate():
    field = curved_pair()
    psi = IsotropicDensity(2)
    x = np.arange(32) / 32
    direction = np.cos(2.0 * np.pi * x) + 0.5 * np.sin(4.0 * np.pi * x)
    predicted = first_variation(field, psi, direction)

    h = field.grid.profile.samples

    def energy_at(s):
        moved, _ = continue_critical_point(field, Profile(h + s * direction))
        return total_energy(moved, psi)

    t = 1e-5
    measured = (energy_at(t) - energy_at(-t)) / (2.0 * t)
    assert predicted == pytest.approx(measured, rel=1e-5)


# -- finite-difference oracle ------------------------------------------------------------


def test_fd_oracle_flat_matches_three_term_form():
    field = flat_pair(e0=0.1)
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    for k in (1, 2):
        phi = cos_mode(32, k)
        form = prob.second_variation(phi)
        oracle = fd_oracle_second_variation(field, psi, phi)
        assert abs(form - oracle) < 1e-3 * abs(oracle)


def test_fd_oracle_curved_matches_full_form():
    field = curved_pair()
    psi = IsotropicDensity(2)
    phi = cos_mode(32, 1) + 0.3 * np.sin(4.0 * np.pi * np.arange(32) / 32)
    form = StabilityProblem(field, psi).full_second_variation(phi)
    oracle = fd_oracle_second_variation(field, psi, phi)
    assert abs(form - oracle) < 1e-2 * abs(oracle)


def test_fd_oracle_zero_direction_and_step_error():
    field = flat_pair()
    psi = IsotropicDensity(2)
    assert abs(fd_oracle_second_variation(field, psi, np.zeros(32), richardson=False)) < 1e-6
    with pytest.raises(RuntimeError, match="smaller t"):
        # a step this large drives the profile negative
        fd_oracle_second_variation(field, psi, np.full(32, 1.0), t=5.0)


def test_fd_oracle_neither_assembles_nor_factors(monkeypatch):
    """Once the base factor is cached, the oracle's re-solves are inner solves against it."""
    import filmstab.elasticity as elasticity

    field = flat_pair(n=16, ny=8)
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    form = prob.second_variation(cos_mode(16, 1))  # caches the stiffness factor
    calls = []
    for name in ("assemble_hessian", "cho_factor"):
        original = getattr(elasticity, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(elasticity, name, counting)
    oracle = fd_oracle_second_variation(field, psi, cos_mode(16, 1))
    assert calls == []
    assert abs(form - oracle) < 1e-3 * abs(oracle)


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_cold_solve_and_report_factor_once(monkeypatch, kind):
    """The problem factors the solution's stiffness once; a linear Newton solve shares that factor.

    The curved film's factor is one packed assembly and one block-column
    factor.  A cold nonlinear solve is preconditioned by the flat
    equilibrium at the mean thickness, whose factor is one block per
    wavenumber, and assembles nothing.
    """
    import filmstab.elasticity as elasticity
    import filmstab.stability as stability

    calls = []
    for module, name in [
        (elasticity, "assemble_hessian"),
        (elasticity, "BlockCholesky"),
        (elasticity, "cho_factor"),
        (stability, "cho_factor"),
    ]:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    datum = MismatchDatum.from_misfit(0.1, 2, kind)
    profile = Profile(1.0 + 0.03 * np.cos(2.0 * np.pi * np.arange(16) / 16))
    density = elastic_density_from_config(dict(LIN, kind=kind), 2)
    field, info = solve_critical_point(profile, datum, density, ny=8)
    report = StabilityProblem(field, IsotropicDensity(2)).report()
    assert report.c0 > 0.0 and np.isfinite(report.lambda1)
    if kind == "linear":
        assert info["iterations"] == 1
        assert sorted(calls) == ["BlockCholesky", "assemble_hessian"]
    else:
        assert info["iterations"] == 3
        blocks = 16 // 2 + 1
        assert sorted(calls) == ["BlockCholesky", "assemble_hessian"] + ["cho_factor"] * blocks


def test_problem_shares_the_field_stiffness(monkeypatch):
    """The problem solves against the field's factor; the field keeps no dense stiffness."""
    import filmstab.elasticity as elasticity

    fields = [flat_pair(n=16, ny=8), curved_pair(n=16, ny=8)]
    chos = [field.stiffness_cho for field in fields]
    factored = [_record_calls(monkeypatch, elasticity, name) for name in ("cho_factor", "BlockCholesky")]
    for field, cho in zip(fields, chos):
        StabilityProblem(field, IsotropicDensity(2)).report()
        assert field.stiffness_cho is cho
        assert set(field._stiffness) == {"blocks", "cho"}
    assert factored == [[], []]


@pytest.mark.parametrize("pair", [flat_pair, curved_pair], ids=["flat", "curved"])
def test_form_values_after_the_report_make_no_solve(monkeypatch, pair):
    """Every form value is read off the cached ``t_matrix``: no solve per speed."""
    import filmstab.elasticity as elasticity

    prob = StabilityProblem(pair(n=16, ny=8), IsotropicDensity(2))
    prob.report()
    solves = [_record_calls(monkeypatch, cls, "solve") for cls in (elasticity.LateralCholesky, elasticity.BlockCholesky)]
    curve = prob.dispersion_curve(4)
    value = prob.full_second_variation(cos_mode(16, 1) + 0.3 * cos_mode(16, 2))
    assert solves == [[], []]
    assert np.all(np.isfinite(curve)) and np.isfinite(value)


def test_pure_surface_oracle_flat_mode():
    density = elastic_density_from_config(LIN, 2)
    datum = MismatchDatum(np.array([[0.0]]), 2)
    profile = Profile.flat(2, 32, 1.0)
    field, _ = solve_critical_point(profile, datum, density, ny=12)
    psi = IsotropicDensity(2)
    oracle = fd_oracle_second_variation(field, psi, cos_mode(32, 1))
    assert oracle == pytest.approx(2.0 * np.pi**2, rel=1e-6)


# -- report ---------------------------------------------------------------------------


def test_report_fields_and_invariant():
    field = flat_pair(e0=0.2)
    psi = IsotropicDensity(2)
    prob = StabilityProblem(field, psi)
    report = prob.report()
    assert set(report.to_dict()) == {
        "c0",
        "sim_gram_min",
        "lambda1",
        "mu1",
        "criticality_residual",
        "verdict",
        "coercivity_const",
    }
    stable = report.c0 > 0 and report.sim_gram_min > 0 and report.lambda1 < 1
    assert (report.verdict == "strictly_stable") == stable
    assert report.lambda1 >= 0.0
    assert report.criticality_residual < 1e-10
    # coercivity constant is (1 - lambda1) times the norm-equivalence constant
    assert report.coercivity_const == pytest.approx(
        (1.0 - report.lambda1)
        * np.linalg.eigvalsh(
            np.linalg.solve(prob.surface_h1_gram_z(), prob.sim_matrix_z)
        ).real.min(),
        rel=1e-6,
    )


def test_unstable_verdict_with_strong_substrate_modes():
    field = flat_pair(e0=0.1, modes=((0, 2, 0.3),))
    eta = 1e-2
    psi = QuadraticFormDensity(np.diag([eta**2, 1.0]))
    report = StabilityProblem(field, psi).report()
    assert report.verdict == "not_strictly_stable"
    assert report.lambda1 > 1.0
    assert report.mu1 < 1.0


def _curved_film_report(h, kind):
    """Report of a ``kind`` film over the profile samples ``h`` (ny 12 in 2D, 6 in 3D)."""
    dim = h.ndim + 1
    density = elastic_density_from_config(dict(LIN, kind=kind), dim)
    datum = MismatchDatum.from_misfit(0.05, dim, kind)
    field, _ = solve_critical_point(Profile(h), datum, density, ny=12 if dim == 2 else 6)
    return StabilityProblem(field, IsotropicDensity(dim)).report()


CURVED_FILMS = {
    2: (16, [{"mode": 1, "amplitude": 0.04, "phase": 0.3},
             {"mode": 2, "amplitude": 0.02, "phase": 1.1}]),
    3: (10, [{"mode": [1, 0], "amplitude": 0.04, "phase": 0.3},
             {"mode": [1, 2], "amplitude": 0.02, "phase": 1.1}]),
}


LATERAL_MOVES = {
    "2d-shift": (2, lambda h: np.roll(h, 5)),
    "2d-mirror": (2, lambda h: np.roll(h[::-1], 1)),
    "3d-axis-swap": (3, lambda h: h.T),
    "3d-shift": (3, lambda h: np.roll(h, (3, -2), axis=(0, 1))),
}


@pytest.mark.parametrize(
    "dim, move, kind",
    [(*dm, "linear") for dm in LATERAL_MOVES.values()]
    + [(*dm, "nonlinear") for dm in LATERAL_MOVES.values()],
    ids=list(LATERAL_MOVES) + [f"nonlinear-{name}" for name in LATERAL_MOVES],
)
def test_report_invariant_under_lateral_symmetries(dim, move, kind):
    """Lateral shifts, the mirror and the 3D axis swap leave the report unchanged."""
    n, modes = CURVED_FILMS[dim]
    h = Profile.from_fourier_modes(dim, n, modes, thickness=1.0).samples
    base, moved = _curved_film_report(h, kind), _curved_film_report(move(h), kind)
    assert moved.verdict == base.verdict
    assert moved.lambda1 == pytest.approx(base.lambda1, rel=1e-10)
    assert moved.c0 == pytest.approx(base.c0, rel=1e-8)
    assert moved.mu1 == pytest.approx(base.mu1, rel=1e-8)


def test_dispersion_curve_flat_benchmark():
    field = flat_pair()
    psi = IsotropicDensity(2)
    curve = dispersion_curve(field, psi, 4)
    assert curve.shape == (4, 2)
    assert np.array_equal(curve[:, 0], [1, 2, 3, 4])
    assert (curve[:, 1] > 0).all()  # thin film at weak misfit: all modes stable


# -- transport identities ----------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
def test_normal_velocity_defect_linear_in_t(dim):
    n = 64 if dim == 2 else 24
    profile = Profile.from_fourier_modes(
        dim,
        n,
        [
            {"mode": 0 if dim == 2 else [0, 0], "amplitude": 1.0},
            {"mode": 1 if dim == 2 else [1, 0], "amplitude": 0.1},
        ],
    )
    geom = SurfaceGeometry(profile)
    x = np.arange(n) / n
    raw = 0.05 * np.cos(2.0 * np.pi * x) + 0.02 * np.sin(4.0 * np.pi * x)
    phi = (raw if dim == 2 else np.broadcast_to(raw[:, None], (n, n))) / geom.area_jacobian
    d1 = normal_velocity_defect(profile, phi, 1e-2)
    d2 = normal_velocity_defect(profile, phi, 5e-3)
    assert 1.6 < d1 / d2 < 2.4


def test_curvature_velocity_defect_linear_in_t():
    n = 96
    x = np.arange(n) / n
    profile = Profile(1.0 + 0.1 * np.cos(2.0 * np.pi * x))
    geom = SurfaceGeometry(profile)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(2, 2))
    psi = QuadraticFormDensity(A @ A.T + 2.0 * np.eye(2))
    phi = (0.05 * np.cos(2.0 * np.pi * x) + 0.02 * np.sin(4.0 * np.pi * x)) / geom.area_jacobian
    d1 = curvature_velocity_defect(profile, psi, phi, 1e-2)
    d2 = curvature_velocity_defect(profile, psi, phi, 5e-3)
    assert 1.6 < d1 / d2 < 2.4
