"""Elastic densities, discrete assembly, and equilibrium solves."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from filmstab.elasticity import (
    BlockCholesky,
    CoercivityError,
    ElasticField,
    LinearDensity,
    MismatchDatum,
    NEWTON_TOL,
    NewtonError,
    NonlinearDensity,
    ShiftedFactorError,
    _PCG_MAX_ITER,
    _flat_shapes,
    _form_apply,
    _from_interior,
    _h1_coefficients,
    _h1_gram_matvec,
    _residual_scale,
    _tangent_bound,
    _tangent_flux,
    assemble_hessian,
    assemble_residual,
    coercivity_constant,
    continue_critical_point,
    elastic_density_from_config,
    factor_solve,
    h1_gram,
    interior_weight_vector,
    isotropic_tensor,
    solve_critical_point,
)
from filmstab.geometry import Profile, build_grid
from diagnostics import legendre_hadamard_check, local_min_probe
from oracles import einsum_residual, reference_assemble_hessian

LAM, MU, E0 = 2.0, 1.0, 0.05
CURVED_3D_MODES = [
    {"mode": [0, 0], "amplitude": 1.0},
    {"mode": [1, 0], "amplitude": 0.05},
    {"mode": [1, 1], "amplitude": 0.02},
]


def _bumpy(n, amp=0.1):
    return Profile.from_fourier_modes(
        2, n, [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": amp}]
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_density_derivatives_match_finite_differences(dim):
    rng = np.random.default_rng(0)
    xi = np.eye(dim) + 0.1 * rng.normal(size=(6, dim, dim))
    step = 1e-6
    for dens in [LinearDensity.isotropic(dim, LAM, MU), NonlinearDensity(dim, LAM, MU)]:
        S = dens.stress(xi)
        C = dens.tangent(xi)
        for i in range(dim):
            for a in range(dim):
                dxi = np.zeros((dim, dim))
                dxi[i, a] = step
                fd_s = (dens.value(xi + dxi) - dens.value(xi - dxi)) / (2 * step)
                fd_c = (dens.stress(xi + dxi) - dens.stress(xi - dxi)) / (2 * step)
                assert np.abs(fd_s - S[:, i, a]).max() < 1e-6
                assert np.abs(fd_c - C[:, :, :, i, a]).max() < 1e-4


@pytest.mark.parametrize("dim", [2, 3])
def test_nonlinear_density_reference_state(dim):
    dens = NonlinearDensity(dim, LAM, MU)
    I = np.eye(dim)
    assert dens.value(I) == 0.0
    assert np.abs(dens.stress(I)).max() == 0.0
    assert np.abs(dens.tangent(I) - isotropic_tensor(dim, LAM, MU)).max() < 1e-14
    # nonnegative on random admissible gradients
    rng = np.random.default_rng(1)
    xi = np.eye(dim) + 0.3 * rng.normal(size=(50, dim, dim))
    xi = xi[np.linalg.det(xi) > 0.1]
    assert dens.value(xi).min() >= 0.0
    with pytest.raises(ValueError):
        dens.value(np.diag([1.0] * (dim - 1) + [-1.0]))


def test_linear_density_validation_and_symmetry():
    C = isotropic_tensor(2, LAM, MU)
    dens = LinearDensity(C)
    assert np.abs(dens.C - dens.C.transpose(2, 3, 0, 1)).max() == 0.0
    assert np.abs(dens.C - dens.C.transpose(1, 0, 2, 3)).max() == 0.0
    # antisymmetric part of the gradient carries no energy
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(dens.value(skew)) < 1e-15
    with pytest.raises(ValueError):
        LinearDensity(np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        LinearDensity.isotropic(2, 0.0, -1.0)
    with pytest.raises(ValueError):
        LinearDensity(-C)


def test_mismatch_datum_validation():
    with pytest.raises(ValueError):
        MismatchDatum(np.eye(2), dim=2)  # wrong block size
    with pytest.raises(ValueError):
        MismatchDatum(0.1, dim=2, modes=[{"component": 1, "mode": 1, "amplitude": 0.1}])
    d = MismatchDatum.from_misfit(E0, 2, "linear")
    assert d.A[0, 0] == E0
    d = MismatchDatum.from_misfit(E0, 3, "nonlinear")
    assert np.allclose(d.A, (1 + E0) * np.eye(2))
    # nonlinear kind rejects orientation-reversing data at field build
    prof = Profile.flat(2, 8, 1.0)
    grid = build_grid(prof, 5)
    bad = MismatchDatum(-0.5, dim=2)
    with pytest.raises(ValueError):
        ElasticField(grid, bad, NonlinearDensity(2, LAM, MU))


def test_linear_flat_matches_plane_strain_formula():
    prof = Profile.flat(2, 16, thickness=1.3)
    datum = MismatchDatum.from_misfit(E0, 2, "linear")
    dens = LinearDensity.isotropic(2, LAM, MU)
    field, info = solve_critical_point(prof, datum, dens, ny=8)
    assert info["iterations"] <= 1
    b2 = -E0 * LAM / (LAM + 2 * MU)
    exact = np.diag([E0, b2])
    assert np.abs(field.gradient() - exact).max() < 1e-12
    # traction-free top row and exact energy density
    assert np.abs(field.surface_stress()[..., :, 1]).max() < 1e-12
    W = 0.5 * LAM * (E0 + b2) ** 2 + MU * (E0**2 + b2**2)
    assert field.energy() == pytest.approx(1.3 * W, rel=1e-13)


def test_linear_flat_3d():
    prof = Profile.flat(3, 8, thickness=0.7)
    datum = MismatchDatum.from_misfit(E0, 3, "linear")
    dens = LinearDensity.isotropic(3, LAM, MU)
    field, _ = solve_critical_point(prof, datum, dens, ny=6)
    b3 = -2 * LAM * E0 / (LAM + 2 * MU)
    exact = np.diag([E0, E0, b3])
    assert np.abs(field.gradient() - exact).max() < 1e-11


def test_nonlinear_flat_solves_traction_equation():
    prof = Profile.flat(2, 8, thickness=1.0)
    datum = MismatchDatum.from_misfit(E0, 2, "nonlinear")
    dens = NonlinearDensity(2, LAM, MU)
    field, info = solve_critical_point(prof, datum, dens, ny=8)
    g = field.gradient().reshape(-1, 2, 2)
    # the solution is affine diag(1+e0, c): no spread, no shear
    assert np.abs(g - g[0]).max() < 1e-11
    assert abs(g[0, 0, 1]) < 1e-11 and abs(g[0, 1, 0]) < 1e-11
    # c solves the scalar traction equation; compare with an independent root
    c_star = brentq(
        lambda c: dens.stress(np.diag([1 + E0, c]))[1, 1], 0.5, 1.0, xtol=1e-14
    )
    assert g[0, 1, 1] == pytest.approx(c_star, abs=1e-10)
    assert field.energy() > 0.0
    ok, worst = local_min_probe(field)
    assert ok


def test_zero_mismatch_gives_zero_field():
    prof = _bumpy(16)
    datum = MismatchDatum(0.0, dim=2)
    dens = LinearDensity.isotropic(2, LAM, MU)
    field, info = solve_critical_point(prof, datum, dens, ny=6)
    assert info["iterations"] == 0
    assert np.abs(field.p).max() == 0.0
    assert field.energy() == 0.0
    # nonlinear analogue: unit stretch keeps the film exactly at rest
    datn = MismatchDatum.from_misfit(0.0, 2, "nonlinear")
    fn, infon = solve_critical_point(prof, datn, NonlinearDensity(2, LAM, MU), ny=6)
    assert abs(fn.energy()) < 1e-24
    assert np.abs(fn.gradient() - np.eye(2)).max() < 1e-11


def test_periodic_substrate_perturbation_enters_exactly():
    prof = Profile.flat(2, 24, thickness=1.0)
    datum = MismatchDatum(
        0.0, dim=2, modes=[{"component": 0, "mode": 2, "amplitude": 0.03, "phase": 0.7}]
    )
    dens = LinearDensity.isotropic(2, LAM, MU)
    field, _ = solve_critical_point(prof, datum, dens, ny=10)
    x = np.arange(24) / 24.0
    q = 0.03 * np.cos(4 * np.pi * x + 0.7)
    u = field.total()
    assert np.abs(u[:, 0, 0] - q).max() < 1e-13  # substrate row pinned to the datum
    assert np.abs(u[:, 0, 1]).max() < 1e-13
    assert field.energy() > 1e-6  # the wiggle stores elastic energy


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_energy_residual_hessian_consistency(kind):
    rng = np.random.default_rng(4)
    prof = _bumpy(16, amp=0.12)
    grid = build_grid(prof, 8)
    datum = MismatchDatum.from_misfit(0.08, 2, kind)
    dens = (
        LinearDensity.isotropic(2, LAM, MU)
        if kind == "linear"
        else NonlinearDensity(2, LAM, MU)
    )
    field = ElasticField(grid, datum, dens)
    p = 0.01 * rng.normal(size=field.p.shape)
    p[..., 0, :] = 0.0
    f = field.with_p(p)
    g = f.gradient()
    r = assemble_residual(grid, grid.wq[..., None, None] * dens.stress(g))
    K = assemble_hessian(grid, grid.wq[..., None, None, None, None] * dens.tangent(g)).full()
    assert np.abs(K - K.T).max() == 0.0
    dvec = rng.normal(size=r.shape)
    dp = _from_interior(grid, dvec)
    t = 1e-6
    Ep = field.with_p(p + t * dp).energy()
    Em = field.with_p(p - t * dp).energy()
    fd_grad = (Ep - Em) / (2 * t)
    assert fd_grad == pytest.approx(float(r @ dvec), rel=1e-6)
    fd_hess = (Ep - 2 * f.energy() + Em) / t**2
    assert fd_hess == pytest.approx(float(dvec @ K @ dvec), rel=1e-4)


def test_energy_residual_consistency_3d():
    rng = np.random.default_rng(5)
    prof = Profile.from_fourier_modes(
        3, 8, [{"mode": [0, 0], "amplitude": 1.0}, {"mode": [1, 0], "amplitude": 0.08}]
    )
    grid = build_grid(prof, 5)
    datum = MismatchDatum.from_misfit(0.06, 3, "linear")
    dens = LinearDensity.isotropic(3, LAM, MU)
    field = ElasticField(grid, datum, dens)
    p = 0.01 * rng.normal(size=field.p.shape)
    p[..., 0, :] = 0.0
    f = field.with_p(p)
    r = assemble_residual(grid, grid.wq[..., None, None] * dens.stress(f.gradient()))
    dvec = rng.normal(size=r.shape)
    dp = _from_interior(grid, dvec)
    t = 1e-6
    fd = (field.with_p(p + t * dp).energy() - field.with_p(p - t * dp).energy()) / (2 * t)
    assert fd == pytest.approx(float(r @ dvec), rel=1e-6)


@pytest.mark.parametrize("dim, n, ny", [(2, 16, 8), (3, 12, 6)])
def test_gradient_derivative_matches_analytic_field(dim, n, ny):
    # on a curved film, p_i = c_i y^2 cos(K . x + phase_i) over the base field
    # of a strained substrate with a lateral wiggle q_0 = amp cos(Q . x): the
    # samples are band-limited in x and polynomial in s, so the collocation
    # derivatives are exact up to rounding
    x = np.arange(n) / n
    X = (x,) if dim == 2 else np.meshgrid(x, x, indexing="ij")
    h = 1.0 + 0.1 * np.cos(2 * np.pi * X[0])
    if dim == 3:
        h = h + 0.05 * np.sin(2 * np.pi * X[1])
    grid = build_grid(Profile(h), ny)
    amp, Q = 0.02, 2 * np.pi * np.array([1.0, 2.0, 0.0][: dim - 1] + [0.0])
    A = np.array([[0.05, 0.01], [-0.02, 0.03]])[: dim - 1, : dim - 1]
    wiggle = {"component": 0, "mode": [1, 2][: dim - 1], "amplitude": amp}
    datum = MismatchDatum(A, dim, modes=[wiggle])
    c = np.array([0.3, -0.7, 0.5][:dim])
    phase = np.array([0.0, 0.9, -0.4][:dim])
    K = 2 * np.pi * np.array([1.0, 1.0][: dim - 1] + [0.0])
    e = np.eye(dim)[-1]

    lateral = sum(K[a] * X[a] for a in range(dim - 1))[..., None, None]  # xshape + (1, 1)
    theta = lateral + phase  # xshape + (1, N)
    y = grid.y[..., None]  # xshape + (ny, 1)
    p = c * y**2 * np.cos(theta)
    field = ElasticField(grid, datum, LinearDensity.isotropic(dim, LAM, MU), p)

    cos, sin = ((c * f(theta))[..., None, None] for f in (np.cos, np.sin))
    KK, Ke = np.multiply.outer(K, K), np.multiply.outer(K, e)
    expected = (
        -(y**2)[..., None, None] * cos * KK
        - 2 * y[..., None, None] * sin * (Ke + Ke.T)
        + 2 * cos * np.multiply.outer(e, e)
    )
    q_arg = sum(Q[a] * X[a] for a in range(dim - 1))[..., None]
    expected[..., 0, :, :] -= amp * np.cos(q_arg)[..., None, None] * np.multiply.outer(Q, Q)

    got = field.gradient_derivative()
    assert got.shape == grid.y.shape + (dim, dim, dim)
    assert np.abs(got - expected).max() < 1e-10 * np.abs(expected).max()


def test_solution_converges_under_refinement():
    datum = MismatchDatum.from_misfit(E0, 2, "linear")
    dens = LinearDensity.isotropic(2, LAM, MU)

    def solve(n, ny):
        f, info = solve_critical_point(_bumpy(n), datum, dens, ny=ny)
        geom = f.grid.geom
        defect = np.abs(
            np.einsum("...ia,...a->...i", f.surface_stress(), geom.normal)
        ).max()
        return info["energy"], defect

    e1, d1 = solve(24, 12)
    e2, d2 = solve(32, 16)
    assert e2 == pytest.approx(e1, rel=1e-4)
    assert d2 < d1  # natural condition defect shrinks under refinement


def test_warm_start_and_continuation():
    datum = MismatchDatum.from_misfit(E0, 2, "linear")
    dens = LinearDensity.isotropic(2, LAM, MU)
    prof = _bumpy(16)
    field, _ = solve_critical_point(prof, datum, dens, ny=8)
    # same profile: the warm start is already the solution
    same, info_same = continue_critical_point(field, prof)
    assert info_same["iterations"] == 0
    assert np.abs(same.p - field.p).max() < 1e-12
    # nearby profile: warm start agrees with a cold solve
    prof2 = Profile.from_fourier_modes(
        2, 16, [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.11}]
    )
    warm, _ = continue_critical_point(field, prof2)
    cold, _ = solve_critical_point(prof2, datum, dens, ny=8)
    assert np.abs(warm.p - cold.p).max() < 1e-9


def _count_hessians(monkeypatch):
    """Patch ``assemble_hessian`` in the elasticity module; returns the call list."""
    import filmstab.elasticity as elasticity

    calls = []
    original = elasticity.assemble_hessian

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(elasticity, "assemble_hessian", counting)
    return calls


def _always_factored(monkeypatch, *args, **kwargs):
    """``solve_critical_point`` with every Newton step taken by its own factor."""
    import filmstab.elasticity as elasticity

    with monkeypatch.context() as patch:
        patch.setattr(elasticity, "_pcg_step", lambda *a: None)
        return solve_critical_point(*args, **kwargs)


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_preconditioned_resolve_does_not_depend_on_the_factor(monkeypatch, kind):
    # the factor of another film only preconditions the inner solves: the
    # re-solve reaches the energy of the factored steps
    datum = MismatchDatum.from_misfit(E0, 2, kind)
    dens = elastic_density_from_config({"kind": kind, "lam": LAM, "mu": MU}, 2)
    field, _ = solve_critical_point(_bumpy(16), datum, dens, ny=8)
    other, _ = solve_critical_point(Profile.flat(2, 16, 1.2), datum, dens, ny=8)
    cho = other.stiffness_cho
    prof2 = _bumpy(16, amp=0.11)
    _, factored = _always_factored(monkeypatch, prof2, datum, dens, ny=8, p0=field.p)
    calls = _count_hessians(monkeypatch)
    _, info = solve_critical_point(prof2, datum, dens, ny=8, p0=field.p, precond=cho)
    assert calls == []  # every step was taken by the inner solve
    assert info["energy"] == pytest.approx(factored["energy"], rel=1e-12)


@pytest.mark.parametrize("dim, n, ny", [(2, 16, 8), (3, 8, 6)])
def test_cold_nonlinear_solve_matches_always_factored_newton(monkeypatch, dim, n, ny):
    # steps after the first are preconditioned by the newest factor; the
    # residual test is the same, so the equilibrium and its spectrum are too
    from filmstab.anisotropy import IsotropicDensity
    from filmstab.stability import StabilityProblem

    prof = _bumpy(n) if dim == 2 else Profile.from_fourier_modes(3, n, CURVED_3D_MODES)
    datum = MismatchDatum.from_misfit(E0, dim, "nonlinear")
    dens = NonlinearDensity(dim, LAM, MU)
    field, info = solve_critical_point(prof, datum, dens, ny=ny)
    ref_field, ref = _always_factored(monkeypatch, prof, datum, dens, ny=ny)
    assert info["iterations"] == ref["iterations"]
    assert info["energy"] == pytest.approx(ref["energy"], rel=1e-12)
    lam, _ = StabilityProblem(field, IsotropicDensity(dim)).lambda1()
    ref_lam, _ = StabilityProblem(ref_field, IsotropicDensity(dim)).lambda1()
    assert lam == pytest.approx(ref_lam, rel=1e-10)


def _record_pcg(monkeypatch) -> list:
    """Patch ``_pcg_step``; returns ``(found a step, form products)`` per inner solve."""
    import filmstab.elasticity as elasticity

    solves, products = [], []
    pcg, form = elasticity._pcg_step, elasticity._form_apply

    def counting(*args):
        products.append(1)
        return form(*args)

    def recording(*args):
        products.clear()
        step = pcg(*args)
        solves.append((step is not None, len(products)))
        return step

    monkeypatch.setattr(elasticity, "_form_apply", counting)
    monkeypatch.setattr(elasticity, "_pcg_step", recording)
    return solves


def test_cold_solve_past_the_flat_equilibrium_factor_matches_the_factored_solve(monkeypatch):
    # at ptp/mean 0.66 the flat equilibrium at the mean thickness is too far
    # from the film for its factor: the first inner solve hits the cap and
    # the step falls back to the iterate's own factor
    prof = Profile(1.0 + 0.33 * np.cos(2.0 * np.pi * np.arange(16) / 16))
    datum = MismatchDatum.from_misfit(E0, 2, "nonlinear")
    dens = NonlinearDensity(2, LAM, MU)
    _, ref = _always_factored(monkeypatch, prof, datum, dens, ny=8)
    solves = _record_pcg(monkeypatch)
    _, info = solve_critical_point(prof, datum, dens, ny=8)
    assert solves[0] == (False, _PCG_MAX_ITER)
    assert info["iterations"] == ref["iterations"]
    assert info["energy"] == pytest.approx(ref["energy"], rel=1e-12)


@pytest.mark.parametrize("film", ["curved-3d", "flat-2d-datum-modes"])
def test_cold_nonlinear_solve_off_the_block_path_assembles_nothing(monkeypatch, film):
    # neither film is laterally uniform; the continuation starts at the flat
    # equilibrium without the datum's modes, whose factor is per wavenumber
    if film == "curved-3d":
        modes = [
            {"mode": [0, 0], "amplitude": 1.0},
            {"mode": [1, 0], "amplitude": 0.03},
            {"mode": [0, 1], "amplitude": 0.03, "phase": 0.5},
        ]
        prof, ny = Profile.from_fourier_modes(3, 8, modes), 6
        datum = MismatchDatum.from_misfit(E0, 3, "nonlinear")
    else:
        prof, ny = Profile.flat(2, 16, 1.0), 8
        wiggle = {"mode": 1, "amplitude": 0.01}
        datum = MismatchDatum.from_misfit(E0, 2, "nonlinear", modes=[wiggle])
    calls = _count_hessians(monkeypatch)
    solves = _record_pcg(monkeypatch)
    _, info = solve_critical_point(prof, datum, NonlinearDensity(prof.dim, LAM, MU), ny=ny)
    assert calls == []
    assert [found for found, _ in solves] == [True] * info["iterations"]
    assert info["residual_norm"] <= 1e-11


def test_poor_preconditioner_falls_back_to_the_factored_step(monkeypatch):
    datum = MismatchDatum.from_misfit(E0, 2, "linear")
    dens = LinearDensity.isotropic(2, LAM, MU)
    field, _ = solve_critical_point(_bumpy(16), datum, dens, ny=8)
    prof2 = _bumpy(16, amp=0.11)
    _, factored = solve_critical_point(prof2, datum, dens, ny=8, p0=field.p)
    # the identity leaves the inner solve unpreconditioned, which misses the
    # target within the iteration cap
    identity = SimpleNamespace(solve=np.copy)
    calls = _count_hessians(monkeypatch)
    _, info = solve_critical_point(prof2, datum, dens, ny=8, p0=field.p, precond=identity)
    assert len(calls) == info["iterations"] == 1
    assert info["energy"] == pytest.approx(factored["energy"], rel=1e-12)


def test_non_descent_newton_step_is_named():
    # an indefinite tensor (bypassing the positivity check) gives a tangent
    # without a Cholesky factor; from the flat equilibrium, the solved step
    # against a substrate wiggle climbs the energy at every continuation
    # step down to 1/64, and the last error is raised
    dens = object.__new__(LinearDensity)
    dens.dim, dens.C = 2, isotropic_tensor(2, -3.0, 1.0)
    datum = MismatchDatum.from_misfit(E0, 2, "linear", modes=[{"mode": 1, "amplitude": 0.01}])
    with pytest.raises(NewtonError, match="non-descent Newton step") as err:
        solve_critical_point(Profile.flat(2, 16, 1.0), datum, dens, ny=8)
    assert len(err.value.residuals) == 1


def test_newton_steps_by_an_indefinite_stiffness_that_still_descends(monkeypatch):
    # compressed by e0 = -0.2, this curved nonlinear film keeps a stiffness
    # without a Cholesky factor at every iterate; the first step is the inner
    # solve preconditioned by the flat equilibrium's factor, every later one
    # is solved against the dense stiffness, read once per step, and each is
    # a descent direction.  The solve targets the absolute residual bound
    import filmstab.elasticity as elasticity

    prof, dens = _bumpy(8, amp=0.2), NonlinearDensity(2, LAM, MU)
    datum = MismatchDatum.from_misfit(-0.2, 2, "nonlinear")
    scale = _residual_scale(ElasticField(build_grid(prof, 6), datum, dens))
    reads = []
    stiffness = elasticity.ElasticField.stiffness
    monkeypatch.setattr(
        elasticity.ElasticField, "stiffness", property(lambda f: reads.append(f) or stiffness.fget(f))
    )
    field, info = solve_critical_point(prof, datum, dens, ny=6, tol=1e-11 / scale)
    assert info["residual_norm"] <= 1e-11
    assert len(reads) == info["iterations"] - 1 == 4
    assert field.stiffness_cho is False


@pytest.mark.parametrize("amp", [0.066, 0.2])
def test_cold_solve_matches_the_continuation_from_the_flat_equilibrium(amp):
    # from p = 0 these films stop at a non-descent Newton step; the cold
    # route continues from the flat affine state to the profile, so it
    # reaches the equilibrium of that chain built by hand, node for node from
    # the flat equilibrium, in no more iterations
    from filmstab.flat import flat_field

    prof = Profile(1.0 + amp * np.cos(2.0 * np.pi * np.arange(16) / 16))
    datum = MismatchDatum.from_misfit(1.0, 2, "nonlinear")
    dens = NonlinearDensity(2, 10.0, 1.0)
    field, info = solve_critical_point(prof, datum, dens, ny=8)
    assert info["residual_norm"] <= NEWTON_TOL * _residual_scale(field)
    flat = flat_field(dens, datum, float(prof.samples.mean()), 16, 8)
    _, ref = continue_critical_point(flat, prof)
    assert info["iterations"] <= ref["iterations"]
    assert info["energy"] == pytest.approx(ref["energy"], rel=1e-12)


def test_cold_solve_of_a_strongly_stretched_curved_film_is_coercive():
    # stretched to A = 10, the flat field copied node for node onto this
    # film folds it where it is thin; the affine state on the film's own
    # grid does not, and Newton reaches a coercive equilibrium
    prof = Profile(1.0 + 0.2 * np.cos(2.0 * np.pi * np.arange(16) / 16))
    datum = MismatchDatum.from_misfit(9.0, 2, "nonlinear")
    field, info = solve_critical_point(prof, datum, NonlinearDensity(2, 10.0, 1.0), ny=8)
    assert info["residual_norm"] <= NEWTON_TOL * _residual_scale(field)
    assert coercivity_constant(field) > 0.0


def _record_attempts(monkeypatch) -> list:
    """Patch a cold solve, whose every attempt is one ``_at_amplitude`` and one ``_newton`` call.

    Returns ``[t_next, accepted]`` per attempt.
    """
    import filmstab.elasticity as elasticity

    attempts = []
    at_amplitude, newton = elasticity._at_amplitude, elasticity._newton

    def recording_amplitude(profile, datum, t):
        attempts.append([t, False])
        return at_amplitude(profile, datum, t)

    def recording_newton(*args):
        out = newton(*args)
        attempts[-1][1] = True
        return out

    monkeypatch.setattr(elasticity, "_at_amplitude", recording_amplitude)
    monkeypatch.setattr(elasticity, "_newton", recording_newton)
    return attempts


@pytest.mark.parametrize("film", ["2d-stretched", "3d-compressed-modes"])
def test_cold_solve_never_repeats_a_failed_attempt(monkeypatch, film):
    # the step after a failure is half the step tried, so no attempt repeats
    # a failed amplitude from the same start; from the flat field copied node
    # for node, the 2D film failed t = 1 twice from t = 0.5, and the 3D film
    # fails attempts and takes a step clamped to t = 1 after a success
    if film == "2d-stretched":
        prof, ny = Profile(1.0 + 0.2 * np.cos(2.0 * np.pi * np.arange(16) / 16)), 8
        datum = MismatchDatum.from_misfit(9.0, 2, "nonlinear")
        dens = NonlinearDensity(2, LAM, MU)
    else:
        modes = [{"mode": [0, 0], "amplitude": 1.0}, {"mode": [1, 0], "amplitude": 0.066}]
        prof, ny = Profile.from_fourier_modes(3, 8, modes), 6
        wiggle = {"mode": [1, 0], "amplitude": 0.05}
        datum = MismatchDatum.from_misfit(-0.2, 3, "nonlinear", modes=[wiggle])
        dens = NonlinearDensity(3, 10.0, 1.0)
    attempts = _record_attempts(monkeypatch)
    solve_critical_point(prof, datum, dens, ny=ny)
    t, failed = 0.0, set()
    for t_next, accepted in attempts:
        assert (t, t_next) not in failed
        if accepted:
            t = t_next
        else:
            failed.add((t, t_next))
    assert t == 1.0
    assert bool(failed) == (film == "3d-compressed-modes")


def test_newton_target_scales_with_the_moduli():
    # the stopping test is relative to the moduli, so moduli scaled by 1e-9
    # scale the equilibrium energy by 1e-9 and nothing else
    prof = Profile(1.0 + 0.2 * np.cos(2.0 * np.pi * np.arange(16) / 16))
    datum = MismatchDatum.from_misfit(0.2, 2, "nonlinear")
    energies = [
        solve_critical_point(prof, datum, NonlinearDensity(2, 2.0 * mu, mu), ny=8)[1]["energy"] / mu
        for mu in (1.0, 1e-9)
    ]
    assert energies[1] == pytest.approx(energies[0], rel=1e-10)


def test_warm_start_onto_another_lateral_grid_is_refused():
    datum = MismatchDatum.from_misfit(E0, 2, "linear")
    field, _ = solve_critical_point(_bumpy(16), datum, LinearDensity.isotropic(2, LAM, MU), ny=8)
    for other in (_bumpy(8), Profile(_bumpy(16).samples, width=2.0)):
        with pytest.raises(ValueError, match="matching horizontal grids"):
            continue_critical_point(field, other)


@pytest.mark.parametrize("n, ny", [(8, 5), (10, 6)])
def test_nonlinear_3d_cold_solve_converges_past_roundoff(n, ny):
    # these films reach a residual a few times the target after three steps,
    # where the predicted energy decrease is below the energy's rounding;
    # the residual-decrease test takes the last step
    prof = Profile.from_fourier_modes(3, n, CURVED_3D_MODES)
    datum = MismatchDatum.from_misfit(E0, 3, "nonlinear")
    _, info = solve_critical_point(prof, datum, NonlinearDensity(3, LAM, MU), ny=ny)
    assert info["iterations"] <= 5
    assert info["residual_norm"] <= 1e-11


def test_coercivity_constant_matches_dense_eigensolve():
    from scipy.linalg import eigh

    curved_3d = Profile.from_fourier_modes(
        3,
        8,
        [
            {"mode": [0, 0], "amplitude": 1.0},
            {"mode": [1, 0], "amplitude": 0.05},
            {"mode": [1, 1], "amplitude": 0.02, "phase": 0.5},
        ],
    )
    for prof, ny in [(_bumpy(12, amp=0.08), 6), (curved_3d, 5)]:
        dim = prof.dim
        grid = build_grid(prof, ny)
        datum = MismatchDatum.from_misfit(E0, dim, "linear")
        dens = LinearDensity.isotropic(dim, LAM, MU)
        field, _ = solve_critical_point(prof, datum, dens, ny=ny)
        K = assemble_hessian(
            grid, grid.wq[..., None, None, None, None] * dens.tangent(field.gradient())
        ).full()
        c0 = coercivity_constant(field)

        # the Lanczos recurrence on the stiffness's block-column factor
        assert isinstance(field.stiffness_cho, BlockCholesky)
        dense = eigh(K, h1_gram(grid).full(), eigvals_only=True)[0]
        assert c0 == pytest.approx(float(dense), rel=1e-10)
        assert c0 > 0.0
        # an indefinite tensor (bypassing the positivity check) gives a
        # stiffness without a Cholesky factor: the non-coercive branch
        indefinite = object.__new__(LinearDensity)
        indefinite.dim, indefinite.C = dim, isotropic_tensor(dim, 1.0, -0.3)
        field_neg = ElasticField(grid, datum, indefinite)
        assert field_neg.stiffness_cho is False
        c0_neg = coercivity_constant(field_neg)
        dense_neg = eigh(field_neg.stiffness.full(), h1_gram(grid).full(), eigvals_only=True)[0]
        assert c0_neg == pytest.approx(float(dense_neg), rel=1e-10)
        assert c0_neg < 0.0
        # the recurrence ran on K - sigma G, at a shift below c0
        assert min(0.0, _tangent_bound(field_neg)) <= dense_neg


def _no_factor_2d_field() -> ElasticField:
    # compressed by e0 = -0.2, this curved nonlinear film's equilibrium has
    # a stiffness without a Cholesky factor
    prof = Profile.from_fourier_modes(2, 24, [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.2}])
    datum = MismatchDatum.from_misfit(-0.2, 2, "nonlinear")
    solved, _ = solve_critical_point(prof, datum, NonlinearDensity(2, LAM, MU), ny=16)
    return ElasticField(solved.grid, datum, solved.density, solved.p)


def test_c0_without_a_factor_holds_one_block_factor(monkeypatch):
    # c0 runs its recurrence on the block factor of K - sigma G: one
    # assembly beyond the failed factor of K, about nd^2 / 2 numbers, and
    # no whole nd x nd matrix
    import tracemalloc

    import filmstab.elasticity as elasticity

    def refuse(*args):
        raise AssertionError("c0 read a whole matrix")

    assembled = []
    assemble = elasticity.assemble_hessian

    def recording(*args):
        assembled.append(args[0])
        return assemble(*args)

    field = _no_factor_2d_field()
    monkeypatch.setattr(elasticity.BlockColumns, "full", refuse)
    monkeypatch.setattr(elasticity, "h1_gram", refuse)
    monkeypatch.setattr(elasticity, "assemble_hessian", recording)
    nd = _flat_shapes(field.grid)[3]
    tracemalloc.start()
    try:
        c0 = coercivity_constant(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.stiffness_cho is False and c0 < 0.0
    assert len(assembled) == 2
    assert peak <= 1.5 * nd * nd * 8


def test_c0_without_a_certified_shift_is_named(monkeypatch):
    import filmstab.elasticity as elasticity

    monkeypatch.setattr(elasticity, "_stiffness_factor", lambda field, sigma=0.0: False)
    field = _no_factor_2d_field()
    sigma = min(0.0, _tangent_bound(field))
    with pytest.raises(ShiftedFactorError, match="c0 has no certified shift") as err:
        coercivity_constant(field)
    assert err.value.sigma == sigma
    assert f"sigma = {sigma:g}" in str(err.value)


def test_c0_lanczos_non_convergence_is_named(monkeypatch):
    import filmstab.elasticity as elasticity

    ritz = elasticity.eigh_tridiagonal

    def stalled(alphas, betas, **kwargs):
        # the true top Ritz value, with a Ritz vector that never converges
        theta, _ = ritz(alphas, betas, **kwargs)
        return theta, np.ones((len(alphas), 1))

    monkeypatch.setattr(elasticity, "eigh_tridiagonal", stalled)
    grid = build_grid(_bumpy(12), 6)
    density = LinearDensity.isotropic(2, LAM, MU)
    field = ElasticField(grid, MismatchDatum.from_misfit(E0, 2, "linear"), density)
    nd = _flat_shapes(grid)[3]
    with pytest.raises(CoercivityError, match=f"c0 did not converge after {nd} matvecs") as err:
        coercivity_constant(field)
    assert err.value.matvecs == nd
    assert err.value.tol == 1e-10
    assert "tolerance 1e-10" in str(err.value)


# a curved 3D film whose lowest c0 eigenvalues cluster (the bottom five
# within 0.6%), so its Lanczos recurrence takes over a hundred steps
CLUSTERED_3D_MODES = [
    {"mode": [0, 0], "amplitude": 1.0},
    {"mode": [1, 0], "amplitude": 0.03},
    {"mode": [0, 1], "amplitude": 0.02, "phase": 0.5},
]


def _clustered_field() -> ElasticField:
    prof = Profile.from_fourier_modes(3, 8, CLUSTERED_3D_MODES)
    datum = MismatchDatum.from_misfit(E0, 3, "linear")
    return solve_critical_point(prof, datum, LinearDensity.isotropic(3, LAM, MU), ny=8)[0]


@pytest.fixture(scope="module")
def clustered():
    """The clustered film, factored, with its dense ``c0``."""
    from scipy.linalg import eigh

    field = _clustered_field()
    assert field.stiffness_cho is not False
    K, G = field.stiffness.full(), h1_gram(field.grid).full()
    dense = eigh(K, G, eigvals_only=True, subset_by_index=[0, 0])
    return field, float(dense[0])


def test_c0_lanczos_matches_the_dense_eigensolve(clustered):
    # the clustered bottom spectrum; test_coercivity_constant_matches_dense_eigensolve
    # holds two more factored films to the same 1e-10
    field, dense = clustered
    assert isinstance(field.stiffness_cho, BlockCholesky)
    assert coercivity_constant(field) == pytest.approx(dense, rel=1e-10)


def test_c0_lanczos_holds_vectors_and_assembles_nothing(monkeypatch, clustered):
    # the recurrence runs on the stiffness's own factor: it holds a few
    # vectors, where a second factor would hold about nd^2 / 2 numbers
    import tracemalloc

    import filmstab.elasticity as elasticity

    def refuse(*args):
        raise AssertionError("c0 of a factored stiffness assembled a matrix")

    field, dense = clustered
    monkeypatch.setattr(elasticity, "assemble_hessian", refuse)
    nd = _flat_shapes(field.grid)[3]
    tracemalloc.start()
    try:
        c0 = coercivity_constant(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c0 == pytest.approx(dense, rel=1e-10)
    assert peak <= 32 * nd * 8


def test_c0_lanczos_stops_at_the_first_converged_step(monkeypatch, clustered):
    import filmstab.elasticity as elasticity

    steps = []
    ritz = elasticity.eigh_tridiagonal

    def recording(alphas, betas, **kwargs):
        theta, s = ritz(alphas, betas, **kwargs)
        steps.append((list(betas), float(theta[0]), abs(float(s[-1, 0]))))
        return theta, s

    monkeypatch.setattr(elasticity, "eigh_tridiagonal", recording)
    field, dense = clustered
    c0 = coercivity_constant(field)
    nd = _flat_shapes(field.grid)[3]
    # one Ritz solve per step, on a tridiagonal one row longer each time
    assert 1 < len(steps) < nd
    assert [len(betas) for betas, _, _ in steps] == list(range(len(steps)))
    # c0 is the reciprocal of the last top Ritz value
    assert c0 == 1.0 / steps[-1][1]
    assert c0 == pytest.approx(dense, rel=1e-10)
    # no earlier step met the residual test: the next step's tridiagonal
    # carries the beta that step computed
    for (_, theta, s), (betas, _, _) in zip(steps, steps[1:]):
        assert betas[-1] * s > elasticity._C0_TOL * theta
    # the top Ritz value grows towards 1 / c0 (interlacing)
    thetas = [theta for _, theta, _ in steps]
    assert all(b >= a * (1 - 1e-13) for a, b in zip(thetas, thetas[1:]))


def test_c0_lanczos_repeat_runs_are_bit_identical(clustered):
    # the fixed seeded start: the same field, and a new field that factors
    # its own stiffness again, give the same bits
    field, _ = clustered
    c0 = coercivity_constant(field)
    assert coercivity_constant(field) == c0
    fresh = ElasticField(field.grid, field.datum, field.density, field.p)
    assert coercivity_constant(fresh) == c0


def test_stiffness_read_before_the_factor_is_left_intact(monkeypatch):
    import filmstab.elasticity as elasticity
    from scipy.linalg import cho_factor

    solved = _clustered_field()
    # the solve cached its factor on the fields it made; a new one has none
    field = ElasticField(solved.grid, solved.datum, solved.density, solved.p)
    K = field.stiffness.full()
    before = K.copy()
    c, lower = cho_factor(K, lower=True)
    assert np.array_equal(K, before)
    # the factor comes from one assembly of its own, factored in
    # place, and agrees with LAPACK's factor of the full matrix; the field
    # keeps no dense stiffness
    assembled = []
    assemble = elasticity.assemble_hessian

    def recording(*args, **kwargs):
        assembled.append(assemble(*args, **kwargs))
        return assembled[-1]

    monkeypatch.setattr(elasticity, "assemble_hessian", recording)
    factor = field.stiffness_cho
    assert lower and np.array_equal(K, before)
    assert len(assembled) == 1
    L, scale = np.tril(c), np.abs(c).max()
    for (s, e, U, P), M in zip(factor.blocks, assembled[0].columns):
        assert np.shares_memory(U, M) and (P.size == 0 or np.shares_memory(P, M))
        assert np.abs(np.triu(U).T - L[s:e, s:e]).max() <= 1e-13 * scale
        assert np.abs(P - L[e:, s:e]).max(initial=0.0) <= 1e-13 * scale
    assert set(field._stiffness) == {"blocks", "cho"}


@pytest.fixture(scope="module")
def no_factor_3d():
    """A compressed curved nonlinear 3D film whose stiffness has no Cholesky factor, with its dense ``c0``."""
    from scipy.linalg import eigh

    modes = [
        {"mode": [0, 0], "amplitude": 1.0},
        {"mode": [1, 0], "amplitude": 0.2},
        {"mode": [0, 1], "amplitude": 0.1, "phase": 0.5},
    ]
    prof = Profile.from_fourier_modes(3, 8, modes)
    datum = MismatchDatum.from_misfit(-0.2, 3, "nonlinear")
    field = solve_critical_point(prof, datum, NonlinearDensity(3, LAM, MU), ny=6)[0]
    assert field.stiffness_cho is False
    K, G = field.stiffness.full(), h1_gram(field.grid).full()
    return field, float(eigh(K, G, eigvals_only=True, subset_by_index=[0, 0])[0])


LATERAL_SYMMETRIES = {
    "roll-x": lambda h: np.roll(h, 1, axis=0),
    "roll-y": lambda h: np.roll(h, 1, axis=1),
    "swap-axes": lambda h: h.T,
}


@pytest.mark.parametrize(
    "film, samples",
    [pytest.param("clustered", move, id=name) for name, move in LATERAL_SYMMETRIES.items()]
    + [pytest.param("no_factor_3d", move, id=f"no-factor-{name}") for name, move in LATERAL_SYMMETRIES.items()],
)
def test_c0_is_invariant_under_lateral_symmetries(request, film, samples):
    # the factored film, and a film whose c0 runs on K - sigma G
    field, dense = request.getfixturevalue(film)
    c0 = coercivity_constant(field)
    assert c0 == pytest.approx(dense, rel=1e-10)
    prof = field.grid.profile
    moved, _ = solve_critical_point(
        Profile(samples(prof.samples), width=prof.width), field.datum, field.density, ny=field.grid.ny
    )
    assert (moved.stiffness_cho is False) == (field.stiffness_cho is False)
    assert coercivity_constant(moved) == pytest.approx(c0, rel=1e-10)


@pytest.mark.parametrize("dim, n, ny", [(2, 16, 8), (3, 8, 5)])
def test_matrix_free_h1_gram_matches_assembled(dim, n, ny):
    grid, _ = _curved_case(dim, "linear", n, ny)
    v = np.random.default_rng(4).standard_normal(_flat_shapes(grid)[3])
    Gv = h1_gram(grid).full() @ v
    assert np.abs(_h1_gram_matvec(grid, v) - Gv).max() <= 1e-13 * np.abs(Gv).max()


def test_factor_solve_rejects_non_finite_right_hand_side():
    grid = build_grid(_bumpy(12), 6)
    field = ElasticField(grid, MismatchDatum.from_misfit(E0, 2, "linear"), LinearDensity.isotropic(2, LAM, MU))
    cho = field.stiffness_cho
    b = np.random.default_rng(5).standard_normal(_flat_shapes(grid)[3])
    assert np.array_equal(factor_solve(cho, b), cho.solve(b))
    b[3] = np.nan
    with pytest.raises(ValueError):
        factor_solve(cho, b)


def test_legendre_hadamard_isotropic_value():
    dens = LinearDensity.isotropic(2, LAM, MU)
    val = legendre_hadamard_check(dens, np.eye(2), samples=4096)
    # rank-one minimum of the isotropic tensor is the shear modulus
    assert val == pytest.approx(MU, abs=1e-3)
    assert val >= MU - 1e-12


def test_density_from_config():
    d = elastic_density_from_config({"kind": "linear", "lam": LAM, "mu": MU}, dim=2)
    assert isinstance(d, LinearDensity)
    d = elastic_density_from_config(
        {"kind": "linear", "tensor": isotropic_tensor(2, LAM, MU).tolist()}, dim=2
    )
    assert isinstance(d, LinearDensity)
    d = elastic_density_from_config({"kind": "nonlinear", "lam": LAM, "mu": MU}, dim=2)
    assert isinstance(d, NonlinearDensity)
    with pytest.raises(ValueError):
        elastic_density_from_config({"kind": "hyper"}, dim=2)


# -- assembly against the dense reference ---------------------------------------------


def _curved_case(dim, kind, n, ny):
    if dim == 2:
        modes = [
            {"mode": 0, "amplitude": 1.0},
            {"mode": 1, "amplitude": 0.06},
            {"mode": 2, "amplitude": 0.02, "phase": 0.5},
        ]
    else:
        modes = [
            {"mode": [0, 0], "amplitude": 1.0},
            {"mode": [1, 0], "amplitude": 0.05},
            {"mode": [1, 1], "amplitude": 0.02, "phase": 0.5},
        ]
    grid = build_grid(Profile.from_fourier_modes(dim, n, modes), ny)
    dens = LinearDensity.isotropic(dim, LAM, MU) if kind == "linear" else NonlinearDensity(dim, LAM, MU)
    # a smooth non-equilibrium field, so the coefficients vary from node to node
    y = grid.y[..., None]
    p = 0.02 * np.arange(1, dim + 1) * y * (y - 0.5 * grid.h[..., None, None])
    field = ElasticField(grid, MismatchDatum.from_misfit(E0, dim, kind), dens, p=p)
    return grid, grid.wq[..., None, None, None, None] * dens.tangent(field.gradient())


def _max_rel(A, B):
    return np.abs(A - B).max() / np.abs(B).max()


@pytest.mark.parametrize(
    "dim, kind, n, ny",
    [(2, "linear", 24, 12), (2, "nonlinear", 24, 12), (3, "linear", 8, 6), (3, "nonlinear", 8, 6)],
)
def test_assemble_hessian_matches_dense_reference(dim, kind, n, ny):
    grid, Cw = _curved_case(dim, kind, n, ny)
    K = assemble_hessian(grid, Cw).full()
    assert _max_rel(K, reference_assemble_hessian(grid, Cw)) <= 1e-13
    assert np.array_equal(K, K.T)
    G = h1_gram(grid).full()
    N = grid.dim
    eye4 = np.einsum("im,ab->iamb", np.eye(N), np.eye(N))
    G_ref = reference_assemble_hessian(grid, grid.wq[..., None, None, None, None] * eye4)
    G_ref[np.diag_indices(G.shape[0])] += interior_weight_vector(grid)
    assert _max_rel(G, G_ref) <= 1e-13
    assert np.array_equal(G, G.T)


@pytest.mark.parametrize("dim, n, ny", [(2, 24, 12), (3, 8, 6)])
def test_residual_kernel_and_form_products_match_their_references(dim, n, ny):
    grid, Cw = _curved_case(dim, "nonlinear", n, ny)
    rng = np.random.default_rng(6)
    stress = rng.standard_normal(grid.wq.shape + (dim, dim))
    assert np.abs(stress - np.swapaxes(stress, -1, -2)).max() > 0.1
    F = grid.wq[..., None, None] * stress
    assert _max_rel(assemble_residual(grid, F), einsum_residual(grid, F)) <= 1e-13
    v = rng.standard_normal(_flat_shapes(grid)[3])
    Kv = assemble_hessian(grid, Cw).full() @ v
    assert _max_rel(_form_apply(grid, v, _tangent_flux(grid, Cw)), Kv) <= 1e-12
    wq = grid.wq.reshape(-1, 1, 1)
    Gv = assemble_hessian(grid, _h1_coefficients(grid)).full() @ v
    assert _max_rel(_form_apply(grid, v, lambda g: wq * g), Gv) <= 1e-12


@pytest.mark.parametrize("dim, n, ny", [(2, 24, 12), (3, 8, 6)])
def test_residual_is_the_adjoint_of_the_grid_gradient(dim, n, ny):
    # sum_nodes F : grad v = r(F) . v for every weighted stress F and interior
    # v, to rounding: the residual applies the gradient's matrices transposed
    grid, _ = _curved_case(dim, "nonlinear", n, ny)
    rng = np.random.default_rng(7)
    F = grid.wq[..., None, None] * rng.standard_normal(grid.wq.shape + (dim, dim))
    v = rng.standard_normal(_flat_shapes(grid)[3])
    pairing = np.sum(F * grid.gradient(_from_interior(grid, v)))
    assert pairing == pytest.approx(assemble_residual(grid, F) @ v, rel=1e-13)


@pytest.mark.parametrize("dim, n, ny", [(2, 16, 8), (3, 8, 5)])
def test_assemble_hessian_uses_major_symmetric_part(dim, n, ny):
    grid, Cw = _curved_case(dim, "linear", n, ny)
    rng = np.random.default_rng(3)
    C = Cw * (1.0 + rng.uniform(-0.5, 0.5, size=Cw.shape))
    major = np.swapaxes(np.swapaxes(C, -4, -2), -3, -1)  # C[..., m, b, i, a]
    assert np.abs(C - major).max() > 0.1 * np.abs(C).max()
    K = assemble_hessian(grid, C).full()
    assert _max_rel(K, reference_assemble_hessian(grid, C)) <= 1e-13
    assert np.array_equal(K, K.T)


def test_assemble_hessian_memory_stays_near_one_matrix():
    import tracemalloc

    prof = _bumpy(48, amp=0.05)
    grid = build_grid(prof, 32)
    dens = NonlinearDensity(2, LAM, MU)
    field = ElasticField(grid, MismatchDatum.from_misfit(E0, 2, "nonlinear"), dens)
    Cw = grid.wq[..., None, None, None, None] * dens.tangent(field.gradient())
    nd = _flat_shapes(grid)[3]
    tracemalloc.start()
    try:
        K = assemble_hessian(grid, Cw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    packed = sum(M.nbytes for M in K.columns)
    assert K.shape == (nd, nd) and packed <= 0.6 * nd * nd * 8
    # the temporaries are small next to the block columns, and no nd x nd
    # array is made
    assert peak <= 1.5 * packed < nd * nd * 8
