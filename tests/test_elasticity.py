"""Elastic densities, discrete assembly, and equilibrium solves."""

import numpy as np
import pytest
from scipy.optimize import brentq

from filmstab.elasticity import (
    CoercivityError,
    ElasticField,
    LinearDensity,
    MismatchDatum,
    NewtonError,
    NonlinearDensity,
    _PCG_MAX_ITER,
    _flat_shapes,
    _form_apply,
    _from_interior,
    _h1_coefficients,
    _h1_gram_matvec,
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
from oracles import einsum_residual

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
    K = assemble_hessian(grid, grid.wq[..., None, None, None, None] * dens.tangent(g))
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


def test_cold_solve_past_the_flat_companion_matches_the_start_factor(monkeypatch):
    # at ptp/mean 0.66 the flat film at the mean thickness is too far from
    # the start for its factor: the first inner solve hits the cap and the
    # step falls back to the iterate's own factor
    prof = Profile(1.0 + 0.33 * np.cos(2.0 * np.pi * np.arange(16) / 16))
    datum = MismatchDatum.from_misfit(E0, 2, "nonlinear")
    dens = NonlinearDensity(2, LAM, MU)
    start = ElasticField(build_grid(prof, 8), datum, dens).stiffness_cho
    _, ref = solve_critical_point(prof, datum, dens, ny=8, precond=start)
    solves = _record_pcg(monkeypatch)
    _, info = solve_critical_point(prof, datum, dens, ny=8)
    assert solves[0] == (False, _PCG_MAX_ITER)
    assert info["iterations"] == ref["iterations"]
    assert info["energy"] == pytest.approx(ref["energy"], rel=1e-12)


@pytest.mark.parametrize("film", ["curved-3d", "flat-2d-datum-modes"])
def test_cold_nonlinear_solve_off_the_block_path_assembles_nothing(monkeypatch, film):
    # neither film is laterally uniform; the companion drops the datum's modes
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
    identity = (np.eye(_flat_shapes(field.grid)[3]), True)
    calls = _count_hessians(monkeypatch)
    _, info = solve_critical_point(prof2, datum, dens, ny=8, p0=field.p, precond=identity)
    assert len(calls) == info["iterations"] == 1
    assert info["energy"] == pytest.approx(factored["energy"], rel=1e-12)


def test_non_descent_newton_step_is_named():
    # an indefinite tensor (bypassing the positivity check) gives a tangent
    # without a Cholesky factor whose solved step climbs the energy; the
    # profile is curved, since a flat film starts at its affine equilibrium
    dens = object.__new__(LinearDensity)
    dens.dim, dens.C = 2, isotropic_tensor(2, -3.0, 1.0)
    datum = MismatchDatum.from_misfit(E0, 2, "linear")
    with pytest.raises(NewtonError, match="non-descent Newton step") as err:
        solve_critical_point(_bumpy(16, amp=0.01), datum, dens, ny=8)
    assert len(err.value.residuals) == 1


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
        )
        c0 = coercivity_constant(field)

        dense = eigh(K, h1_gram(grid), eigvals_only=True)[0]
        assert c0 == pytest.approx(float(dense), rel=1e-8)
        assert c0 > 0.0
        # an indefinite tensor (bypassing the positivity check) gives a
        # stiffness without a Cholesky factor: the non-coercive branch
        indefinite = object.__new__(LinearDensity)
        indefinite.dim, indefinite.C = dim, isotropic_tensor(dim, 1.0, -0.3)
        field_neg = ElasticField(grid, datum, indefinite)
        assert field_neg.stiffness_cho is False
        c0_neg = coercivity_constant(field_neg)
        dense_neg = eigh(field_neg.stiffness, h1_gram(grid), eigvals_only=True)[0]
        assert c0_neg == pytest.approx(float(dense_neg), rel=1e-8)
        assert c0_neg < 0.0


def test_c0_lanczos_non_convergence_is_named(monkeypatch):
    import filmstab.elasticity as elasticity
    from scipy.sparse.linalg import ArpackNoConvergence

    def stalled(A, **kwargs):
        for _ in range(3):
            A.matvec(kwargs["v0"])
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(elasticity, "eigsh", stalled)
    grid = build_grid(_bumpy(12), 6)
    density = LinearDensity.isotropic(2, LAM, MU)
    field = ElasticField(grid, MismatchDatum.from_misfit(E0, 2, "linear"), density)
    with pytest.raises(CoercivityError, match="c0 did not converge after 3 matvecs") as err:
        coercivity_constant(field)
    assert err.value.matvecs == 3
    assert err.value.tol == 1e-10
    assert "tolerance 1e-10" in str(err.value)


# a curved 3D film whose lowest c0 eigenvalues cluster (the bottom five
# within 0.6%), so the unshifted Lanczos outruns its budget
CLUSTERED_3D_MODES = [
    {"mode": [0, 0], "amplitude": 1.0},
    {"mode": [1, 0], "amplitude": 0.03},
    {"mode": [0, 1], "amplitude": 0.02, "phase": 0.5},
]


def _clustered_field(samples=None) -> ElasticField:
    prof = Profile.from_fourier_modes(3, 8, CLUSTERED_3D_MODES)
    if samples is not None:
        prof = Profile(samples(prof.samples), width=prof.width)
    datum = MismatchDatum.from_misfit(E0, 3, "linear")
    return solve_critical_point(prof, datum, LinearDensity.isotropic(3, LAM, MU), ny=8)[0]


@pytest.fixture(scope="module")
def clustered():
    """The clustered film, factored, with its dense ``c0``."""
    from scipy.linalg import eigh

    field = _clustered_field()
    assert field.stiffness_cho is not False
    dense = eigh(field.stiffness, h1_gram(field.grid), eigvals_only=True, subset_by_index=[0, 0])
    return field, float(dense[0])


def _record_c0_passes(monkeypatch):
    """Matvecs per ``c0`` Lanczos pass, and whether each shifted factorisation succeeded."""
    import filmstab.elasticity as elasticity
    from scipy.sparse.linalg import LinearOperator

    passes, factored = [], []
    eigsh, cho_factor = elasticity.eigsh, elasticity.cho_factor

    def counted_eigsh(A, **kwargs):
        passes.append(0)

        def matvec(x):
            passes[-1] += 1
            return A.matvec(x)

        return eigsh(LinearOperator(A.shape, matvec=matvec, dtype=float), **kwargs)

    def recorded_cho_factor(A, **kwargs):
        factored.append(False)
        result = cho_factor(A, **kwargs)
        factored[-1] = True
        return result

    monkeypatch.setattr(elasticity, "eigsh", counted_eigsh)
    monkeypatch.setattr(elasticity, "cho_factor", recorded_cho_factor)
    return passes, factored


@pytest.mark.parametrize(
    "constants, n_passes, factored",
    [
        ({"_C0_BUDGET": 1000}, 2, []),
        ({"_C0_BUDGET": 1}, 3, [True]),
        # a shift above the rough upper bound is above c0, so K - sigma G has no factor
        ({"_C0_BUDGET": 1, "_C0_SHIFT": 2.0}, 3, [False]),
    ],
    ids=["within-budget", "shifted", "shift-rejected"],
)
def test_every_c0_route_matches_the_dense_eigensolve(monkeypatch, clustered, constants, n_passes, factored):
    import filmstab.elasticity as elasticity

    field, dense = clustered
    for name, value in constants.items():
        monkeypatch.setattr(elasticity, name, value)
    passes, shifted = _record_c0_passes(monkeypatch)
    c0 = coercivity_constant(field)
    assert len(passes) == n_passes and shifted == factored
    assert c0 == pytest.approx(dense, rel=1e-10)


def test_stalled_shifted_c0_pass_reports_every_matvec(monkeypatch, clustered):
    import filmstab.elasticity as elasticity
    from scipy.sparse.linalg import ArpackNoConvergence

    field, _ = clustered
    monkeypatch.setattr(elasticity, "_C0_BUDGET", 1)
    passes, _ = _record_c0_passes(monkeypatch)
    counted_eigsh = elasticity.eigsh

    def stalled_when_shifted(A, **kwargs):
        if len(passes) < 2:
            return counted_eigsh(A, **kwargs)
        for _ in range(3):
            A.matvec(kwargs["v0"])
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(elasticity, "eigsh", stalled_when_shifted)
    with pytest.raises(CoercivityError, match="c0 did not converge after") as err:
        coercivity_constant(field)
    assert len(passes) == 2 and passes[1] > 0
    assert err.value.matvecs == sum(passes) + 3


def test_stiffness_read_before_the_factor_is_left_intact(monkeypatch):
    import filmstab.elasticity as elasticity
    from scipy.linalg import cho_factor

    solved = _clustered_field()
    # the solve cached its factor on the fields it made; a new one has none
    field = ElasticField(solved.grid, solved.datum, solved.density, solved.p)
    K = field.stiffness
    before = K.copy()
    c, lower = cho_factor(K, lower=True)
    assert np.array_equal(K, before)
    # the factor comes from one assembly of its own, factored in place, to
    # the same bits, and the field keeps no dense stiffness
    assembled = []
    assemble = elasticity.assemble_hessian

    def recording(*args):
        assembled.append(assemble(*args))
        return assembled[-1]

    monkeypatch.setattr(elasticity, "assemble_hessian", recording)
    c_field, lower_field = field.stiffness_cho
    assert lower and lower_field and np.array_equal(K, before)
    assert len(assembled) == 1 and np.shares_memory(c_field, assembled[0])
    assert np.array_equal(np.tril(c_field), np.tril(c))
    assert set(field._stiffness) == {"blocks", "cho"}


@pytest.mark.parametrize(
    "samples",
    [lambda h: np.roll(h, 1, axis=0), lambda h: np.roll(h, 1, axis=1), lambda h: h.T],
    ids=["roll-x", "roll-y", "swap-axes"],
)
def test_shifted_c0_is_invariant_under_lateral_symmetries(monkeypatch, clustered, samples):
    field, _ = clustered
    moved_field = _clustered_field(samples)
    passes, shifted = _record_c0_passes(monkeypatch)
    c0 = coercivity_constant(field)
    moved = coercivity_constant(moved_field)
    # both films take the shifted route
    assert len(passes) == 6 and shifted == [True, True]
    assert moved == pytest.approx(c0, rel=1e-10)


@pytest.mark.parametrize("dim, n, ny", [(2, 16, 8), (3, 8, 5)])
def test_matrix_free_h1_gram_matches_assembled(dim, n, ny):
    grid, _ = _curved_case(dim, "linear", n, ny)
    v = np.random.default_rng(4).standard_normal(_flat_shapes(grid)[3])
    Gv = h1_gram(grid) @ v
    assert np.abs(_h1_gram_matvec(grid, v) - Gv).max() <= 1e-13 * np.abs(Gv).max()


def test_factor_solve_rejects_non_finite_right_hand_side():
    from scipy.linalg import cho_factor, cho_solve

    grid = build_grid(_bumpy(12), 6)
    G = h1_gram(grid)
    cho = cho_factor(G, lower=True)
    b = np.random.default_rng(5).standard_normal(G.shape[0])
    assert np.array_equal(factor_solve(cho, b), cho_solve(cho, b))
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


# -- dense reference assembly ---------------------------------------------------------


def reference_assemble_hessian(grid, weighted_tangent):
    """Dense interior-dof matrix of the quadratic form with given coefficients.

    ``weighted_tangent`` has shape ``xshape + (ny, N, N, N, N)`` laid out
    ``(i, a, m, b)`` and carries the quadrature weights; the result is the
    matrix of ``sum_nodes w * C[grad v, grad w]`` over interior dofs.  The
    same routine assembles elastic tangents, unit-coefficient stiffness
    matrices, and any other gradient-gradient form.
    """
    nx, ny, N, nd = _flat_shapes(grid)
    nyc = ny - 1
    Lx, Ds, scoef = grid.assembly_operators()
    Cw = weighted_tangent.reshape(nx, ny, N, N, N, N)
    K = np.zeros((nx, nyc, N, nx, nyc, N))
    Ds_cols = Ds[:, 1:]          # samples t, trial/test dofs k >= 1
    Ds_int = Ds[1:, 1:]          # samples pinned to interior rows
    rows = np.arange(nyc)
    cols = np.arange(nx)
    for a in range(N):
        for b in range(N):
            C_ab = Cw[:, :, :, a, :, b]  # (nx, ny, N, N)
            sa, sb = scoef[a], scoef[b]
            if a < N - 1 and b < N - 1:
                T1 = np.einsum("rj,rtim,rp->jtipm", Lx[a], C_ab[:, 1:], Lx[b], optimize=True)
                K[:, rows, :, :, rows, :] += T1.transpose(1, 0, 2, 3, 4)
            if a < N - 1:
                coef = sb[..., None, None] * C_ab
                K += np.einsum("rj,rtim,tq->jtirqm", Lx[a], coef[:, 1:], Ds_int, optimize=True)
            if b < N - 1:
                coef = sa[..., None, None] * C_ab
                K += np.einsum("tk,rtim,rp->rkiptm", Ds_int, coef[:, 1:], Lx[b], optimize=True)
            coef = (sa * sb)[..., None, None] * C_ab
            T4 = np.einsum("tk,rtim,tq->rkiqm", Ds_cols, coef, Ds_cols, optimize=True)
            K[cols, :, :, cols, :, :] += T4
    K = K.reshape(nd, nd)
    return 0.5 * (K + K.T)


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
    K = assemble_hessian(grid, Cw)
    assert _max_rel(K, reference_assemble_hessian(grid, Cw)) <= 1e-13
    assert np.array_equal(K, K.T)
    G = h1_gram(grid)
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
    Kv = assemble_hessian(grid, Cw) @ v
    assert _max_rel(_form_apply(grid, v, _tangent_flux(grid, Cw)), Kv) <= 1e-12
    wq = grid.wq.reshape(-1, 1, 1)
    Gv = assemble_hessian(grid, _h1_coefficients(grid)) @ v
    assert _max_rel(_form_apply(grid, v, lambda g: wq * g), Gv) <= 1e-12


@pytest.mark.parametrize("dim, n, ny", [(2, 16, 8), (3, 8, 5)])
def test_assemble_hessian_uses_major_symmetric_part(dim, n, ny):
    grid, Cw = _curved_case(dim, "linear", n, ny)
    rng = np.random.default_rng(3)
    C = Cw * (1.0 + rng.uniform(-0.5, 0.5, size=Cw.shape))
    major = np.swapaxes(np.swapaxes(C, -4, -2), -3, -1)  # C[..., m, b, i, a]
    assert np.abs(C - major).max() > 0.1 * np.abs(C).max()
    K = assemble_hessian(grid, C)
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
    assert K.shape == (nd, nd)
    assert peak <= 1.5 * K.nbytes
