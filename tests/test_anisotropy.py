"""Surface-energy densities: derivatives, homogeneity, curvature operators."""

import numpy as np
import pytest

from filmstab.anisotropy import (
    IsotropicDensity,
    QuadraticFormDensity,
    RegularizedFacetDensity,
    ShiftedFacetDensity,
    aniso_mean_curvature,
    aniso_shape_operator,
    anisotropy_from_config,
)
from filmstab.geometry import Profile, SurfaceGeometry
from diagnostics import CylinderSupportDensity, convexity_constants, crystalline_family


def _bump_profile(n=256, amp=0.1):
    return Profile.from_fourier_modes(
        2, n, [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": amp}]
    )


def _sample_densities(dim):
    rng = np.random.default_rng(7)
    M = rng.normal(size=(dim, dim))
    M = M @ M.T + dim * np.eye(dim)
    return [
        IsotropicDensity(dim, scale=1.7),
        QuadraticFormDensity(M),
        RegularizedFacetDensity(1.3, 0.25, dim),
        ShiftedFacetDensity(1.3, 2.0, 0.25, dim),
    ]


def _upward_points(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, dim))
    z[:, -1] = 0.5 + np.abs(z[:, -1])
    return z


@pytest.mark.parametrize("dim", [2, 3])
def test_euler_identity_and_homogeneity(dim):
    z = _upward_points(dim, 40)
    t = np.random.default_rng(1).uniform(0.2, 5.0, size=40)
    for psi in _sample_densities(dim):
        vals = psi.value(z)
        grad = psi.gradient(z)
        # one-homogeneous value, zero-homogeneous gradient
        assert np.allclose(np.einsum("ki,ki->k", grad, z), vals, rtol=1e-12, atol=1e-12)
        assert np.allclose(psi.value(t[:, None] * z), t * vals, rtol=1e-12)
        assert np.allclose(psi.gradient(t[:, None] * z), grad, rtol=1e-11, atol=1e-12)
        # Hessian: symmetric, annihilates the radial direction, scales like 1/t
        hess = psi.hessian(z)
        assert np.allclose(hess, np.swapaxes(hess, -1, -2), atol=1e-12)
        assert np.abs(np.einsum("kij,kj->ki", hess, z)).max() < 1e-12
        assert np.allclose(psi.hessian(t[:, None] * z), hess / t[:, None, None], rtol=1e-11)


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_and_hessian_match_finite_differences(dim):
    z = _upward_points(dim, 12, seed=3)
    step = 1e-6
    for psi in _sample_densities(dim):
        grad = psi.gradient(z)
        hess = psi.hessian(z)
        for a in range(dim):
            dz = np.zeros(dim)
            dz[a] = step
            fd_grad = (psi.value(z + dz) - psi.value(z - dz)) / (2 * step)
            fd_hess = (psi.gradient(z + dz) - psi.gradient(z - dz)) / (2 * step)
            assert np.allclose(fd_grad, grad[:, a], rtol=1e-6, atol=1e-8)
            assert np.allclose(fd_hess, hess[:, :, a], rtol=1e-5, atol=1e-6)


def test_crystalline_family_frozen_values():
    a, b, eps = 1.3, 2.0, 0.05
    shifted, core, sharp = crystalline_family(a, b, eps)
    up = np.array([0.0, 1.0])
    # vertical direction: core collapses to a*eps, shifted and sharp agree at b
    assert core.value(up) == pytest.approx(a * eps, rel=1e-14)
    assert shifted.value(up) == pytest.approx(b, rel=1e-14)
    assert sharp.value(up) == pytest.approx(b, rel=1e-14)
    assert sharp.value(np.array([1.0, 0.0])) == pytest.approx(a, rel=1e-14)
    # the facet stiffness of the regularized core at the pole is a/eps
    hess = core.hessian(up)
    assert hess[0, 0] == pytest.approx(a / eps, rel=1e-13)
    assert abs(hess[0, 1]) < 1e-14 and abs(hess[1, 1]) < 1e-14
    # shifted density shares the core's curvature off the facet
    z = _upward_points(2, 20, seed=5)
    assert np.allclose(shifted.hessian(z), core.hessian(z), rtol=1e-14)


def test_crystalline_family_monotone_in_eps():
    a, b = 1.0, 1.5
    theta = np.linspace(1e-2, np.pi - 1e-2, 200)
    v = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    sharp = CylinderSupportDensity(a, b, 2)
    prev = None
    for eps in [0.8, 0.4, 0.1, 0.02]:
        vals = ShiftedFacetDensity(a, b, eps, 2).value(v)
        # increases pointwise as eps decreases, staying below the sharp limit
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        assert np.all(vals <= sharp.value(v) + 1e-12)
        prev = vals
    assert np.abs(prev - sharp.value(v)).max() < a * 0.02


def test_density_argument_guards():
    with pytest.raises(ValueError):
        ShiftedFacetDensity(1.0, 1.5, 1.6, 2)  # eps >= b/a
    with pytest.raises(ValueError):
        QuadraticFormDensity(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        QuadraticFormDensity(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        IsotropicDensity(2, scale=0.0)
    psi = IsotropicDensity(2)
    with pytest.raises(ValueError):
        psi.gradient(np.zeros(2))
    with pytest.raises(ValueError):
        ShiftedFacetDensity(1.0, 1.5, 0.1, 2).gradient(np.array([1.0, 0.0]))
    sharp = CylinderSupportDensity(1.0, 1.5, 2)
    with pytest.raises(NotImplementedError):
        sharp.gradient(np.array([0.0, 1.0]))
    with pytest.raises(NotImplementedError):
        sharp.hessian(np.array([0.0, 1.0]))


def test_isotropic_mean_curvature_matches_graph_formula():
    prof = _bump_profile()
    H = aniso_mean_curvature(prof, IsotropicDensity(2))
    x = np.arange(256) / 256.0
    hp = -0.1 * 2 * np.pi * np.sin(2 * np.pi * x)
    hpp = -0.1 * (2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
    exact = -hpp / (1.0 + hp**2) ** 1.5
    assert np.abs(H - exact).max() < 1e-10
    # trough value frozen: +0.1*(2*pi)^2 curvature magnitude, concave-up there
    assert H[128] == pytest.approx(-0.1 * (2 * np.pi) ** 2, rel=1e-9)
    # scaling the density scales the curvature
    H3 = aniso_mean_curvature(prof, IsotropicDensity(2, scale=3.0))
    assert np.allclose(H3, 3.0 * H, rtol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_mean_curvature_is_first_variation_of_surface_energy(dim):
    n = 48
    if dim == 2:
        prof = Profile.from_fourier_modes(
            2,
            n,
            [
                {"mode": 0, "amplitude": 1.0},
                {"mode": 1, "amplitude": 0.08, "phase": 0.3},
                {"mode": 3, "amplitude": 0.02, "phase": 1.1},
            ],
        )
        x = np.arange(n) / n
        phi = np.cos(2 * np.pi * x) + 0.4 * np.sin(6 * np.pi * x)
    else:
        prof = Profile.from_fourier_modes(
            3,
            n,
            [
                {"mode": [0, 0], "amplitude": 1.0},
                {"mode": [1, 0], "amplitude": 0.08, "phase": 0.3},
                {"mode": [1, 2], "amplitude": 0.02, "phase": 1.1},
            ],
        )
        x = np.arange(n) / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        phi = np.cos(2 * np.pi * X) + 0.4 * np.sin(2 * np.pi * (X + 2 * Y))
    rngM = np.random.default_rng(11)
    A = rngM.normal(size=(dim, dim))
    psi = QuadraticFormDensity(A @ A.T + dim * np.eye(dim))

    def surf_energy(samples):
        p = Profile(samples, width=1.0)
        grad_h = np.moveaxis(p.grad(), 0, -1)
        z = np.concatenate([-grad_h, np.ones(p.xshape + (1,))], axis=-1)
        return psi.value(z).mean()  # cell has unit measure

    t = 1e-5
    fd = (surf_energy(prof.samples + t * phi) - surf_energy(prof.samples - t * phi)) / (2 * t)
    pairing = (aniso_mean_curvature(prof, psi) * phi).mean()
    assert fd == pytest.approx(pairing, rel=1e-7)


def test_shape_operator_trace_frozen_value():
    prof = _bump_profile()
    geom = SurfaceGeometry(prof)
    psi = IsotropicDensity(2)
    tr = aniso_shape_operator(geom, psi)
    # isotropic Hessian is the tangential projector, so the anisotropic shape
    # operator (hess psi o normal) . B is B itself
    B_psi = psi.hessian(geom.normal) @ geom.shape_operator
    assert np.abs(B_psi - geom.shape_operator).max() < 1e-11
    # and the trace reduces to H^2 for a one-dimensional surface
    assert np.allclose(tr, geom.mean_curvature**2, rtol=1e-9, atol=1e-11)
    kappa = 0.1 * (2 * np.pi) ** 2
    assert tr[0] == pytest.approx(kappa**2, rel=1e-10)


def test_shape_operator_trace_with_anisotropy():
    # weight the vertical direction: at the crest the normal is vertical and
    # the tangential Hessian entry of the regularized core is a/eps there
    a, eps = 1.3, 0.2
    geom = SurfaceGeometry(_bump_profile())
    core = RegularizedFacetDensity(a, eps, 2)
    tr = aniso_shape_operator(geom, core)
    kappa = 0.1 * (2 * np.pi) ** 2
    assert tr[0] == pytest.approx((a / eps) * kappa**2, rel=1e-9)


def test_convexity_constants_isotropic_and_quadratic():
    m, M, cbar = convexity_constants(IsotropicDensity(3, scale=2.0), samples=4000)
    assert m == pytest.approx(2.0, rel=1e-9)
    assert M == pytest.approx(2.0, rel=1e-9)
    assert cbar == pytest.approx(2.0, rel=1e-9)
    m, M, cbar = convexity_constants(QuadraticFormDensity(np.diag([4.0, 1.0])), samples=20000)
    assert m == pytest.approx(1.0, abs=1e-6)
    assert M == pytest.approx(2.0, abs=1e-6)
    assert cbar > 0.0


def test_convexity_constants_crystalline():
    a, b, eps = 1.0, 1.5, 0.1
    shifted, core, sharp = crystalline_family(a, b, eps)
    m, M, cbar = convexity_constants(core, samples=20000)
    assert m == pytest.approx(a * eps, abs=1e-5)
    assert M == pytest.approx(a, abs=1e-5)
    assert cbar > 0.0
    m_s, M_s, cbar_s = convexity_constants(shifted, samples=20000)
    assert m_s >= m - 1e-12 and M_s <= a + b
    assert cbar_s == pytest.approx(cbar, rel=1e-3)
    m_c, M_c, cbar_c = convexity_constants(sharp, samples=2000)
    assert m_c == pytest.approx(min(a, b), abs=5e-3)
    assert np.isnan(cbar_c)


def test_anisotropy_from_config_round_trip():
    psi = anisotropy_from_config({"kind": "isotropic", "scale": 2.5}, dim=2)
    assert isinstance(psi, IsotropicDensity) and psi.scale == 2.5
    psi = anisotropy_from_config({"kind": "quadratic", "M": [[2.0, 0.0], [0.0, 1.0]]}, dim=2)
    assert isinstance(psi, QuadraticFormDensity)
    psi = anisotropy_from_config({"kind": "crystalline", "a": 1.0, "b": 1.5, "eps": 0.1}, dim=2)
    assert isinstance(psi, RegularizedFacetDensity) and psi.eps == 0.1
    psi = anisotropy_from_config(
        {"kind": "crystalline", "a": 1.0, "b": 1.5, "eps": 0.1, "variant": "shifted"}, dim=2
    )
    assert isinstance(psi, ShiftedFacetDensity)
    with pytest.raises(ValueError):
        anisotropy_from_config({"kind": "crystalline", "a": 1.0, "b": 1.5, "eps": 2.0}, dim=2)
    with pytest.raises(ValueError):
        anisotropy_from_config({"kind": "hexagonal"}, dim=2)
