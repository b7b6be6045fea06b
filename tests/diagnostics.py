"""Checks of the model that the command line does not run.

The stability verdict needs ``c0``, the surface Gram, ``lambda1``/``mu1``
and the flat threshold; the diagnostics here back the acceptance criteria
and unit tests instead:

* sampled convexity constants of the surface densities, and the sharp
  crystalline density with the family it bounds (criterion 7 and the
  anisotropy tests),
* the rank-one convexity scan and the random-perturbation minimality probe
  of the bulk energy,
* both sides of the thickness scaling law (criterion 5),
* the first variation of the total energy, and the defects of the normal
  and curvature transport identities under the normal flow (criterion 9),
  which interpolate the moved surface trigonometrically.
"""

import numpy as np

from filmstab.anisotropy import (
    AnisotropyDensity,
    ShiftedFacetDensity,
    aniso_mean_curvature,
    aniso_shape_operator,
)
from filmstab.elasticity import ElasticDensity, ElasticField, MismatchDatum
from filmstab.flat import FlatFilm
from filmstab.geometry import (
    Profile,
    SurfaceGeometry,
    surface_integral,
    tangential_divergence,
    tangential_jacobian,
)
from filmstab.spectral import fourier_nodes


def tangential_gradient(geom: SurfaceGeometry, phi) -> np.ndarray:
    """Tangential gradient of a scalar surface field, shape ``xshape + (N,)``."""
    return tangential_jacobian(geom, np.asarray(phi, dtype=float)[..., None])[..., 0, :]


# -- crystalline densities and convexity constants -------------------------------


class CylinderSupportDensity(AnisotropyDensity):
    """Sharp crystalline density ``a |z_horizontal| + b |z_N|``.

    Support function of a coordinate cylinder; it is evaluation-only, and any
    derivative request raises since the density has facets.
    """

    kind = "cylinder-support"
    upward_only = True

    def __init__(self, a: float, b: float, dim: int):
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"facet coefficients must be positive, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self.dim = dim

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return self.a * np.linalg.norm(z[..., :-1], axis=-1) + self.b * np.abs(z[..., -1])

    def gradient(self, z):
        raise NotImplementedError("the sharp crystalline density has facets; no gradient exists")

    def hessian(self, z):
        raise NotImplementedError("the sharp crystalline density has facets; no curvature exists")


def crystalline_family(a: float, b: float, eps: float, dim: int = 2):
    """The shifted density, its smooth core and the sharp limit for one (a, b, eps).

    The shifted member matches the sharp one on the vertical axis
    (``psi(0, .., 0, 1) = b`` for every admissible eps), increases pointwise
    on upward directions as eps decreases, and converges to the sharp density
    from below.
    """
    shifted = ShiftedFacetDensity(a, b, eps, dim)
    return shifted, shifted.core, CylinderSupportDensity(a, b, dim)


def _sphere_samples(dim: int, count: int, upward_only: bool) -> np.ndarray:
    if dim == 2:
        if upward_only:
            theta = np.linspace(1e-3, np.pi - 1e-3, count)
        else:
            theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    # Fibonacci sphere
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    golden = np.pi * (1.0 + np.sqrt(5.0))
    theta = golden * i
    pts = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
    )
    if upward_only:
        pts = pts[pts[..., -1] > 1e-3]
    return pts


def _tangent_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement, shape (..., dim-1, dim)."""
    dim = v.shape[-1]
    if dim == 2:
        t = np.stack([-v[..., 1], v[..., 0]], axis=-1)
        return t[..., None, :]
    ref = np.zeros_like(v)
    ref[..., 0] = 1.0
    swap = np.abs(v[..., 0]) > 0.9
    ref[swap, 0] = 0.0
    ref[swap, 1] = 1.0
    t1 = np.cross(v, ref)
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(v, t1)
    return np.stack([t1, t2], axis=-2)


def convexity_constants(psi: AnisotropyDensity, samples: int = 10_000):
    """Sampled bounds ``(m, M, cbar)`` for a density.

    ``m`` and ``M`` bound ``psi`` on unit directions from below and above;
    ``cbar`` is the smallest tangential Hessian eigenvalue over the sampled
    directions, a convexity modulus transverse to the radial direction.  For
    upward-only densities the sampling is restricted to directions with
    positive vertical component.  All three are estimates from dense
    deterministic sampling, not certified bounds.
    """
    pts = _sphere_samples(psi.dim, samples, psi.upward_only)
    vals = psi.value(pts)
    m, M = float(vals.min()), float(vals.max())
    try:
        hess = psi.hessian(pts)
    except NotImplementedError:
        return m, M, float("nan")
    basis = _tangent_basis(pts)
    proj = np.einsum("...ai,...ij,...bj->...ab", basis, hess, basis)
    if psi.dim == 2:
        tangential = proj[..., 0, 0]
    else:
        tangential = np.linalg.eigvalsh(proj)[..., 0]
    return m, M, float(tangential.min())


# -- bulk energy -------------------------------------------------------------------


def legendre_hadamard_check(
    density: ElasticDensity, xi: np.ndarray, samples: int = 512, seed: int = 0
) -> float:
    """Smallest sampled rank-one value of the tangent tensor at ``xi``.

    Scans unit directions ``c, n`` and returns the minimum of
    ``C[c otimes n, c otimes n]`` over the sample set and over the leading
    axes of ``xi``; a nonnegative result is consistent with rank-one
    convexity along the checked directions.
    """
    rng = np.random.default_rng(seed)
    N = density.dim
    c = rng.normal(size=(samples, N))
    n = rng.normal(size=(samples, N))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    C = density.tangent(np.asarray(xi, dtype=float))
    vals = np.einsum("...iamb,si,sa,sm,sb->...s", C, c, n, c, n)
    return float(vals.min())


def local_min_probe(
    field: ElasticField, count: int = 8, scale: float = 1e-4, seed: int = 0
) -> tuple[bool, float]:
    """Probe that an equilibrium is an energy local minimum at fixed profile.

    Evaluates the energy at random admissible interior perturbations of size
    ``scale`` around the field and returns ``(all nonnegative, smallest
    increment)``, a direct check that does not rely on the assembled
    tangent.
    """
    rng = np.random.default_rng(seed)
    e0 = field.energy()
    floor = 1e-12 * (1.0 + abs(e0))
    worst = np.inf
    ok = True
    for _ in range(count):
        dp = rng.normal(size=field.p.shape)
        dp[..., 0, :] = 0.0
        dp *= scale / max(np.abs(dp).max(), 1e-300)
        for sign in (1.0, -1.0):
            cand = field.with_p(field.p + sign * dp)
            if not field.density.admissible(cand.gradient()):
                continue
            diff = cand.energy() - e0
            worst = min(worst, diff)
            if diff < -floor:
                ok = False
    return ok, worst


# -- flat films --------------------------------------------------------------------


def scaling_law_check(
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    d: float,
    *,
    n: int = 32,
    ny: int = 20,
) -> tuple:
    """Both sides of the thickness scaling law at matched resolution.

    Returns ``(lhs, rhs)`` with ``lhs`` the largest eigenvalue on the cube
    cell of side ``d`` and ``rhs = d *`` the unit-cube value.  The cube grid
    of side ``d`` is the ``d``-dilate of the unit one, so the stiffness is a
    positive multiple of the unit one and ``lhs == rhs`` holds exactly on
    the grid, up to round-off; the cube-cell threshold and sweep of
    ``filmstab.flat`` rely on it.  Both sides are solved here per thickness.
    """
    film = FlatFilm(density, psi, datum, cell="cube", n=n, ny=ny)
    lhs, _ = film.problem(d).lambda1()
    rhs = d * film.problem(1.0).lambda1()[0]
    return lhs, rhs


# -- first variation and transport identities ----------------------------------------


def first_variation(field: ElasticField, psi: AnisotropyDensity, direction) -> float:
    """Derivative of the total energy along a vertical profile direction.

    ``direction`` holds nodal samples of the profile perturbation rate; the
    energy rate is its flat-cell integral against the surface energy density
    plus the anisotropic curvature.
    """
    geom = field.grid.geom
    g = field.surface_energy_density() + aniso_mean_curvature(field.grid.profile, psi)
    arr = np.asarray(direction, dtype=float)
    return surface_integral(geom, arr * g / geom.area_jacobian)


def trig_interpolate(samples: np.ndarray, width: float, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolant of periodic nodal samples at arbitrary points.

    ``samples`` is a full periodic grid, shape ``(n,)`` or ``(n, n)``;
    ``points`` carries a trailing coordinate axis matching the grid dimension
    (a bare array is accepted in the one-dimensional case).  Exact at the
    nodes and spectrally accurate in between.
    """
    samples = np.asarray(samples, dtype=float)
    ndim = samples.ndim
    if ndim not in (1, 2):
        raise ValueError(f"samples must be a 1d or 2d periodic grid, got ndim={samples.ndim}")
    n = samples.shape[0]
    if ndim == 2 and samples.shape != (n, n):
        raise ValueError(f"2d samples must be square, got {samples.shape}")
    points = np.asarray(points, dtype=float)
    if ndim == 1 and (points.ndim == 0 or points.shape[-1] != 1):
        points = points[..., None]
    if points.shape[-1] != ndim:
        raise ValueError(f"points must end with a length-{ndim} coordinate axis")
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / width
    if ndim == 1:
        coeff = np.fft.fft(samples) / n
        phase = np.exp(1j * np.multiply.outer(points[..., 0], k))
        return np.real(phase @ coeff)
    coeff = np.fft.fft2(samples) / n**2
    e1 = np.exp(1j * np.multiply.outer(points[..., 0], k))
    e2 = np.exp(1j * np.multiply.outer(points[..., 1], k))
    return np.real(np.einsum("...a,ab,...b->...", e1, coeff, e2))


def _horizontal_points(profile: Profile) -> np.ndarray:
    """Node coordinates of the horizontal grid with a trailing axis."""
    x = fourier_nodes(profile.n, profile.width)
    if profile.dim == 2:
        return x[:, None]
    g1, g2 = np.meshgrid(x, x, indexing="ij")
    return np.stack([g1, g2], axis=-1)


def normal_velocity_defect(profile: Profile, phi, t: float) -> float:
    """Sup defect of the normal-velocity identity at step ``t``.

    The surface is moved with normal speed ``phi`` for time ``t`` (graph
    update ``h + t * phi * area_jacobian``) and the new normal is evaluated
    at the transported foot point ``x - t * phi * grad h / area_jacobian``.
    The difference quotient of the normal approaches minus the tangential
    gradient of the speed, so the returned sup norm decays linearly in
    ``t``.
    """
    geom = SurfaceGeometry(profile)
    arr = np.asarray(phi, dtype=float)
    points = _horizontal_points(profile)
    moved_points = points - (t * arr / geom.area_jacobian)[..., None] * geom.grad_h
    moved_profile = Profile(profile.samples + t * arr * geom.area_jacobian, width=profile.width)
    slope = np.stack(
        [trig_interpolate(g, profile.width, moved_points) for g in moved_profile.grad()], axis=-1
    )
    jac = np.sqrt(1.0 + np.sum(slope**2, axis=-1))
    normal = np.concatenate([-slope, np.ones(arr.shape + (1,))], axis=-1) / jac[..., None]
    rate = (normal - geom.normal) / t
    defect = rate + tangential_gradient(geom, arr)
    return float(np.sqrt(np.sum(defect**2, axis=-1)).max())


def curvature_velocity_defect(profile: Profile, psi: AnisotropyDensity, phi, t: float) -> float:
    """Sup defect of the curvature transport identity at step ``t``.

    Along the same normal flow as :func:`normal_velocity_defect`, the
    anisotropic curvature evaluated at the transported foot point changes at
    the rate given by minus the tangential divergence of the anisotropy
    Hessian applied to the tangential speed gradient -- once normal
    transport is removed: the normal derivative of the curvature equals
    minus the trace of the anisotropy Hessian composed with the squared
    shape operator, so the speed times that trace is added to the difference
    quotient.  The combined sup-norm defect decays linearly in ``t``.
    """
    geom = SurfaceGeometry(profile)
    arr = np.asarray(phi, dtype=float)
    points = _horizontal_points(profile)
    moved_points = points - (t * arr / geom.area_jacobian)[..., None] * geom.grad_h
    moved_profile = Profile(profile.samples + t * arr * geom.area_jacobian, width=profile.width)
    curv_moved = aniso_mean_curvature(moved_profile, psi)
    interp_points = moved_points[..., 0] if profile.dim == 2 else moved_points
    curv_at = trig_interpolate(curv_moved, profile.width, interp_points)
    curv_base = aniso_mean_curvature(profile, psi)
    hess = psi.hessian(geom.normal)
    flux = np.einsum("...ij,...j->...i", hess, tangential_gradient(geom, arr))
    trace_part = aniso_shape_operator(geom, psi)
    rate = (curv_at - curv_base) / t
    defect = rate + arr * trace_part + tangential_divergence(geom, flux)
    return float(np.abs(defect).max())
