"""Anisotropic surface energy densities and their curvature operators.

A density ``psi`` is positively one-homogeneous on R^N minus the origin and
smooth on the directions the film's outward normal can take (which always has
a positive vertical component for a graph).  The surface energy of a profile
is the integral of ``psi(normal)`` over the free surface, and the first
variation brings in the anisotropic mean curvature

    H_psi(x) = sum_a  d/dx_a [ (d psi / d z_a)(-grad h(x), 1) ],

the divergence of the horizontal part of ``grad psi`` evaluated on the
unnormalized upward normal.  Second variations additionally need the
anisotropic shape operator ``(hess psi o normal) . B`` with ``B`` the shape
operator of the surface.

Concrete families:

* :class:`IsotropicDensity` -- ``scale * |z|``,
* :class:`QuadraticFormDensity` -- ``sqrt(z' M z)`` for M symmetric positive
  definite,
* :class:`RegularizedFacetDensity` -- ``a * sqrt(|z_horizontal|^2 +
  eps^2 z_N^2)``, the smooth core of the crystalline family,
* :class:`ShiftedFacetDensity` -- the regularized core plus ``(b - a*eps) *
  |z_N|``, smooth wherever ``z_N != 0``.
"""

from __future__ import annotations

import numpy as np

from .geometry import Profile, SurfaceGeometry
from .spectral import fourier_derivative

__all__ = [
    "AnisotropyDensity",
    "IsotropicDensity",
    "QuadraticFormDensity",
    "RegularizedFacetDensity",
    "ShiftedFacetDensity",
    "aniso_mean_curvature",
    "aniso_shape_operator",
    "anisotropy_from_config",
]


class AnisotropyDensity:
    """Base interface: one-homogeneous density with derivatives.

    Subclasses implement ``value``, ``gradient`` and ``hessian``, all
    vectorized over leading axes of ``z`` with shape ``(..., dim)``.
    ``upward_only`` marks densities that are differentiable only at
    directions with positive vertical component.
    """

    dim: int
    upward_only = False

    def value(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_nonzero(z: np.ndarray, name: str) -> None:
    norms = np.linalg.norm(z, axis=-1)
    if np.any(norms < 1e-14):
        raise ValueError(f"{name} is not differentiable at the origin")


class QuadraticFormDensity(AnisotropyDensity):
    """``psi(z) = sqrt(z' M z)`` for a symmetric positive definite M."""

    kind = "quadratic"

    def __init__(self, M):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"M must be a square matrix, got shape {M.shape}")
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("M must be symmetric")
        eigs = np.linalg.eigvalsh(M)
        if eigs.min() <= 0.0:
            raise ValueError(f"M must be positive definite, min eigenvalue {eigs.min():.3g}")
        self.M = 0.5 * (M + M.T)
        self.dim = M.shape[0]

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", z, self.M, z))

    def gradient(self, z):
        z = np.asarray(z, dtype=float)
        _check_nonzero(z, type(self).__name__)
        Mz = z @ self.M
        return Mz / self.value(z)[..., None]

    def hessian(self, z):
        z = np.asarray(z, dtype=float)
        _check_nonzero(z, type(self).__name__)
        Mz = z @ self.M
        val = self.value(z)
        return self.M / val[..., None, None] - (
            Mz[..., :, None] * Mz[..., None, :]
        ) / val[..., None, None] ** 3


class IsotropicDensity(QuadraticFormDensity):
    """``psi(z) = scale * |z|``."""

    kind = "isotropic"

    def __init__(self, dim: int, scale: float = 1.0):
        if scale <= 0.0:
            raise ValueError(f"scale must be positive, got {scale}")
        super().__init__(scale**2 * np.eye(dim))
        self.scale = float(scale)


class RegularizedFacetDensity(QuadraticFormDensity):
    """``psi(z) = a * sqrt(|z_horizontal|^2 + eps^2 z_N^2)``.

    Smooth away from the origin; its vertical-direction Hessian stiffness
    grows like ``a / eps``, which is what suppresses the stress-driven
    roughening for small ``eps``.
    """

    kind = "regularized-facet"

    def __init__(self, a: float, eps: float, dim: int):
        if a <= 0.0:
            raise ValueError(f"facet coefficient a must be positive, got {a}")
        if eps <= 0.0:
            raise ValueError(f"regularization eps must be positive, got {eps}")
        diag = np.ones(dim)
        diag[-1] = eps**2
        super().__init__(a**2 * np.diag(diag))
        self.a = float(a)
        self.eps = float(eps)


class ShiftedFacetDensity(AnisotropyDensity):
    """Regularized facet density plus ``(b - a*eps) |z_N|``.

    Requires ``0 < eps < b/a`` so the shift coefficient stays positive.  The
    vertical shift is linear on each half space, so derivatives exist exactly
    where ``z_N != 0``; the Hessian coincides with the regularized core's.
    """

    kind = "shifted-facet"
    upward_only = True

    def __init__(self, a: float, b: float, eps: float, dim: int):
        if b <= 0.0:
            raise ValueError(f"facet coefficient b must be positive, got {b}")
        if not 0.0 < eps < b / a:
            raise ValueError(f"shifted facet density needs 0 < eps < b/a = {b / a:.6g}, got eps={eps}")
        self.core = RegularizedFacetDensity(a, eps, dim)
        self.a = float(a)
        self.b = float(b)
        self.eps = float(eps)
        self.shift = float(b - a * eps)
        self.dim = dim

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return self.core.value(z) + self.shift * np.abs(z[..., -1])

    def _check_off_facet(self, z):
        if np.any(np.abs(z[..., -1]) < 1e-14):
            raise ValueError("shifted facet density is not differentiable at z_N = 0")

    def gradient(self, z):
        z = np.asarray(z, dtype=float)
        self._check_off_facet(z)
        grad = self.core.gradient(z)
        grad[..., -1] += self.shift * np.sign(z[..., -1])
        return grad

    def hessian(self, z):
        z = np.asarray(z, dtype=float)
        self._check_off_facet(z)
        return self.core.hessian(z)


# -- curvature operators -------------------------------------------------------


def aniso_mean_curvature(profile: Profile, psi: AnisotropyDensity) -> np.ndarray:
    """Anisotropic mean curvature of the free surface, sampled over the cell.

    Computed as the horizontal divergence of ``grad psi`` evaluated on the
    upward normal ``(-grad h, 1)``; one-homogeneity of ``psi`` makes the
    normalization irrelevant.  Sign convention: with the outward normal, a
    crest of the profile has positive values for the isotropic density.
    """
    if psi.dim != profile.dim:
        raise ValueError(f"density dimension {psi.dim} does not match profile dimension {profile.dim}")
    grad_h = np.moveaxis(profile.grad(), 0, -1)
    zvec = np.concatenate([-grad_h, np.ones(profile.xshape + (1,))], axis=-1)
    gpsi = psi.gradient(zvec)
    out = np.zeros(profile.xshape)
    for a in range(profile.dim - 1):
        out += fourier_derivative(gpsi[..., a], width=profile.width, axis=a)
    return out


def aniso_shape_operator(geom: SurfaceGeometry, psi: AnisotropyDensity) -> np.ndarray:
    """The trace entering the stability form, per surface node.

    Returns ``trace((hess psi o normal) . B^2)``: the trace of the
    anisotropic shape operator ``(hess psi o normal) . B`` times ``B``.
    """
    hess = psi.hessian(geom.normal)
    B = geom.shape_operator
    return np.einsum("...ij,...jk,...ki->...", hess, B, B)


def anisotropy_from_config(cfg: dict, dim: int) -> AnisotropyDensity:
    """Build a density from its JSON configuration block."""
    kind = cfg["kind"]
    if kind == "isotropic":
        return IsotropicDensity(dim, scale=float(cfg.get("scale", 1.0)))
    if kind == "quadratic":
        return QuadraticFormDensity(np.asarray(cfg["M"], dtype=float))
    if kind == "crystalline":
        a, b, eps = float(cfg["a"]), float(cfg["b"]), float(cfg["eps"])
        variant = cfg.get("variant", "regularized")
        if variant == "regularized":
            if not 0.0 < eps < b / a:
                raise ValueError(f"crystalline family needs 0 < eps < b/a = {b / a:.6g}, got eps={eps}")
            return RegularizedFacetDensity(a, eps, dim)
        if variant == "shifted":
            return ShiftedFacetDensity(a, b, eps, dim)
        raise ValueError(f"unknown crystalline variant {variant!r}")
    raise ValueError(f"unknown anisotropy kind {kind!r}")
