"""Periodic film profiles and the discrete geometry built on them.

A film occupies ``{(x, y) : x in the periodic cell, 0 < y < h(x)}`` for a
positive profile ``h`` on the cell ``(0, width)^(dim-1)`` with ``dim`` equal
to 2 or 3.  This module provides:

* :class:`Profile` -- positive periodic height samples with the one
  lateral derivative matrix and construction from configuration entries,
* :class:`SurfaceGeometry` -- unit normal, tangent projector, shape
  operator, mean curvature and area element of the free surface, plus
  tangential calculus helpers,
* :class:`MappedGrid` -- the tensor collocation grid ``(x, s*h(x))`` used by
  the elasticity solvers, with chain-rule derivative operators and positive
  quadrature weights.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import RESOLUTION_MIN_N, RESOLUTION_MIN_NY
from .spectral import (
    cheb_diff_matrix,
    cheb_lobatto_nodes,
    clenshaw_curtis_weights,
    cosine_series,
    fourier_diff_matrix,
)

__all__ = [
    "Profile",
    "SurfaceGeometry",
    "MappedGrid",
    "build_grid",
    "tangential_jacobian",
    "tangential_divergence",
    "surface_integral",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class Profile:
    """Positive periodic height function sampled on a uniform grid.

    Parameters
    ----------
    samples : array
        Shape ``(n,)`` for a two-dimensional film or ``(n, n)`` for a
        three-dimensional one.  All values must be strictly positive.
    width : float
        Side length of the periodic cell, finite and positive, 1 by default.
    """

    def __init__(self, samples, width: float = 1.0):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            dim = 2
        elif samples.ndim == 2 and samples.shape[0] == samples.shape[1]:
            dim = 3
        else:
            raise ValueError(f"profile samples must be (n,) or (n, n), got {samples.shape}")
        if samples.shape[0] < 4:
            raise ValueError(f"profile needs at least 4 samples per direction, got {samples.shape[0]}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("profile samples must be finite")
        if samples.min() <= 0.0:
            raise ValueError(f"profile must be strictly positive, min sample = {samples.min()}")
        if not 0.0 < width < np.inf:
            raise ValueError(f"cell width must be finite and positive, got {width}")
        self.samples = _readonly(samples)
        self.dim = dim
        self.n = samples.shape[0]
        self.width = float(width)

    # -- basic queries -----------------------------------------------------

    @property
    def xshape(self) -> tuple:
        return self.samples.shape

    def max(self) -> float:
        return float(self.samples.max())

    @cached_property
    def diff_matrix(self) -> np.ndarray:
        """The read-only :func:`~filmstab.spectral.fourier_diff_matrix` of the cell, built once."""
        return _readonly(fourier_diff_matrix(self.n, self.width))

    def lateral_derivative(self, values, axis: int = 0) -> np.ndarray:
        """Spectral derivative of nodal samples along one lateral axis.

        :attr:`diff_matrix` applied to each line along ``axis`` minus its
        value at the first node.  The matrix annihilates constants, so this
        is the same derivative, and a line constant along the axis gets
        exact zeros.
        """
        lines = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
        return np.moveaxis(np.tensordot(self.diff_matrix, lines - lines[:1], axes=1), 0, axis)

    def grad(self) -> np.ndarray:
        """Spectral gradient at the sample nodes, shape ``(dim-1,) + xshape``."""
        return np.stack([self.lateral_derivative(self.samples, a) for a in range(self.dim - 1)])

    # -- constructors ------------------------------------------------------

    @classmethod
    def flat(cls, dim: int, n: int, thickness: float, width: float = 1.0) -> "Profile":
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        shape = (n,) if dim == 2 else (n, n)
        return cls(np.full(shape, float(thickness)), width=width)

    @classmethod
    def from_fourier_modes(
        cls, dim: int, n: int, modes, width: float = 1.0, thickness: float = 0.0
    ) -> "Profile":
        """Build a profile from ``{"mode": m, "amplitude": a, "phase": p}`` terms.

        Each term contributes ``a * cos(2*pi*(m . x)/width + p)`` on top of the
        constant ``thickness``; mode 0 (or ``[0, 0]``) adds a further offset.
        """
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        return cls(cosine_series(n, width, dim, modes, start=thickness), width=width)

    @classmethod
    def from_config(cls, cfg: dict) -> "Profile":
        """Profile of a validated config block carrying ``kind``, ``dim`` and ``n``."""
        kind, dim, n = cfg["kind"], int(cfg["dim"]), int(cfg["n"])
        width = float(cfg.get("width", 1.0))
        if kind == "flat":
            return cls.flat(dim, n, float(cfg["thickness"]), width=width)
        if kind == "fourier":
            modes = list(cfg["modes"])
            thickness = float(cfg.get("thickness", 0.0))
            return cls.from_fourier_modes(dim, n, modes, width=width, thickness=thickness)
        if kind == "samples":
            samples = np.asarray(cfg["samples"], dtype=float)
            return cls(samples.reshape((n,) * (dim - 1)), width=width)
        raise ValueError(f"unknown profile kind {kind!r}")


class SurfaceGeometry:
    """Discrete geometry of the free surface of a film profile.

    Attributes
    ----------
    normal : array, ``xshape + (N,)``
        Outward unit normal ``(-grad h, 1) / sqrt(1 + |grad h|^2)``.
    tangent_projector : array, ``xshape + (N, N)``
        ``I - normal normal^T``, the orthogonal projector onto the tangent
        space.
    shape_operator : array, ``xshape + (N, N)``
        Gradient of the normal extended constantly in the vertical direction,
        restricted to the tangent space.  Annihilates the normal on both
        sides and its trace is the mean curvature.
    mean_curvature : array, ``xshape``
    area_jacobian : array, ``xshape``
        ``sqrt(1 + |grad h|^2)``, the surface measure density over the cell.
    """

    def __init__(self, profile: Profile):
        if profile.n < RESOLUTION_MIN_N:
            raise ValueError(
                f"surface geometry needs n >= {RESOLUTION_MIN_N} points per direction, got {profile.n}"
            )
        self.profile = profile
        N = profile.dim
        grad_h = profile.grad()  # (N-1,) + xshape
        self.grad_h = _readonly(np.moveaxis(grad_h, 0, -1))  # xshape + (N-1,)
        jac = np.sqrt(1.0 + np.sum(self.grad_h**2, axis=-1))
        normal = np.concatenate([-self.grad_h, np.ones(profile.xshape + (1,))], axis=-1)
        normal /= jac[..., None]
        self.normal = _readonly(normal)
        self.tangent_projector = _readonly(np.eye(N) - normal[..., :, None] * normal[..., None, :])
        self.area_jacobian = _readonly(jac)

        B = tangential_jacobian(self, normal)
        self.shape_operator = _readonly(B)
        self.mean_curvature = _readonly(np.trace(B, axis1=-2, axis2=-1))

        xw = (profile.width / profile.n) ** (N - 1)
        self.surface_weights = _readonly(xw * jac)


# -- tangential calculus on the free surface --------------------------------


def tangential_jacobian(geom: SurfaceGeometry, vec: np.ndarray) -> np.ndarray:
    """Row-wise tangential gradients of a surface vector field.

    ``vec`` has shape ``xshape + (m,)``; the result ``xshape + (m, N)`` holds
    the tangential gradient of each component in its rows.  Each component
    is extended constantly in the vertical direction and its full gradient
    projected onto the tangent space, which does not depend on the
    extension.  The shape operator is the tangential jacobian of the normal.
    """
    vec = np.asarray(vec, dtype=float)
    prof = geom.profile
    N = prof.dim
    m = vec.shape[-1]
    full = np.zeros(prof.xshape + (m, N))
    for a in range(N - 1):
        full[..., a] = prof.lateral_derivative(vec, a)
    return full @ geom.tangent_projector


def tangential_divergence(geom: SurfaceGeometry, vec: np.ndarray) -> np.ndarray:
    """Tangential divergence of a surface field with values in R^N."""
    jac = tangential_jacobian(geom, vec)
    return np.trace(jac, axis1=-2, axis2=-1)


def surface_integral(geom: SurfaceGeometry, values: np.ndarray) -> float:
    """Integral over the free surface of per-node values."""
    return float(np.sum(geom.surface_weights * values))


# -- mapped tensor grid -------------------------------------------------------


class MappedGrid:
    """Collocation grid ``(x_j, s_k * h(x_j))`` over the film of a profile.

    Horizontal directions are uniform periodic grids differentiated by the
    profile's :attr:`Profile.diff_matrix`, the vertical direction is
    Chebyshev-Lobatto in the scaled coordinate ``s = y / h(x)``.  The grid
    owns:

    * the chain-rule first-derivative operators of :meth:`gradient`, the
      nodal gradient that energy, residual and tangent all use,
    * positive volume quadrature weights (trapezoid in x, Clenshaw-Curtis in
      s, metric factor ``h``),
    * the free-surface row ``s = 1`` with its :class:`SurfaceGeometry`.
    """

    def __init__(self, profile: Profile, ny: int):
        if ny < RESOLUTION_MIN_NY:
            raise ValueError(f"mapped grid needs ny >= {RESOLUTION_MIN_NY}, got ny={ny}")
        self.profile = profile
        self.geom = SurfaceGeometry(profile)
        self.ny = ny
        self.dim = profile.dim
        self.xshape = profile.xshape
        self.nx = int(np.prod(profile.xshape))

        self.s = cheb_lobatto_nodes(ny)
        self.Ds = cheb_diff_matrix(ny)
        self.swts = clenshaw_curtis_weights(ny)

        n, width, N = profile.n, profile.width, profile.dim
        Dx = profile.diff_matrix
        if N == 2:
            self._Lx = (Dx,)
        else:
            eye = np.eye(n)
            self._Lx = (np.kron(Dx, eye), np.kron(eye, Dx))

        h = profile.samples
        grad_h = self.geom.grad_h  # xshape + (N-1,)
        self.h = h
        self.y = h[..., None] * self.s  # xshape + (ny,)

        # chain-rule coefficients: d/dx_a = Lx_a - (s dh_a / h) d/ds,
        # d/dy = (1/h) d/ds
        self.slope = np.empty(profile.xshape + (ny, N - 1))
        for a in range(N - 1):
            self.slope[..., a] = -(grad_h[..., a] / h)[..., None] * self.s
        self.vertical_scale = (1.0 / h)[..., None] * np.ones(ny)

        xw = (width / n) ** (N - 1)
        self.wq = xw * h[..., None] * self.swts  # xshape + (ny,)
        self.surface_index = ny - 1

    # -- derivative application ------------------------------------------------

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Gradient of a vector nodal field ``xshape + (ny, m)``.

        Returns ``xshape + (ny, m, N)`` with rows indexed by the component.
        It is the one nodal gradient of the package, taken on the
        :meth:`assembly_operators`, which the residual applies transposed.
        Each lateral ``Lx_a`` acts on the field minus its value
        at the first node of the line along axis ``a``, so a field constant
        along that axis gets exact zeros.
        """
        Lx, Ds, scoef = self.assembly_operators()
        N, nx = self.dim, self.nx
        flat = u.reshape(nx, self.ny, -1)
        us = np.matmul(Ds, flat)
        out = np.empty(flat.shape + (N,))
        lines = u.reshape(self.xshape + (-1,))
        for a in range(N - 1):
            du = lines - np.take(lines, [0], axis=a)
            out[..., a] = (Lx[a] @ du.reshape(nx, -1)).reshape(flat.shape) + scoef[a][..., None] * us
        out[..., N - 1] = scoef[N - 1][..., None] * us
        return out.reshape(u.shape + (N,))

    # -- quadrature --------------------------------------------------------------

    def volume_integral(self, values: np.ndarray) -> float:
        """Integral over the film of per-node values."""
        return float(np.sum(self.wq * values))

    def assembly_operators(self):
        """Dense building blocks for bilinear-form assembly.

        Returns ``(Lx, Ds, scoef)`` where ``Lx`` is the list of
        flattened-horizontal derivative matrices (one per horizontal
        direction), ``Ds`` the vertical collocation matrix, and ``scoef``
        holds per-node coefficient arrays of shape ``(nx, ny)``.  The gradient
        acts on a flattened nodal field along a lateral direction ``a < N - 1``
        as ``Lx_a u + scoef[a] * (u Ds^T)`` and along the vertical direction
        as ``scoef[N - 1] * (u Ds^T)``.
        """
        nx, ny = self.nx, self.ny
        scoef = [self.slope[..., a].reshape(nx, ny) for a in range(self.dim - 1)]
        scoef.append(self.vertical_scale.reshape(nx, ny))
        return self._Lx, self.Ds, scoef

    def surface_trace(self, u: np.ndarray) -> np.ndarray:
        """Values of a nodal field on the free-surface row ``s = 1``."""
        ax = self.dim - 1
        return np.take(u, self.surface_index, axis=ax)


def build_grid(profile: Profile, ny: int) -> MappedGrid:
    """Mapped collocation grid over the film of ``profile``."""
    return MappedGrid(profile, ny)
