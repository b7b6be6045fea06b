"""Bulk elastic energy and equilibrium fields over a film domain.

The film stores elastic energy ``int W(grad u)`` with ``u`` pinned to a
mismatched lattice at the substrate and laterally periodic.  Two density
kinds are supported:

* ``linear`` -- ``W(xi) = 0.5 * C sym(xi) : sym(xi)`` acting on the gradient
  of a *displacement*; the substrate mismatch is a strain matrix ``A`` and
  ``u = (A x + q(x), 0)`` at the substrate line.
* ``nonlinear`` -- a compressible log-determinant model acting on the
  gradient of a *deformation*: ``W(xi) = (mu/2)(|xi|^2 - N) - mu log det xi
  + (lam/2)(log det xi)^2`` on ``det xi > 0``, minimized exactly at the
  identity with value zero.  The substrate datum is a stretch matrix and the
  vertical base component is the identity ``y``.

Fields are represented as ``base + p`` where the base carries the
(non-periodic) substrate datum in closed form and ``p`` lives on the mapped
collocation grid, vanishes on the substrate row and is laterally periodic.
Energy, residual and tangent are assembled from the same discrete gradient
operators, so the residual is the exact derivative of the discrete energy
and the tangent its exact second derivative -- the identities the stability
module and the finite-difference oracles both rely on.

A flat film under a datum without modes has one equilibrium, the affine state
of :func:`solve_affine`'s slope, which cold solves start from.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh, solve_triangular
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .geometry import MappedGrid, Profile, build_grid
from .spectral import cosine_series, fourier_derivative, lateral_grids

__all__ = [
    "ElasticDensity",
    "LinearDensity",
    "NonlinearDensity",
    "elastic_density_from_config",
    "MismatchDatum",
    "ElasticField",
    "LateralCholesky",
    "NewtonError",
    "CoercivityError",
    "assemble_residual",
    "assemble_hessian",
    "h1_gram",
    "interior_weight_vector",
    "factor_solve",
    "solve_affine",
    "solve_critical_point",
    "continue_critical_point",
    "coercivity_constant",
]


# -- densities -----------------------------------------------------------------


class ElasticDensity:
    """Base interface: energy density on matrix gradients with derivatives.

    ``value``, ``stress`` and ``tangent`` are vectorized over leading axes of
    ``xi`` with shape ``(..., dim, dim)``; ``tangent`` returns the full
    second-derivative tensor laid out ``(..., i, a, m, b)`` for
    ``d^2 W / d xi_ia d xi_mb``.
    """

    dim: int
    kind: str

    def value(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stress(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tangent(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def admissible(self, xi: np.ndarray) -> bool:
        """Whether all gradients lie in the density's domain."""
        return True


def isotropic_tensor(dim: int, lam: float, mu: float) -> np.ndarray:
    """The tensor ``C[i,a,m,b] = lam d_ia d_mb + mu (d_im d_ab + d_ib d_am)``."""
    I = np.eye(dim)
    return (
        lam * np.einsum("ia,mb->iamb", I, I)
        + mu * np.einsum("im,ab->iamb", I, I)
        + mu * np.einsum("ib,am->iamb", I, I)
    )


def _symmetrize_tensor(C: np.ndarray) -> np.ndarray:
    C = 0.5 * (C + C.transpose(1, 0, 2, 3))  # minor, first pair
    C = 0.5 * (C + C.transpose(0, 1, 3, 2))  # minor, second pair
    return 0.5 * (C + C.transpose(2, 3, 0, 1))  # major


def _sym_basis(dim: int):
    basis = []
    for i in range(dim):
        for j in range(i, dim):
            E = np.zeros((dim, dim))
            if i == j:
                E[i, i] = 1.0
            else:
                E[i, j] = E[j, i] = np.sqrt(0.5)
            basis.append(E)
    return basis


class LinearDensity(ElasticDensity):
    """Quadratic density ``0.5 * C sym(xi) : sym(xi)`` on displacement gradients."""

    kind = "linear"

    def __init__(self, C: np.ndarray):
        C = np.asarray(C, dtype=float)
        if C.ndim != 4 or len(set(C.shape)) != 1:
            raise ValueError(f"elasticity tensor must have shape (N,N,N,N), got {C.shape}")
        self.dim = C.shape[0]
        self.C = _symmetrize_tensor(C)
        basis = _sym_basis(self.dim)
        Q = np.array([[np.einsum("iamb,ia,mb->", self.C, E, F) for F in basis] for E in basis])
        eigs = np.linalg.eigvalsh(Q)
        if eigs.min() <= 1e-12 * max(eigs.max(), 1.0):
            raise ValueError(
                f"elasticity tensor must be positive definite on symmetric matrices, "
                f"min eigenvalue {eigs.min():.3g}"
            )

    @classmethod
    def isotropic(cls, dim: int, lam: float, mu: float) -> "LinearDensity":
        if mu <= 0.0 or lam + 2.0 * mu / dim <= 0.0:
            raise ValueError(f"need mu > 0 and lam + 2 mu / N > 0, got lam={lam}, mu={mu}")
        return cls(isotropic_tensor(dim, lam, mu))

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        return 0.5 * np.einsum("...ia,iamb,...mb->...", xi, self.C, xi)

    def stress(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.einsum("iamb,...mb->...ia", self.C, xi)

    def tangent(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.broadcast_to(self.C, xi.shape[:-2] + self.C.shape)


class NonlinearDensity(ElasticDensity):
    """Compressible log-determinant density on deformation gradients.

    ``W(xi) = (mu/2)(|xi|^2 - N) - mu log det xi + (lam/2)(log det xi)^2``
    is nonnegative, vanishes exactly at the identity together with its
    stress, and its tangent at the identity is the isotropic tensor with
    moduli ``(lam, mu)``.
    """

    kind = "nonlinear"

    def __init__(self, dim: int, lam: float, mu: float):
        if mu <= 0.0 or lam < 0.0:
            raise ValueError(f"need mu > 0 and lam >= 0, got lam={lam}, mu={mu}")
        self.dim = dim
        self.lam = float(lam)
        self.mu = float(mu)

    def _logdet(self, xi):
        det = np.linalg.det(xi)
        if np.any(det <= 0.0):
            raise ValueError("deformation gradient left the domain det > 0")
        return np.log(det)

    def admissible(self, xi):
        return bool(np.all(np.linalg.det(np.asarray(xi, dtype=float)) > 0.0))

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        ld = self._logdet(xi)
        frob = np.einsum("...ia,...ia->...", xi, xi)
        return 0.5 * self.mu * (frob - self.dim) - self.mu * ld + 0.5 * self.lam * ld**2

    def stress(self, xi):
        xi = np.asarray(xi, dtype=float)
        ld = self._logdet(xi)
        inv_t = np.swapaxes(np.linalg.inv(xi), -1, -2)
        return self.mu * xi + (self.lam * ld - self.mu)[..., None, None] * inv_t

    def tangent(self, xi):
        xi = np.asarray(xi, dtype=float)
        ld = self._logdet(xi)
        inv_t = np.swapaxes(np.linalg.inv(xi), -1, -2)
        I = np.eye(self.dim)
        out = np.einsum("im,ab->iamb", self.mu * I, I)
        out = np.broadcast_to(out, xi.shape[:-2] + out.shape).copy()
        out += self.lam * np.einsum("...ia,...mb->...iamb", inv_t, inv_t)
        coef = self.lam * ld - self.mu
        out -= coef[..., None, None, None, None] * np.einsum(
            "...ib,...ma->...iamb", inv_t, inv_t
        )
        return out


def elastic_density_from_config(cfg: dict, dim: int) -> ElasticDensity:
    """Build a density from its JSON configuration block."""
    kind = cfg["kind"]
    if kind == "linear":
        if "tensor" in cfg:
            return LinearDensity(np.asarray(cfg["tensor"], dtype=float))
        return LinearDensity.isotropic(dim, float(cfg["lam"]), float(cfg["mu"]))
    if kind == "nonlinear":
        return NonlinearDensity(dim, float(cfg["lam"]), float(cfg["mu"]))
    raise ValueError(f"unknown elastic density kind {kind!r}")


# -- substrate mismatch ---------------------------------------------------------


class MismatchDatum:
    """Dirichlet datum at the substrate: ``(A x + q(x), 0)``.

    ``A`` is the horizontal mismatch matrix ((N-1) x (N-1), a scalar for a
    two-dimensional film) and ``q`` an optional laterally periodic
    perturbation given as cosine terms per horizontal component.  For the
    linear kind ``A`` is a strain and may vanish or be indefinite; for the
    nonlinear kind the induced base deformation must be orientation
    preserving, which requires ``det A > 0``.
    """

    def __init__(self, A, dim: int, modes=None):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape != (dim - 1, dim - 1):
            raise ValueError(f"mismatch matrix must be {(dim - 1, dim - 1)}, got {A.shape}")
        self.A = A
        self.dim = dim
        self.modes = [dict(t) for t in modes] if modes else []
        for term in self.modes:
            c = int(term.get("component", 0))
            if not 0 <= c < dim - 1:
                raise ValueError(f"mode component {c} out of range for dim={dim}")

    @classmethod
    def from_misfit(cls, e0: float, dim: int, kind: str, modes=None) -> "MismatchDatum":
        """Shorthand for an isotropic misfit of size ``e0``.

        The linear kind reads it as the strain ``e0 * I``; the nonlinear kind
        as the stretch ``(1 + e0) * I`` of the substrate lattice.
        """
        scale = e0 if kind == "linear" else 1.0 + e0
        return cls(scale * np.eye(dim - 1), dim, modes=modes)

    def periodic_part(self, profile: Profile) -> np.ndarray:
        """Samples of ``q`` on the horizontal grid, shape ``xshape + (dim-1,)``."""
        per_component = [
            [t for t in self.modes if int(t.get("component", 0)) == c] for c in range(self.dim - 1)
        ]
        return np.stack(
            [cosine_series(profile.n, profile.width, self.dim, ts) for ts in per_component], axis=-1
        )


# -- discrete fields -------------------------------------------------------------


def _base_parts(grid: MappedGrid, datum: MismatchDatum, density: ElasticDensity):
    """Closed-form base field and its exact gradient on the grid nodes."""
    N = grid.dim
    if datum.dim != N or density.dim != N:
        raise ValueError("profile, datum and density dimensions must agree")
    kappa = 1.0 if density.kind == "nonlinear" else 0.0
    if density.kind == "nonlinear" and np.linalg.det(datum.A) <= 0.0:
        raise ValueError("nonlinear kind needs an orientation-preserving mismatch, det A > 0")

    prof = grid.profile
    grids = lateral_grids(prof.n, prof.width, N)
    q = datum.periodic_part(prof)  # xshape + (N-1,)

    base = np.zeros(prof.xshape + (grid.ny, N))
    for c in range(N - 1):
        horiz = sum(datum.A[c, a] * grids[a] for a in range(N - 1)) + q[..., c]
        base[..., c] = horiz[..., None]
    base[..., N - 1] = kappa * grid.y

    base_grad = np.zeros(prof.xshape + (grid.ny, N, N))
    for c in range(N - 1):
        for a in range(N - 1):
            dq = fourier_derivative(q[..., c], width=prof.width, axis=a)
            base_grad[..., c, a] = (datum.A[c, a] + dq)[..., None]
    base_grad[..., N - 1, N - 1] = kappa
    return base, base_grad


class ElasticField:
    """An elastic state ``base + p`` on a mapped grid.

    ``p`` is the nodal unknown, shape ``xshape + (ny, dim)``, zero on the
    substrate row; the base carries the mismatch datum exactly.  The field
    keeps its stiffness only as a factor: the Cholesky factor (or the
    per-wavenumber blocks and their factors) is cached, so the Newton
    steps, the stability problem and the warm-started re-solves share it,
    and a dense stiffness exists only while it is assembled and factored.
    The linear tangent does not depend on ``p``, so for the linear kind
    :meth:`with_p` shares that cache too.
    """

    def __init__(self, grid: MappedGrid, datum: MismatchDatum, density: ElasticDensity, p=None):
        self.grid = grid
        self.datum = datum
        self.density = density
        self.base, self.base_grad = _base_parts(grid, datum, density)
        shape = grid.profile.xshape + (grid.ny, grid.dim)
        if p is None:
            p = np.zeros(shape)
        else:
            p = np.asarray(p, dtype=float)
            if p.shape != shape:
                raise ValueError(f"p must have shape {shape}, got {p.shape}")
            if np.abs(p[..., 0, :]).max() > 1e-13:
                raise ValueError("p must vanish on the substrate row")
        self.p = p
        self._stiffness = {}  # "blocks" and "cho", once built

    def with_p(self, p: np.ndarray) -> "ElasticField":
        new = object.__new__(ElasticField)
        new.grid, new.datum, new.density = self.grid, self.datum, self.density
        new.base, new.base_grad = self.base, self.base_grad
        new.p = p
        new._stiffness = self._stiffness if self.density.kind == "linear" else {}
        return new

    def total(self) -> np.ndarray:
        """Nodal samples of the full field, ``xshape + (ny, dim)``."""
        return self.base + self.p

    def gradient(self) -> np.ndarray:
        """Samples of the field gradient, ``xshape + (ny, dim, dim)``."""
        return self.base_grad + self.grid.gradient(self.p)

    def gradient_derivative(self) -> np.ndarray:
        """Third-order samples ``d(grad u)_ia / dx_b``, ``xshape + (ny, N, N, N)``."""
        g = self.gradient()
        N = self.grid.dim
        dg = self.grid.gradient(g.reshape(g.shape[:-2] + (N * N,)))
        return dg.reshape(g.shape + (N,))

    def energy(self) -> float:
        return self.grid.volume_integral(self.density.value(self.gradient()))

    def surface_stress(self) -> np.ndarray:
        """Stress samples on the free-surface row."""
        return self.grid.surface_trace(self.density.stress(self.gradient()))

    def surface_energy_density(self) -> np.ndarray:
        """Elastic energy density on the free-surface row."""
        return self.grid.surface_trace(self.density.value(self.gradient()))

    def _weighted_tangent(self) -> np.ndarray:
        return self.grid.wq[..., None, None, None, None] * self.density.tangent(self.gradient())

    @property
    def stiffness(self) -> np.ndarray:
        """Interior-dof matrix of the tangent form at this field, assembled on every read.

        Nothing that has a factor reads it: the solves and ``c0`` go through
        :attr:`stiffness_cho`.  It is read once by the dense eigensolve of
        :func:`coercivity_constant` and by a direct Newton step, both only
        for a stiffness without a Cholesky factor, and by the tests.
        """
        return assemble_hessian(self.grid, self._weighted_tangent())

    @property
    def stiffness_blocks(self):
        """Per-wavenumber blocks of the stiffness, or ``None`` unless the field is laterally uniform.

        The field is laterally uniform when the profile is flat, the grid
        slope vanishes and the weighted tangent samples are the same in every
        lateral column, all tested exactly.  The stiffness then commutes with
        lateral shifts, and the real FFT over the lateral axes turns it into
        one Hermitian block per wavenumber (see :func:`_lateral_blocks`),
        built from the matrix-free tangent without assembling the stiffness.
        """
        cache = self._stiffness
        if "blocks" not in cache:
            grid, h = self.grid, self.grid.h
            cache["blocks"] = None
            if np.all(h == h.flat[0]) and not np.any(grid.slope):
                tangent_w = self._weighted_tangent()
                columns = tangent_w.reshape(grid.nx, -1)
                if np.all(columns == columns[0]):
                    flux = _tangent_flux(grid, tangent_w)
                    cache["blocks"] = _lateral_blocks(grid, lambda v: _form_apply(grid, v, flux))
        return cache["blocks"]

    @property
    def stiffness_cho(self):
        """Cholesky factor of the stiffness; ``False`` when it is not positive definite.

        A laterally uniform field gets a :class:`LateralCholesky` of its
        :attr:`stiffness_blocks` and never assembles the stiffness; any other
        field gets the ``cho_factor(K, lower=True)`` of a freshly assembled
        ``K``, factored in place by :func:`_shifted_stiffness_cho` at shift
        zero, so the factor is the only dense matrix the field holds.  A
        block without a Cholesky factor gives ``False`` with no dense retry:
        the blocks are a unitary block-diagonalisation of the stiffness, so
        it is positive definite exactly when they all are.
        """
        cache = self._stiffness
        if "cho" not in cache:
            blocks = self.stiffness_blocks
            if blocks is None:
                cache["cho"] = _shifted_stiffness_cho(self, 0.0)
            else:
                try:
                    cache["cho"] = LateralCholesky(self.grid.xshape, blocks)
                except LinAlgError:
                    cache["cho"] = False
        return cache["cho"]


# -- assembly ---------------------------------------------------------------------


def _flat_shapes(grid: MappedGrid):
    nx, ny, N = grid.nx, grid.ny, grid.dim
    return nx, ny, N, nx * (ny - 1) * N


def interior_weight_vector(grid: MappedGrid) -> np.ndarray:
    """Quadrature weights per interior dof (repeated across components)."""
    nx, ny, N, _ = _flat_shapes(grid)
    w = grid.wq.reshape(nx, ny)[:, 1:]
    return np.repeat(w.ravel(), N)


def assemble_residual(grid: MappedGrid, weighted_stress: np.ndarray) -> np.ndarray:
    """Interior-dof gradient of ``sum_nodes w * W`` given ``w * stress`` samples.

    ``weighted_stress`` has shape ``xshape + (ny, N, N)`` and already carries
    the quadrature weights.  Returns the flattened residual over interior
    dofs (all rows above the substrate).

    It is the transpose of the gradient applied to the stress: the
    vertical parts ``s_a F_a`` of all directions are summed first and
    meet ``Ds[:, 1:]^T`` in one product, and each lateral part is one
    ``Lx_a^T F_a`` product, all on BLAS.  Every matrix-free form product
    (:func:`_form_apply`) and every Newton residual ends here.
    """
    nx, ny, N, _ = _flat_shapes(grid)
    Lx, Ds, scoef = grid.assembly_operators()
    F = weighted_stress.reshape(nx, ny, N, N)
    vertical = sum(scoef[a][..., None] * F[..., a] for a in range(N))
    out = np.matmul(Ds[:, 1:].T, vertical)
    for a in range(N - 1):
        out += (Lx[a].T @ F[..., a].reshape(nx, ny * N)).reshape(nx, ny, N)[:, 1:]
    return out.ravel()


def assemble_hessian(grid: MappedGrid, weighted_tangent: np.ndarray) -> np.ndarray:
    """Dense interior-dof matrix of the quadratic form with given coefficients.

    ``weighted_tangent`` has shape ``xshape + (ny, N, N, N, N)`` laid out
    ``(i, a, m, b)`` and carries the quadrature weights; the result is the
    matrix of ``sum_nodes w * C[grad v, grad w]`` over interior dofs, built
    from the major-symmetric part of ``C``.  The same routine assembles
    elastic tangents, unit-coefficient stiffness matrices, and any other
    gradient-gradient form.

    The gradient splits into a lateral part ``Lx_a`` (Fourier, acting across
    columns) and a vertical part ``s_a * Ds`` (Chebyshev, acting within a
    column), so the matrix is the sum of four terms:

    * lateral-lateral, block diagonal in the vertical index;
    * vertical-vertical with the single coefficient ``S = sum_ab s_a s_b C_ab``,
      block diagonal in the lateral index;
    * the cross term ``X = sum_a Lx_a^T (x) (M_a Ds)`` with
      ``M_a = sum_b s_b C_ab``, and its mirror, which by major symmetry is
      ``X^T``.

    ``K`` is written one lateral row block at a time from small per-direction
    factors, so besides the one ``nd x nd`` result only arrays of size
    ``O(nd^2 / nx + nd^2 / (ny - 1))`` are alive.  The two block-diagonal
    terms are symmetrized before they are added, which makes ``K`` exactly
    symmetric.
    """
    nx, ny, N, nd = _flat_shapes(grid)
    nyc, nh = ny - 1, N - 1
    Lx, Ds, scoef = grid.assembly_operators()
    Cw = weighted_tangent.reshape(nx, ny, N, N, N, N)
    Cw = 0.5 * (Cw + Cw.transpose(0, 1, 4, 5, 2, 3))
    s = np.stack(scoef, axis=-1)  # (nx, ny, N) vertical-derivative factors
    Lxs = np.stack(Lx)            # (nh, nx, nx)
    Ds_cols = Ds[:, 1:]           # samples t, trial/test dofs k >= 1
    Ds_int = Ds[1:, 1:]           # samples pinned to interior rows

    # lateral-lateral blocks T1[j, t, i, p, m] (rows and columns at the same t)
    T1 = np.tensordot(
        Lxs, np.einsum("rtiamb,brp->artimp", Cw[:, 1:, :, :nh, :, :nh], Lxs), axes=([0, 1], [0, 1])
    ).transpose(0, 1, 2, 4, 3)
    T1 = 0.5 * (T1 + T1.transpose(3, 1, 4, 0, 2))
    # vertical-vertical blocks T4[r, k, i, q, m] (rows and columns at the same r)
    S = np.einsum("rtiamb,rta,rtb->rtim", Cw, s, s, optimize=True)
    T4 = np.einsum("tk,rtim,tq->rkiqm", Ds_cols, S, Ds_cols, optimize=True)
    T4 = 0.5 * (T4 + T4.transpose(0, 3, 4, 1, 2))
    # cross-term factors Y[a, t, i, r, q, m] = M_a[r, t, i, m] Ds_int[t, q]
    M = np.einsum("rtiamb,rtb->artim", Cw[:, 1:, :, :nh], s[:, 1:], optimize=True)
    Y = np.einsum("artim,tq->atirqm", M, Ds_int, optimize=True)
    Yt = Y.transpose(0, 3, 4, 5, 1, 2)  # Yt[a, j, k, i, q, m] = Y[a, q, m, j, k, i]

    K = np.empty((nx, nyc, N, nx, nyc, N))
    X = np.empty(K.shape[1:])
    Xt = np.empty(K.shape[1:])
    rows = np.arange(nyc)
    for j in range(nx):
        # row block j of X (into K) and of X^T, each summed over a in the same
        # order, so K[A, B] and K[B, A] add the same two rounded numbers
        Kj = K[j]
        np.multiply(Lxs[0, :, j, None, None], Y[0], out=Kj)
        np.multiply(Lxs[0, j, :, None, None], Yt[0, j][:, :, None], out=Xt)
        for a in range(1, nh):
            Kj += np.multiply(Lxs[a, :, j, None, None], Y[a], out=X)
            Xt += np.multiply(Lxs[a, j, :, None, None], Yt[a, j][:, :, None], out=X)
        Kj += Xt
        Kj[rows, :, :, rows, :] += T1[j]
        Kj[:, :, j] += T4[j]
    return K.reshape(nd, nd)


def _h1_coefficients(grid: MappedGrid) -> np.ndarray:
    """Weighted gradient-gradient coefficients ``w d_im d_ab`` of the Sobolev inner product."""
    I = np.eye(grid.dim)
    return grid.wq[..., None, None, None, None] * np.einsum("im,ab->iamb", I, I)


def h1_gram(grid: MappedGrid) -> np.ndarray:
    """Gram matrix of the first-order Sobolev inner product on interior dofs."""
    G = assemble_hessian(grid, _h1_coefficients(grid))
    G[np.diag_indices(G.shape[0])] += interior_weight_vector(grid)
    return G


def _shifted_stiffness_cho(field: ElasticField, sigma: float):
    """Cholesky factor of ``K - sigma G``, or ``False`` when it has none.

    ``K`` is the field's stiffness and ``G`` the :func:`h1_gram`.  The
    matrix is assembled in one pass from the weighted tangent minus
    ``sigma`` times the Sobolev coefficients, and ``cho_factor(K.T,
    lower=True)`` factors it in place: ``K.T`` is the same symmetric matrix
    in Fortran order, which LAPACK factors without a copy.  Subtracting
    ``sigma = 0`` is exact, so at shift zero this is the stiffness's own
    factor.
    """
    grid = field.grid
    K = assemble_hessian(grid, field._weighted_tangent() - sigma * _h1_coefficients(grid))
    K[np.diag_indices(K.shape[0])] -= sigma * interior_weight_vector(grid)
    try:
        return cho_factor(K.T, lower=True, overwrite_a=True)
    except LinAlgError:
        return False


def _h1_gram_matvec(grid: MappedGrid, v: np.ndarray) -> np.ndarray:
    """``h1_gram(grid) @ v`` without assembling the Gram matrix."""
    wq = grid.wq.reshape(-1, 1, 1)
    return _form_apply(grid, v, lambda g: wq * g) + interior_weight_vector(grid) * v


def _lateral_blocks(grid: MappedGrid, apply) -> np.ndarray:
    """Per-wavenumber blocks of an interior-dof operator that commutes with lateral shifts.

    ``apply`` is the operator's matrix-vector product.  Its responses to the
    ``m = (ny - 1) * N`` unit vectors of lateral column 0 are the block
    column ``k(j)`` that the shifts repeat, so the operator maps ``v`` to
    the lateral convolution ``sum_j' k(j - j') v(j')``.  The real FFT of
    ``k`` over the lateral axes is one Hermitian ``m x m`` block per
    wavenumber of the half spectrum, returned as ``(n_k, m, m)``; the other
    half are their complex conjugates.
    """
    nx, _, _, nd = _flat_shapes(grid)
    m = nd // nx
    column = np.stack([apply(e) for e in np.eye(m, nd)], axis=-1)
    axes = tuple(range(grid.dim - 1))
    blocks = np.fft.rfftn(column.reshape(grid.xshape + (m, m)), axes=axes).reshape(-1, m, m)
    return 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))


class LateralCholesky:
    """Cholesky factors of the per-wavenumber blocks of a laterally uniform stiffness.

    ``blocks`` come from :func:`_lateral_blocks`; a block without a
    Cholesky factor raises ``LinAlgError``.  :meth:`solve` takes the real
    FFT of the right-hand side over the lateral axes, solves each
    wavenumber against its block and transforms back, so a solve costs
    ``O(nd log nx + nd (ny N))`` instead of the dense ``O(nd^2)``.
    """

    def __init__(self, xshape: tuple, blocks: np.ndarray):
        self.xshape = tuple(xshape)
        self.factors = [cho_factor(block, lower=True) for block in blocks]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``K^-1 b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``."""
        axes = tuple(range(len(self.xshape)))
        bk = np.fft.rfftn(b.reshape(self.xshape + (-1,) + b.shape[1:]), axes=axes)
        per_mode = bk.reshape((len(self.factors),) + bk.shape[len(axes):])
        for k, c in enumerate(self.factors):
            per_mode[k] = cho_solve(c, per_mode[k], check_finite=False)
        return np.fft.irfftn(per_mode.reshape(bk.shape), s=self.xshape, axes=axes).reshape(b.shape)


# -- solves -----------------------------------------------------------------------


class NewtonError(RuntimeError):
    """Equilibrium solve failed; carries the residual history."""

    def __init__(self, message: str, residuals):
        super().__init__(f"{message} (residual history: {[f'{r:.3e}' for r in residuals]})")
        self.residuals = list(residuals)


def _from_interior(grid: MappedGrid, vec: np.ndarray) -> np.ndarray:
    nx, ny, N, _ = _flat_shapes(grid)
    p = np.zeros((nx, ny, N))
    p[:, 1:] = vec.reshape(nx, ny - 1, N)
    return p.reshape(grid.profile.xshape + (ny, N))


def _form_apply(grid: MappedGrid, v: np.ndarray, flux) -> np.ndarray:
    """Matrix-vector product of a gradient-gradient form, without its matrix.

    ``flux`` maps the gradient samples of ``v``, shape ``(-1, N, N)``, to the
    weighted stress samples the form pairs with ``grad w``; the result is the
    ``assemble_residual`` of that stress, the product with ``v`` of the
    matrix ``assemble_hessian`` builds from the same coefficients.
    """
    N = grid.dim
    gv = grid.gradient(_from_interior(grid, v)).reshape(-1, N, N)
    return assemble_residual(grid, flux(gv))


def _tangent_flux(grid: MappedGrid, tangent_w: np.ndarray):
    """The :func:`_form_apply` flux of a weighted tangent, major-symmetrised like its matrix."""
    N = grid.dim
    Cw = tangent_w.reshape(-1, N, N, N, N)
    Cw = 0.5 * (Cw + Cw.transpose(0, 3, 4, 1, 2))
    return lambda g: np.einsum("kiamb,kmb->kia", Cw, g)


def factor_solve(cho, b: np.ndarray) -> np.ndarray:
    """``K^-1 b`` against a stiffness factor, reading the factor once.

    ``cho`` is a dense ``cho_factor(K, lower=True)`` or a
    :class:`LateralCholesky`, and ``b`` a vector or a matrix of right-hand
    sides.  The factor is not scanned for non-finite entries, which would
    cost as much as the solve: ``cho_factor`` checked ``K`` when it built
    it, and the factor of a finite matrix is finite.  A non-finite ``b``
    raises ``ValueError``.
    """
    b = np.asarray_chkfinite(b)
    if isinstance(cho, LateralCholesky):
        return cho.solve(b)
    return cho_solve(cho, b, check_finite=False)


_AFFINE_TOL = 1e-11
_AFFINE_MAX_ITER = 40


def _affine_gradient(datum: MismatchDatum, b: np.ndarray) -> np.ndarray:
    N = datum.dim
    M = np.zeros((N, N))
    M[: N - 1, : N - 1] = datum.A
    M[:, N - 1] = b
    return M


def solve_affine(density: ElasticDensity, datum: MismatchDatum) -> np.ndarray:
    """The thickness-independent slope ``b`` of the affine state ``(A x, 0) + y * b``.

    The state is the deformation for the nonlinear kind and the displacement
    for the linear kind; its gradient is constant with last column ``b``,
    and the traction-free condition is ``stress(gradient)[:, -1] = 0``.  One
    Newton step settles the linear kind; the nonlinear kind starts from the
    vertical unit vector and needs the mismatch close enough to the identity
    for Newton to contract.  A datum with substrate modes, or a linear slope
    whose deformation ``I + gradient`` reverses orientation, raises
    ``ValueError``.
    """
    if datum.modes:
        raise ValueError("flat configurations need a laterally uniform datum (no substrate modes)")
    N = datum.dim
    kappa = 1.0 if density.kind == "nonlinear" else 0.0
    b = kappa * np.eye(N)[N - 1]
    residuals = []
    for _ in range(_AFFINE_MAX_ITER):
        M = _affine_gradient(datum, b)
        if not density.admissible(M):
            raise NewtonError("affine Newton left the admissible set (mismatch too large?)", residuals)
        traction = density.stress(M)[:, N - 1]
        residuals.append(float(np.abs(traction).max()))
        if residuals[-1] < _AFFINE_TOL:
            if density.kind == "linear" and np.linalg.det(M + np.eye(N)) <= 0.0:
                raise ValueError("the affine deformation is not orientation preserving")
            return b
        jac = density.tangent(M)[:, N - 1, :, N - 1]
        try:
            step = np.linalg.solve(jac, traction)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "singular vertical acoustic block: the affine problem lost its positivity"
            ) from exc
        b = b - step
    raise NewtonError(
        f"affine Newton did not reach {_AFFINE_TOL:.1e} in {_AFFINE_MAX_ITER} steps "
        "(mismatch too large?)",
        residuals,
    )


def _affine_p(grid: MappedGrid, datum: MismatchDatum, density: ElasticDensity) -> np.ndarray:
    """The unknown ``p`` of the affine equilibrium on a flat grid."""
    # the nonlinear base field already carries the vertical identity y
    kappa = 1.0 if density.kind == "nonlinear" else 0.0
    return grid.y[..., None] * (solve_affine(density, datum) - kappa * np.eye(grid.dim)[-1])


# the default Newton target, relative to the residual scale, and iteration cap
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50

# inner solves of a preconditioned Newton step stop at this fraction of the
# outer residual target, and give way to a factored tangent past the cap
_PCG_RTOL = 0.1
_PCG_MAX_ITER = 30


def _pcg_step(grid: MappedGrid, tangent_w: np.ndarray, r: np.ndarray, cho, target: float):
    """Newton step ``dp`` with ``K dp = -r`` by CG preconditioned with a fixed factor.

    ``K v`` is applied without assembling ``K``: it is the residual of the
    weighted, major-symmetrised tangent acting on ``grad v``, which is the
    tangent form's matrix-vector product for every density kind.  ``cho`` is
    a Cholesky factor of a nearby stiffness.  Returns ``None`` on
    nonpositive curvature or when the residual is still above ``target``
    after ``_PCG_MAX_ITER`` iterations.
    """
    flux = _tangent_flux(grid, tangent_w)
    x = np.zeros_like(r)
    res = -r
    z = factor_solve(cho, res)
    d = z
    rz = res @ z
    for _ in range(_PCG_MAX_ITER):
        q = _form_apply(grid, d, flux)
        curvature = d @ q
        if curvature <= 0.0:
            return None
        alpha = rz / curvature
        x = x + alpha * d
        res = res - alpha * q
        if np.linalg.norm(res) <= target:
            return x
        z = factor_solve(cho, res)
        rz, rz_old = res @ z, rz
        d = z + (rz / rz_old) * d
    return None


def _factored_step(work: ElasticField, r: np.ndarray, residuals):
    """Newton step ``dp`` with ``K dp = -r`` by the iterate's own stiffness ``K``.

    ``K``'s Cholesky factor is the one cached on ``work``: a linear field
    shares it with every field of its solve, a nonlinear iterate builds its
    own.  When ``K`` has no Cholesky factor the step is solved directly
    against the assembled ``K``, and one that is not a descent direction
    raises :class:`NewtonError`.
    """
    cho = work.stiffness_cho
    if cho is not False:
        return factor_solve(cho, -r)
    dp_vec = np.linalg.solve(work.stiffness, -r)
    if r @ dp_vec >= 0.0:
        raise NewtonError(f"non-descent Newton step (r·dp = {r @ dp_vec:.3e})", residuals)
    return dp_vec


def solve_critical_point(
    profile: Profile,
    datum: MismatchDatum,
    density: ElasticDensity,
    ny: int,
    p0: np.ndarray | None = None,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    precond=None,
) -> tuple[ElasticField, dict]:
    """Equilibrium elastic field over a profile by a guarded Newton iteration.

    Minimizes the discrete energy over fields that match the substrate datum
    and are laterally periodic.  For the linear kind the energy is quadratic
    and one step converges; the nonlinear kind backtracks on the energy and
    refuses steps that leave the admissible set.  Once the predicted energy
    decrease ``|r . dp|`` falls below the rounding of the energy
    (``64 eps |E|``), a step that lowers the residual norm is accepted
    instead, since the energy test can no longer tell steps apart.  Returns
    the field and an info dict with iteration count, final residual norm and
    energy.

    Every Newton step is first a conjugate-gradient solve of ``K dp = -r`` on
    the matrix-free tangent ``K``, preconditioned by the newest Cholesky
    factor at hand (inexact Newton, see :func:`_pcg_step`).  With no factor
    yet, or when that solve fails, the step is solved by the iterate's own
    :attr:`~ElasticField.stiffness_cho`, which becomes the newest factor.
    ``precond`` is the first factor: the ``cho_factor(K0, lower=True)`` of a
    nearby stiffness, or ``False`` for none.  ``None``, a cold start, is none
    for a linear film, whose first factor is the solution's own (the tangent
    does not depend on ``p``), and for a laterally uniform one, whose factors
    are per wavenumber.  Any other cold nonlinear film starts from its flat
    companion instead: the same density and the datum's ``A`` without modes,
    at ``p = 0`` on a flat profile of the mean thickness with the same
    ``n``, ``ny`` and width.  That stiffness is laterally uniform, so its
    factor is a :class:`LateralCholesky` built without assembling anything,
    and the only dense factor of the solve is the one a failed inner solve
    falls back to.  The true residual test is the same for every step, so the
    factors change the cost of a solve, not which fields it accepts.  A step
    that is not a descent direction, possible only when ``K`` has no Cholesky
    factor, raises :class:`NewtonError`.

    A flat profile under a datum without modes is laterally uniform, and its
    equilibrium is the affine state.  A cold solve starts there, so the
    residual test, still relative to the residual at ``p = 0``, accepts it at
    iteration 0 and its stiffness passes the exact test of
    :attr:`~ElasticField.stiffness_blocks`.  Where :func:`solve_affine`
    refuses the input, Newton starts from ``p = 0`` as for any other film.
    """
    grid = build_grid(profile, ny)
    h = profile.samples
    uniform = not datum.modes and np.all(h == h.flat[0])
    field = ElasticField(grid, datum, density, p=p0)
    scale = None
    if p0 is None and uniform:
        stress_w = grid.wq[..., None, None] * density.stress(field.gradient())
        scale = 1.0 + float(np.linalg.norm(assemble_residual(grid, stress_w)))
        with suppress(RuntimeError, ValueError):
            field = field.with_p(_affine_p(grid, datum, density))
    p = field.p
    cho = precond
    if cho is None and density.kind == "nonlinear" and not uniform:
        flat = Profile.flat(grid.dim, profile.n, float(h.mean()), profile.width)
        companion = ElasticField(build_grid(flat, ny), MismatchDatum(datum.A, grid.dim), density)
        cho = companion.stiffness_cho
    residuals = []
    for it in range(max_iter):
        work = field.with_p(p)
        gradu = work.gradient()
        if not density.admissible(gradu):
            raise NewtonError("iterate left the admissible set", residuals)
        energy = grid.volume_integral(density.value(gradu))
        stress_w = grid.wq[..., None, None] * density.stress(gradu)
        r = assemble_residual(grid, stress_w)
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if scale is None:
            scale = 1.0 + rnorm
        if rnorm <= tol * scale:
            return work, {"iterations": it, "residual_norm": rnorm, "energy": energy}
        dp_vec = None
        if cho:
            tangent_w = grid.wq[..., None, None, None, None] * density.tangent(gradu)
            dp_vec = _pcg_step(grid, tangent_w, r, cho, _PCG_RTOL * tol * scale)
        if dp_vec is None:
            dp_vec = _factored_step(work, r, residuals)
            cho = work.stiffness_cho
        dp = _from_interior(grid, dp_vec)
        slope = float(r @ dp_vec)
        # below this predicted decrease the energy test only compares rounding
        at_roundoff = abs(slope) <= 64.0 * np.finfo(float).eps * abs(energy)
        t = 1.0
        while True:
            cand = p + t * dp
            cand_grad = field.with_p(cand).gradient()
            if density.admissible(cand_grad):
                cand_energy = grid.volume_integral(density.value(cand_grad))
                if cand_energy <= energy + 1e-4 * t * slope:
                    break
                if at_roundoff:
                    cand_stress = grid.wq[..., None, None] * density.stress(cand_grad)
                    if np.linalg.norm(assemble_residual(grid, cand_stress)) < rnorm:
                        break
            t *= 0.5
            if t < 1e-8:
                raise NewtonError("line search failed", residuals)
        p = cand
    raise NewtonError(f"no convergence in {max_iter} iterations", residuals)


def continue_critical_point(field: ElasticField, new_profile: Profile) -> tuple[ElasticField, dict]:
    """Re-solve on a nearby profile, warm-starting from an existing field.

    Newton starts from the old unknown node for node: each node keeps its
    scaled height ``s``, so the start is the old field stretched with the
    film.  For the linear kind this only saves Newton iterations; for the
    nonlinear kind it keeps the iterate inside the admissible set when the
    profile step is small.

    The old field's cached stiffness factor is the first preconditioner of
    the Newton steps (see :func:`solve_critical_point`), so a re-solve
    assembles and factors nothing unless an inner solve falls back.  A
    field whose stiffness has no Cholesky factor starts with a factored
    step.
    """
    grid = field.grid
    if new_profile.xshape != grid.profile.xshape or new_profile.width != grid.profile.width:
        raise ValueError("warm start requires matching horizontal grids")
    return solve_critical_point(
        new_profile, field.datum, field.density, grid.ny, p0=field.p, precond=field.stiffness_cho
    )


# -- diagnostics --------------------------------------------------------------------


class CoercivityError(RuntimeError):
    """The Lanczos solve for ``c0`` did not converge.

    Carries the number of operator applications as ``matvecs`` and the
    requested relative accuracy as ``tol``.
    """

    def __init__(self, matvecs: int, tol: float):
        super().__init__(
            f"the Lanczos solve for c0 did not converge after {matvecs} matvecs "
            f"at tolerance {tol:g}"
        )
        self.matvecs = matvecs
        self.tol = tol


# relative accuracy of the c0 eigenvalue
_C0_TOL = 1e-10
# accuracy of the first, rough Lanczos pass, whose Ritz value bounds c0 above
_C0_ROUGH_TOL = 1e-2
# ARPACK restarts the unshifted pass may take before c0 pays for a shifted factor
_C0_BUDGET = 8
# the shift, as a fraction of the rough upper bound on c0
_C0_SHIFT = 0.99


def coercivity_constant(field: ElasticField) -> float:
    """Sharp constant relating the field's tangent form to the Sobolev norm.

    Returns the smallest generalized eigenvalue ``c0`` of the stiffness ``K``
    against the first-order Sobolev Gram matrix ``G`` on the same interior
    space: positive means the quadratic form controls the norm (coercive),
    negative means the form takes negative values and the configuration
    cannot be a local minimizer of the bulk problem.

    The route follows the field.  A laterally uniform one takes the exact
    minimum over wavenumbers of its :attr:`~ElasticField.stiffness_blocks`
    against the Gram's blocks, taken the same way from its matrix-free
    product, and assembles neither matrix.  A ``K`` without a Cholesky
    factor takes the dense generalized eigensolve against :func:`h1_gram`,
    the one read of :attr:`~ElasticField.stiffness` on this route.

    Any other ``K`` takes Lanczos solves for the top eigenvalue of
    ``L^-1 G L^-T``, which is ``1/c0``, against its factor ``L``
    (:attr:`~ElasticField.stiffness_cho`), with ``G`` applied matrix-free:

    1. a rough pass at ``_C0_ROUGH_TOL``; a Ritz value never exceeds the top
       eigenvalue, so its reciprocal ``c~`` bounds ``c0`` above;
    2. the same solve continued from the rough Ritz vector at ``_C0_TOL``,
       within ``_C0_BUDGET`` ARPACK restarts, which ends most films;
    3. past the budget, on a clustered bottom spectrum, the shift
       ``sigma = _C0_SHIFT * c~``: ``K - sigma G``, factored in place like
       ``K`` by :func:`_shifted_stiffness_cho`, has a Cholesky factor
       ``L_s`` exactly when ``sigma < c0``, and then the top eigenvalue
       ``theta`` of ``L_s^-1 G L_s^-T`` is well separated and
       ``c0 = sigma + 1/theta``; a ``K - sigma G`` without a factor sends
       the solve back to step 2 with no budget.

    Every pass starts from a fixed vector or from the previous one's, and
    the route depends on counts only, so repeated runs are bit-identical.
    A pass that does not converge raises :class:`CoercivityError` with the
    matvecs of all passes.
    """
    grid = field.grid
    blocks = field.stiffness_blocks
    if blocks is not None:
        G = _lateral_blocks(grid, lambda v: _h1_gram_matvec(grid, v))
        return min(
            float(eigh(Kk, Gk, subset_by_index=[0, 0], eigvals_only=True)[0])
            for Kk, Gk in zip(blocks, G)
        )
    cho = field.stiffness_cho
    if cho is False:
        return float(eigh(field.stiffness, h1_gram(grid), subset_by_index=[0, 0], eigvals_only=True)[0])
    nd = _flat_shapes(grid)[3]
    matvecs = 0

    def top_pair(factor, v0, tol, maxiter=None):
        """Top eigenpair of ``F^-1 G F^-T`` for the stored triangle ``F`` of a dense factor."""
        F, lower = factor

        def mv(w):
            nonlocal matvecs
            matvecs += 1
            t = solve_triangular(F, w, lower=lower, trans="T", check_finite=False)
            return solve_triangular(F, _h1_gram_matvec(grid, t), lower=lower, check_finite=False)

        # with the dtype given, LinearOperator does not spend a matvec to find it
        op = LinearOperator((nd, nd), matvec=mv, dtype=float)
        theta, y = eigsh(op, k=1, which="LA", tol=tol, v0=v0, maxiter=maxiter)
        return float(theta[0]), y[:, 0]

    v0 = np.random.default_rng(0).standard_normal(nd)
    try:
        theta, y = top_pair(cho, v0, _C0_ROUGH_TOL)
        try:
            return 1.0 / top_pair(cho, y, _C0_TOL, _C0_BUDGET)[0]
        except ArpackNoConvergence:
            pass
        sigma = _C0_SHIFT / theta
        shifted = _shifted_stiffness_cho(field, sigma)
        if shifted is False:
            return 1.0 / top_pair(cho, y, _C0_TOL)[0]
        return sigma + 1.0 / top_pair(shifted, v0, _C0_TOL)[0]
    except ArpackNoConvergence as err:
        raise CoercivityError(matvecs, _C0_TOL) from err
