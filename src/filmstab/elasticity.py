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
of :func:`solve_affine`'s slope.  Every cold solve starts there, at the mean
thickness, and continues in amplitude to its profile and substrate modes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, eigh, eigh_tridiagonal, get_blas_funcs, get_lapack_funcs, solve
# nothing here calls eigsh; the benchmark tracer rebinds it at install
from scipy.sparse.linalg import eigsh  # noqa: F401

from .geometry import MappedGrid, Profile, build_grid
from .spectral import cosine_series, lateral_grids

__all__ = [
    "ElasticDensity",
    "LinearDensity",
    "NonlinearDensity",
    "elastic_density_from_config",
    "MismatchDatum",
    "ElasticField",
    "LateralCholesky",
    "BlockColumns",
    "BlockCholesky",
    "NewtonError",
    "CoercivityError",
    "ShiftedFactorError",
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
            dq = prof.lateral_derivative(q[..., c], a)
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
    and the field holds no ``nd x nd`` array.
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
    def stiffness(self) -> "BlockColumns":
        """:class:`BlockColumns` of the tangent form's interior-dof matrix, assembled on every read.

        Nothing that has a factor reads it: the solves and ``c0`` go through
        :attr:`stiffness_cho`, or for a stiffness without one, ``c0`` through
        the factor of a shifted ``K - sigma G`` (see
        :func:`coercivity_constant`).  It is read by a direct Newton step on
        a stiffness without a Cholesky factor, and by the tests.
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
        field gets the :class:`BlockCholesky` of the lower triangle of a
        freshly assembled ``K``, factored in place by
        :func:`_stiffness_factor`, about half the memory of a full
        ``nd x nd`` matrix.  It is the only factor of the field: the solves
        and the ``c0`` Lanczos recurrence both read it.  A block without a
        Cholesky factor gives ``False`` with no dense retry:
        the blocks are a unitary block-diagonalisation of the stiffness, so
        it is positive definite exactly when they all are.
        """
        cache = self._stiffness
        if "cho" not in cache:
            blocks = self.stiffness_blocks
            if blocks is None:
                cache["cho"] = _stiffness_factor(self)
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


def assemble_hessian(grid: MappedGrid, weighted_tangent: np.ndarray) -> "BlockColumns":
    """Lower triangle, by block columns, of the interior-dof matrix of a quadratic form.

    ``weighted_tangent`` has shape ``xshape + (ny, N, N, N, N)`` laid out
    ``(i, a, m, b)`` and carries the quadrature weights; the result is the
    :class:`BlockColumns` of the matrix of ``sum_nodes w * C[grad v, grad w]``
    over interior dofs, built from the major-symmetric part of ``C``.  The
    same routine assembles elastic tangents, unit-coefficient stiffness
    matrices, and any other gradient-gradient form.

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
    factors, each row block only from its block column's first column on,
    which is the transpose of its part of that block column.  So no
    ``nd x nd`` array is made: besides the result only arrays of size
    ``O(nd^2 / nx + nd^2 / (ny - 1))`` are alive.  The two block-diagonal
    terms are symmetrized before they are added, which makes ``K`` exactly
    symmetric.  Every row block is checked for non-finite entries as it is
    written, and one raises ``ValueError``.
    """
    nx, ny, N, nd = _flat_shapes(grid)
    nyc, nh, m = ny - 1, N - 1, nd // nx
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

    K = BlockColumns(grid)
    bufs = [np.empty(m * nd) for _ in range(3)]
    rows = np.arange(nyc)
    for start, column in zip(K.starts, K.columns):
        # row block j of X (into K) and of X^T from the block column's first
        # lateral column q on, each summed over a in the same order, so
        # K[A, B] and K[B, A] add the same two rounded numbers
        q = start // m
        shape = (nyc, N, nx - q, nyc, N)
        Kj, X, Xt = (buf[: m * (nd - start)].reshape(shape) for buf in bufs)
        for j in range(q, q + column.shape[1] // m):
            np.multiply(Lxs[0, q:, j, None, None], Y[0][:, :, q:], out=Kj)
            np.multiply(Lxs[0, j, q:, None, None], Yt[0, j][:, :, None], out=Xt)
            for a in range(1, nh):
                Kj += np.multiply(Lxs[a, q:, j, None, None], Y[a][:, :, q:], out=X)
                Xt += np.multiply(Lxs[a, j, q:, None, None], Yt[a, j][:, :, None], out=X)
            Kj += Xt
            Kj[rows, :, :, rows, :] += T1[j][:, :, q:]
            Kj[:, :, j - q] += T4[j]
            if not np.isfinite(Kj).all():
                raise ValueError("array must not contain infs or NaNs")
            column[:, (j - q) * m : (j - q + 1) * m] = Kj.reshape(m, -1).T
    return K


def _h1_coefficients(grid: MappedGrid) -> np.ndarray:
    """Weighted gradient-gradient coefficients ``w d_im d_ab`` of the Sobolev inner product."""
    I = np.eye(grid.dim)
    return grid.wq[..., None, None, None, None] * np.einsum("im,ab->iamb", I, I)


def h1_gram(grid: MappedGrid) -> "BlockColumns":
    """Gram matrix of the first-order Sobolev inner product on interior dofs, by block columns."""
    G = assemble_hessian(grid, _h1_coefficients(grid))
    G.add_diagonal(interior_weight_vector(grid))
    return G


def _stiffness_factor(field: ElasticField, sigma: float = 0.0):
    """:class:`BlockCholesky` factor of ``K - sigma G``, or ``False`` when it has none.

    ``K`` is the field's stiffness and ``G`` the :func:`h1_gram`.  The two
    forms share their operators and weights, so the lower triangle of
    ``K - sigma G`` is assembled in one pass by block columns from the
    coefficients ``Cw - sigma w I``, its diagonal takes ``-sigma`` times the
    interior weights, and it is factored in place.  At ``sigma = 0`` this
    is the stiffness's own factor, bit for bit.
    """
    grid, Cw = field.grid, field._weighted_tangent()
    if sigma:
        Cw -= sigma * _h1_coefficients(grid)
    try:
        K = assemble_hessian(grid, Cw)
        K.add_diagonal(-sigma * interior_weight_vector(grid))
        return BlockCholesky(K)
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
    wavenumber against its block with LAPACK ``potrs`` and transforms back,
    so a solve costs ``O(nd log nx + nd (ny N))`` instead of the dense
    ``O(nd^2)``.
    """

    def __init__(self, xshape: tuple, blocks: np.ndarray):
        self.xshape = tuple(xshape)
        self.factors = [cho_factor(block, lower=True)[0] for block in blocks]
        (self._potrs,) = get_lapack_funcs(("potrs",), (blocks,))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``K^-1 b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``."""
        axes = tuple(range(len(self.xshape)))
        bk = np.fft.rfftn(b.reshape(self.xshape + (-1,) + b.shape[1:]), axes=axes)
        per_mode = bk.reshape((len(self.factors),) + bk.shape[len(axes):])
        for k, c in enumerate(self.factors):
            per_mode[k] = self._potrs(c, per_mode[k], lower=True)[0]
        return np.fft.irfftn(per_mode.reshape(bk.shape), s=self.xshape, axes=axes).reshape(b.shape)


# a dense matrix's block columns are whole lateral columns, about this many dofs wide
_BLOCK_DOFS = 256


class BlockColumns:
    """The lower triangle of a symmetric interior-dof matrix, stored by lateral block columns.

    Block ``c`` spans the dofs ``starts[c]:starts[c + 1]``: whole lateral
    columns of ``(ny - 1) * N`` dofs each, about ``_BLOCK_DOFS`` in all.
    ``columns[c]`` holds its column of the lower triangle, rows
    ``starts[c]:nd``, as one C-contiguous array: the diagonal block on top
    and the panel below it, each of which is, transposed, a contiguous
    Fortran array for BLAS and LAPACK.  The whole holds about
    ``nd^2 / 2 + nd * _BLOCK_DOFS / 2`` numbers, where a full matrix holds
    ``nd^2``.  ``shape`` is the full matrix's.  :func:`assemble_hessian`
    fills it, :class:`BlockCholesky` factors it in place, and the upper
    triangles of the diagonal blocks are never read.  :meth:`full` mirrors
    it into the whole matrix for the one dense LAPACK call that needs it.
    """

    def __init__(self, grid: MappedGrid):
        nx, _, _, nd = _flat_shapes(grid)
        m = nd // nx
        self.shape = (nd, nd)
        self.starts = np.append(np.arange(0, nx, max(1, round(_BLOCK_DOFS / m))), nx) * m
        shapes = [(nd - s, e - s) for s, e in zip(self.starts, self.starts[1:])]
        # one allocation, which numpy backs by huge pages where the system has them
        ends = np.cumsum([r * w for r, w in shapes])
        buffer = np.empty(ends[-1])
        self.columns = [buffer[e - r * w : e].reshape(r, w) for e, (r, w) in zip(ends, shapes)]

    def add_diagonal(self, d: np.ndarray) -> None:
        """Add ``d`` to the diagonal of the matrix."""
        for s, M in zip(self.starts, self.columns):
            w = M.shape[1]
            M[np.arange(w), np.arange(w)] += d[s : s + w]

    def full(self) -> np.ndarray:
        """The whole symmetric matrix, its upper triangle mirrored from the lower, as a Fortran array.

        It is the one ``nd x nd`` array filmstab makes, for the direct
        Newton step on a stiffness without a Cholesky factor, and its entries
        are those of the assembly.
        """
        A = np.empty(self.shape, order="F")
        for s, e, M in zip(self.starts, self.starts[1:], self.columns):
            A[s:, s:e] = M
            A[s:e, e:] = M[e - s :].T
            D, upper = A[s:e, s:e], np.triu_indices(e - s, 1)
            D[upper] = D.T[upper]
        return A


class BlockCholesky:
    """Cholesky factor ``K = L L^T`` of a dense stiffness, by lateral block columns.

    ``K`` is the :class:`BlockColumns` of the matrix, factored in place: its
    buffer becomes ``L``.  The factorisation is the right-looking blocked
    Cholesky: LAPACK ``potrf`` on each diagonal block, ``trsm`` on the
    panel below it, and ``syrk`` and ``gemm`` take the panel's products off
    the later block columns.  A matrix without a Cholesky factor raises
    ``LinAlgError``.  ``blocks`` holds, per block column, its dofs ``s:e``,
    the upper triangle ``U`` of ``L[s:e, s:e]^T`` and the panel
    ``P = L[e:, s:e]``, both Fortran arrays.  Once a panel's trailing
    updates are done it is rewritten in place by long columns, the layout
    the triangular solves stream fastest.  :meth:`forward` and
    :meth:`backward` are the two triangular half-solves, and :meth:`solve`
    is both.
    """

    def __init__(self, K: BlockColumns):
        self.shape = K.shape
        first = K.columns[0]
        (potrf,) = get_lapack_funcs(("potrf",), (first,))
        self._trsv, self._trsm, self._gemv, self._gemm, syrk = get_blas_funcs(
            ("trsv", "trsm", "gemv", "gemm", "syrk"), (first,)
        )
        # transposed, each stored lower triangle is the upper one LAPACK reads,
        # and each panel is a Fortran array whose column slices are contiguous
        rows = [(s, e, M[: e - s].T, M[e - s :].T) for s, e, M in zip(K.starts, K.starts[1:], K.columns)]
        self.blocks = []
        for c, (s, e, U, Pt) in enumerate(rows):
            if potrf(U, lower=False, clean=False, overwrite_a=True)[1] > 0:
                raise LinAlgError(f"the matrix is not positive definite in block column {c}")
            self._trsm(1.0, U, Pt, trans_a=True, overwrite_b=True)
            at = 0
            for _, _, later_U, later_Pt in rows[c + 1 :]:
                v = later_U.shape[0]
                A = Pt[:, at : at + v]
                syrk(-1.0, A, beta=1.0, c=later_U, trans=True, overwrite_c=True)
                if later_Pt.size:
                    self._gemm(-1.0, A, Pt[:, at + v :], beta=1.0, c=later_Pt, trans_a=True, overwrite_c=True)
                at += v
            # the panel takes no more updates: P[r, k] moves to k * rows + r
            P = Pt.T.reshape(-1).reshape(Pt.shape).T
            P[...] = Pt.T.copy()
            self.blocks.append((s, e, U, P))

    def _diagonal_solve(self, U: np.ndarray, y: np.ndarray, transposed: bool) -> None:
        """``y := U^-T y``, or ``U^-1 y``, in place."""
        if y.ndim == 1:
            self._trsv(U, y, trans=transposed, overwrite_x=True)
        else:
            # on the Fortran array y^T: y^T := y^T U^-1, or y^T U^-T
            self._trsm(1.0, U, y.T, side=True, trans_a=not transposed, overwrite_b=True)

    def _panel_update(self, P: np.ndarray, x: np.ndarray, y: np.ndarray, transposed: bool) -> None:
        """``y -= P^T x``, or ``P x``, in place."""
        if y.ndim == 1:
            self._gemv(-1.0, P, x, beta=1.0, y=y, trans=transposed, overwrite_y=True)
        else:
            # on the Fortran array y^T: y^T -= x^T P, or x^T P^T
            self._gemm(-1.0, x.T, P, beta=1.0, c=y.T, trans_b=not transposed, overwrite_c=True)

    def forward(self, b: np.ndarray) -> np.ndarray:
        """``L^-1 b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``."""
        y = np.array(b, dtype=float, order="C")
        for s, e, U, P in self.blocks:
            self._diagonal_solve(U, y[s:e], transposed=True)
            if P.size:
                self._panel_update(P, y[s:e], y[e:], transposed=False)
        return y

    def backward(self, b: np.ndarray) -> np.ndarray:
        """``L^-T b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``."""
        x = np.array(b, dtype=float, order="C")
        for s, e, U, P in self.blocks[::-1]:
            if P.size:
                self._panel_update(P, x[e:], x[s:e], transposed=True)
            self._diagonal_solve(U, x[s:e], transposed=False)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``K^-1 b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``."""
        return self.backward(self.forward(b))


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

    The gradient is :meth:`~filmstab.geometry.MappedGrid.gradient`, on the
    same operators that the residual applies transposed.
    """
    N = grid.dim
    return assemble_residual(grid, flux(grid.gradient(_from_interior(grid, v)).reshape(-1, N, N)))


def _tangent_flux(grid: MappedGrid, tangent_w: np.ndarray):
    """The :func:`_form_apply` flux of a weighted tangent, major-symmetrised like its matrix."""
    N = grid.dim
    Cw = tangent_w.reshape(-1, N, N, N, N)
    Cw = 0.5 * (Cw + Cw.transpose(0, 3, 4, 1, 2))
    return lambda g: np.einsum("kiamb,kmb->kia", Cw, g)


def factor_solve(cho, b: np.ndarray) -> np.ndarray:
    """``K^-1 b`` against a stiffness factor, reading the factor once.

    ``cho`` is a :class:`BlockCholesky` or a :class:`LateralCholesky`, and
    ``b`` a vector or a matrix of right-hand sides.  The factor is not
    scanned for non-finite entries, which would cost as much as the solve:
    the assembly checked each block of ``K`` as it wrote it, and the factor
    of a finite matrix is finite.  A non-finite ``b`` raises ``ValueError``.
    """
    return cho.solve(np.asarray_chkfinite(b))


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
    and the traction-free condition is ``stress(gradient)[:, -1] = 0``.  The
    linear traction is affine in ``b``, so one Newton step from ``b = 0``
    solves it.  The log-determinant traction vanishes on ``b = (0, beta)``
    exactly when ``g(s) = mu (e^2s - 1) + lam (s + log det A)`` does at
    ``s = log beta``; ``g`` is increasing and convex, so every Newton iterate
    after the first step from ``s = 0`` lies right of the root and the next
    one is smaller, until rounding stops them decreasing.  The slope is found
    for every datum with ``det A > 0``, at any moduli; a nonlinear datum with
    ``det A <= 0`` or with substrate modes raises ``ValueError``.  A linear
    slope may fold the film: :func:`~filmstab.flat.flat_field` refuses it,
    the grid solve does not.
    """
    if datum.modes:
        raise ValueError("flat configurations need a laterally uniform datum (no substrate modes)")
    N = datum.dim
    b = np.zeros(N)
    if density.kind == "linear":
        M = _affine_gradient(datum, b)
        jac = density.tangent(M)[:, N - 1, :, N - 1]
        return b - np.linalg.solve(jac, density.stress(M)[:, N - 1])
    det_A = float(np.linalg.det(datum.A))
    if not det_A > 0.0:
        raise ValueError(f"the nonlinear kind needs a mismatch with det A > 0, got {det_A:.3g}")
    lam, mu, log_det_A = density.lam, density.mu, np.log(det_A)

    def newton(s):
        e = np.exp(2.0 * s)
        return s - (mu * (e - 1.0) + lam * (s + log_det_A)) / (2.0 * mu * e + lam)

    s = newton(0.0)
    while (s_next := newton(s)) < s:
        s = s_next
    b[N - 1] = np.exp(s)
    return b


def _affine_p(grid: MappedGrid, density: ElasticDensity, b: np.ndarray) -> np.ndarray:
    """The unknown ``p`` of the affine state of slope ``b`` (the nonlinear base carries ``y``)."""
    kappa = 1.0 if density.kind == "nonlinear" else 0.0
    return grid.y[..., None] * (b - kappa * np.eye(grid.dim)[-1])


def _affine_field(profile: Profile, datum: MismatchDatum, density: ElasticDensity, ny: int):
    """The affine state of :func:`solve_affine`'s slope on the ``ny``-row grid of a flat profile."""
    grid = build_grid(profile, ny)
    return ElasticField(grid, datum, density, _affine_p(grid, density, solve_affine(density, datum)))


def _residual_scale(field: ElasticField) -> float:
    """The unit of the Newton target: the residual of a uniform stress as large as the moduli.

    The stress is ``|T| I``, with ``|T|`` the Frobenius norm of the tangent
    at the gradient ``diag(A, 1)`` of the datum's unrelaxed flat state (for
    the linear kind, at any gradient), so the scale grows linearly with the
    moduli and does not depend on the iterate.  A uniform stress is balanced
    in the bulk: its residual is its traction on the free surface.
    """
    grid, N = field.grid, field.grid.dim
    modulus = np.linalg.norm(field.density.tangent(_affine_gradient(field.datum, np.eye(N)[-1])))
    stress_w = modulus * grid.wq[..., None, None] * np.eye(N)
    return float(np.linalg.norm(assemble_residual(grid, stress_w)))


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
    against the assembled ``K`` by LAPACK's symmetric indefinite solver,
    in place on the one whole matrix, and a step that is not a descent
    direction raises :class:`NewtonError`.
    """
    cho = work.stiffness_cho
    if cho is not False:
        return factor_solve(cho, -r)
    dp_vec = solve(work.stiffness.full(), -r, assume_a="sym", overwrite_a=True)
    if r @ dp_vec >= 0.0:
        raise NewtonError(f"non-descent Newton step (r·dp = {r @ dp_vec:.3e})", residuals)
    return dp_vec


def _newton(field: ElasticField, cho, tol: float, max_iter: int, spent: int = 0):
    """The Newton iteration of :func:`solve_critical_point` from ``field.p``, on the field's grid.

    ``cho`` is the first preconditioner.  The iterations are numbered on
    from ``spent``, the iterations a cold solve has already taken, up to
    ``max_iter`` for the whole solve.  Returns the solution, its info dict
    (``iterations`` is the new total) and the newest factor, which
    preconditions a cold solve's next continuation step.  The residual
    history of a :class:`NewtonError` holds this call's iterations only.
    """
    grid, density = field.grid, field.density
    target = tol * _residual_scale(field)
    p = field.p
    residuals = []
    for it in range(spent, max_iter):
        work = field.with_p(p)
        gradu = work.gradient()
        if not density.admissible(gradu):
            raise NewtonError("iterate left the admissible set", residuals)
        energy = grid.volume_integral(density.value(gradu))
        stress_w = grid.wq[..., None, None] * density.stress(gradu)
        r = assemble_residual(grid, stress_w)
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if rnorm <= target:
            return work, {"iterations": it, "residual_norm": rnorm, "energy": energy}, cho
        dp_vec = None
        if cho:
            tangent_w = grid.wq[..., None, None, None, None] * density.tangent(gradu)
            dp_vec = _pcg_step(grid, tangent_w, r, cho, _PCG_RTOL * target)
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


# below this amplitude step a cold solve's continuation gives up
_CONTINUATION_MIN_STEP = 1.0 / 64.0


def _at_amplitude(profile: Profile, datum: MismatchDatum, t: float):
    """The profile ``mean + t (h - mean)`` and the datum with its modes scaled by ``t``."""
    if t == 1.0:
        return profile, datum
    h, mean = profile.samples, profile.samples.mean()
    modes = [{**m, "amplitude": t * float(m["amplitude"])} for m in datum.modes]
    return Profile(mean + t * (h - mean), profile.width), MismatchDatum(datum.A, datum.dim, modes)


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
    instead, since the energy test can no longer tell steps apart.  Newton
    stops at ``|r| <= tol * S``, with ``S`` from :func:`_residual_scale`.
    Returns the field and an info dict with iteration count, final residual
    norm and energy.

    Every Newton step is first a conjugate-gradient solve of ``K dp = -r`` on
    the matrix-free tangent ``K``, preconditioned by the newest Cholesky
    factor at hand (inexact Newton, see :func:`_pcg_step`).  With no factor
    yet, or when that solve fails, the step is solved by the iterate's own
    :attr:`~ElasticField.stiffness_cho`, which becomes the newest factor.
    ``precond`` is the first factor of a warm solve: the
    :attr:`~ElasticField.stiffness_cho` of a nearby field, or ``False`` or
    ``None`` for none.  The true residual test is the same for every step,
    so the factors change the cost of a solve, not which fields it accepts.
    A step that is not a descent direction, possible only when ``K`` has no
    Cholesky factor, raises :class:`NewtonError`.

    A cold solve (``p0`` is ``None``) continues in the amplitude ``t`` of
    the profile ``mean + t (h - mean)`` and of the substrate modes from 0
    to 1, trying ``t = 1`` first.  Each attempt starts on its own grid, node
    for node from the last accepted field or, before any, at the affine
    state of :func:`solve_affine`'s slope without the modes, which is the
    flat film's gradient on any profile and ends a flat film under a datum
    without modes at iteration 0.  The step doubles after a success; a
    failed step is halved, and its :class:`NewtonError` raised again below
    1/64.  An attempt is preconditioned by the last one's newest factor: a
    curved or moded nonlinear film's first is the flat equilibrium's
    :class:`LateralCholesky`, and a linear film's first step is factored.
    ``max_iter`` bounds the Newton iterations of the whole solve, and
    ``iterations`` counts them all, those of failed attempts included.
    """
    if p0 is not None:
        field = ElasticField(build_grid(profile, ny), datum, density, p=p0)
        return _newton(field, precond, tol, max_iter)[:2]
    flat_datum, h, cho = MismatchDatum(datum.A, datum.dim), profile.samples, None
    b = solve_affine(density, flat_datum)
    if density.kind == "nonlinear" and (datum.modes or np.any(h != h.flat[0])):
        flat = Profile.flat(profile.dim, profile.n, float(h.mean()), profile.width)
        cho = _affine_field(flat, flat_datum, density, ny).stiffness_cho
    t, step, spent, field = 0.0, 1.0, 0, None
    while t < 1.0:
        t_next = min(1.0, t + step)
        prof, dat = _at_amplitude(profile, datum, t_next)
        grid = build_grid(prof, ny)
        p = _affine_p(grid, density, b) if field is None else field.p
        try:
            field, info, cho = _newton(ElasticField(grid, dat, density, p=p), cho, tol, max_iter, spent)
        except NewtonError as err:
            spent += len(err.residuals)
            step = 0.5 * (t_next - t)
            if step < _CONTINUATION_MIN_STEP or spent >= max_iter:
                raise
            continue
        t, step, spent = t_next, 2.0 * step, info["iterations"]
    return field, info


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
    """The Lanczos recurrence for ``c0`` did not converge.

    Carries its number of steps, one operator application each, as
    ``matvecs`` and the requested relative accuracy as ``tol``.
    """

    def __init__(self, matvecs: int, tol: float):
        super().__init__(
            f"the Lanczos solve for c0 did not converge after {matvecs} matvecs "
            f"at tolerance {tol:g}"
        )
        self.matvecs = matvecs
        self.tol = tol


class ShiftedFactorError(RuntimeError):
    """``K - sigma G`` has no Cholesky factor at the tangent's pointwise bound ``sigma``.

    The bound makes ``K - sigma G`` positive definite whenever ``sigma < 0``,
    so in exact arithmetic this happens only at ``sigma = 0``, for a
    stiffness that is positive semidefinite and singular.  Carries ``sigma``.
    """

    def __init__(self, sigma: float):
        super().__init__(
            f"c0 has no certified shift: K - sigma G has no Cholesky factor at the "
            f"tangent's pointwise bound sigma = {sigma:g}"
        )
        self.sigma = sigma


def _tangent_bound(field: ElasticField) -> float:
    """The least eigenvalue, over all nodes, of the major-symmetrised tangent read as an ``N^2 x N^2`` matrix."""
    N = field.grid.dim
    C = field.density.tangent(field.gradient()).reshape(-1, N * N, N * N)
    return float(np.linalg.eigvalsh(0.5 * (C + C.transpose(0, 2, 1)))[:, 0].min())


# relative accuracy of the c0 eigenvalue
_C0_TOL = 1e-10


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
    product, and assembles neither matrix.

    Any other ``K`` takes one plain three-term Lanczos recurrence for the top
    eigenvalue ``theta = 1/(c0 - sigma)`` of ``L^-1 G L^-T``, against a
    :class:`BlockCholesky` factor ``L L^T`` of ``K - sigma G`` with ``G``
    applied matrix-free, and returns ``sigma + 1/theta``.  A ``K`` with a
    Cholesky factor has ``sigma = 0`` and runs on its own factor
    (:attr:`~ElasticField.stiffness_cho`), so it holds three vectors and no
    second matrix.  A ``K`` without one has ``sigma = min(0, m)``, where
    ``m`` is the least eigenvalue over all nodes of the major-symmetrised
    tangent read as an ``N^2 x N^2`` matrix.  ``K - sigma G`` is the form
    of the weighted ``C - sigma I``, which is positive semidefinite at every
    node, plus ``-sigma`` times the L^2 Gram, so it is positive definite
    for ``sigma < 0``: one more assembly and factor (see
    :func:`_stiffness_factor`) and no search.  Should that factor still
    fail, which happens only for a numerically singular ``K`` at
    ``sigma = 0``, :class:`ShiftedFactorError` is raised.

    The recurrence starts from a fixed seeded vector, with no restarts and
    no reorthogonalisation, and stops at the first step ``j`` where the top
    Ritz pair ``(theta, s)`` of the tridiagonal has the residual
    ``beta_j |s_j| <= _C0_TOL * theta``.  In floating point the Lanczos
    vectors lose orthogonality only as Ritz values converge (Paige, 1980),
    so that first convergence is reached with the residual estimate intact.
    Repeated runs are bit-identical.  A recurrence that has not converged
    after ``nd`` steps raises :class:`CoercivityError` with its step count,
    one matvec each.
    """
    grid = field.grid
    blocks = field.stiffness_blocks
    if blocks is not None:
        G = _lateral_blocks(grid, lambda v: _h1_gram_matvec(grid, v))
        return min(
            float(eigh(Kk, Gk, subset_by_index=[0, 0], eigvals_only=True)[0])
            for Kk, Gk in zip(blocks, G)
        )
    cho, sigma = field.stiffness_cho, 0.0
    if cho is False:
        sigma = min(0.0, _tangent_bound(field))
        cho = _stiffness_factor(field, sigma)
        if cho is False:
            raise ShiftedFactorError(sigma)
    nd = _flat_shapes(grid)[3]
    q = np.random.default_rng(0).standard_normal(nd)
    q /= np.linalg.norm(q)
    q_prev, beta_prev = np.zeros(nd), 0.0
    alphas, betas = [], []
    for j in range(1, nd + 1):
        w = cho.forward(_h1_gram_matvec(grid, cho.backward(q)))
        alphas.append(float(q @ w))
        w -= alphas[-1] * q + beta_prev * q_prev
        beta = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(j - 1, j - 1))
        if beta * abs(s[-1, 0]) <= _C0_TOL * theta[0]:
            return sigma + 1.0 / float(theta[0])
        betas.append(beta)
        q_prev, q, beta_prev = q, w / beta, beta
    raise CoercivityError(nd, _C0_TOL)
