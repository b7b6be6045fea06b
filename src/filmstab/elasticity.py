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

numpy is the module's one numerical import: a laterally uniform field is
factored and its ``c0`` solved by ``numpy.linalg`` block by block, and any
other field by :class:`BlockCholesky` and the Ritz solve of its ``c0``
recurrence (:func:`eigh_tridiagonal`), both on numpy alone.
:meth:`ElasticField.factor` is the one place a stiffness is factored.
scipy is named only in :func:`__getattr__`, for the benchmark tracer.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .config import BLOCK_DOFS
from .geometry import MappedGrid, Profile, build_grid
from .spectral import cosine_series, lateral_grids

__all__ = [
    "ElasticDensity",
    "LinearDensity",
    "NonlinearDensity",
    "elastic_density_from_config",
    "MismatchDatum",
    "ElasticField",
    "cho_factor",
    "generalized_eigh",
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
    "solve_affine",
    "solve_critical_point",
    "continue_critical_point",
    "coercivity_constant",
]


# -- dense linear algebra ----------------------------------------------------------


def cho_factor(a: np.ndarray) -> tuple:
    """Lower Cholesky factor ``L`` of a Hermitian positive definite ``a = L L^H``, as ``(L, True)``.

    The return of ``scipy.linalg.cho_factor(a, lower=True)``, with zeros
    above the diagonal.  A matrix without a Cholesky factor raises
    ``LinAlgError`` and a non-finite one ``ValueError``.
    """
    return np.linalg.cholesky(np.asarray_chkfinite(a)), True


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of stacked lower triangular matrices, shape ``(..., n, n)``.

    By halves, ``[[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]``,
    with ``numpy.linalg.inv`` on the diagonal blocks of at most 12 rows.
    On the lateral blocks of the flat benchmark grids (17 blocks of 38 rows,
    25 of 62) this takes a half and a third of the time of
    ``numpy.linalg.inv`` on the whole stack; leaves of 8 to 16 rows time
    alike.
    """
    n = L.shape[-1]
    if n <= 12:
        return np.linalg.inv(L)
    h = n // 2
    A_inv, C_inv = _lower_inverse(L[..., :h, :h]), _lower_inverse(L[..., h:, h:])
    out = np.zeros_like(L)
    out[..., :h, :h] = A_inv
    out[..., h:, h:] = C_inv
    out[..., h:, :h] = -(C_inv @ (L[..., h:, :h] @ A_inv))
    return out


def generalized_eigh(A: np.ndarray, B: np.ndarray, eigvals_only: bool = False):
    """Eigenvalues, ascending, and eigenvectors of the Hermitian pencil ``A v = w B v``.

    ``B`` must be positive definite; one without a Cholesky factor raises
    ``LinAlgError``.  Stacks of pencils, shape ``(..., n, n)``, are solved
    in one batch.  The factor ``B = L L^H`` reduces the pencil to the
    Hermitian ``C = L^-1 A L^-H``, of which ``eigh`` reads the lower
    triangle, and its orthonormal eigenvectors ``y`` give ``v = L^-H y``,
    normalised to ``v^H B v = 1``.
    """
    L_inv = _lower_inverse(np.linalg.cholesky(B))
    L_inv_h = L_inv.conj().swapaxes(-1, -2)
    C = L_inv @ A @ L_inv_h
    if eigvals_only:
        return np.linalg.eigvalsh(C)
    w, y = np.linalg.eigh(C)
    return w, L_inv_h @ y


def _sturm_count(d, e2, x: float, pivmin: float) -> int:
    """Number of eigenvalues below ``x`` of the symmetric tridiagonal with diagonal ``d`` and squared off-diagonal ``e2``.

    It is the number of negative pivots of the ``LDL^T`` factor of
    ``T - x I`` (Sylvester's law of inertia); a pivot in ``[0, pivmin)`` is
    taken as ``-pivmin``, as LAPACK's ``dlaebz`` does.
    """
    q = d[0] - x
    count = 0
    if q < 0.0:
        count = 1
    elif q < pivmin:
        q = -pivmin
    for a, b2 in zip(d[1:], e2):
        q = a - x - b2 / q
        if q < 0.0:
            count += 1
        elif q < pivmin:
            q = -pivmin
    return count


def eigh_tridiagonal(d, e):
    """Top eigenpair of the symmetric tridiagonal with diagonal ``d`` and off-diagonal ``e``.

    Returns ``(theta, s)`` as ``scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(j - 1, j - 1))`` does for ``j = len(d)``:
    the largest eigenvalue as an array of one and its unit eigenvector as
    a ``(j, 1)`` array, in ``O(j)`` memory.  The eigenvalue is bisected on
    Sturm counts from the Gershgorin interval until no float lies between
    the ends.  The shift ``hi`` at the upper end makes ``T - hi I`` negative
    definite, so its ``LDL^T`` factor needs no pivoting.  Inverse iteration
    on it takes three solves from the vector of ones, each of which damps
    every other eigenvector against the top one by
    ``(hi - theta) / (hi - theta_2)``, ``theta_2`` the next eigenvalue.
    """
    d, e = [float(a) for a in d], [float(b) for b in e]
    j, e2 = len(d), [b * b for b in e]
    off = [abs(b) for b in e]
    radius = [r + t for r, t in zip([0.0] + off, off + [0.0])]
    lo = min(a - r for a, r in zip(d, radius))
    hi = max(a + r for a, r in zip(d, radius))
    pivmin = np.finfo(float).tiny * max([1.0] + e2)
    margin = 2 * np.finfo(float).eps * max(abs(lo), abs(hi)) + pivmin
    lo, hi = lo - margin, hi + margin
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _sturm_count(d, e2, mid, pivmin) < j:
            lo = mid
        else:
            hi = mid
    # T - hi I = L D L^T, L unit lower bidiagonal with sub-diagonal l
    q, pivots, l = d[0] - hi, [], []
    for a, b, b2 in zip(d[1:], e, e2):
        q = min(q, -pivmin)
        pivots.append(q)
        l.append(b / q)
        q = a - hi - b2 / q
    pivots.append(min(q, -pivmin))
    x = [1.0] * j
    for _ in range(3):
        norm = max(abs(v) for v in x)
        z = [x[0] / norm]
        for li, v in zip(l, x[1:]):
            z.append(v / norm - li * z[-1])
        z = [v / q for v, q in zip(z, pivots)]
        x = [z[-1]]
        for li, v in zip(reversed(l), reversed(z[:-1])):
            x.append(v - li * x[-1])
        x.reverse()
    s = np.array(x)
    return np.array([0.5 * (lo + hi)]), (s / np.linalg.norm(s))[:, None]


def __getattr__(name: str):
    # nothing here calls eigsh; the benchmark tracer reads it and rebinds it at install
    if name == "eigsh":
        from scipy.sparse.linalg import eigsh

        return eigsh
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    keeps its stiffness only as a factor, and holds no ``nd x nd`` array:
    :meth:`factor` says which factor and which is cached.
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

        No solve reads it: the solves and ``c0`` go through :meth:`factor`.
        The tests read it, and
        :attr:`~filmstab.stability.StabilityProblem.stiffness` passes it on.
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
        """The stiffness's Cholesky factor, or ``False`` when it has none, read once by :meth:`factor`."""
        if self._stiffness.get("cho") is None:
            self._stiffness["cho"] = None  # a read alone: factor() builds no fallback for it
            self.factor()
        return self._stiffness["cho"]

    def factor(self, sigma: float = 0.0):
        """A factor of ``K - sigma G``, ``K`` the stiffness and ``G`` the :func:`h1_gram`, that solves either way.

        The one place a stiffness is factored: the Newton steps, ``c0`` and
        the stability problem call the factor's own ``solve``.  At
        ``sigma = 0`` it is, in this order:

        * a laterally uniform field's :class:`LateralCholesky` of its
          :attr:`stiffness_blocks`, with no assembly of ``K``;
        * any other field's :class:`BlockCholesky` of ``K``, assembled by
          block columns and factored in place, about half a full matrix;
        * when ``K`` has no Cholesky factor, a fresh :class:`BlockCholesky`
          of ``K`` that ends in a Schur complement.

        The first read caches the Cholesky factor, or ``False``, as
        :attr:`stiffness_cho`.  The blocks are a unitary
        block-diagonalisation of ``K``, so it is positive definite exactly
        when they all are, and a read that fails them assembles nothing.
        The factor that ends in a Schur complement is never cached, so
        ``c0`` does not hold it beside its shifted factor.  At
        ``sigma != 0`` the lower triangle of ``K - sigma G`` is assembled in
        one pass from the coefficients ``Cw - sigma w I``, its diagonal
        takes ``-sigma`` times the interior weights, and it is factored in
        place, uncached.
        """
        cache = self._stiffness
        if not sigma and cache.get("cho") is None and self.stiffness_blocks is not None:
            try:
                cache["cho"] = LateralCholesky(self.grid.xshape, self.stiffness_blocks)
            except LinAlgError:
                read_alone, cache["cho"] = "cho" in cache, False
                if read_alone:
                    return False
        if not sigma and cache.get("cho"):
            return cache["cho"]
        grid, Cw = self.grid, self._weighted_tangent()
        if sigma:
            Cw -= sigma * _h1_coefficients(grid)
        K = assemble_hessian(grid, Cw)
        K.add_diagonal(-sigma * interior_weight_vector(grid))
        factor = BlockCholesky(K)
        if not sigma and cache.get("cho") is None:
            cache["cho"] = factor if factor.schur is None else False
        return factor


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


def _h1_gram_matvec(grid: MappedGrid, v: np.ndarray) -> np.ndarray:
    """``h1_gram(grid) @ v`` without assembling the Gram matrix."""
    wq = grid.wq.reshape(-1, 1, 1)
    return _form_apply(grid, v, lambda g: wq * g) + interior_weight_vector(grid) * v


def _lateral_blocks(grid: MappedGrid, apply, componentwise: bool = False) -> np.ndarray:
    """Per-wavenumber blocks of an interior-dof operator that commutes with lateral shifts.

    ``apply`` is the operator's matrix-vector product.  Its responses to the
    ``m = (ny - 1) * N`` unit vectors of lateral column 0 are the block
    column ``k(j)`` that the shifts repeat, so the operator maps ``v`` to
    the lateral convolution ``sum_j' k(j - j') v(j')``.  The real FFT of
    ``k`` over the lateral axes is one Hermitian ``m x m`` block per
    wavenumber of the half spectrum, returned as ``(n_k, m, m)``; the other
    half are their complex conjugates.

    An operator that acts on each of the ``N`` components alike and alone,
    as :func:`h1_gram` does, is ``componentwise``: the unit vectors of
    component 0 give its scalar blocks ``S``, and each block is
    ``kron(S, I_N)``, at half (2D) or a third (3D) of the products.
    """
    nx, _, N, nd = _flat_shapes(grid)
    m = nd // nx
    units = np.eye(m, nd)[::N] if componentwise else np.eye(m, nd)
    column = np.stack([apply(e) for e in units], axis=-1)
    if componentwise:
        m //= N
        column = column.reshape(grid.xshape + (m, N, m))[..., 0, :]
    axes = tuple(range(grid.dim - 1))
    blocks = np.fft.rfftn(column.reshape(grid.xshape + (m, m)), axes=axes).reshape(-1, m, m)
    blocks = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
    return np.kron(blocks, np.eye(N)) if componentwise else blocks


class LateralCholesky:
    """Cholesky factors of the per-wavenumber blocks of a laterally uniform stiffness.

    ``blocks`` come from :func:`_lateral_blocks`; each is factored by
    :func:`cho_factor`, and a block without a Cholesky factor raises
    ``LinAlgError``.  The factors are inverted once, all wavenumbers in one
    batch, and each block's inverse ``L^-H L^-1`` is kept.  :meth:`solve`
    takes the real FFT of the right-hand side over the lateral axes,
    applies the inverses to all wavenumbers in one batched product and
    transforms back, so a solve costs ``O(nd log nx + nd (ny N))`` instead
    of the dense ``O(nd^2)``.
    """

    def __init__(self, xshape: tuple, blocks: np.ndarray):
        self.xshape = tuple(xshape)
        L_inv = _lower_inverse(np.stack([cho_factor(block)[0] for block in blocks]))
        self._inverse = L_inv.conj().transpose(0, 2, 1) @ L_inv

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``K^-1 b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``; a non-finite ``b`` raises ``ValueError``."""
        axes, b = tuple(range(len(self.xshape))), np.asarray_chkfinite(b)
        bk = np.fft.rfftn(b.reshape(self.xshape + (-1,) + b.shape[1:]), axes=axes)
        x = self._inverse @ bk.reshape(self._inverse.shape[:2] + (-1,))
        return np.fft.irfftn(x.reshape(bk.shape), s=self.xshape, axes=axes).reshape(b.shape)


class BlockColumns:
    """The lower triangle of a symmetric interior-dof matrix, stored by lateral block columns.

    Block ``c`` spans the dofs ``starts[c]:starts[c + 1]``: whole lateral
    columns of ``(ny - 1) * N`` dofs each, about ``BLOCK_DOFS`` in all.
    ``columns[c]`` holds its column of the lower triangle, rows
    ``starts[c]:nd``, as one C-contiguous array: the diagonal block on top
    and the panel below it.  The whole holds about
    ``nd^2 / 2 + nd * BLOCK_DOFS / 2`` numbers, where a full matrix holds
    ``nd^2``.  ``shape`` is the full matrix's.  :func:`assemble_hessian`
    fills it, :class:`BlockCholesky` factors it in place, and the upper
    triangles of the diagonal blocks are never read.  :meth:`full` mirrors
    it into the whole matrix, for the tests.
    """

    def __init__(self, grid: MappedGrid):
        nx, _, _, nd = _flat_shapes(grid)
        m = nd // nx
        self.shape = (nd, nd)
        self.starts = np.append(np.arange(0, nx, max(1, round(BLOCK_DOFS / m))), nx) * m
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

        Its entries are those of the assembly.
        """
        return _mirror(list(zip(self.starts, self.starts[1:], self.columns)))


def _mirror(columns) -> np.ndarray:
    """The whole symmetric matrix of trailing lower block columns ``(s, e, M)``, as a Fortran array.

    The columns are those of :class:`BlockColumns` from some block column
    on; the matrix spans their dofs ``s:nd``, with the upper triangle of each
    diagonal block mirrored from the lower.
    """
    start = columns[0][0]
    n = len(columns[0][2])
    A = np.empty((n, n), order="F")
    for s, e, M in columns:
        s, e = s - start, e - start
        A[s:, s:e] = M
        A[s:e, e:] = M[e - s :].T
        D, upper = A[s:e, s:e], np.triu_indices(e - s, 1)
        D[upper] = D.T[upper]
    return A


class BlockCholesky:
    """Cholesky factor ``K = L L^T`` of a dense stiffness, by lateral block columns.

    ``K`` is the :class:`BlockColumns` of the matrix, factored in place: its
    buffer becomes the factor.  The factorisation is the right-looking
    blocked Cholesky on numpy alone: each diagonal block is factored by
    ``numpy.linalg.cholesky`` and inverted by :func:`_lower_inverse`, the
    panel below it becomes ``P L^-T``, and products of the panel with its
    own rows are subtracted from the later block columns in row chunks, so
    no temporary is larger than one diagonal block.  ``blocks`` holds, per
    factored block column, its dofs ``s:e``, the inverse ``L[s:e, s:e]^-1``
    in place of the diagonal block, as :class:`LateralCholesky` keeps its
    blocks' inverses, and the panel ``P = L[e:, s:e]``.  :meth:`forward`
    and :meth:`backward` are the two triangular half-solves, each one
    product per diagonal block and one per panel, and :meth:`solve` is
    both.

    ``schur`` is ``None`` when every diagonal block has a Cholesky factor.
    Otherwise the factorisation stops at the first block column
    ``c = len(blocks)`` whose diagonal block has none and leaves it intact.
    Every factored column has subtracted its update from the later ones, so
    columns ``c..`` hold the lower triangle of the Schur complement
    ``S = K22 - L21 L21^T`` of the factored dofs, and ``schur`` is the list
    of their ``(s, e, M)`` until the first :meth:`solve` mirrors it into
    the whole ``S``.  ``K = [[L11, 0], [L21, I]] diag(I, S)
    [[L11, 0], [L21, I]]^T``, the half-solves are those of the unit-extended
    outer factor, and :meth:`solve` solves ``S`` between them by
    ``numpy.linalg.solve`` (LU with partial pivoting), which needs no
    definiteness.
    """

    def __init__(self, K: BlockColumns):
        self.shape = K.shape
        columns = list(zip(K.starts, K.starts[1:], K.columns))
        chunk = max(e - s for s, e, _ in columns)
        work = np.empty(chunk * chunk)
        self.blocks, self.schur = [], None
        for c, (s, e, M) in enumerate(columns):
            w = e - s
            D, P = M[:w], M[w:]
            try:
                D[...] = _lower_inverse(np.linalg.cholesky(D))
            except LinAlgError:
                self.schur = columns[c:]
                break
            for r in range(0, len(P), chunk):
                rows = P[r : r + chunk]
                rows[...] = np.matmul(rows, D.T, out=work[: rows.size].reshape(rows.shape))
            for s2, e2, M2 in columns[c + 1 :]:
                # the later column's rows s2:nd are those of P from s2 - e on
                below, A = P[s2 - e :], P[s2 - e : e2 - e]
                for r in range(0, len(M2), chunk):
                    rows = M2[r : r + chunk]
                    rows -= np.matmul(below[r : r + chunk], A.T, out=work[: rows.size].reshape(rows.shape))
            self.blocks.append((s, e, D, P))

    def forward(self, b: np.ndarray) -> np.ndarray:
        """``L^-1 b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``."""
        y = np.array(b, dtype=float)
        for s, e, L_inv, P in self.blocks:
            y[s:e] = L_inv @ y[s:e]
            if P.size:
                y[e:] -= P @ y[s:e]
        return y

    def backward(self, b: np.ndarray) -> np.ndarray:
        """``L^-T b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``."""
        x = np.array(b, dtype=float)
        for s, e, L_inv, P in self.blocks[::-1]:
            if P.size:
                x[s:e] -= P.T @ x[e:]
            x[s:e] = L_inv.T @ x[s:e]
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``K^-1 b`` for ``b`` of shape ``(nd,)`` or ``(nd, r)``; a non-finite ``b`` raises ``ValueError``.

        The factor is not scanned for non-finite entries, which would cost
        as much as the solve: the assembly checked each block of ``K`` as it
        wrote it, and the factor of a finite matrix is finite.  The first
        solve through a Schur complement mirrors it whole in place of its
        block columns, so when no column factored, the buffer of ``K`` is
        released and the solve holds ``S`` and LAPACK's copy of it, about
        ``2 nd^2`` numbers.
        """
        y = self.forward(np.asarray_chkfinite(b))
        if self.schur is not None:
            if isinstance(self.schur, list):
                self.schur = _mirror(self.schur)
            s = self.shape[0] - len(self.schur)
            y[s:] = np.linalg.solve(self.schur, y[s:])
        return self.backward(y)


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
    one is smaller, until rounding stops them decreasing.  ``e^2s - 1`` is
    taken by ``expm1``: near ``s = 0`` the difference would round to zero
    and leave only the ``lam`` term, whose equal steps, when ``lam`` is tiny
    against ``mu``, would keep decreasing for about ``1e-15 mu / lam``
    iterations.  The slope is found for every
    datum with ``det A > 0``, at any moduli; a nonlinear datum with
    ``det A <= 0`` or with substrate modes, or one whose iterates still
    decrease after ``_AFFINE_MAX_STEPS`` steps, raises ``ValueError``.  A
    linear slope may fold the film: :func:`~filmstab.flat.flat_field`
    refuses it, the grid solve does not.
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
        return s - (mu * np.expm1(2.0 * s) + lam * (s + log_det_A)) / (2.0 * mu * np.exp(2.0 * s) + lam)

    s = newton(0.0)
    for _ in range(_AFFINE_MAX_STEPS):
        if not (s_next := newton(s)) < s:
            b[N - 1] = np.exp(s)
            return b
        s = s_next
    raise ValueError(f"the affine slope's Newton iterates still decrease after {_AFFINE_MAX_STEPS} steps")


# Newton on the affine slope took at most 20 steps for moduli from 1e-300 to
# 1e300 and stretches det A from 1e-4 to 1e12
_AFFINE_MAX_STEPS = 100


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
    d = z = cho.solve(res)
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
        z = cho.solve(res)
        rz, rz_old = res @ z, rz
        d = z + (rz / rz_old) * d
    return None


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
            dp_vec = work.factor().solve(-r)
            if r @ dp_vec >= 0.0:  # possible only on a factor that ends in a Schur complement
                raise NewtonError(f"non-descent Newton step (r·dp = {r @ dp_vec:.3e})", residuals)
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
    :meth:`~ElasticField.factor`, and its
    :attr:`~ElasticField.stiffness_cho` becomes the newest factor.
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


# relative accuracy of the c0 eigenvalue, and the steps between the recurrence's Ritz solves
_C0_TOL = 1e-10
_RITZ_EVERY = 8


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
    applied matrix-free (:meth:`~ElasticField.factor`), and returns
    ``sigma + 1/theta``.  A ``K`` with a Cholesky factor has ``sigma = 0``
    and runs on its own factor, so it holds three vectors and no second
    matrix.  A ``K`` without one has ``sigma = min(0, m)``, where
    ``m`` is the least eigenvalue over all nodes of the major-symmetrised
    tangent read as an ``N^2 x N^2`` matrix.  ``K - sigma G`` is the form
    of the weighted ``C - sigma I``, which is positive semidefinite at every
    node, plus ``-sigma`` times the L^2 Gram, so it is positive definite
    for ``sigma < 0``: one more assembly and factor, and no search.  Should
    that factor still end in a Schur complement, which happens only for a
    numerically singular ``K`` at ``sigma = 0``, :class:`ShiftedFactorError`
    is raised.

    The recurrence starts from a fixed seeded vector, with no restarts and
    no reorthogonalisation.  Every ``_RITZ_EVERY`` steps, at step ``nd``
    and at a breakdown ``beta_j = 0``, the top Ritz pair ``(theta, s)`` of
    the tridiagonal is solved (:func:`eigh_tridiagonal`), and the
    recurrence stops at the first checked step ``j`` with the residual
    ``beta_j |s_j| <= _C0_TOL * theta``.  In floating point the Lanczos
    vectors lose orthogonality only as Ritz values converge (Paige, 1980),
    so the first checked step that converges, fewer than ``_RITZ_EVERY``
    steps after the first that would, still reads an intact residual estimate.
    Repeated runs are bit-identical.  A recurrence that has not converged
    after ``nd`` steps raises :class:`CoercivityError` with its step count,
    one matvec each.
    """
    grid = field.grid
    blocks = field.stiffness_blocks
    if blocks is not None:
        G = _lateral_blocks(grid, lambda v: _h1_gram_matvec(grid, v), componentwise=True)
        return float(generalized_eigh(blocks, G, eigvals_only=True)[:, 0].min())
    cho, sigma = field.stiffness_cho, 0.0
    if cho is False:
        sigma = min(0.0, _tangent_bound(field))
        cho = field.factor(sigma)
        if cho.schur is not None:
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
        if j % _RITZ_EVERY == 0 or j == nd or beta == 0.0:
            theta, s = eigh_tridiagonal(alphas, betas)
            if beta * abs(s[-1, 0]) <= _C0_TOL * theta[0]:
                return sigma + 1.0 / float(theta[0])
        betas.append(beta)
        q_prev, q, beta_prev = q, w / beta, beta
    raise CoercivityError(nd, _C0_TOL)
