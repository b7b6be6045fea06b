"""Second-variation analysis of equilibrium film configurations.

At an equilibrium pair -- a profile together with its equilibrium elastic
field -- the second derivative of the total energy along normal
perturbations of the free surface is a quadratic form in a scalar surface
speed.  This module assembles that form and its spectral decomposition:

* the zeroth-order surface coefficient combining the normal derivative of
  the elastic energy density with the anisotropic shape operator,
* the adjoint elastic correction driven by a surface speed,
* the surface inner product under which the correction becomes a compact
  self-adjoint operator, its Gram matrix on the zero-mean subspace, and
  the extreme eigenvalues that decide strict stability,
* an independent finite-difference oracle that differentiates the total
  energy along a profile family by re-solving the equilibrium.

The verdict: a configuration is strictly stable exactly when the bulk
tangent form is coercive, the surface inner product is positive definite
on zero-mean speeds, and the largest eigenvalue of the elastic-correction
operator stays below one.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from .anisotropy import AnisotropyDensity, aniso_mean_curvature, aniso_shape_operator
from .elasticity import (
    BlockColumns,
    ElasticField,
    NewtonError,
    coercivity_constant,
    continue_critical_point,
    generalized_eigh,
)
from .config import max_resolved_mode
from .geometry import Profile, surface_integral, tangential_divergence
from .spectral import cosine_series

__all__ = [
    "StabilityReport",
    "StabilityProblem",
    "SimGramError",
    "FilmstabWarning",
    "CriticalityWarning",
    "VERDICT_STABLE",
    "VERDICT_UNSTABLE",
    "VERDICT_INDEFINITE",
    "verdict_of",
    "fd_oracle_second_variation",
    "total_energy",
    "cosine_mode",
    "dispersion_curve",
]


def __getattr__(name: str):
    # the stiffness factor and the c0 Lanczos solve live in elasticity, and
    # nothing here calls these two; the benchmark tracer reads and rebinds both
    if name in ("cho_factor", "eigsh"):
        from . import elasticity

        return getattr(elasticity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


VERDICT_STABLE = "strictly_stable"
VERDICT_UNSTABLE = "not_strictly_stable"
VERDICT_INDEFINITE = "indefinite_sim_product"


def verdict_of(c0: float, sim_gram_min: float, lambda1: float) -> str:
    """The strict-stability verdict of the three spectral quantities.

    A surface product that is not positive definite on zero-mean speeds is
    ``indefinite_sim_product``; otherwise the pair is ``strictly_stable``
    exactly when ``c0 > 0`` and ``lambda1 < 1``, so a NaN ``lambda1`` (no
    correction operator) never is.
    """
    if sim_gram_min <= 0.0:
        return VERDICT_INDEFINITE
    return VERDICT_STABLE if c0 > 0.0 and lambda1 < 1.0 else VERDICT_UNSTABLE


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the strict-stability test at an equilibrium pair.

    ``verdict`` is ``strictly_stable`` exactly when the bulk tangent form is
    coercive (``c0 > 0``), the surface inner product is positive definite on
    zero-mean speeds (``sim_gram_min > 0``) and the largest
    elastic-correction eigenvalue stays below one (``lambda1 < 1``).
    ``indefinite_sim_product`` flags a sign-indefinite surface product,
    under which the eigenvalue problems are not posed and the eigenvalue
    fields are NaN.  ``coercivity_const`` is the resulting lower bound of
    the quadratic form against the squared first-order Sobolev norm of the
    speed on the surface.
    """

    c0: float
    sim_gram_min: float
    lambda1: float
    mu1: float
    criticality_residual: float
    verdict: str
    coercivity_const: float

    def to_dict(self) -> dict:
        return asdict(self)


class SimGramError(RuntimeError):
    """Surface inner product is indefinite on zero-mean speeds.

    Carries the offending smallest Gram eigenvalue as ``sim_gram_min``.
    """

    def __init__(self, sim_gram_min: float):
        super().__init__(
            "surface inner product is not positive definite on the zero-mean "
            f"subspace: smallest Gram eigenvalue = {sim_gram_min:.6e}"
        )
        self.sim_gram_min = float(sim_gram_min)


class FilmstabWarning(UserWarning):
    """The category of every warning filmstab issues."""


class CriticalityWarning(FilmstabWarning):
    """Three-term quadratic form evaluated away from a surface equilibrium."""


def _canonical_sign(samples: np.ndarray) -> np.ndarray:
    """Flip the sign so the first nonzero Fourier coefficient is nonnegative."""
    coeff = np.fft.fftn(samples).ravel()
    mags = np.abs(coeff)
    top = mags.max()
    if top == 0.0:
        return samples
    lead = coeff[int(np.flatnonzero(mags > 1e-12 * top)[0])]
    key = lead.real if abs(lead.real) >= abs(lead.imag) else lead.imag
    return -samples if key < 0.0 else samples


def cosine_mode(profile: Profile, k: int) -> np.ndarray:
    """Nodal samples of ``cos(2 pi k x / width)``; in 3D along the first coordinate."""
    mode = k if profile.dim == 2 else [k, 0]
    return cosine_series(profile.n, profile.width, profile.dim, [{"mode": mode, "amplitude": 1.0}])


def _subnyquist_modes(profile: Profile) -> np.ndarray:
    """Columns of nodal cosine/sine samples for all sub-Nyquist nonzero modes.

    One mode of each pair ``+-m``: the ``m`` above zero in lexicographic
    order, which is ``1..kmax`` in 2D and the half plane ``k1 > 0`` or
    ``k1 = 0 < k2`` in 3D.  The sine is the cosine at phase ``-pi/2``.
    """
    n, width, dim = profile.n, profile.width, profile.dim
    kmax = max_resolved_mode(n)
    ks = range(-kmax, kmax + 1)
    modes = [m for m in itertools.product(ks, repeat=dim - 1) if m > (0,) * (dim - 1)]
    cols = [
        cosine_series(n, width, dim, [{"mode": m, "amplitude": 1.0, "phase": phase}]).ravel()
        for m in modes
        for phase in (0.0, -0.5 * np.pi)
    ]
    return np.column_stack(cols)


class StabilityProblem:
    """Cached second-variation machinery at an equilibrium elastic field.

    The heavy pieces -- the Cholesky factor of the bulk tangent matrix
    (cached on the field, which factors the matrix in place and keeps no
    dense copy; a flat film factors it per lateral wavenumber and never
    assembles it), surface-to-bulk coupling matrix, surface Gram matrices,
    zero-mean basis -- are built once and shared by the quadratic form, the
    eigenvalue computations and the verdict.
    """

    def __init__(self, field: ElasticField, psi: AnisotropyDensity):
        if psi.dim != field.grid.dim:
            raise ValueError(
                f"surface density dimension {psi.dim} != film dimension {field.grid.dim}"
            )
        self.field = field
        self.psi = psi
        self.grid = field.grid
        self.geom = field.grid.geom
        self.profile = field.grid.profile

    # -- bulk side -------------------------------------------------------------

    @cached_property
    def stiffness(self) -> BlockColumns:
        """Block columns of the bulk tangent form's interior-dof matrix at the equilibrium.

        The field's :attr:`~filmstab.elasticity.ElasticField.stiffness`,
        which the field assembles on every read and the problem keeps; the
        report reads only the field's factor.
        """
        return self.field.stiffness

    @cached_property
    def c0(self) -> float:
        """Coercivity constant of the bulk tangent form over the Sobolev norm."""
        return coercivity_constant(self.field)

    @cached_property
    def coupling(self) -> np.ndarray:
        """Matrix sending surface speeds to the adjoint right-hand side.

        Column ``j`` holds the interior-dof functional
        ``w -> -w_j * (stress P)(x_j) : grad w(x_j)`` of the j-th surface
        node (``P`` the tangential projector), so the adjoint state of a
        speed solves ``stiffness @ v = coupling @ phi``.
        """
        grid = self.grid
        nx, ny, N = grid.nx, grid.ny, grid.dim
        top = grid.surface_index
        Lx, Ds, scoef = grid.assembly_operators()
        stress = np.einsum(
            "...ib,...ba->...ia", self.field.surface_stress(), self.geom.tangent_projector
        )
        G = (self.geom.surface_weights[..., None, None] * stress).reshape(nx, N, N)
        out = np.zeros((nx, ny - 1, N, nx))
        idx = np.arange(nx)
        for a in range(N):
            Ga = G[..., a]
            if a < N - 1:
                out[:, top - 1, :, :] += np.einsum("rp,ri->pir", Lx[a], Ga)
            out[idx, :, :, idx] += np.einsum("k,r,ri->rki", Ds[top, 1:], scoef[a][:, top], Ga)
        return -out.reshape(nx * (ny - 1) * N, nx)

    # -- surface side ------------------------------------------------------------

    @cached_property
    def coefficient_a(self) -> np.ndarray:
        """Zeroth-order surface coefficient of the quadratic form.

        Normal derivative of the elastic energy density at the surface,
        minus the trace of the anisotropy Hessian composed with the squared
        shape operator.
        """
        dgrad = self.grid.surface_trace(self.field.gradient_derivative())
        normal_rate = np.einsum("...iab,...b->...ia", dgrad, self.geom.normal)
        elastic_part = np.einsum("...ia,...ia->...", self.field.surface_stress(), normal_rate)
        trace_part = aniso_shape_operator(self.geom, self.psi)
        return elastic_part - trace_part

    @cached_property
    def surface_hessian(self) -> np.ndarray:
        return self.psi.hessian(self.geom.normal)

    @cached_property
    def zero_mean_basis(self) -> np.ndarray:
        """Orthonormal basis of resolvable speeds with vanishing surface integral.

        Spanned by the Fourier modes strictly below the grid's Nyquist
        frequency with the area-weighted mean projected out.  The Nyquist
        modes are excluded because their collocation derivative vanishes
        identically at the nodes, so they carry no tangential energy and
        would sit in the common kernel of both quadratic forms; on the
        retained subspace the Gram pencils are genuinely definite.
        """
        B = _subnyquist_modes(self.profile)
        w = self.geom.surface_weights.ravel()
        B = B - (w @ B)[None, :] / w.sum()
        Q, _ = np.linalg.qr(B)
        return Q

    def _surface_form(self, hess: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Matrix of ``int H[grad_T phi, grad_T theta] + coef * phi * theta`` on nodal speeds.

        ``hess`` holds one ``N x N`` matrix and ``coef`` one value per surface
        node.  A speed's tangential gradient is its lateral gradient under the
        tangent projector ``P``, so the form is ``sum_ab Lx_a^T diag(w (P H
        P)_ab) Lx_b + diag(w coef)`` over the lateral axes, with the grid's
        :meth:`~filmstab.geometry.MappedGrid.assembly_operators` ``Lx`` and
        the surface weights ``w``.
        """
        nx, N = self.grid.nx, self.grid.dim
        w = self.geom.surface_weights.ravel()
        P = self.geom.tangent_projector.reshape(nx, N, N)
        PHP = P @ hess @ P
        Lx, _, _ = self.grid.assembly_operators()
        S = np.zeros((nx, nx))
        for a in range(N - 1):
            for b in range(N - 1):
                S += Lx[a].T @ ((w * PHP[:, a, b])[:, None] * Lx[b])
        S[np.diag_indices(nx)] += w * coef
        return 0.5 * (S + S.T)

    def _on_zero_mean(self, S: np.ndarray) -> np.ndarray:
        Z = self.zero_mean_basis
        Sz = Z.T @ S @ Z
        return 0.5 * (Sz + Sz.T)

    @cached_property
    def sim_matrix(self) -> np.ndarray:
        """Gram matrix of the surface inner product on all nodal speeds."""
        nx, N = self.grid.nx, self.grid.dim
        return self._surface_form(self.surface_hessian.reshape(nx, N, N), self.coefficient_a.ravel())

    @cached_property
    def sim_matrix_z(self) -> np.ndarray:
        return self._on_zero_mean(self.sim_matrix)

    @cached_property
    def sim_gram_min(self) -> float:
        """Smallest eigenvalue of the surface Gram on the zero-mean basis."""
        return float(np.linalg.eigvalsh(self.sim_matrix_z)[0])

    # -- quadratic forms -----------------------------------------------------------

    @cached_property
    def _surface_potential(self) -> np.ndarray:
        """Elastic energy density plus anisotropic curvature on the surface."""
        return self.field.surface_energy_density() + aniso_mean_curvature(self.profile, self.psi)

    @cached_property
    def criticality(self) -> tuple:
        """(sup-deviation, mean) of the surface equilibrium identity.

        At an equilibrium profile the surface potential is constant along
        the free surface; the deviation measures how far the pair is from
        that state.
        """
        g = self._surface_potential
        w = self.geom.surface_weights
        mean = float(np.sum(w * g) / np.sum(w))
        return float(np.abs(g - mean).max()), mean

    def criticality_residual(self) -> float:
        return self.criticality[0]

    def second_variation(self, phi) -> float:
        """Three-term quadratic form of a surface speed.

        Valid at equilibrium pairs; a :class:`CriticalityWarning` is issued
        when the surface equilibrium residual exceeds its threshold, since
        the omitted transport term is then nonzero (use
        :meth:`full_second_variation` instead).
        """
        residual, mean = self.criticality
        threshold = 1e-6 * (abs(mean) + 1.0)
        if residual > threshold:
            warnings.warn(
                f"surface equilibrium residual {residual:.3e} exceeds {threshold:.3e}; "
                "the three-term form omits a nonzero transport term -- use "
                "full_second_variation",
                CriticalityWarning,
                stacklevel=2,
            )
        return self._three_term_form(self._speed(phi))

    def _speed(self, phi) -> np.ndarray:
        arr = np.asarray_chkfinite(phi, dtype=float)
        if arr.shape != self.profile.xshape:
            raise ValueError(f"speed must have shape {self.profile.xshape}, got {arr.shape}")
        return arr

    def _three_term_form(self, arr: np.ndarray) -> float:
        """Surface norm minus elastic correction: ``a (S - T) a``.

        ``S`` is :attr:`sim_matrix` and ``T`` is :attr:`t_matrix`, whose
        form is the bulk tangent energy of the adjoint state of the speed.
        """
        a = arr.ravel()
        return float(a @ (self.sim_matrix - self.t_matrix) @ a)

    def full_second_variation(self, phi) -> float:
        """Four-term quadratic form, valid away from surface equilibrium.

        Adds to the three terms the transport correction: the integral of
        the surface potential against the tangential divergence of the
        squared speed carried by the tangential part of the vertical
        direction.  At equilibrium pairs the correction integrates to zero
        and the two forms agree.
        """
        arr = self._speed(phi)
        geom = self.geom
        slope = geom.grad_h
        X = np.concatenate([slope, np.sum(slope**2, axis=-1, keepdims=True)], axis=-1)
        X /= geom.area_jacobian[..., None]
        div = tangential_divergence(geom, X * (arr**2)[..., None])
        transport = surface_integral(geom, self._surface_potential * div)
        return self._three_term_form(arr) - transport

    def dispersion_curve(self, max_mode: int) -> np.ndarray:
        """Rows ``(k, quadratic form at cos(2 pi k x / width))`` for k = 1..max_mode.

        Uses the four-term form, so the curve stays meaningful slightly away
        from surface equilibrium; in three dimensions the mode runs along the
        first horizontal coordinate.  Without a stiffness factor the form is
        not posed and the values are NaN, as ``lambda1`` is in :meth:`report`.
        """
        rows = np.column_stack([np.arange(1, max_mode + 1), np.full(max_mode, np.nan)])
        if self.field.stiffness_cho is not False:
            for k in range(1, max_mode + 1):
                rows[k - 1, 1] = self.full_second_variation(cosine_mode(self.profile, k))
        return rows

    # -- spectral decomposition -------------------------------------------------------

    @cached_property
    def t_matrix(self) -> np.ndarray:
        """Gram of the elastic-correction operator on all nodal speeds.

        Entry ``(i, j)`` is the bulk tangent pairing of the adjoint states
        of the i-th and j-th surface basis speeds: ``T = R^T K^-1 R`` with
        ``R`` the coupling, one adjoint solve per basis function against the
        field's stiffness factor.  Raises ``LinAlgError`` when the stiffness
        is not positive definite.
        """
        cho = self.field.stiffness_cho
        if cho is False:
            raise LinAlgError("the bulk tangent form is not positive definite")
        return self.coupling.T @ cho.solve(self.coupling)

    @cached_property
    def t_matrix_z(self) -> np.ndarray:
        return self._on_zero_mean(self.t_matrix)

    @cached_property
    def _pencil(self) -> tuple:
        """Eigenpairs of the correction operator against the surface Gram.

        The generalized symmetric eigenproblem ``T_z v = lambda S_z v`` on
        the zero-mean basis, with eigenvectors normalised to ``v S_z v = 1``.
        Raises :class:`SimGramError` when ``S_z`` is not positive definite.
        """
        if self.sim_gram_min <= 0.0:
            raise SimGramError(self.sim_gram_min)
        # read before the try: a stiffness without a factor raises its own LinAlgError
        Tz = self.t_matrix_z
        try:
            return generalized_eigh(Tz, self.sim_matrix_z)
        except LinAlgError as err:
            raise SimGramError(self.sim_gram_min) from err

    def lambda1(self) -> tuple:
        """Largest correction eigenvalue with its normalized eigenfunction.

        The eigenfunction is returned as nodal samples on the surface grid.
        It lies in the span of the zero-mean basis, has unit surface
        inner-product norm, and its sign is fixed by making its first
        nonzero Fourier coefficient nonnegative.
        """
        vals, vecs = self._pencil
        lam = float(max(vals[-1], 0.0))
        phi = _canonical_sign((self.zero_mean_basis @ vecs[:, -1]).reshape(self.profile.xshape))
        return lam, phi

    def mu1(self) -> float:
        """Constrained minimum of the bulk form over adjoint-feasible fields.

        Minimizes the bulk tangent energy of a periodic field subject to its
        induced surface functional having unit inner-product norm.  The
        minimum is ``1 / lambda1`` exactly, also on the grid: it is one over
        the top eigenvalue of ``B B^T`` with ``B = L^-1 R M^-T`` (``L`` the
        stiffness factor, ``R`` the coupling on zero-mean speeds, ``M`` the
        surface Gram factor), whose nonzero spectrum is that of the pencil
        matrix ``B^T B``.  When ``lambda1`` vanishes the constraint is
        infeasible and the sentinel ``+inf`` is returned with a warning.
        """
        lam, _ = self.lambda1()
        if lam == 0.0:
            warnings.warn(
                "the elastic correction vanishes: the unit-norm constraint is "
                "infeasible and the constrained minimum is +inf",
                FilmstabWarning,
                stacklevel=2,
            )
            return float("inf")
        return 1.0 / lam

    # -- verdict ---------------------------------------------------------------------

    def surface_h1_gram_z(self) -> np.ndarray:
        """First-order Sobolev Gram of surface speeds on the zero-mean basis."""
        nx, N = self.grid.nx, self.grid.dim
        return self._on_zero_mean(
            self._surface_form(np.broadcast_to(np.eye(N), (nx, N, N)), np.ones(nx))
        )

    def report(self) -> StabilityReport:
        residual = self.criticality_residual()
        c0 = self.c0
        sgm = self.sim_gram_min
        lam = mu = equiv = float("nan")
        # the eigenvalues are posed only for a positive definite surface
        # product and bulk tangent form; otherwise they stay NaN
        if sgm > 0.0 and self.field.stiffness_cho is not False:
            lam, _ = self.lambda1()
            mu = self.mu1()
            equiv = float(generalized_eigh(self.sim_matrix_z, self.surface_h1_gram_z(), eigvals_only=True)[0])
        return StabilityReport(
            c0=c0,
            sim_gram_min=sgm,
            lambda1=lam,
            mu1=mu,
            criticality_residual=residual,
            verdict=verdict_of(c0, sgm, lam),
            coercivity_const=(1.0 - lam) * equiv,
        )


# -- module-level operations ------------------------------------------------------


def total_energy(field: ElasticField, psi: AnisotropyDensity) -> float:
    """Bulk elastic energy plus anisotropic area of the free surface."""
    geom = field.grid.geom
    return field.energy() + surface_integral(geom, psi.value(geom.normal))


def fd_oracle_second_variation(
    field: ElasticField,
    psi: AnisotropyDensity,
    phi,
    t: float | None = None,
    richardson: bool = True,
) -> float:
    """Second difference of the total energy along a normal-speed direction.

    Independent of the assembled quadratic form: the profile is moved to
    ``h +- t * phi * area_jacobian`` (the graph perturbation whose normal
    speed is ``phi``), the elastic equilibrium is re-solved by Newton started
    from the unperturbed field node for node (see
    :func:`~filmstab.elasticity.continue_critical_point`), and the total
    energy is centrally differenced.  With ``richardson`` the steps ``t``
    and ``t/2`` are combined to cancel the leading quadratic truncation
    error.  The default step is ``1e-3`` times the sup of the profile.

    The re-solves take conjugate-gradient Newton steps preconditioned by the
    unperturbed field's stiffness factor, which is computed once and shared
    with :class:`StabilityProblem`.  The factor only speeds them up: each
    re-solved field passes the same residual test on the moved grid, and
    the matrix-vector products come from the density's tangent, not from
    the assembled stiffness, so the differenced energies stay independent
    of the assembled form.

    Raises ``RuntimeError`` suggesting a smaller step when a perturbed
    profile is inadmissible or its equilibrium solve fails to converge.
    """
    profile = field.grid.profile
    geom = field.grid.geom
    vertical = np.asarray(phi, dtype=float) * geom.area_jacobian
    if t is None:
        t = 1e-3 * profile.max()
    base_value = total_energy(field, psi)

    def energy_at(step: float) -> float:
        try:
            moved_profile = Profile(profile.samples + step * vertical, width=profile.width)
            moved, _ = continue_critical_point(field, moved_profile)
        except (ValueError, NewtonError) as err:
            raise RuntimeError(
                f"equilibrium continuation failed at profile step {step:+.3e}; "
                "retry with a smaller t"
            ) from err
        return total_energy(moved, psi)

    def second_difference(step: float) -> float:
        return (energy_at(step) - 2.0 * base_value + energy_at(-step)) / step**2

    coarse = second_difference(t)
    if not richardson:
        return coarse
    fine = second_difference(0.5 * t)
    return (4.0 * fine - coarse) / 3.0


def dispersion_curve(field: ElasticField, psi: AnisotropyDensity, max_mode: int) -> np.ndarray:
    """Rows ``(k, four-term form at the k-th cosine mode)``; see
    :meth:`StabilityProblem.dispersion_curve`."""
    return StabilityProblem(field, psi).dispersion_curve(max_mode)
