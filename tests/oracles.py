"""Independent routes to quantities the package computes another way.

``filmstab.stability.StabilityProblem.mu1`` reads the constrained minimum
off the ``lambda1`` pencil through the exact identity ``mu1 = 1 / lambda1``.
The minimization here solves the constrained problem directly, by a
Lanczos iteration on the nd-dimensional bulk space, so tests that compare
the two check the identity instead of assuming it.  Both routes here
factor the dense assembled stiffness (and the minimization the surface
Gram) themselves, so they stay independent of the factors the package
chooses (by block columns, or per lateral wavenumber on flat films).  They
read the stiffness's block columns through ``StabilityProblem.stiffness``,
which keeps them, so it is assembled once per problem, and factor the whole
matrix that ``BlockColumns.full`` mirrors from them: the field itself keeps
only its factor.

``filmstab.elasticity.assemble_residual`` applies the transposed gradient
to a weighted stress as BLAS products; ``einsum_residual`` writes the same
sums index by index, one contraction per direction.  Likewise
``filmstab.elasticity.assemble_hessian`` writes a form's matrix by lateral
block columns from per-direction factors, and ``reference_assemble_hessian``
sums the whole matrix term by term.

``filmstab.geometry.Profile.lateral_derivative`` applies the profile's dense
Fourier differentiation matrix to each line minus its first sample;
``fft_derivative`` takes the same trigonometric derivative by a forward and
an inverse FFT, with the constant-line mask that route needs for exact
zeros, and ``fft_gradient`` builds the nodal gradient of a mapped grid on
it.

``StabilityProblem`` writes its surface forms on the grid's lateral
derivative matrices under the tangent projector, one product per pair of
lateral axes.  ``identity_surface_form`` differentiates the identity
through ``tangential_jacobian`` instead, and sums one product per pair of
the ``N`` tangential-gradient components.  ``trigonometric_subnyquist_modes``
samples the zero-mean basis's cosines and sines by their own loops, over
the other half of the 3D mode plane.

``StabilityProblem.second_variation`` reads the quadratic form off one
matrix on nodal speeds: the surface Gram ``sim_matrix`` minus the
elastic-correction Gram ``t_matrix``.  The direct route here solves the
adjoint problem of the one speed and evaluates the same terms pointwise: the adjoint state as a nodal field, its bulk energy by
volume quadrature of the tangent, and the surface product by quadrature of
tangential gradients.  ``two_term_second_variation`` is the explicit form
of the facet-regularized densities at a flat state.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.sparse.linalg import LinearOperator, eigsh

from filmstab.anisotropy import IsotropicDensity
from filmstab.elasticity import _flat_shapes, _from_interior
from filmstab.config import max_resolved_mode
from filmstab.geometry import surface_integral, tangential_jacobian
from filmstab.spectral import lateral_grids
from filmstab.stability import StabilityProblem
from diagnostics import tangential_gradient


def einsum_residual(grid, weighted_stress) -> np.ndarray:
    """Interior-dof residual of ``w * stress`` samples, contracted with ``np.einsum``.

    For each direction ``a`` the lateral part ``Lx_a^T F_a`` and the
    vertical part ``Ds^T (s_a F_a)`` of the stress column ``F_a`` are added
    to the interior rows.
    """
    nx, ny, N, _ = _flat_shapes(grid)
    Lx, Ds, scoef = grid.assembly_operators()
    F = weighted_stress.reshape(nx, ny, N, N)
    out = np.zeros((nx, ny - 1, N))
    Ds_cols = Ds[:, 1:]
    for a in range(N):
        Fa = F[..., a]
        if a < N - 1:
            out += np.einsum("rj,rti->jti", Lx[a], Fa)[:, 1:]
        out += np.einsum("tk,rti->rki", Ds_cols, scoef[a][..., None] * Fa)
    return out.ravel()


def fft_derivative(values, width=1.0, axis=0) -> np.ndarray:
    """Trigonometric derivative of periodic samples along one axis, by the FFT.

    The Nyquist mode is dropped for even ``n``.  Lines constant along the
    axis are masked to exact zeros, which the transforms leave round-off in
    when ``n`` has a prime factor above 3.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    m = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        m[n // 2] = 0.0
    k = 2.0 * np.pi * m / width
    shape = [1] * values.ndim
    shape[axis] = n
    coeff = np.fft.fft(values, axis=axis)
    coeff *= (1j * k).reshape(shape)
    constant = np.all(values == np.take(values, [0], axis=axis), axis=axis, keepdims=True)
    return np.where(constant, 0.0, np.real(np.fft.ifft(coeff, axis=axis)))


def fft_gradient(grid, u) -> np.ndarray:
    """Gradient of a vector nodal field ``xshape + (ny, m)`` with lateral derivatives by the FFT.

    ``d/dx_a = d_a + slope_a d/ds`` and ``d/dy = (1/h) d/ds``, the chain rule
    of ``grid``, with ``d_a`` the :func:`fft_derivative` along lateral axis
    ``a`` and ``d/ds`` the Chebyshev matrix along the vertical axis.
    """
    ax = grid.dim - 1
    us = np.moveaxis(np.tensordot(grid.Ds, u, axes=(1, ax)), 0, ax)
    out = np.empty(u.shape + (grid.dim,))
    for a in range(ax):
        out[..., a] = fft_derivative(u, grid.profile.width, axis=a) + grid.slope[..., a, None] * us
    out[..., ax] = grid.vertical_scale[..., None] * us
    return out


def lanczos_mu1(problem) -> float:
    """Constrained minimum of the bulk form over adjoint-feasible fields.

    Minimizes the bulk tangent energy of a periodic field subject to its
    induced surface functional having unit inner-product norm, as one over
    the top eigenvalue of ``L^-1 R_z S^-1 R_z^T L^-T`` (``L`` the stiffness
    factor, ``R_z`` the coupling on the zero-mean basis, ``S`` the surface
    Gram).  When the surface stress vanishes identically the constraint is
    infeasible and ``+inf`` is returned.
    """
    sim_cho = cho_factor(problem.sim_matrix_z, lower=True)
    field = problem.field
    stress = field.surface_stress()
    bulk_scale = float(np.abs(field.density.stress(field.gradient())).max())
    if np.abs(stress).max() <= 1e-12 * (1.0 + bulk_scale):
        return float("inf")
    Rz = problem.coupling @ problem.zero_mean_basis
    L = cho_factor(problem.stiffness.full(), lower=True)[0]
    nd = Rz.shape[0]

    def matvec(x):
        t = solve_triangular(L, x, lower=True, trans="T")
        t = Rz @ cho_solve(sim_cho, Rz.T @ t)
        return solve_triangular(L, t, lower=True)

    op = LinearOperator((nd, nd), matvec=matvec)
    # fixed generic start vector keeps repeated runs bit-identical
    v0 = np.random.default_rng(0).standard_normal(nd)
    theta = float(eigsh(op, k=1, which="LA", return_eigenvectors=False, tol=1e-11, v0=v0)[0])
    if theta <= 0.0:
        return float("inf")
    return 1.0 / theta


def solve_vphi(problem, phi) -> np.ndarray:
    """Adjoint elastic correction of a surface speed, as nodal samples.

    The returned field vanishes on the substrate row, is laterally
    periodic, and its bulk tangent pairing against any test field equals
    minus the surface integral of ``phi`` times the stress contracted
    with the tangential gradient of the test field.
    """
    arr = np.asarray(phi, dtype=float)
    if arr.shape != problem.profile.xshape:
        raise ValueError(f"speed must have shape {problem.profile.xshape}, got {arr.shape}")
    rhs = problem.coupling @ arr.ravel()
    if not np.any(rhs):
        return np.zeros(problem.profile.xshape + (problem.grid.ny, problem.grid.dim))
    cho = cho_factor(problem.stiffness.full(), lower=True)
    return _from_interior(problem.grid, cho_solve(cho, rhs))


def elastic_pairing(problem, v: np.ndarray, w: np.ndarray) -> float:
    """Bulk tangent form between two nodal fields, by direct quadrature."""
    field = problem.field
    density = np.einsum(
        "...iamb,...ia,...mb->...",
        field.density.tangent(field.gradient()),
        problem.grid.gradient(v),
        problem.grid.gradient(w),
        optimize=True,
    )
    return problem.grid.volume_integral(density)


def sim_inner_product(problem, phi, theta) -> float:
    """Surface inner product of two speeds, by pointwise quadrature."""
    p, q = np.asarray(phi, dtype=float), np.asarray(theta, dtype=float)
    tp = tangential_gradient(problem.geom, p)
    tq = tangential_gradient(problem.geom, q)
    quad = np.einsum("...ij,...i,...j->...", problem.surface_hessian, tp, tq)
    return surface_integral(problem.geom, quad + problem.coefficient_a * p * q)


def three_term_form(problem, phi) -> float:
    """Surface norm minus elastic correction of a speed, by quadrature."""
    v = solve_vphi(problem, phi)
    return -elastic_pairing(problem, v, v) + sim_inner_product(problem, phi, phi)


def two_term_second_variation(field, a_facet: float, eps: float, phi) -> float:
    """Second variation at a flat state in its explicit two-term form.

    For the facet-regularized densities the surface contribution collapses to
    ``(a/eps)`` times the squared tangential gradient, because the zeroth-order
    coefficient vanishes at an affine state and the density's curvature at the
    vertical direction is ``a/eps`` times the identity on the tangent plane.
    The elastic term reuses the adjoint solve; the surface term is assembled
    by direct quadrature, independently of the generic Gram-matrix path.
    """
    prob = StabilityProblem(field, IsotropicDensity(field.grid.dim))
    phi = np.asarray(phi, dtype=float)
    v = solve_vphi(prob, phi)
    geom = field.grid.geom
    grad = tangential_gradient(geom, phi)
    surface = surface_integral(geom, np.einsum("...i,...i->...", grad, grad))
    return -elastic_pairing(prob, v, v) + (a_facet / eps) * surface


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


def identity_surface_form(problem, hess, coef) -> np.ndarray:
    """Matrix of ``int H[grad_T phi, grad_T theta] + coef * phi * theta`` on nodal speeds.

    The tangential gradient of each nodal unit speed comes from
    ``tangential_jacobian`` of the identity, one ``nx x nx`` matrix per
    component, and the form sums ``N^2`` weighted products of them.
    """
    nx, N = problem.grid.nx, problem.grid.dim
    w = problem.geom.surface_weights.ravel()
    jac = tangential_jacobian(problem.geom, np.eye(nx).reshape(problem.profile.xshape + (nx,)))
    TG = [jac[..., c].reshape(nx, nx) for c in range(N)]
    S = np.zeros((nx, nx))
    for c in range(N):
        for d in range(N):
            S += TG[c].T @ ((w * hess[:, c, d])[:, None] * TG[d])
    S[np.diag_indices(nx)] += w * coef
    return 0.5 * (S + S.T)


def trigonometric_subnyquist_modes(profile) -> np.ndarray:
    """Columns of nodal ``cos`` and ``sin`` samples of every sub-Nyquist nonzero mode.

    One mode of each pair ``+-m``: ``1..kmax`` in 2D, and in 3D the first of
    each pair met in row-major order from ``(-kmax, -kmax)``.
    """
    n, width = profile.n, profile.width
    grids = lateral_grids(n, width, profile.dim)
    kmax = max_resolved_mode(n)
    cols = []
    if profile.dim == 2:
        for k in range(1, kmax + 1):
            arg = 2.0 * np.pi * k * grids[0] / width
            cols.append(np.cos(arg))
            cols.append(np.sin(arg))
    else:
        g1, g2 = grids
        seen = set()
        for k1 in range(-kmax, kmax + 1):
            for k2 in range(-kmax, kmax + 1):
                if (k1, k2) == (0, 0) or (-k1, -k2) in seen:
                    continue
                seen.add((k1, k2))
                arg = 2.0 * np.pi * (k1 * g1 + k2 * g2) / width
                cols.append(np.cos(arg).ravel())
                cols.append(np.sin(arg).ravel())
    return np.column_stack(cols)
