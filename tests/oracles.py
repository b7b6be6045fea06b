"""Independent routes to quantities the package computes another way.

``filmstab.stability.StabilityProblem.mu1`` reads the constrained minimum
off the ``lambda1`` pencil through the exact identity ``mu1 = 1 / lambda1``.
The minimization here solves the constrained problem directly, by a
Lanczos iteration on the nd-dimensional bulk space, so tests that compare
the two check the identity instead of assuming it.
"""

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.sparse.linalg import LinearOperator, eigsh


def lanczos_mu1(problem) -> float:
    """Constrained minimum of the bulk form over adjoint-feasible fields.

    Minimizes the bulk tangent energy of a periodic field subject to its
    induced surface functional having unit inner-product norm, as one over
    the top eigenvalue of ``L^-1 R_z S^-1 R_z^T L^-T`` (``L`` the stiffness
    factor, ``R_z`` the coupling on the zero-mean basis, ``S`` the surface
    Gram).  When the surface stress vanishes identically the constraint is
    infeasible and ``+inf`` is returned.
    """
    sim_cho = problem._sim_cho
    field = problem.field
    stress = field.surface_stress()
    bulk_scale = float(np.abs(field.density.stress(field.gradient())).max())
    if np.abs(stress).max() <= 1e-12 * (1.0 + bulk_scale):
        return float("inf")
    Rz = problem.coupling @ problem.zero_mean_basis
    L = problem._stiffness_cho[0]
    nd = Rz.shape[0]

    def matvec(x):
        t = solve_triangular(L, x, lower=True, trans="T")
        t = Rz @ cho_solve((sim_cho, True), Rz.T @ t)
        return solve_triangular(L, t, lower=True)

    op = LinearOperator((nd, nd), matvec=matvec)
    # fixed generic start vector keeps repeated runs bit-identical
    v0 = np.random.default_rng(0).standard_normal(nd)
    theta = float(eigsh(op, k=1, which="LA", return_eigenvectors=False, tol=1e-11, v0=v0)[0])
    if theta <= 0.0:
        return float("inf")
    return 1.0 / theta
