"""Flat film configurations: affine equilibria and the thickness threshold.

A flat film of thickness ``d`` over a mismatched substrate admits an affine
equilibrium whose gradient is constant, so the whole stability question
reduces to spectral data as functions of the thickness.  This module

* solves the algebraic traction-free condition for the affine slope,
* evaluates the stability eigenvalues as functions of thickness under the
  two cell conventions (fixed unit cell, or a cube cell whose width grows
  with the thickness),
* locates the critical thickness where the largest correction eigenvalue
  crosses one, and reports the verdict along a thickness sweep.  The unit
  cell solves one problem per thickness.  The cube cell of thickness ``d``
  is the ``d``-dilate of the one at ``d = 1`` and the affine slope does not
  depend on ``d``, so the stiffness is ``d^(N-2)`` times the ``d = 1`` one
  and ``lambda1(d) = d * lambda1(1)`` exactly on the grid: the cube-cell
  threshold and sweep solve the ``d = 1`` problem only, and can share it
  (:func:`cube_unit_problem`),
* runs the facet-regularization sweep showing that a sufficiently stiff
  crystalline surface density suppresses the instability at every
  thickness,
* emits CSV tables for threshold and regularization plots.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .anisotropy import AnisotropyDensity, IsotropicDensity
from .elasticity import (
    ElasticDensity,
    ElasticField,
    MismatchDatum,
    NewtonError,
)
from .geometry import Profile, build_grid
from .stability import StabilityProblem, StabilityReport, verdict_of

__all__ = [
    "BracketError",
    "CriticalThickness",
    "solve_affine",
    "flat_field",
    "cube_unit_problem",
    "lambda1_of_thickness",
    "stability_of_thickness",
    "critical_thickness",
    "crystalline_sweep",
    "crystalline_epsilon0",
    "threshold_rows",
    "write_threshold_csv",
    "write_crystalline_csv",
]


_AFFINE_TOL = 1e-11
_AFFINE_MAX_ITER = 40
_BISECTION_MAX_ITER = 80


def _affine_gradient(datum: MismatchDatum, b: np.ndarray) -> np.ndarray:
    N = datum.dim
    M = np.zeros((N, N))
    M[: N - 1, : N - 1] = datum.A
    M[:, N - 1] = b
    return M


def solve_affine(density: ElasticDensity, datum: MismatchDatum) -> np.ndarray:
    """Solve the traction-free condition for the affine slope.

    The affine state is ``(A x, 0) + y * b`` (for the nonlinear kind the
    deformation itself, for the linear kind the displacement), so its
    gradient is the constant matrix with last column ``b``, and ``b`` does
    not depend on the thickness.  It satisfies the last column of the stress
    vanishing, ``stress(gradient(b))[:, -1] = 0``: one Newton step settles
    the linear kind, while the nonlinear kind starts from the vertical unit
    vector and needs the mismatch close enough to the identity for Newton to
    contract.  A linear slope whose deformation ``I + gradient`` reverses
    orientation raises ``ValueError``.
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


def flat_field(
    density: ElasticDensity,
    datum: MismatchDatum,
    thickness: float,
    n: int,
    ny: int,
    *,
    width: float = 1.0,
) -> ElasticField:
    """The affine equilibrium on an ``n x ny`` grid of a flat film of lateral width ``width``."""
    rate = solve_affine(density, datum)
    if density.kind == "nonlinear":
        # the base field already carries the vertical identity y
        rate[-1] -= 1.0
    grid = build_grid(Profile.flat(datum.dim, n, thickness, width=width), ny)
    return ElasticField(grid, datum, density, grid.y[..., None] * rate)


# -- spectral data as functions of thickness -----------------------------------------


def _flat_problem(
    d: float,
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    *,
    cell: str,
    n: int,
    ny: int,
) -> StabilityProblem:
    if cell not in ("unit", "cube"):
        raise ValueError(f"cell must be 'unit' or 'cube', got {cell!r}")
    width = d if cell == "cube" else 1.0
    field = flat_field(density, datum, d, n, ny, width=width)
    prob = StabilityProblem(field, psi)
    _assert_flat_coefficient(prob)
    return prob


def _assert_flat_coefficient(prob: StabilityProblem) -> None:
    """The zeroth-order surface coefficient must vanish at an affine state."""
    scale = 1.0 + float(np.abs(prob.field.surface_energy_density()).max())
    worst = float(np.abs(prob.coefficient_a).max())
    if worst > 1e-6 * scale:
        raise RuntimeError(
            f"flat configuration has a nonzero surface coefficient ({worst:.3e}); "
            "the affine state is not an equilibrium on this grid"
        )


def cube_unit_problem(
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    *,
    n: int = 32,
    ny: int = 20,
) -> StabilityProblem:
    """The cube cell's ``d = 1`` problem, which every cube-cell thickness scales.

    Pass it as ``unit`` to :func:`critical_thickness` and
    :func:`threshold_rows` so that both read one problem.
    """
    return _flat_problem(1.0, density, psi, datum, cell="cube", n=n, ny=ny)


def lambda1_of_thickness(
    d: float,
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    *,
    cell: str = "unit",
    n: int = 32,
    ny: int = 20,
) -> float:
    """Largest correction eigenvalue of the flat film of thickness ``d``."""
    lam, _ = _flat_problem(d, density, psi, datum, cell=cell, n=n, ny=ny).lambda1()
    return lam


def stability_of_thickness(
    d: float,
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    *,
    cell: str = "unit",
    n: int = 32,
    ny: int = 20,
) -> StabilityReport:
    """Full stability report of the flat film of thickness ``d``."""
    return _flat_problem(d, density, psi, datum, cell=cell, n=n, ny=ny).report()


class BracketError(RuntimeError):
    """The thickness bracket does not straddle the stability threshold."""

    def __init__(self, bracket, lambda_low: float, lambda_high: float):
        self.bracket = tuple(bracket)
        self.lambda_low = float(lambda_low)
        self.lambda_high = float(lambda_high)
        super().__init__(
            f"no threshold inside {self.bracket}: lambda1 = {lambda_low:.6g} at the low end "
            f"and {lambda_high:.6g} at the high end never cross 1"
        )


@dataclass(frozen=True)
class CriticalThickness:
    """Bisection result for the thickness where the largest eigenvalue crosses one."""

    d_crit: float
    d_low: float
    d_high: float
    lambda_low: float
    lambda_high: float

    def to_dict(self) -> dict:
        return asdict(self)


def critical_thickness(
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    bracket,
    *,
    cell: str = "cube",
    n: int = 32,
    ny: int = 20,
    rel_tol: float = 1e-3,
    unit: StabilityProblem | None = None,
) -> CriticalThickness:
    """Bisect the thickness at which the largest correction eigenvalue reaches one.

    Requires the eigenvalue below one at the low end of the bracket and above
    one at the high end; otherwise raises :class:`BracketError` carrying both
    endpoint values (the facet-regularized densities never bracket, since they
    are stable at every thickness).  The unit cell solves a problem at every
    step.  The cube cell bisects ``lambda1(d) = d * lambda1(1)``, which is
    exact on the grid, off the ``d = 1`` problem ``unit`` (see
    :func:`cube_unit_problem`), built here when not given.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"bracket must satisfy 0 < low < high < inf, got {bracket}")
    if cell == "cube":
        if unit is None:
            unit = cube_unit_problem(density, psi, datum, n=n, ny=ny)
        rate, _ = unit.lambda1()

        def lam(d: float) -> float:
            return d * rate

    else:

        def lam(d: float) -> float:
            return lambda1_of_thickness(d, density, psi, datum, cell=cell, n=n, ny=ny)

    lam_lo, lam_hi = lam(lo), lam(hi)
    if not lam_lo < 1.0 < lam_hi:
        raise BracketError((lo, hi), lam_lo, lam_hi)
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < rel_tol * mid:
            return CriticalThickness(mid, lo, hi, lam_lo, lam_hi)
        lam_mid = lam(mid)
        if lam_mid < 1.0:
            lo, lam_lo = mid, lam_mid
        else:
            hi, lam_hi = mid, lam_mid
    raise RuntimeError(
        f"bisection did not reach relative width {rel_tol} in {_BISECTION_MAX_ITER} steps"
    )


# -- crystalline regularization ---------------------------------------------------------

def crystalline_sweep(
    density: ElasticDensity,
    datum: MismatchDatum,
    d: float,
    a_facet: float,
    b_facet: float,
    *,
    n: int = 32,
    ny: int = 20,
    max_steps: int = 20,
) -> list:
    """Largest eigenvalue along the facet-regularization halving sweep.

    Returns ``[(eps, lambda1), ...]`` for ``eps = (b/a) / 2, (b/a) / 4, ...``
    of ``ShiftedFacetDensity(a, b, eps)``.  On the flat film the normal is
    ``e_N``, where that density's Hessian is ``a/eps`` times the isotropic
    one and the surface coefficient vanishes for both, so every row is
    ``(eps/a) lambda1_iso`` of the one isotropic problem.
    """
    if not (a_facet > 0.0 and b_facet > 0.0):
        raise ValueError(f"facet coefficients must be positive, got a={a_facet}, b={b_facet}")
    prob = _flat_problem(d, density, IsotropicDensity(datum.dim), datum, cell="unit", n=n, ny=ny)
    lam_iso, _ = prob.lambda1()
    eps = [(b_facet / a_facet) * 0.5**k for k in range(1, max_steps + 1)]
    return [(e, e / a_facet * lam_iso) for e in eps]


def crystalline_epsilon0(rows) -> float:
    """Largest regularization of a :func:`crystalline_sweep` that is strictly stable.

    Returns the first ``eps`` of the halving sweep whose largest eigenvalue
    is below one.
    """
    for eps, lam in rows:
        if lam < 1.0:
            return eps
    raise RuntimeError(
        f"no stable regularization found down to eps = {rows[-1][0]:.3e}; "
        "extend max_steps or weaken the mismatch"
    )


# -- CSV emission -----------------------------------------------------------------------


def threshold_rows(
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    thicknesses,
    *,
    cell: str = "cube",
    n: int = 32,
    ny: int = 20,
    unit: StabilityProblem | None = None,
) -> list:
    """Rows ``(d, lambda1, mu1, verdict)`` along a thickness sweep.

    The unit cell reports every thickness from its own problem.  The cube
    cell reports the ``d = 1`` problem ``unit`` once (see
    :func:`cube_unit_problem`; built here when not given) and scales it:
    ``lambda1`` by ``d`` and ``mu1`` by ``1/d``.  The stiffness and the
    surface Gram of the flat film are positive multiples of the ``d = 1``
    ones, so the signs of ``c0`` and ``sim_gram_min`` do not depend on
    ``d``, and :func:`~filmstab.stability.verdict_of` gives every row the
    ``d = 1`` verdict when its eigenvalues are NaN (an indefinite surface
    product, or a stiffness that is not positive definite).
    """
    ds = [float(d) for d in thicknesses]
    if not all(0.0 < d < np.inf for d in ds):
        raise ValueError(f"thicknesses must be finite and strictly positive, got {ds}")
    if cell != "cube":
        reports = [stability_of_thickness(d, density, psi, datum, cell=cell, n=n, ny=ny) for d in ds]
        return [(d, r.lambda1, r.mu1, r.verdict) for d, r in zip(ds, reports)]
    if unit is None:
        unit = cube_unit_problem(density, psi, datum, n=n, ny=ny)
    r = unit.report()
    return [
        (d, d * r.lambda1, r.mu1 / d, verdict_of(r.c0, r.sim_gram_min, d * r.lambda1)) for d in ds
    ]


def write_threshold_csv(path, rows) -> None:
    """Write a thickness sweep as CSV with columns d, lambda1, mu1, verdict."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "lambda1", "mu1", "verdict"])
        for d, lam, mu, verdict in rows:
            writer.writerow([repr(float(d)), repr(float(lam)), repr(float(mu)), verdict])


def write_crystalline_csv(path, rows) -> None:
    """Write a regularization sweep as CSV with columns epsilon, lambda1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "lambda1"])
        for eps, lam in rows:
            writer.writerow([repr(float(eps)), repr(float(lam))])
