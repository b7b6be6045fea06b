"""Flat film configurations: affine equilibria and the thickness threshold.

A flat film of thickness ``d`` over a mismatched substrate has one
equilibrium, the affine state of :func:`~filmstab.elasticity.solve_affine`,
so the whole stability question reduces to spectral data as functions of
the thickness.  This module

* holds one flat film per cell and grid (:class:`FlatFilm`), which answers
  the stability eigenvalues as functions of thickness under the two cell
  conventions: a fixed unit cell, which solves one problem per thickness,
  or a cube cell whose width grows with the thickness.  The cube cell of
  thickness ``d`` is the ``d``-dilate of the one at ``d = 1`` and the affine
  slope does not depend on ``d``, so the stiffness is ``d^(N-2)`` times the
  ``d = 1`` one and ``lambda1(d) = d * lambda1(1)`` exactly on the grid:
  the cube-cell film solves the ``d = 1`` problem once and scales it,
* bisects a thickness law for the critical thickness where the largest
  correction eigenvalue crosses one, and reports the verdict along a
  thickness sweep,
* runs the facet-regularization sweep showing that a sufficiently stiff
  crystalline surface density suppresses the instability at every
  thickness,
* emits CSV tables for threshold and regularization plots.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .anisotropy import AnisotropyDensity, IsotropicDensity
from .elasticity import ElasticDensity, ElasticField, MismatchDatum, _affine_field
from .geometry import Profile
from .stability import StabilityProblem, StabilityReport, verdict_of

__all__ = [
    "BracketError",
    "CriticalThickness",
    "flat_field",
    "FlatFilm",
    "lambda1_of_thickness",
    "stability_of_thickness",
    "critical_thickness",
    "crystalline_sweep",
    "crystalline_epsilon0",
    "threshold_rows",
    "write_threshold_csv",
    "write_crystalline_csv",
]


_BISECTION_MAX_ITER = 80
# the default bisection width, relative to the thickness, and the default
# length of the facet-regularization halving sweep
BISECTION_REL_TOL = 1e-3
SWEEP_MAX_STEPS = 8


def flat_field(
    density: ElasticDensity,
    datum: MismatchDatum,
    thickness: float,
    n: int,
    ny: int,
    *,
    width: float = 1.0,
) -> ElasticField:
    """The affine equilibrium on an ``n x ny`` grid of a flat film of lateral width ``width``.

    A linear slope that folds the film, ``det(I + gradient) <= 0``, raises ``ValueError``.
    """
    field = _affine_field(Profile.flat(datum.dim, n, thickness, width=width), datum, density, ny)
    if density.kind == "linear" and np.any(
        np.linalg.det(np.eye(datum.dim) + field.gradient()) <= 0.0
    ):
        raise ValueError("the affine deformation is not orientation preserving")
    return field


# -- spectral data as functions of thickness -----------------------------------------


def lambda1_of_thickness(
    d: float,
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    *,
    n: int,
    ny: int,
) -> float:
    """Largest correction eigenvalue of the flat film of thickness ``d`` on the unit cell."""
    lam, _ = FlatFilm(density, psi, datum, cell="unit", n=n, ny=ny).problem(d).lambda1()
    return lam


def stability_of_thickness(
    d: float,
    density: ElasticDensity,
    psi: AnisotropyDensity,
    datum: MismatchDatum,
    *,
    n: int,
    ny: int,
) -> StabilityReport:
    """Full stability report of the flat film of thickness ``d`` on the unit cell."""
    return FlatFilm(density, psi, datum, cell="unit", n=n, ny=ny).problem(d).report()


class FlatFilm:
    """A flat film of every thickness on one cell and one ``n x ny`` grid.

    ``cell`` is ``"unit"`` (lateral width 1 at every thickness) or
    ``"cube"`` (lateral width equal to the thickness).  The unit cell
    answers every thickness from its own problem, through
    :func:`lambda1_of_thickness` and :func:`stability_of_thickness`.  The
    cube cell answers every thickness from the ``d = 1`` problem
    :attr:`base`, solved once: ``lambda1`` scales by ``d`` and ``mu1`` by
    ``1/d``.  The stiffness and the surface Gram of the flat film are
    positive multiples of the ``d = 1`` ones, so the signs of ``c0`` and
    ``sim_gram_min`` do not depend on ``d``, and
    :func:`~filmstab.stability.verdict_of` gives every row the ``d = 1``
    verdict when its eigenvalues are NaN (an indefinite surface product, or
    a stiffness that is not positive definite).
    """

    def __init__(
        self,
        density: ElasticDensity,
        psi: AnisotropyDensity,
        datum: MismatchDatum,
        *,
        cell: str,
        n: int,
        ny: int,
    ):
        if cell not in ("unit", "cube"):
            raise ValueError(f"cell must be 'unit' or 'cube', got {cell!r}")
        self.density, self.psi, self.datum = density, psi, datum
        self.cell, self.n, self.ny = cell, n, ny

    def problem(self, d: float) -> StabilityProblem:
        """A fresh stability problem of the film of thickness ``d`` on this cell.

        Raises ``RuntimeError`` when the affine state leaves a surface
        coefficient above round-off, so it is not an equilibrium on the grid.
        """
        width = d if self.cell == "cube" else 1.0
        field = flat_field(self.density, self.datum, d, self.n, self.ny, width=width)
        prob = StabilityProblem(field, self.psi)
        scale = 1.0 + float(np.abs(field.surface_energy_density()).max())
        worst = float(np.abs(prob.coefficient_a).max())
        if worst > 1e-6 * scale:
            raise RuntimeError(
                f"flat configuration has a nonzero surface coefficient ({worst:.3e}); "
                "the affine state is not an equilibrium on this grid"
            )
        return prob

    @cached_property
    def base(self) -> StabilityProblem:
        """The ``d = 1`` problem, which every cube-cell thickness scales."""
        return self.problem(1.0)

    @cached_property
    def _rate(self) -> float:
        return self.base.lambda1()[0]

    @cached_property
    def _base_report(self) -> StabilityReport:
        return self.base.report()

    def lambda1(self, d: float) -> float:
        """Largest correction eigenvalue at thickness ``d``."""
        if self.cell == "unit":
            return lambda1_of_thickness(d, self.density, self.psi, self.datum, n=self.n, ny=self.ny)
        return d * self._rate

    def row(self, d: float) -> tuple:
        """``(lambda1, mu1, verdict)`` at thickness ``d``."""
        if self.cell == "unit":
            r = stability_of_thickness(d, self.density, self.psi, self.datum, n=self.n, ny=self.ny)
            return r.lambda1, r.mu1, r.verdict
        r = self._base_report
        return d * r.lambda1, r.mu1 / d, verdict_of(r.c0, r.sim_gram_min, d * r.lambda1)


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


def critical_thickness(lambda1, bracket, *, rel_tol: float = BISECTION_REL_TOL) -> CriticalThickness:
    """Bisect the thickness at which the thickness law ``lambda1`` reaches one.

    ``lambda1`` maps a thickness to the largest correction eigenvalue, for
    example :meth:`FlatFilm.lambda1`.  Requires the eigenvalue below one at
    the low end of the bracket and above one at the high end; otherwise
    raises :class:`BracketError` carrying both endpoint values (the
    facet-regularized densities never bracket, since they are stable at
    every thickness).  Stops once the bracket is narrower than ``rel_tol``
    times its midpoint.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"bracket must satisfy 0 < low < high < inf, got {bracket}")
    lam_lo, lam_hi = lambda1(lo), lambda1(hi)
    if not lam_lo < 1.0 < lam_hi:
        raise BracketError((lo, hi), lam_lo, lam_hi)
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < rel_tol * mid:
            return CriticalThickness(mid, lo, hi, lam_lo, lam_hi)
        lam_mid = lambda1(mid)
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
    n: int,
    ny: int,
    max_steps: int = SWEEP_MAX_STEPS,
) -> list:
    """Largest eigenvalue along the facet-regularization halving sweep.

    Returns ``[(eps, lambda1), ...]`` for ``eps = (b/a) / 2, (b/a) / 4, ...``
    of ``ShiftedFacetDensity(a, b, eps)``, on the unit cell at thickness
    ``d``.  On the flat film the normal is ``e_N``, where that density's
    Hessian is ``a/eps`` times the isotropic one and the surface coefficient
    vanishes for both, so every row is ``(eps/a) lambda1_iso`` of the one
    isotropic problem.
    """
    if not (a_facet > 0.0 and b_facet > 0.0):
        raise ValueError(f"facet coefficients must be positive, got a={a_facet}, b={b_facet}")
    iso = FlatFilm(density, IsotropicDensity(datum.dim), datum, cell="unit", n=n, ny=ny)
    lam_iso = iso.lambda1(d)
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


def threshold_rows(film: FlatFilm, thicknesses) -> list:
    """Rows ``(d, lambda1, mu1, verdict)`` of ``film`` along a thickness sweep."""
    ds = [float(d) for d in thicknesses]
    if not all(0.0 < d < np.inf for d in ds):
        raise ValueError(f"thicknesses must be finite and strictly positive, got {ds}")
    return [(d, *film.row(d)) for d in ds]


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
