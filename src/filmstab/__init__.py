"""Numerical stability analysis for periodic epitaxial films.

The package decides local minimality of flat and near-flat film
configurations in a variational model coupling bulk elastic energy with an
anisotropic surface energy: it solves the elastic equilibrium under a lateral
mismatch imposed at the substrate, assembles the second variation of the
total energy with respect to normal perturbations of the free profile, and
reduces strict stability to the spectral condition ``lambda_1 < 1`` for a
compact operator on zero-average surface perturbations.

Submodules are imported lazily so that the command line can configure
threading environment variables before any numerical library loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # geometry
    "Profile": "geometry",
    "SurfaceGeometry": "geometry",
    "MappedGrid": "geometry",
    "build_grid": "geometry",
    "surface_integral": "geometry",
    "tangential_divergence": "geometry",
    # anisotropy
    "AnisotropyDensity": "anisotropy",
    "IsotropicDensity": "anisotropy",
    "QuadraticFormDensity": "anisotropy",
    "RegularizedFacetDensity": "anisotropy",
    "ShiftedFacetDensity": "anisotropy",
    "anisotropy_from_config": "anisotropy",
    "aniso_mean_curvature": "anisotropy",
    # elasticity
    "ElasticDensity": "elasticity",
    "LinearDensity": "elasticity",
    "NonlinearDensity": "elasticity",
    "elastic_density_from_config": "elasticity",
    "MismatchDatum": "elasticity",
    "ElasticField": "elasticity",
    "NewtonError": "elasticity",
    "CoercivityError": "elasticity",
    "solve_affine": "elasticity",
    "solve_critical_point": "elasticity",
    "continue_critical_point": "elasticity",
    "coercivity_constant": "elasticity",
    # stability
    "StabilityProblem": "stability",
    "StabilityReport": "stability",
    "SimGramError": "stability",
    "FilmstabWarning": "stability",
    "CriticalityWarning": "stability",
    "fd_oracle_second_variation": "stability",
    "dispersion_curve": "stability",
    # flat configurations
    "flat_field": "flat",
    "FlatFilm": "flat",
    "lambda1_of_thickness": "flat",
    "critical_thickness": "flat",
    "CriticalThickness": "flat",
    "BracketError": "flat",
    "crystalline_epsilon0": "flat",
    # polynomial identities
    "PolyRing": "polyident",
    "MultiPoly": "polyident",
    "PolyMatrix": "polyident",
    "build_M": "polyident",
    "build_Q": "polyident",
    "verify_identity": "polyident",
    # configuration and command line
    "ConfigError": "config",
    "validate_config": "config",
    "config_sha256": "config",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
