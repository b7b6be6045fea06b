"""Strict configuration validation and problem assembly for the command line.

A run configuration is a JSON object with a geometry block, a material
block, an anisotropy block, a mismatch block, a subcommand-specific analysis
block, and an optional output block.  Validation is strict: unknown keys are
rejected, every error names the offending field by its dotted path, all
tolerances must be positive, and resolutions have hard minimums.  The
builders translate validated blocks into the package's domain objects.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager

__all__ = [
    "ConfigError",
    "validate_config",
    "build_problem_inputs",
    "config_sha256",
    "jsonable",
]

# Smallest grids the geometry accepts; geometry imports these.  The command
# line imports this module before it seeds the threading environment, so it
# must not import numpy.
RESOLUTION_MIN_N = 8
RESOLUTION_MIN_NY = 4


def max_resolved_mode(n: int) -> int:
    """Highest lateral mode below Nyquist on ``n`` points (``k`` and ``n - k`` alias)."""
    return (n - 1) // 2 if n % 2 else n // 2 - 1


class ConfigError(ValueError):
    """A configuration defect, carrying the dotted path of the bad field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(block: dict, allowed, path: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key")


def _get(block: dict, key: str, path: str, required=True, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return block[key]


def _as_number(value, path, *, positive=False, integer=False, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if integer:
        if int(value) != value:
            raise ConfigError(path, f"expected an integer, got {value}")
        value = int(value)
    else:
        value = float(value)
    if positive and value <= 0:
        raise ConfigError(path, f"must be positive, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {value}")
    return value


def _validate_modes(modes, path, dim, allow_component=False):
    if not isinstance(modes, list):
        raise ConfigError(path, "expected a list of mode objects")
    allowed = {"mode", "amplitude", "phase"} | ({"component"} if allow_component else set())
    for i, term in enumerate(modes):
        tpath = f"{path}[{i}]"
        _require_mapping(term, tpath)
        _check_keys(term, allowed, tpath)
        if "mode" not in term or "amplitude" not in term:
            raise ConfigError(tpath, "each mode needs 'mode' and 'amplitude'")
        mode, mpath = term["mode"], f"{tpath}.mode"
        if dim == 3:
            if not (isinstance(mode, list) and len(mode) == 2):
                raise ConfigError(mpath, "expected a pair of integers for dim=3")
            for j, m in enumerate(mode):
                _as_number(m, f"{mpath}[{j}]", integer=True)
        else:
            _as_number(mode, mpath, integer=True)
        _as_number(term["amplitude"], f"{tpath}.amplitude")
        if "phase" in term:
            _as_number(term["phase"], f"{tpath}.phase")
        if "component" in term:
            comp = _as_number(term["component"], f"{tpath}.component", integer=True)
            if not 0 <= comp < dim - 1:
                raise ConfigError(f"{tpath}.component", f"out of range for dim={dim}")


def _validate_positive_list(values, path):
    if not isinstance(values, list) or not values:
        raise ConfigError(path, "expected a non-empty list of positive numbers")
    for i, value in enumerate(values):
        _as_number(value, f"{path}[{i}]", positive=True)


# the keys besides ``kind`` that each kind of block reads
_PROFILE_KEYS = {"flat": {"thickness"}, "fourier": {"modes", "thickness"}, "samples": {"samples"}}
_ANISOTROPY_KEYS = {"isotropic": {"scale"}, "quadratic": {"M"}, "crystalline": {"a", "b", "eps", "variant"}}


def _check_kind(block: dict, kinds: dict, path: str, noun: str, default=None) -> str:
    """The block's ``kind``, once the block's keys are checked against those it reads."""
    kind = _get(block, "kind", path, required=default is None, default=default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind", f"unknown {noun} kind {kind!r}")
    _check_keys(block, kinds[kind] | {"kind"}, path)
    return kind


def _validate_geometry(cfg, path="geometry"):
    block = _require_mapping(cfg, path)
    _check_keys(block, {"dim", "n", "ny", "width", "profile"}, path)
    dim = _as_number(_get(block, "dim", path), f"{path}.dim", integer=True)
    if dim not in (2, 3):
        raise ConfigError(f"{path}.dim", f"must be 2 or 3, got {dim}")
    n = _as_number(_get(block, "n", path), f"{path}.n", integer=True, minimum=RESOLUTION_MIN_N)
    ny = _as_number(_get(block, "ny", path), f"{path}.ny", integer=True, minimum=RESOLUTION_MIN_NY)
    if "width" in block:
        _as_number(block["width"], f"{path}.width", positive=True)
    profile = _require_mapping(_get(block, "profile", path), f"{path}.profile")
    ppath = f"{path}.profile"
    kind = _check_kind(profile, _PROFILE_KEYS, ppath, "profile", default="flat")
    if kind == "flat":
        _as_number(_get(profile, "thickness", ppath), f"{ppath}.thickness", positive=True)
    elif kind == "fourier":
        _validate_modes(_get(profile, "modes", ppath), f"{ppath}.modes", dim)
        if "thickness" in profile:
            _as_number(profile["thickness"], f"{ppath}.thickness")
    else:
        samples = _get(profile, "samples", ppath)
        count = n ** (dim - 1)
        if not isinstance(samples, list) or len(samples) != count:
            raise ConfigError(
                f"{ppath}.samples", f"expected a flat list of n^{dim - 1} = {count} heights"
            )
        for i, height in enumerate(samples):
            _as_number(height, f"{ppath}.samples[{i}]", positive=True)
    return dim, n, ny


def _validate_material(cfg, path="material"):
    block = _require_mapping(cfg, path)
    kind = _get(block, "kind", path)
    if kind not in ("linear", "nonlinear"):
        raise ConfigError(f"{path}.kind", f"must be 'linear' or 'nonlinear', got {kind!r}")
    _check_keys(block, {"kind", "tensor"} if "tensor" in block else {"kind", "lam", "mu"}, path)
    if "tensor" in block:
        if kind != "linear":
            raise ConfigError(f"{path}.tensor", "a full tensor needs the linear kind")
    else:
        _as_number(_get(block, "lam", path), f"{path}.lam")
        _as_number(_get(block, "mu", path), f"{path}.mu", positive=True)
    return kind


def _validate_anisotropy(cfg, path="anisotropy"):
    block = _require_mapping(cfg, path)
    kind = _check_kind(block, _ANISOTROPY_KEYS, path, "anisotropy")
    if kind == "isotropic":
        if "scale" in block:
            _as_number(block["scale"], f"{path}.scale", positive=True)
    elif kind == "quadratic":
        M = _get(block, "M", path)
        if not isinstance(M, list):
            raise ConfigError(f"{path}.M", "expected a matrix as nested lists")
    else:
        _as_number(_get(block, "a", path), f"{path}.a", positive=True)
        _as_number(_get(block, "b", path), f"{path}.b", positive=True)
        _as_number(_get(block, "eps", path), f"{path}.eps", positive=True)
        variant = _get(block, "variant", path, required=False, default="regularized")
        if variant not in ("regularized", "shifted"):
            raise ConfigError(f"{path}.variant", f"unknown variant {variant!r}")


def _validate_mismatch(cfg, dim, path="mismatch"):
    block = _require_mapping(cfg, path)
    _check_keys(block, {"A", "e0", "modes"}, path)
    if ("A" in block) == ("e0" in block):
        raise ConfigError(path, "exactly one of 'A' and 'e0' is required")
    if "A" in block:
        A = block["A"]
        rows = A if isinstance(A, list) else None
        if rows is None or len(rows) != dim - 1:
            raise ConfigError(f"{path}.A", f"expected a {dim - 1}x{dim - 1} matrix")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim - 1:
                raise ConfigError(f"{path}.A[{i}]", f"expected {dim - 1} entries")
            for j, entry in enumerate(row):
                _as_number(entry, f"{path}.A[{i}][{j}]")
    else:
        _as_number(block["e0"], f"{path}.e0")
    if "modes" in block:
        _validate_modes(block["modes"], f"{path}.modes", dim, allow_component=True)


_ANALYSIS_KEYS = {
    "critical-point": {"tol", "max_iter"},
    "stability": {"max_mode"},
    "flat-threshold": {"bracket", "cell", "rel_tol", "thicknesses"},
    "crystalline": {"d", "a", "b", "max_steps", "max_thickness", "suppression_thicknesses"},
    "verify-identity": {"dim", "trials"},
    "oracle-check": {"modes", "rel_tol", "fd_step", "richardson"},
}

_OUTPUT_KEYS = {"critical-point": {"report", "field"}, "verify-identity": {"report"}, "oracle-check": {"report"}}
_OUTPUT_KEYS |= dict.fromkeys(("stability", "flat-threshold", "crystalline"), {"report", "csv"})

_NEEDS_PROBLEM = {"critical-point", "stability", "flat-threshold", "crystalline", "oracle-check"}


def _check_resolved(k, n, path):
    kmax = max_resolved_mode(n)
    if k > kmax:
        raise ConfigError(path, f"mode {k} is not resolved on n = {n} points; at most {kmax}")


def _validate_analysis(cfg, command, n, path="analysis"):
    block = _require_mapping(cfg, path)
    _check_keys(block, _ANALYSIS_KEYS[command], path)
    if command == "critical-point":
        if "tol" in block:
            _as_number(block["tol"], f"{path}.tol", positive=True)
        if "max_iter" in block:
            _as_number(block["max_iter"], f"{path}.max_iter", integer=True, minimum=1)
    elif command == "stability":
        if "max_mode" in block:
            max_mode = _as_number(block["max_mode"], f"{path}.max_mode", integer=True, minimum=1)
            _check_resolved(max_mode, n, f"{path}.max_mode")
    elif command == "flat-threshold":
        bracket = _get(block, "bracket", path)
        if not (isinstance(bracket, list) and len(bracket) == 2):
            raise ConfigError(f"{path}.bracket", "expected [low, high]")
        lo = _as_number(bracket[0], f"{path}.bracket[0]", positive=True)
        hi = _as_number(bracket[1], f"{path}.bracket[1]", positive=True)
        if not lo < hi:
            raise ConfigError(f"{path}.bracket", f"low must be below high, got {bracket}")
        if "cell" in block and block["cell"] not in ("unit", "cube"):
            raise ConfigError(f"{path}.cell", f"must be 'unit' or 'cube', got {block['cell']!r}")
        if "rel_tol" in block:
            _as_number(block["rel_tol"], f"{path}.rel_tol", positive=True)
        if "thicknesses" in block:
            _validate_positive_list(block["thicknesses"], f"{path}.thicknesses")
    elif command == "crystalline":
        _as_number(_get(block, "a", path), f"{path}.a", positive=True)
        _as_number(_get(block, "b", path), f"{path}.b", positive=True)
        if "d" in block:
            _as_number(block["d"], f"{path}.d", positive=True)
        if "max_steps" in block:
            _as_number(block["max_steps"], f"{path}.max_steps", integer=True, minimum=1)
        if "max_thickness" in block:
            _as_number(block["max_thickness"], f"{path}.max_thickness", positive=True)
        if "suppression_thicknesses" in block:
            _validate_positive_list(
                block["suppression_thicknesses"], f"{path}.suppression_thicknesses"
            )
    elif command == "verify-identity":
        # --dim may stand in for the key, so the handler names a missing one
        if "dim" in block:
            dim = _as_number(block["dim"], f"{path}.dim", integer=True)
            if dim not in (2, 3):
                raise ConfigError(f"{path}.dim", f"must be 2 or 3, got {dim}")
        if "trials" in block:
            _as_number(block["trials"], f"{path}.trials", integer=True, minimum=1)
    elif command == "oracle-check":
        modes = _get(block, "modes", path, required=False, default=[1])
        if not isinstance(modes, list) or not modes:
            raise ConfigError(f"{path}.modes", "expected a non-empty list of integers")
        for i, k in enumerate(modes):
            k = _as_number(k, f"{path}.modes[{i}]", integer=True, minimum=1)
            _check_resolved(k, n, f"{path}.modes[{i}]")
        if "rel_tol" in block:
            _as_number(block["rel_tol"], f"{path}.rel_tol", positive=True)
        if "fd_step" in block:
            _as_number(block["fd_step"], f"{path}.fd_step", positive=True)
        if "richardson" in block and not isinstance(block["richardson"], bool):
            raise ConfigError(f"{path}.richardson", "expected true or false")


def _validate_output(cfg, command, path="output"):
    block = _require_mapping(cfg, path)
    for key in block:
        if key not in _OUTPUT_KEYS[command]:
            raise ConfigError(f"{path}.{key}", f"{command} writes no such file; remove the key")
        if not isinstance(block[key], str) or not block[key]:
            raise ConfigError(f"{path}.{key}", "expected a non-empty file name")


def validate_config(cfg: dict, command: str) -> dict:
    """Validate a configuration for one subcommand; returns the config itself.

    Raises :class:`ConfigError` naming the offending field on any defect.
    """
    if command not in _ANALYSIS_KEYS:
        raise ConfigError("command", f"unknown subcommand {command!r}")
    _require_mapping(cfg, "config")
    top_allowed = {"analysis", "output"}
    if command in _NEEDS_PROBLEM:
        top_allowed |= {"geometry", "material", "anisotropy", "mismatch"}
    _check_keys(cfg, top_allowed, "config")

    n = None
    if command in _NEEDS_PROBLEM:
        dim, n, _ = _validate_geometry(_get(cfg, "geometry", "config"))
        if command in ("flat-threshold", "crystalline") and "width" in cfg["geometry"]:
            raise ConfigError("geometry.width", f"{command} sets its own cell; remove the key")
        _validate_material(_get(cfg, "material", "config"))
        # the crystalline command sweeps its own facet densities, so its
        # anisotropy block is advisory only
        if command != "crystalline" or "anisotropy" in cfg:
            _validate_anisotropy(_get(cfg, "anisotropy", "config", required=command != "crystalline", default={"kind": "isotropic"}))
        _validate_mismatch(_get(cfg, "mismatch", "config"), dim)
    _validate_analysis(cfg.get("analysis", {}), command, n)
    _validate_output(cfg.get("output", {}), command)
    return cfg


@contextmanager
def _block(path: str):
    """Report a domain constructor's ``ValueError`` as a defect of the block at ``path``."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


def build_problem_inputs(cfg: dict):
    """Domain objects for a validated config with a geometry block.

    Returns ``(profile, datum, density, psi, n, ny)``.  Values that pass the
    schema but that the domain objects reject (a negative profile, moduli
    outside the stable range, a density of the wrong dimension, a nonlinear
    mismatch that reverses orientation) raise :class:`ConfigError` naming
    their block.
    """
    import numpy as np

    from .anisotropy import anisotropy_from_config
    from .elasticity import MismatchDatum, elastic_density_from_config
    from .geometry import Profile

    geo = cfg["geometry"]
    dim, n, ny = int(geo["dim"]), int(geo["n"]), int(geo["ny"])
    pblock = dict(geo["profile"], dim=dim, n=n, width=float(geo.get("width", 1.0)))
    pblock.setdefault("kind", "flat")
    with _block("geometry.profile"):
        profile = Profile.from_config(pblock)

    kind = cfg["material"]["kind"]
    with _block("material"):
        density = elastic_density_from_config(cfg["material"], dim)
        if density.dim != dim:
            raise ValueError(f"tensor dimension {density.dim} does not match geometry.dim = {dim}")
    psi = None
    if "anisotropy" in cfg:
        with _block("anisotropy"):
            psi = anisotropy_from_config(cfg["anisotropy"], dim)
            if psi.dim != dim:
                raise ValueError(f"density dimension {psi.dim} does not match geometry.dim = {dim}")

    mis = cfg["mismatch"]
    modes = mis.get("modes")
    with _block("mismatch"):
        if "A" in mis:
            datum = MismatchDatum(np.asarray(mis["A"], dtype=float), dim, modes=modes)
        else:
            datum = MismatchDatum.from_misfit(float(mis["e0"]), dim, kind, modes=modes)
        if kind == "nonlinear" and np.linalg.det(datum.A) <= 0.0:
            raise ValueError(
                "the nonlinear kind needs an orientation-preserving substrate "
                f"stretch, got det A = {np.linalg.det(datum.A):.6g}"
            )
    return profile, datum, density, psi, n, ny


def config_sha256(cfg: dict) -> str:
    """Hash of the canonical JSON serialization of a configuration."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def jsonable(value):
    """Recursively convert a result tree into strict-JSON-serializable values.

    Numpy scalars become Python numbers; non-finite floats become the strings
    ``"inf"``, ``"-inf"`` or ``"nan"`` since strict JSON has no encoding for
    them; tuples become lists.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        value = value.item()
        return jsonable(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
