"""Strict configuration validation and problem assembly for the command line.

A run configuration is a JSON object with a geometry block, a material
block, an anisotropy block, a mismatch block, a subcommand-specific analysis
block, and an optional output block.  Validation is strict: unknown keys are
rejected, every error names the offending field by its dotted path, all
tolerances must be positive, and resolutions have hard minimums.  Each
subcommand is declared once, in ``COMMANDS``: its help line, its analysis
keys and their rules, its output files and what it uses, which validation,
the memory preflight, the argument parser and the report writer all read.
The builders translate validated blocks into the package's domain objects.
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
# a dense matrix's block columns are whole lateral columns, about this many
# dofs wide; elasticity imports it
BLOCK_DOFS = 256
# halvings of 1.0 down to the least subnormal float, 0.5**1074
_MAX_HALVINGS = round(-math.log2(math.ulp(0.0)))


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
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(path, "must be finite") from None
    if positive and value <= 0:
        raise ConfigError(path, f"must be positive, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {value}")
    return value


def _as_modulus(value, path, *, positive=False):
    """An elastic modulus: a number whose square is a finite float."""
    value = _as_number(value, path, positive=positive)
    if math.isinf(value * value):
        raise ConfigError(path, f"the square of {value:g} overflows a float; scale the moduli down")
    return value


def _check_tensor_entries(value, path):
    """Refuse each numeric entry of a nested-list tensor whose square overflows; the domain checks the rest."""
    if isinstance(value, list):
        for i, entry in enumerate(value):
            _check_tensor_entries(entry, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        _as_modulus(value, path)


def _validate_modes(modes, path, dim, n, allow_component=False):
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
                _resolved(m, f"{mpath}[{j}]", n, minimum=None)
        else:
            _resolved(mode, mpath, n, minimum=None)
        _as_number(term["amplitude"], f"{tpath}.amplitude")
        if "phase" in term:
            _as_number(term["phase"], f"{tpath}.phase")
        if "component" in term:
            comp = _as_number(term["component"], f"{tpath}.component", integer=True)
            if not 0 <= comp < dim - 1:
                raise ConfigError(f"{tpath}.component", f"out of range for dim={dim}")


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
    dim = _dim(_get(block, "dim", path), f"{path}.dim")
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
        _validate_modes(_get(profile, "modes", ppath), f"{ppath}.modes", dim, n)
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
        _check_tensor_entries(block["tensor"], f"{path}.tensor")
    else:
        _as_modulus(_get(block, "lam", path), f"{path}.lam")
        _as_modulus(_get(block, "mu", path), f"{path}.mu", positive=True)
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


def _validate_mismatch(cfg, dim, n, path="mismatch"):
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
        _validate_modes(block["modes"], f"{path}.modes", dim, n, allow_component=True)


# Rules an analysis value must pass: each takes the value, its dotted path
# and the lateral resolution n (None for a command without a film).


def _positive(value, path, n=None):
    _as_number(value, path, positive=True)


def _count(value, path, n=None):
    _as_number(value, path, integer=True, minimum=1)


def _dim(value, path, n=None):
    dim = _as_number(value, path, integer=True)
    if dim not in (2, 3):
        raise ConfigError(path, f"must be 2 or 3, got {dim}")
    return dim


def _shown(k: int):
    """An integer for a message: itself, or ``d.ddde+N`` past 15 digits."""
    e = len(str(abs(k))) - 1
    return k if e < 15 else f"{k / 10**e:.3f}e+{e}"


def _resolved(value, path, n, minimum=1):
    """A lateral mode ``k`` with ``|k|`` at most :func:`max_resolved_mode` of ``n``."""
    k = _as_number(value, path, integer=True, minimum=minimum)
    kmax = max_resolved_mode(n)
    if abs(k) > kmax:
        raise ConfigError(path, f"mode {_shown(k)} is not resolved on n = {n} points; at most {kmax}")


def _list_of(rule, noun):
    """The rule for a non-empty list whose every entry passes ``rule``."""

    def check(values, path, n):
        if not isinstance(values, list) or not values:
            raise ConfigError(path, f"expected a non-empty list of {noun}")
        for i, value in enumerate(values):
            rule(value, f"{path}[{i}]", n)

    return check


def _bracket(bracket, path, n):
    if not (isinstance(bracket, list) and len(bracket) == 2):
        raise ConfigError(path, "expected [low, high]")
    lo = _as_number(bracket[0], f"{path}[0]", positive=True)
    hi = _as_number(bracket[1], f"{path}[1]", positive=True)
    if not lo < hi:
        raise ConfigError(path, f"low must be below high, got {bracket}")


def _cell(value, path, n):
    if value not in ("unit", "cube"):
        raise ConfigError(path, f"must be 'unit' or 'cube', got {value!r}")


def _halvings(value, path, n):
    steps = _as_number(value, path, integer=True, minimum=1)
    if steps > _MAX_HALVINGS:
        raise ConfigError(
            path,
            f"at most {_MAX_HALVINGS}, got {_shown(steps)}: the sweep halves the regularization at each "
            f"step, and 0.5**k is zero past k = {_MAX_HALVINGS}",
        )


def _flag(value, path, n):
    if not isinstance(value, bool):
        raise ConfigError(path, "expected true or false")


# The subcommands, in the order the command line lists them.  Each row holds
# the help line; the analysis keys, required then optional, in check order,
# each with its rule; the output keys with their default file names (None for
# a file written only on request); and what the command uses:
#   film        a film from the geometry, material, anisotropy and mismatch blocks
#   anisotropy  the anisotropy block, which is otherwise optional and advisory
#   cell        its own lateral cell, so geometry.width is refused
#   solve       a solve on the film, densely unless it is laterally uniform
#   coupling    a stability problem, whose surface coupling is a dense nd x nx matrix
COMMANDS = {
    "critical-point": {
        "help": "solve the elastic equilibrium over a fixed profile",
        "analysis": ({}, {"tol": _positive, "max_iter": _count}),
        "output": {"report": "critical_point.json", "field": None},
        "uses": ("film", "anisotropy", "solve"),
    },
    "stability": {
        "help": "strict-stability verdict and dispersion data at an equilibrium",
        "analysis": ({}, {"max_mode": _resolved}),
        "output": {"report": "stability.json", "csv": "dispersion.csv"},
        "uses": ("film", "anisotropy", "solve", "coupling"),
    },
    "flat-threshold": {
        "help": "bisect the critical thickness of the flat configuration",
        "analysis": (
            {"bracket": _bracket},
            {"cell": _cell, "rel_tol": _positive, "thicknesses": _list_of(_positive, "positive numbers")},
        ),
        "output": {"report": "flat_threshold.json", "csv": "threshold.csv"},
        "uses": ("film", "anisotropy", "cell", "coupling"),
    },
    "crystalline": {
        "help": "facet-regularization sweep and instability-suppression check",
        "analysis": (
            {"a": _positive, "b": _positive},
            {"d": _positive, "max_steps": _halvings, "max_thickness": _positive,
             "suppression_thicknesses": _list_of(_positive, "positive numbers")},
        ),
        "output": {"report": "crystalline.json", "csv": "crystalline.csv"},
        # it sweeps its own facet densities
        "uses": ("film", "cell", "coupling"),
    },
    "verify-identity": {
        "help": "check the boundary-system determinant identity",
        # --dim may stand in for the key, so the handler names a missing one
        "analysis": ({}, {"dim": _dim, "trials": _count}),
        "output": {"report": "verify_identity.json"},
        "uses": (),
    },
    "oracle-check": {
        "help": "compare the assembled second variation with the energy oracle",
        "analysis": (
            {},
            {"modes": _list_of(_resolved, "integers"), "rel_tol": _positive, "fd_step": _positive,
             "richardson": _flag},
        ),
        "output": {"report": "oracle_check.json"},
        "uses": ("film", "anisotropy", "solve", "coupling"),
    },
}


def _validate_analysis(cfg, command, n, path="analysis"):
    block = _require_mapping(cfg, path)
    required, optional = COMMANDS[command]["analysis"]
    _check_keys(block, required.keys() | optional.keys(), path)
    for key, rule in (required | optional).items():
        if key in block:
            rule(block[key], f"{path}.{key}", n)
        elif key in required:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _validate_output(cfg, command, path="output"):
    block = _require_mapping(cfg, path)
    for key in block:
        if key not in COMMANDS[command]["output"]:
            raise ConfigError(f"{path}.{key}", f"{command} writes no such file; remove the key")
        if not isinstance(block[key], str) or not block[key]:
            raise ConfigError(f"{path}.{key}", "expected a non-empty file name")


def _dofs(dim: int, n: int, ny: int) -> int:
    return n ** (dim - 1) * (ny - 1) * dim


def _dense_factor_bytes(dim: int, n: int, ny: int) -> int:
    """Bytes of the block columns that hold a dense stiffness and its factor, ``8 (nd^2 / 2 + nd BLOCK_DOFS / 2)``."""
    nd = _dofs(dim, n, ny)
    return 8 * (nd * nd // 2 + nd * BLOCK_DOFS // 2)


def _coupling_bytes(dim: int, n: int, ny: int) -> int:
    """Bytes of a stability problem's surface coupling, ``8 nd nx`` with ``nx = n^(dim - 1)`` lateral nodes.

    Every stability problem builds it, on a flat film too, so it is a lower
    bound on what such a run allocates.
    """
    return 8 * _dofs(dim, n, ny) * n ** (dim - 1)


def _memory_limit():
    """Bytes this process may use: the smaller of physical memory and the ``RLIMIT_AS`` soft limit.

    ``None`` where the platform reports neither.
    """
    import os

    try:
        import resource

        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, AttributeError, ValueError, OSError):
        return None
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


def _laterally_uniform(cfg: dict) -> bool:
    """Whether the film is one thickness over a substrate datum without modes.

    Such a film's stiffness is factored per wavenumber and no dense matrix
    is made.  Anything this cannot rule out counts as uniform.
    """
    profile = cfg["geometry"]["profile"]
    kind = profile.get("kind", "flat")
    if kind == "samples":
        flat = len(set(profile["samples"])) == 1
    elif kind == "fourier":
        flat = all(term["amplitude"] == 0 or term["mode"] in (0, [0, 0]) for term in profile["modes"])
    else:
        flat = True
    return flat and all(term["amplitude"] == 0 for term in cfg["mismatch"].get("modes", []))


def _check_fits(need: int, film: str, what: str, dim: int, n: int, ny: int) -> None:
    """Refuse a film whose ``what`` needs more than :func:`_memory_limit` bytes."""
    limit = _memory_limit()
    if limit is not None and need > limit:
        raise ConfigError(
            "geometry.n",
            f"with geometry.ny = {ny}, {film} has {_dofs(dim, n, ny):,} dofs, whose {what} needs "
            f"{need:,} bytes, more than the {limit:,} bytes this process may use (the smaller of "
            "physical memory and the RLIMIT_AS soft limit)",
        )


def validate_config(cfg: dict, command: str) -> dict:
    """Validate a configuration for one subcommand; returns the config itself.

    Raises :class:`ConfigError` naming the offending field on any defect,
    and on a film that will not fit in :func:`_memory_limit`: a command that
    solves on a film that is not laterally uniform needs
    :func:`_dense_factor_bytes`, and one that builds a stability problem
    needs at least :func:`_coupling_bytes`.
    """
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown subcommand {command!r}")
    uses = COMMANDS[command]["uses"]
    _require_mapping(cfg, "config")
    top_allowed = {"analysis", "output"}
    if "film" in uses:
        top_allowed |= {"geometry", "material", "anisotropy", "mismatch"}
    _check_keys(cfg, top_allowed, "config")

    n = None
    if "film" in uses:
        dim, n, ny = _validate_geometry(_get(cfg, "geometry", "config"))
        if "cell" in uses and "width" in cfg["geometry"]:
            raise ConfigError("geometry.width", f"{command} sets its own cell; remove the key")
        _validate_material(_get(cfg, "material", "config"))
        if "anisotropy" in uses or "anisotropy" in cfg:
            _validate_anisotropy(_get(cfg, "anisotropy", "config"))
        _validate_mismatch(_get(cfg, "mismatch", "config"), dim, n)
    _validate_analysis(cfg.get("analysis", {}), command, n)
    _validate_output(cfg.get("output", {}), command)
    if "solve" in uses and not _laterally_uniform(cfg):
        film = "this film that is not laterally uniform"
        _check_fits(_dense_factor_bytes(dim, n, ny), film, "dense block factor", dim, n, ny)
    if "coupling" in uses:
        _check_fits(_coupling_bytes(dim, n, ny), "this film", "surface coupling", dim, n, ny)
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
        return jsonable(value.item())
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
