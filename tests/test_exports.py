"""Every name the package exports must resolve, and the package must stand alone.

``filmstab`` resolves its top-level names lazily through ``_EXPORTS``, so a
deleted or renamed function leaves a stale entry that fails only when some
caller asks for it.  The test helpers ``oracles`` and ``diagnostics`` sit on
the import path while the tests run, so a package module importing them
would pass here and fail once installed.  numpy is the only numerical
module the package imports: scipy is named only where the benchmark tracer
reads it, so every command runs without it, on a curved film whose
stiffness has no Cholesky factor too.  Importing the command line loads no
numerical module, so ``--threads`` takes effect before numpy loads.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import filmstab


def test_exports_and_module_all_names_resolve():
    for name, module in filmstab._EXPORTS.items():
        owner = importlib.import_module(f"filmstab.{module}")
        assert name in owner.__all__, f"filmstab.{module}.__all__ lacks {name!r}"
        assert getattr(filmstab, name) is getattr(owner, name)
    for name in filmstab.__all__:
        assert hasattr(filmstab, name), name
    for info in pkgutil.iter_modules(filmstab.__path__):
        module = importlib.import_module(f"filmstab.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"filmstab.{info.name}.__all__ names missing {missing}"


def test_package_does_not_import_the_test_modules():
    forbidden = {"oracles", "diagnostics", "tests"}
    for path in sorted(Path(filmstab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            bad = roots & forbidden
            assert not bad, f"{path.name} line {node.lineno} imports {bad}"


def test_only_elasticity_factors_or_runs_a_lanczos_solve():
    """``cho_factor``, ``cholesky``, ``solve_triangular`` and ``eigsh`` are called in one module.

    The stiffness factor and the ``c0`` Lanczos solve live in
    ``elasticity.py``; every other module reads them from there, so a second
    factorisation route does not creep back in.  Importing the names is
    allowed: ``stability.py`` resolves the two names the benchmark tracer
    rebinds there on first read.
    """
    guarded = {"cho_factor", "cholesky", "solve_triangular", "eigsh"}
    for path in sorted(Path(filmstab.__file__).parent.glob("*.py")):
        if path.name == "elasticity.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                assert name not in guarded, f"{path.name} line {node.lineno} calls {name}"


def _imports_outside_module_getattr(node):
    """The import statements of a module, but those in the body of its PEP 562 ``__getattr__``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name == "__getattr__" and isinstance(node, ast.Module):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _imports_outside_module_getattr(child)


def test_no_module_imports_scipy_but_for_the_tracer():
    # the benchmark tracer reads eigsh through the module-level __getattr__
    # of elasticity and stability; nothing else, at load or in a function
    # body, imports scipy
    for path in sorted(Path(filmstab.__file__).parent.glob("*.py")):
        for node in _imports_outside_module_getattr(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            assert all(name.split(".")[0] != "scipy" for name in names), f"{path.name} line {node.lineno} imports scipy"


# runs one command in a fresh interpreter and prints the scipy modules it loaded
_RUN_AND_LIST_SCIPY = """
import json, sys
from filmstab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

_FLAT = {
    "geometry": {"dim": 2, "n": 8, "ny": 4, "profile": {"kind": "flat", "thickness": 1.0}},
    "material": {"kind": "linear", "lam": 2.0, "mu": 1.0},
    "anisotropy": {"kind": "isotropic"},
    "mismatch": {"e0": 0.05},
}
_CURVED_PROFILE = {"kind": "fourier", "modes": [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.05}]}


def _scipy_modules_of_a_run(tmp_path, command, cfg) -> list:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", _RUN_AND_LIST_SCIPY, command, "--config", str(config),
            "--out", str(tmp_path / "out"), "--threads", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0, proc.stderr
    return modules


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("flat-threshold", {"analysis": {"bracket": [100.0, 1600.0], "rel_tol": 0.1, "thicknesses": [200.0]}}),
        ("flat-threshold", {"mismatch": {"e0": 1.2},
                            "analysis": {"bracket": [0.1, 1.0], "rel_tol": 0.1, "cell": "unit", "thicknesses": [0.2]}}),
        ("crystalline", {"anisotropy": None, "analysis": {"a": 1.0, "b": 1.0, "max_steps": 2}}),
        ("oracle-check", {"geometry": dict(_FLAT["geometry"], n=16, ny=8), "analysis": {"modes": [1]}}),
        ("stability", {}),
    ],
    ids=["flat-threshold-cube", "flat-threshold-unit", "crystalline", "oracle-check", "stability"],
)
def test_flat_film_commands_load_no_scipy(tmp_path, command, overrides):
    cfg = {key: value for key, value in dict(_FLAT, **overrides).items() if value is not None}
    assert _scipy_modules_of_a_run(tmp_path, command, cfg) == []


_CURVED = dict(_FLAT, geometry=dict(_FLAT["geometry"], n=16, ny=8, profile=_CURVED_PROFILE))
# compressed by e0 = -0.2, this curved nonlinear film's Newton iterates and
# its equilibrium have no Cholesky factor: the steps go through the block
# factor's Schur complement and c0 through the factor of K - sigma G
_NO_FACTOR = dict(
    _FLAT,
    geometry=dict(_FLAT["geometry"], n=16, ny=8, profile={
        "kind": "fourier", "modes": [{"mode": 0, "amplitude": 1.0}, {"mode": 1, "amplitude": 0.2}]}),
    material={"kind": "nonlinear", "lam": 2.0, "mu": 1.0},
    mismatch={"e0": -0.2},
)


@pytest.mark.parametrize(
    "command, cfg",
    [("stability", _CURVED), ("critical-point", _CURVED), ("oracle-check", _CURVED), ("stability", _NO_FACTOR)],
    ids=["stability", "critical-point", "oracle-check", "stability-without-a-factor"],
)
def test_curved_film_commands_load_no_scipy(tmp_path, command, cfg):
    # the dense block factor, its Schur step and the c0 Ritz solve of a
    # curved film run on numpy alone
    assert _scipy_modules_of_a_run(tmp_path, command, cfg) == []


# what importing the command line adds to a fresh interpreter, and what the
# standard-library modules it may use add on their own
_ADDED_BY_IMPORT = """
import json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _modules_added_by(*names) -> set:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _ADDED_BY_IMPORT, *names], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


def test_command_line_import_loads_no_numerical_module():
    # the set-up path: importing filmstab.cli adds only the modules below,
    # those they pull in, and builtins; no numpy loads before --threads
    # takes effect, and no dataclasses, inspect or typing on the way
    added = _modules_added_by("filmstab.cli")
    allowed = {"filmstab", "filmstab.cli", "filmstab.config"}
    allowed |= _modules_added_by("argparse", "gettext", "hashlib", "json")
    extra = {name for name in added - allowed if not name.startswith("_")}
    assert not extra, f"importing filmstab.cli loads {sorted(extra)}"
    assert {"numpy", "scipy", "dataclasses", "inspect"}.isdisjoint(added)


# records the BLAS thread variable at the moment numpy is first imported
_THREADS_AT_NUMPY_IMPORT = """
import json, os, sys

seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Watch())
from filmstab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, seen]))
"""


def test_threads_take_effect_before_numpy_loads(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_FLAT))
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", _THREADS_AT_NUMPY_IMPORT, "critical-point", "--config", str(config),
            "--out", str(tmp_path / "out"), "--threads", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, ["1"]]
