"""Every name the package exports must resolve, and the package must stand alone.

``filmstab`` resolves its top-level names lazily through ``_EXPORTS``, so a
deleted or renamed function leaves a stale entry that fails only when some
caller asks for it.  The test helpers ``oracles`` and ``diagnostics`` sit on
the import path while the tests run, so a package module importing them
would pass here and fail once installed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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
    allowed: the benchmark tracer rebinds them in ``stability.py``.
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
