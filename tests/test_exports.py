"""Every name the package exports must resolve.

``filmstab`` resolves its top-level names lazily through ``_EXPORTS``, so a
deleted or renamed function leaves a stale entry that fails only when some
caller asks for it.
"""

import importlib
import pkgutil

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
