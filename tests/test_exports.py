"""Every exported name resolves, and the package re-exports the very objects
its submodules define: a public name removed from a module cannot linger in
an ``__all__``."""

from __future__ import annotations

import importlib
import pkgutil

import diamforge

SUBMODULES = {
    name: importlib.import_module(f"diamforge.{name}")
    for _, name, _ in pkgutil.iter_modules(diamforge.__path__)
}


def test_every_exported_name_resolves():
    for module in (diamforge, *SUBMODULES.values()):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_the_submodule_objects():
    for name in diamforge.__all__:
        if name == "__version__":
            continue
        homes = [m for m in SUBMODULES.values() if name in getattr(m, "__all__", ())]
        assert homes, f"diamforge.{name} is exported by no submodule"
        for module in homes:
            assert getattr(diamforge, name) is getattr(module, name), f"{module.__name__}.{name}"
