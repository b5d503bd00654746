"""Every exported name resolves, and the package re-exports the very objects
its submodules define: a public name removed from a module cannot linger in
an ``__all__``."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import pytest

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


def test_dir_lists_every_export():
    assert set(diamforge.__all__) <= set(dir(diamforge))


# Run in a fresh interpreter: the layers import diamforge.cli leaves unrun
# must still resolve, as names of the package, once a plain import names them.
IMPORT_AFTER_CLI = """
import sys
import diamforge.cli
layer, names = sys.argv[1], sys.argv[2:]
exec(f"import diamforge.{layer}\\nfor name in names: getattr(diamforge.{layer}, name)")
"""


@pytest.mark.parametrize("layer", sorted(set(SUBMODULES) - {"__main__"}))
def test_a_layer_imported_after_the_cli_resolves(layer):
    names = getattr(SUBMODULES[layer], "__all__", ())
    res = subprocess.run([sys.executable, "-c", IMPORT_AFTER_CLI, layer, *names],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
