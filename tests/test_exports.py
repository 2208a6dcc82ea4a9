import importlib
import pkgutil

import pytest

import nwavelab

MODULES = [importlib.import_module(f"nwavelab.{m.name}")
           for m in pkgutil.iter_modules(nwavelab.__path__)]


@pytest.mark.parametrize("module", [nwavelab] + MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_their_home_modules_objects():
    for name in nwavelab.__all__:
        homes = [m for m in MODULES if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, f"{name} is exported by {[m.__name__ for m in homes]}"
        assert getattr(nwavelab, name) is getattr(homes[0], name), name
