import importlib
import pkgutil

import pytest

import ricbounds

MODULES = [ricbounds] + [
    importlib.import_module(f"ricbounds.{info.name}")
    for info in pkgutil.iter_modules(ricbounds.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
