import importlib
import pkgutil

import pytest

import rydpack

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(rydpack.__path__) if name != "__main__"
)


@pytest.mark.parametrize("module", ["rydpack"] + [f"rydpack.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves(module):
    # a function deleted from a module must leave its __all__ and the
    # package's re-exports too
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
