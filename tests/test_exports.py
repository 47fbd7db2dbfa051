"""Every name a module exports through ``__all__`` exists, so a stale export fails here."""

import importlib
import pkgutil

import pytest

import statediv

MODULES = sorted(
    f"statediv.{m.name}" for m in pkgutil.iter_modules(statediv.__path__) if m.name != "__main__"
)


def test_modules_are_found():
    assert {"statediv.hermitian", "statediv.generators", "statediv.preserver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
