"""Every name a module exports through ``__all__`` exists, so a stale export fails here,
and every function reads each of its parameters, so a dead option fails here too."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter (not self/cls) its function never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for statement in node.body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [f"{node.name}.{a.arg}" for a in params if a.arg not in {"self", "cls"} | read]
    return unread


def test_unread_parameter_is_flagged():
    source = "def f(x, tols=None):\n    def g(y):\n        return x + y\n    return g\n"
    assert _unread_parameters(source) == ["f.tols"]


@pytest.mark.parametrize("name", MODULES)
def test_every_parameter_is_read(name):
    path = Path(importlib.import_module(name).__file__)
    assert _unread_parameters(path.read_text(encoding="utf-8")) == []
