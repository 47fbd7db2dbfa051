"""Every name a module exports through ``__all__`` exists, so a stale export fails here;
every function reads each of its parameters, and every defaulted parameter is set by
some call, so a dead option fails here too; every error class is raised and has its
own exit code, so a dead exception fails here as well; no module imports scipy,
which only the tests use; one bisection loop, ``preserver._bisect``, reads the
bisection tolerance; and the suites call the stacked cores, not their one-item
wrappers."""

import ast
import functools
import importlib
import math
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import statediv
from statediv import cli, errors

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


ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "bench")


def _calls_by_name(sources) -> dict[str | None, list[tuple[float, set[str | None]]]]:
    """Per called name, each call's positional argument count and keyword names.

    A call with ``*args`` counts as passing every position, and one with
    ``**kwargs`` holds the keyword name None, which counts as passing every keyword.
    """
    calls = defaultdict(list)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls[name].append((math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    return calls


def _unset_defaults(source: str, calls) -> list[str]:
    """``Class.function.parameter`` for each defaulted parameter of a function in
    ``source`` that no call in ``calls`` passes, by keyword or by position.

    Calls match a function by its name alone, whatever object they are made on.
    So where two functions share a name (``to_dict``, ``from_matrix``), a call of
    one counts for the other: a dead default may be missed, but a live one is
    never flagged.  Tests count as setters: a parameter only a test sets is how
    that test reaches a branch.
    """
    unset = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                defaulted = [(name, i) for i, name in enumerate(positional) if i >= first]
                defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                for name, index in defaulted:
                    if not any(
                        name in keywords or None in keywords or (index is not None and count > index)
                        for count, keywords in calls[child.name]
                    ):
                        unset.append(f"{prefix}{child.name}.{name}")
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return unset


@functools.cache
def _repo_calls():
    paths = sorted(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py"))
    return _calls_by_name(p.read_text(encoding="utf-8") for p in paths)


def test_unset_default_is_flagged():
    source = (
        "class C:\n"
        "    def m(self, a, b=1, *, c=2):\n"
        "        return a + b + c\n"
        "def f(x, lam=0.25, tols=None):\n"
        "    return x\n"
    )
    callers = ["C().m(0, 1)\nf(0, tols=1)\nf(*xs)\n", "g(**kw)\n"]
    assert _unset_defaults(source, _calls_by_name(callers)) == ["C.m.c"]
    assert _unset_defaults(source, _calls_by_name(["C().m(0, c=3)\n"])) == ["C.m.b", "f.lam", "f.tols"]


@pytest.mark.parametrize("name", MODULES)
def test_every_default_is_set_somewhere(name):
    path = Path(importlib.import_module(name).__file__)
    assert _unset_defaults(path.read_text(encoding="utf-8"), _repo_calls()) == []


def _raised_names(sources) -> set[str | None]:
    """The name of each exception some ``raise`` in ``sources`` raises (``raise E(...)``,
    ``raise E``, ``raise m.E(...)``)."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def _error_faults(classes, raised: set, codes, catch_all: int) -> list[str]:
    """Each class that no ``raise`` names, or that ``codes`` (``cli._ERROR_CODES``
    form: first matching entry wins) leaves on the ``catch_all`` exit code."""
    faults = []
    for cls in classes:
        if cls.__name__ not in raised:
            faults.append(f"{cls.__name__} is never raised")
        if next((code for types, code in codes if issubclass(cls, types)), catch_all) == catch_all:
            faults.append(f"{cls.__name__} has no exit code")
    return faults


def test_dead_error_class_is_flagged():
    class Base(Exception):
        pass

    class Raised(Base):
        pass

    class Dead(Base):
        pass

    raised = _raised_names(["raise Raised('x')\n", "try:\n    pass\nexcept E:\n    raise m.Other from None\n"])
    assert raised == {"Raised", "Other"}
    assert _error_faults([Raised, Dead], raised, ((Raised, 3),), 1) == [
        "Dead is never raised",
        "Dead has no exit code",
    ]
    assert _error_faults([Raised], raised, ((Base, 1),), 1) == ["Raised has no exit code"]


def test_every_error_is_raised_and_has_its_own_exit_code():
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.StateDivError) and c is not errors.StateDivError
    ]
    raised = _raised_names(p.read_text(encoding="utf-8") for p in sorted((ROOT / "src").rglob("*.py")))
    assert classes
    assert _error_faults(classes, raised, cli._ERROR_CODES, cli.EXIT_CHECK_FAILED) == []


def _scipy_imports(source: str) -> list[int]:
    """The line of each ``import scipy...`` or ``from scipy... import`` in ``source``,
    at any nesting depth; a relative import of a local module named scipy is not one."""

    def is_scipy(module: str | None) -> bool:
        return module is not None and module.split(".")[0] == "scipy"

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(is_scipy(alias.name) for alias in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and is_scipy(node.module):
            lines.append(node.lineno)
    return sorted(lines)


def test_scipy_import_is_flagged():
    source = (
        "import numpy, scipy.sparse as sp\n"
        "from . import scipy\n"
        "from .scipy import logm\n"
        "import scipyx\n"
        "class C:\n"
        "    def m(self):\n"
        "        if True:\n"
        "            from scipy.linalg import logm\n"
        "        return logm\n"
    )
    assert _scipy_imports(source) == [1, 8]


PACKAGE_FILES = sorted((ROOT / "src" / "statediv").rglob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[p.name for p in PACKAGE_FILES])
def test_no_module_imports_scipy(path):
    assert _scipy_imports(path.read_text(encoding="utf-8")) == []


def _readers_of(name: str, source: str) -> list[str]:
    """The innermost enclosing function (``<module>`` at top level) of each read
    of ``name`` in ``source``, as a bare name or as an attribute."""
    readers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
                readers.append(where)
            elif isinstance(child, ast.Attribute) and child.attr == name and isinstance(child.ctx, ast.Load):
                readers.append(where)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(ast.parse(source), "<module>")
    return readers


def test_bisect_tol_reader_is_flagged():
    source = (
        "BISECT_TOL = 1e-10\n"
        "def _bisect(lo, hi):\n"
        "    return (lambda: hi - lo > BISECT_TOL)()\n"
        "class C:\n"
        "    def step(self):\n"
        "        return preserver.BISECT_TOL\n"
        "WIDTH = 2 * BISECT_TOL\n"
    )
    assert _readers_of("BISECT_TOL", source) == ["_bisect", "step", "<module>"]


def test_only_bisect_reads_bisect_tol():
    readers = [r for path in PACKAGE_FILES for r in _readers_of("BISECT_TOL", path.read_text(encoding="utf-8"))]
    assert readers == ["_bisect"]


def test_only_the_zero_rule_and_the_support_tests_read_eps_supp():
    readers = {r for path in PACKAGE_FILES for r in _readers_of("eps_supp", path.read_text(encoding="utf-8"))}
    assert readers == {"_decide_zeros", "_leaks", "bregman_rank_one_pair", "bregman_rank_one_vs_rank_two"}


def test_preserver_runs_no_eigendecomposition():
    """The built-in oracles know their images' spectra, so ``preserver.py`` decomposes
    no matrix: it reads neither ``eigh`` nor a ``DensityState`` matrix constructor.
    Its one ``from_matrix`` read is ``SymmetryOp.from_matrix``, the unitarity check."""
    source = (ROOT / "src" / "statediv" / "preserver.py").read_text(encoding="utf-8")
    for name in ("eigh", "eigvalsh", "_from_matrices", "density_state"):
        assert _readers_of(name, source) == [], name
    assert _readers_of("from_matrix", source) == ["conjugation_oracle"]
    assert _calls_of({"SymmetryOp.from_matrix", "DensityState.from_matrix"}, source) == ["SymmetryOp.from_matrix"]


# The one-item wrappers of the stacked cores; a suite calls the cores instead.
ONE_ITEM_WRAPPERS = {
    "bregman_trace_form",
    "jensen_via_bregman",
    "midpoint_state",
    "DensityState.from_matrix",
    "density_state",
}


def _calls_of(names: set[str], source: str) -> list[str]:
    """Each call in ``source`` of one of ``names``: a bare ``name(...)``, an
    attribute ``m.name(...)``, or for a dotted ``Class.method`` a call ``Class.method(...)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            called = func.id
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            called = f"{owner}.{func.attr}" if f"{owner}.{func.attr}" in names else func.attr
        else:
            continue
        if called in names:
            found.append(called)
    return found


def test_wrapper_call_is_flagged():
    source = (
        "from .jensen import midpoint_state\n"
        "m = midpoint_state(a, b)\n"
        "v = bregman.bregman_trace_form(f, a, b)\n"
        "s = DensityState.from_matrix(m)\n"
        "o = SymmetryOp.from_matrix(u)\n"
        "t = DensityState._from_matrices(ms, tols)\n"
    )
    assert _calls_of(ONE_ITEM_WRAPPERS, source) == ["midpoint_state", "bregman_trace_form", "DensityState.from_matrix"]


def test_suites_call_the_stacked_cores_not_their_one_item_wrappers():
    source = (ROOT / "src" / "statediv" / "suites.py").read_text(encoding="utf-8")
    assert _calls_of(ONE_ITEM_WRAPPERS, source) == []
