"""Every exported name resolves, so deleting a function cannot leave a stale
entry in a module's __all__ or in the package's own imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import coopdelay

MODULES = sorted(m.name for m in pkgutil.iter_modules(coopdelay.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"coopdelay.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(coopdelay.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        module = importlib.import_module(f"coopdelay.{node.module}")
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert missing == [], f"coopdelay.{node.module} lacks {missing}"
        assert all(getattr(coopdelay, a.asname or a.name) is getattr(module, a.name)
                   for a in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # a name a module imports is read there or re-exported through __all__;
    # the package __init__, which exists to re-export, is not in MODULES
    tree = ast.parse(Path(coopdelay.__path__[0], f"{name}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(f"coopdelay.{name}"), "__all__", ()))
    assert {n: line for n, line in imported.items() if n not in used | exported} == {}


@pytest.mark.parametrize("name", ["Modulation", "HistoryComponent", "FnComponent", "History", "SimpleHistory",
                                  "_StageHistory", "_StageComponent", "_Window", "SERVED", "_cmd_run",
                                  "_cmd_classify", "_midpoint", "QuadPlan", "step_end"])
def test_removed_layers_stay_removed(name):
    # G1/G2 are plain expressions, the reference history, the Simpson plan
    # and the step end oracle live in the tests, blocks of steps are the one
    # feed path and `feeds._Ahead.rows` the one place that ends steps, run
    # and classify share one handler, and `_hermite` is the one Hermite
    # evaluator
    modules = [coopdelay] + [importlib.import_module(f"coopdelay.{m}") for m in MODULES]
    assert [m.__name__ for m in modules if hasattr(m, name)] == []
