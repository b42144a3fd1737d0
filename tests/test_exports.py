"""Every exported name resolves, so deleting a function cannot leave a stale
entry in a module's __all__ or in the package's own imports."""

import ast
import importlib
import io
import pkgutil
import tokenize
from pathlib import Path

import pytest

import coopdelay

MODULES = sorted(m.name for m in pkgutil.iter_modules(coopdelay.__path__))
SOURCES = sorted(Path(coopdelay.__path__[0]).glob("*.py"))

# CPython's parser keeps a module's tokens in one array that it grows by
# doubling, and the step past 8,192 tokens costs at once: under tracemalloc,
# compiling feeds.py padded to 8,183 tokens (counted as below: tokenize,
# without comments and blank lines) peaks at 2.79 MB, and at 8,199 tokens at
# 3.25 MB (Python 3.11).  Where no bytecode is cached
# (PYTHONDONTWRITEBYTECODE=1, as on the benchmark's host), every process
# compiles every module, so a module that crosses the step raises each
# run's peak memory by that much, whatever its code does.  This names the
# module instead.
TOKEN_LIMIT = 8180


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
                                  "_cmd_classify", "_midpoint", "QuadPlan", "step_end", "make_separator",
                                  "align_lower_start", "align_upper_start", "ProductionFunction", "_vectorize",
                                  "_Column", "_LagKernel", "_check_window"])
def test_removed_layers_stay_removed(name):
    # f1, f2, G1 and G2 are plain expressions, the reference history, the
    # Simpson plan and the step end oracle live in the tests, blocks of steps
    # are the one feed path and `feeds._Ahead.rows` the one place that ends
    # steps, run and classify share one handler, `_hermite` is the one
    # Hermite evaluator, the separator is built by its class and aligned
    # with the box inside `monotone_iteration`, the step grid holds f of
    # both components itself, and a kernel's support and density floor are
    # defined once, on `DelayKernel`
    modules = [coopdelay] + [importlib.import_module(f"coopdelay.{m}") for m in MODULES]
    assert [m.__name__ for m in modules if hasattr(m, name)] == []


def test_a_kernel_is_read_through_its_parts():
    # the run reads a kernel's parts (atom lags, density lag, sampled mass)
    # and never tests its class, and the support and the density floor are
    # defined on the base class alone
    for name in ("integrator", "feeds", "windows"):
        tree = ast.parse(Path(coopdelay.__path__[0], f"{name}.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "kernels" for alias in node.names}
        assert imported <= {"HistoryUnderflowError"}, name
    tree = ast.parse(Path(coopdelay.__path__[0], "kernels.py").read_text())
    derived = {"support_lags", "support_floor", "span", "density_floor"}
    defined = {(node.name, item.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef) and item.name in derived}
    assert defined == {("DelayKernel", name) for name in derived}


def test_each_name_is_defined_in_one_module():
    # a name moved to another module leaves no copy behind: no top-level
    # def, class or assignment (dunder names aside) is made in two modules
    where = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    where.setdefault(name, []).append(path.name)
    assert {name: paths for name, paths in where.items() if len(paths) > 1} == {}


def _runtime_imports(name: str) -> set:
    """The package modules that a module imports when it runs: every import
    but those under `if TYPE_CHECKING:`."""
    tree = ast.parse(Path(coopdelay.__path__[0], f"{name}.py").read_text())
    typing_only = {id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
                   and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
                   for node in ast.walk(block)}
    modules = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("coopdelay")):
            module = (node.module or "").removeprefix("coopdelay").lstrip(".")
            modules |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name.removeprefix("coopdelay.") for alias in node.names
                        if alias.name.startswith("coopdelay.")}
    return modules


def test_imports_run_one_way():
    # expr, kernels <- windows <- feeds <- integrator: the density window
    # knows neither the block driver nor the step, and the block driver
    # takes the trajectory's type alone from the integrator, for its
    # annotations
    assert _runtime_imports("windows") & {"feeds", "integrator"} == set()
    assert "integrator" not in _runtime_imports("feeds")
    assert {"windows", "feeds"} <= _runtime_imports("integrator") and "windows" in _runtime_imports("feeds")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_modules_stay_below_the_parser_token_doubling(path):
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    count = sum(1 for t in tokens if t.type not in (tokenize.COMMENT, tokenize.NL))
    assert count < TOKEN_LIMIT, f"{path.name} has {count} tokens; split it before it reaches 8,192"


def test_every_slot_is_read():
    # a member that is stored but never loaded is dead weight: each name in
    # a class's __slots__ is read as an attribute somewhere in the package
    slots, loads = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.Assign) and [t.id for t in item.targets] == ["__slots__"]:
                        names = ast.literal_eval(item.value)
                        for name in (names,) if isinstance(names, str) else names:
                            slots[f"{path.stem}.{node.name}.{name}"] = name
    assert slots
    assert sorted(key for key, name in slots.items() if name not in loads) == []


def test_one_step_loop_and_one_evaluation_of_f():
    # the run's steps are all taken by the one loop `_compile_steps` renders,
    # for every kernel alike, and the run evaluates f and the initial data by
    # their generated scalar code alone (`Expression.evaluate_each`, then
    # value by value), so a window and a point lag agree on f at the same
    # value; numpy's own `np.array` evaluates nothing
    root = Path(coopdelay.__path__[0])
    trees = {name: ast.parse((root / f"{name}.py").read_text()) for name in ("integrator", "feeds", "windows")}
    integrate = next(node for node in trees["integrator"].body
                     if isinstance(node, ast.FunctionDef) and node.name == "integrate")
    assert [node.lineno for node in ast.walk(integrate) if isinstance(node, (ast.For, ast.While))] == []
    assert [node.lineno for node in ast.walk(trees["integrator"])
            if "sampled_mass" in (getattr(node, "attr", None), getattr(node, "id", None))] == []
    array_passes = [f"{name}.py:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and (node.func.attr == "evaluate_array"
                         or node.func.attr == "array" and ast.unparse(node.func.value) != "np")]
    assert array_passes == []
