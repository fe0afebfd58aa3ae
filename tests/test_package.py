"""The package root re-exports every module's ``__all__`` by star import.

A star import binds whatever a module's ``__all__`` lists, so these tests
guard what the root cannot check itself: a name listed by two modules (the
later import would shadow the earlier one without a word), a listed name
the module only imports or never binds, and a root name that is not the
module's own object.  One more guards the concurrency rule: ``network.py``
is the one module that starts threads.
"""

import ast
import importlib
import inspect
import types
from collections import Counter
from pathlib import Path

import kancredit


def star_modules():
    """The modules ``kancredit/__init__.py`` star-imports, in import order."""
    tree = ast.parse(inspect.getsource(kancredit))
    return [
        importlib.import_module(node.module)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def top_level_bindings(module) -> set:
    """Names a module binds at top level by def, class or assignment, not import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_layer_module_is_star_imported():
    names = [m.__name__ for m in star_modules()]
    assert names == [
        f"kancredit.{m}"
        for m in ("splines", "network", "training", "metrics", "data", "explain", "baseline")
    ]


def test_no_name_is_listed_by_two_modules():
    counts = Counter(name for m in star_modules() for name in m.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_every_listed_name_is_defined_in_its_module():
    for module in star_modules():
        missing = set(module.__all__) - top_level_bindings(module)
        assert not missing, f"{module.__name__}.__all__ lists names it does not define: {missing}"


def test_root_names_are_the_modules_own_objects():
    listed = {name: m for m in star_modules() for name in m.__all__}
    for name, module in listed.items():
        assert getattr(kancredit, name) is getattr(module, name), name
    public = {
        name for name, value in vars(kancredit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(listed)


def test_only_network_starts_threads():
    """Only ``network.py`` imports ``concurrent.futures``; no module imports ``threading``."""
    imports = []  # (module file, imported top-level package)
    for path in sorted(Path(kancredit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module.split(".")[0]))
    threaded = {"concurrent", "threading", "_thread", "multiprocessing"}
    assert sorted({(name, package) for name, package in imports if package in threaded}) == [
        ("network.py", "concurrent")
    ]
