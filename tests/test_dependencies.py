"""The runtime needs numpy alone: the declared dependencies and the imports
of the package say so together. The standard-library modules imported when
the package loads are pinned too, since each one adds to start-up time, and
the public names are exactly what the package's `__init__` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    return {re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower()
            for req in project["dependencies"]}


def _imports(node, in_functions: bool):
    """Top-level names of the absolute imports under an AST node, those in
    function bodies only when in_functions."""
    for child in ast.iter_child_nodes(node):
        if not in_functions and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.split(".")[0]
        yield from _imports(child, in_functions)


def _package_imports(in_functions: bool) -> set[str]:
    return {name for path in sorted((ROOT / "src" / "robo_mv").glob("*.py"))
            for name in _imports(ast.parse(path.read_text(encoding="utf-8")),
                                 in_functions)}


def test_runtime_dependencies_are_numpy_alone():
    assert _declared_dependencies() == {"numpy"}
    # Every absolute import, in function bodies too, less the standard
    # library and the package itself.
    assert (_package_imports(in_functions=True) - set(sys.stdlib_module_names)
            - {"robo_mv"}) == {"numpy"}


def test_import_time_stdlib_modules_are_pinned():
    # The standard-library modules imported when the package loads. A new
    # one lengthens every launch, so adding one means editing this set.
    stdlib = _package_imports(in_functions=False) & set(sys.stdlib_module_names)
    assert stdlib == {
        "__future__", "argparse", "concurrent", "csv", "dataclasses", "hashlib",
        "io", "itertools", "json", "math", "os", "pathlib", "sys", "typing",
        "zipfile",
    }


def test_public_names_are_the_package_imports():
    # __all__ is what __init__.py imports, plus __version__, so a name taken
    # out of a module cannot linger in the public API or be left out of it.
    import robo_mv

    init = ROOT / "src" / "robo_mv" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(robo_mv.__all__)) == len(robo_mv.__all__)
    assert set(robo_mv.__all__) == imported | {"__version__"}
    for name in robo_mv.__all__:
        getattr(robo_mv, name)
