"""The runtime needs numpy alone: the declared dependencies and the imports
of the package say so together."""

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


def _imported_packages() -> set[str]:
    """Top-level names of every absolute import in src/robo_mv, in function
    bodies too, less the standard library and the package itself."""
    names = set()
    for path in sorted((ROOT / "src" / "robo_mv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"robo_mv"}


def test_runtime_dependencies_are_numpy_alone():
    assert _declared_dependencies() == {"numpy"}
    assert _imported_packages() == {"numpy"}
