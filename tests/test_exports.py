"""The public surface: each library module's ``__all__`` names only what it
defines or re-exports, and the package namespace imports only public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nahmlab

# every module but the command-line entry point declares its public names
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(nahmlab.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"nahmlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_names_in_all():
    tree = ast.parse(Path(nahmlab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stale = []
    for node in imports:
        public = importlib.import_module(f"nahmlab.{node.module}").__all__
        stale += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in public]
    assert stale == []
