"""Checks over the package source itself."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "echolens"


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check may depend on one.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_all_lists_resolve_and_package_reexports_only_them():
    # A stale `__all__` entry breaks `from module import *`, and a package
    # re-export missing from its module's `__all__` is surface no module owns.
    modules = {path.stem: importlib.import_module(f"echolens.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    unresolved = [f"{stem}.{name}" for stem, module in modules.items()
                  for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert unresolved == []
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    unlisted = [f"{node.module}.{alias.name}" for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if alias.name not in getattr(modules[node.module], "__all__", ())]
    assert unlisted == []
