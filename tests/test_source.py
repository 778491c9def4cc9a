"""Checks over the package source itself."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "echolens"
BENCH = ROOT / "bench"


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


def _names_read(tree):
    """Every name a module reads, as a Name or an Attribute, not counting a
    top-level function's reads of its own name inside its own def."""
    names = set()
    for top in tree.body:
        read = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(top, ast.FunctionDef):
            read.discard(top.name)
        names |= read
    return names


def test_every_listed_function_is_used():
    # A function in `__all__` that no module and no benchmark job calls
    # changes no output; demos and tests do not count as use.
    modules = sorted(path for path in SRC.glob("*.py") if path.stem != "__init__")
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in modules + sorted(BENCH.glob("*.py"))}
    used = set().union(*map(_names_read, trees.values()))
    unused = [f"{path.stem}.{node.name}" for path in modules for node in trees[path].body
              if isinstance(node, ast.FunctionDef) and node.name not in used
              and node.name in getattr(importlib.import_module(f"echolens.{path.stem}"),
                                       "__all__", ())]
    assert unused == []


def test_one_csv_read_rule():
    # Every CSV file is read by artifacts.read_csv_chunks' quote-parity split;
    # the csv module only writes.
    found = [f"{path.relative_to(SRC)}: {name}" for path in sorted(SRC.rglob("*.py"))
             for name in ("csv.reader", "csv.DictReader", "TextIOWrapper")
             if name in path.read_text(encoding="utf-8")]
    assert found == []
