"""Checks on the package source itself, read as syntax trees."""
import ast
from pathlib import Path

import nilorbit

SRC = Path(nilorbit.__file__).resolve().parent


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded, and attributes read, anywhere in ``tree`` outside the
    subtree ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_private_helpers_serve_the_package():
    """Every module-level ``_``-prefixed function or class is used by
    package code outside its own definition, so a route only the tests
    call cannot live in the package (it belongs in the tests)."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(
                node.name in _references(other, node if other is tree else None)
                for other in trees.values()
            ):
                unused.append(f"{name}:{node.name}")
    assert unused == []


def test_no_function_imports_a_package_module():
    """Every package import sits at module level, so the modules' imports
    form one acyclic layering rather than a cycle broken at call time."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "nilorbit"
                ):
                    found.add(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "nilorbit" for alias in node.names
                ):
                    found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []
