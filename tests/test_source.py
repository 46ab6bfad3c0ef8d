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
