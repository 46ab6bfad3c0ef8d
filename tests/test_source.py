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


def test_cli_imports_no_private_name():
    """``cli.py`` imports no ``_``-prefixed name from another package
    module: its renderers read only the payload, and its handlers use the
    package's public functions."""
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "nilorbit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules that ``tree`` imports from, by file stem; the
    package itself counts as "__init__", since it re-exports every module."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") if node.module else []
            if node.level == 0:
                if parts[0] != "nilorbit":
                    continue
                parts = parts[1:]
            found.add(parts[0] if parts else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "nilorbit":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_oracle_imports_nothing_it_checks():
    """``ff_oracle.py``, directly or through the modules it imports, imports
    nothing from the modules whose results it checks: the segmentation,
    the minimal Richardson orbits, the descriptors and the duality.  So a
    count of flags over F_p never reads what it is compared with."""
    reached, todo = set(), ["ff_oracle"]
    while todo:
        stem = todo.pop()
        if stem not in reached:
            reached.add(stem)
            todo.extend(_package_imports(ast.parse((SRC / f"{stem}.py").read_text())))
    assert {"_linalg", "levi", "partitions"} <= reached  # the walk follows imports
    assert reached.isdisjoint({"__init__", "blocks", "minimal", "spaltenstein", "duality"})


def _calls(path: Path):
    """(name, call) for each call in ``path``, by the name of the
    module-level definition that holds it ("<module>" outside any)."""
    for definition in ast.parse(path.read_text()).body:
        for node in ast.walk(definition):
            if isinstance(node, ast.Call):
                yield getattr(definition, "name", "<module>"), node


def _callee(call: ast.Call) -> str | None:
    """The name that ``call`` calls, a plain name or an attribute."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_one_function_turns_a_state_into_its_count():
    """``_peel`` and ``_shape_count`` are called only from ``_state_count``,
    so a state's count or start is read in one place, whichever reading
    (the root's partition, a batch's signed maps, or elimination) it
    comes from."""
    callers: dict[str, set[str]] = {"_peel": set(), "_shape_count": set()}
    for path in sorted(SRC.glob("*.py")):
        for name, call in _calls(path):
            if _callee(call) in callers:
                callers[_callee(call)].add(f"{path.name}:{name}")
    assert callers == {"_peel": {"ff_oracle.py:_state_count"}, "_shape_count": {"ff_oracle.py:_state_count"}}


def test_one_elimination_takes_every_inverse():
    """In ``_linalg.py`` only ``_reduce`` takes an inverse mod p,
    ``pow(x, -1, p)``, so ``rref``, ``nullspace`` and ``det`` all run on
    its one row reduction."""
    inverses = {
        name for name, call in _calls(SRC / "_linalg.py")
        if _callee(call) == "pow" and len(call.args) == 3 and ast.unparse(call.args[1]) == "-1"
    }
    assert inverses == {"_reduce"}


def test_one_table_pairs_the_chains():
    """In ``ff_oracle.py`` only ``_chains`` asks which parts come in pairs
    (``needs_even_multiplicity``), so the model, the root's discriminants
    and the root's window read one layout, pairing and set of units."""
    askers = {name for name, call in _calls(SRC / "ff_oracle.py") if _callee(call) == "needs_even_multiplicity"}
    assert askers == {"_chains"}
