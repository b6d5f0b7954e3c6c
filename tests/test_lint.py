"""Checks on the package source, with the standard library's ``ast``: no
module imports a name it never uses, every private module-level function is
referenced somewhere in the package, no module uses ``assert`` (runtime
invariants raise, since ``python -O`` strips asserts), and only
``market_data._read_only`` assigns ``<array>.flags.writeable`` (every value
type freezes its arrays through it)."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quantfolio"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def assert_lines(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def writeable_assignments(tree: ast.AST, owner: str = "<module>") -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every assignment to ``<x>.flags.writeable``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += writeable_assignments(node, node.name)
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        found += [
            (owner, node.lineno)
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Attribute) and sub.attr == "writeable"
            and isinstance(sub.value, ast.Attribute) and sub.value.attr == "flags"
        ]
        found += writeable_assignments(node, owner)
    return found


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name read and every attribute name, anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    unused = imported_names(tree) - referenced_names(tree)
    assert not unused, f"{path.name} imports unused name(s): {', '.join(sorted(unused))}"


def test_every_private_function_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    assert trees, f"no modules under {PACKAGE}"
    everywhere = set().union(*(referenced_names(tree) for tree in trees.values()))
    unreferenced = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in everywhere
    ]
    assert not unreferenced, f"private functions nothing references: {', '.join(unreferenced)}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts(path):
    lines = assert_lines(parse(path))
    assert not lines, f"{path.name} uses assert on line(s) {lines}: raise instead"


def test_only_read_only_marks_arrays_read_only():
    stray = [
        f"{path.name}:{owner}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, line in writeable_assignments(parse(path))
        if (path.name, owner) != ("market_data.py", "_read_only")
    ]
    assert not stray, f"flags.writeable assigned outside market_data._read_only: {', '.join(stray)}"


def test_checks_catch_dead_code():
    tree = ast.parse(
        "import os\nfrom json import dumps as d\n\ndef _dead(x):\n    assert x\n    return 1\n"
        "\nclass Box:\n    def freeze(self, a):\n        a.flags.writeable = False\n"
    )
    assert imported_names(tree) - referenced_names(tree) == {"os", "d"}
    assert "_dead" not in referenced_names(tree)
    assert assert_lines(tree) == [5]
    assert writeable_assignments(tree) == [("freeze", 10)]
