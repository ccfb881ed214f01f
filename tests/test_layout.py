"""Nothing ships that nothing calls: every private module-level name and
every private method in ``src/torelli_graphs`` is used somewhere in the
package besides its definition."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torelli_graphs"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module, where: str):
    """(name, place) of each private module-level function, class or
    assigned name, and of each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _private(item.name):
                        yield item.name, f"{where}:{item.lineno} ({node.name})"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _private(name.id):
                        yield name.id, f"{where}:{node.lineno}"


def uses(tree: ast.Module) -> Counter:
    """Every name the module reads, takes as an attribute or imports; the
    targets of assignments are not uses."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used: Counter = Counter()
    for tree in trees.values():
        used += uses(tree)
    unused = [
        f"{name} ({place})"
        for where, tree in trees.items()
        for name, place in private_definitions(tree, where)
        if not used[name]
    ]
    assert not unused, "defined in src/ but never used there: " + ", ".join(unused)
