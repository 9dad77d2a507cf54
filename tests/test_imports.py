"""Every name a bellsim module imports is used by that module, and every
private module-level name is read somewhere in the package.

A stdlib-only stand-in for a linter's unused-import and dead-code checks.
The package ``__init__`` is exempt from the import check, since its
imports are the package's public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level name with one leading underscore that a def, a
    class or an assignment binds, with its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_in_package() -> set[str]:
    """Every name any bellsim module reads: as a name, as an attribute,
    or in a ``from`` import."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"spaces.py", "models.py", "scenario.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_orphaned_private_name(path):
    read = _read_in_package()
    defined = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    orphaned = sorted(f"{path.name}:{name} (line {line})"
                      for name, line in defined.items() if name not in read)
    assert orphaned == []
