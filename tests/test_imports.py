"""Every name a bellsim module imports is used by that module.

A stdlib-only stand-in for a linter's unused-import check.  The package
``__init__`` is exempt, since its imports are the package's public names.
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


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"spaces.py", "models.py", "scenario.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert unused == []
