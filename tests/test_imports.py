"""Every name a bellsim module imports is used by that module, every
private module-level name is read somewhere in the package, and every
error a module raises carries that module's tag.

A stdlib-only stand-in for a linter's unused-import and dead-code checks.
The package ``__init__`` is exempt from the import check, since its
imports are the package's public names.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from bellsim import errors

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


#: Non-bellsim exceptions a module may raise: argparse's own error for a
#: bad option value, and the exit of the script entry point.
ALLOWED_RAISES = {"cli.py": {"ArgumentTypeError", "SystemExit"}}


def _module_tags() -> dict[str, str]:
    """Each module's error tag as the errors.py docstring lists it:
    ``tag`` (module.py, ...), or ``tag`` alone for tag.py."""
    doc = ast.get_docstring(ast.parse((PACKAGE / "errors.py").read_text(
        encoding="utf-8")))
    tags = {}
    for tag, names in re.findall(r"``([a-z-]+)``(?: \(([^)]*)\))?", doc):
        for name in re.split(r",\s+", names) if names else [tag + ".py"]:
            if (PACKAGE / name).is_file():
                tags[name] = tag
    return tags


def _raised(tree: ast.Module) -> list[tuple[str, int]]:
    """The class name of each ``raise X(...)``, with its line number."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            out.append((func.attr if isinstance(func, ast.Attribute)
                        else func.id, node.lineno))
    return out


def test_every_tag_names_its_modules():
    assert _module_tags() == {
        "spaces.py": "hv-core", "models.py": "response-models",
        "correlation.py": "correlation-engine", "feasibility.py": "feasibility",
        "simplex.py": "simplex", "qm.py": "qm-reference",
        "scenario.py": "cli-harness", "report.py": "cli-harness",
        "cli.py": "cli-harness"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_raise_carries_the_module_tag(path):
    tag = _module_tags().get(path.name)
    allowed = ALLOWED_RAISES.get(path.name, set())
    wrong = []
    for name, line in _raised(ast.parse(path.read_text(encoding="utf-8"))):
        cls = getattr(errors, name, None)
        tagged = (isinstance(cls, type) and issubclass(cls, errors.BellsimError)
                  and cls.module == tag)
        if not tagged and name not in allowed:
            wrong.append(f"{path.name}:{line} raises {name}")
    assert wrong == []
