"""Every package module uses each name it imports and exports only names it
has: a name left behind by a deletion fails here, with no linter needed."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msrcode"
MODULES = sorted(PACKAGE.glob("*.py"))


def exported(tree: ast.Module) -> list[str] | None:
    """The module's __all__ as written, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line binding it; __future__
    features bind nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    """A name counts as used if the code reads it or __all__ re-exports it.
    The package modules postpone annotations, so a name used only in one
    is still an ast.Name here."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(exported(tree) or ())
    unused = {name: line for name, line in imported(tree).items() if name not in used}
    assert unused == {}


EXPORTING = [path for path in MODULES if exported(ast.parse(path.read_text())) is not None]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda path: path.name)
def test_every_exported_name_resolves(path):
    names = exported(ast.parse(path.read_text()))
    module = importlib.import_module("msrcode" if path.stem == "__init__" else f"msrcode.{path.stem}")
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []
