"""Every name a module of idkit imports is used in it or re-exported by it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "idkit"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = exported_names(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported_names(tree).items())
        if name not in used and name not in exported
    ]


def test_modules_found():
    assert SRC / "engine.py" in MODULES and SRC / "optimizers" / "bo.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .space import DesignPoint, mse_loss\n"
        "from .records import EvalRecord\n"
        "__all__ = ['EvalRecord']\n"
        "def f(x: np.ndarray):\n"
        "    return mse_loss(x, x)\n"
    )
    assert unused_imports(src) == ["DesignPoint (line 3)", "os (line 2)"]
