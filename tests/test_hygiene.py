"""Source hygiene: every name a package module imports is used in it, and no
module imports numpy or scipy when it is itself imported."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "gordonlab"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
HEAVY = {"numpy", "scipy"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node ever loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    assert MODULES, f"no package modules under {PACKAGE}"
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 2)", "path (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []


def import_time_heavy_imports(source: str) -> list[str]:
    """numpy/scipy imports that run on import: outside functions and outside
    ``if TYPE_CHECKING:`` blocks."""
    found = []

    def visit(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING",
                "typing.TYPE_CHECKING",
            ):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found.extend(
                f"{m} (line {node.lineno})" for m in modules if m.split(".")[0] in HEAVY
            )
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return found


def test_the_scan_sees_an_import_time_heavy_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    from scipy.linalg import eigh\n"
        "def f():\n"
        "    import scipy\n"
        "class C:\n"
        "    from numpy import ndarray\n"
        "try:\n"
        "    import os\n"
        "except ImportError:\n"
        "    import scipy.linalg\n"
    )
    assert import_time_heavy_imports(source) == [
        "numpy (line 2)",
        "numpy (line 8)",
        "scipy.linalg (line 12)",
    ]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_heavy_package_on_import(module):
    assert import_time_heavy_imports(module.read_text()) == []
