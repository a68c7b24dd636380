"""numpy stays the only runtime dependency: every absolute import in
src/seps names a standard-library module or numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seps"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports in `source` that ALLOWED lacks."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_the_guard_sees_absolute_imports_only():
    source = "import os, scipy.sparse\nfrom . import x\nfrom torch import nn\nimport numpy\n"
    assert foreign_imports(source) == ["scipy.sparse", "torch"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
