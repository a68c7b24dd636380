"""numpy stays the only runtime dependency: every absolute import in
src/seps names a standard-library module or numpy.  Every module but
`__init__.py`, which re-exports, reads each name it imports, and each of
its top-level functions and classes is read somewhere in src/seps or in
the perfbench harness (perfbench/*.py, not its tests).  Only `alignment`
and `objective.score_grid` touch the per-pair path, so there is one
image x caption loop.  Only `evaluator` imports a thread module, so
training stays single-threaded."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seps"
MODULES = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(source: str) -> list[str]:
    """Module names of the absolute imports in `source`, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def foreign_imports(source: str) -> list[str]:
    """Names of the absolute imports in `source` whose top level ALLOWED lacks."""
    return [name for name in absolute_imports(source) if name.split(".")[0] not in ALLOWED]


def test_the_guard_sees_absolute_imports_only():
    source = "import os, scipy.sparse\nfrom . import x\nfrom torch import nn\nimport numpy\n"
    assert foreign_imports(source) == ["scipy.sparse", "torch"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def unread_imports(source: str) -> list[str]:
    """Names that `source` imports, `__future__` features aside, but never
    reads as a plain name (`ast.Name` in `Load` context)."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_unread_import_guard_counts_only_loaded_names():
    source = ("from __future__ import annotations\nimport os.path, sys\n"
              "from . import autodiff as ad\nfrom .bank import Sample, EPS\n"
              "EPS = ad.x\ndef f(s: Sample): return 'sys'\n")
    assert unread_imports(source) == ["os", "sys", "EPS"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unread_definitions(source: str, readers: list[str]) -> list[str]:
    """Top-level functions and classes of `source` that no source in
    `readers` reads, as a plain name (`ast.Name` in `Load` context) or as
    an attribute (`ast.Attribute.attr`)."""
    defined = [node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for reader in readers for node in ast.walk(ast.parse(reader))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    return [name for name in defined if name not in read]


def test_the_unread_definition_guard_counts_loads_and_attributes():
    source = ("def called(): pass\nclass Read: pass\ndef unread(): pass\n"
              "def stored(): pass\nclass Bare: pass\n")
    readers = [source + "stored = Bare = 1\ncalled()\n", "import m\nm.Read\n"]
    assert unread_definitions(source, readers) == ["unread", "stored", "Bare"]


def test_every_top_level_definition_is_read_in_the_package_or_the_harness():
    readers = [path.read_text(encoding="utf-8")
               for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])]
    unread = {path.name: unread_definitions(path.read_text(encoding="utf-8"), readers)
              for path in MODULES}
    assert {name: defs for name, defs in unread.items() if defs} == {}


# the per-pair path, which only alignment (its home) and objective (the
# grid) may read
PAIR_PATH = {"Rows", "similarity_matrix", "score_from_similarity", "align_score"}
PAIR_OWNERS = {PACKAGE / "alignment.py", PACKAGE / "objective.py"}


def pair_path_reads(source: str) -> list[str]:
    """The PAIR_PATH names that `source` imports or reads, as a plain name
    (`ast.Name` in `Load` context) or as an attribute, sorted."""
    read = {node.name if isinstance(node, ast.alias)
            else node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.alias, ast.Attribute))
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(read & PAIR_PATH)


def test_the_pair_path_guard_counts_imports_loads_and_attributes():
    source = ("from .alignment import Rows as R\nfrom . import alignment\n"
              "x = alignment.align_score(1)\nsimilarity_matrix = 'score_from_similarity'\n"
              "def f(): return score_from_similarity\n")
    assert pair_path_reads(source) == ["Rows", "align_score", "score_from_similarity"]


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - PAIR_OWNERS),
                         ids=lambda p: p.name)
def test_only_alignment_and_the_grid_read_the_pair_path(path):
    assert pair_path_reads(path.read_text(encoding="utf-8")) == []


# thread modules, which only the evaluator (its `selection_quality` pool) may import
THREAD_MODULES = {"concurrent", "threading"}


def thread_imports(source: str) -> list[str]:
    return [name for name in absolute_imports(source) if name.split(".")[0] in THREAD_MODULES]


def test_the_thread_guard_sees_imports_inside_functions():
    source = ("import threading as t\ndef f():\n    from concurrent.futures import Future\n"
              "from . import threads\nimport os\n")
    assert thread_imports(source) == ["threading", "concurrent.futures"]


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "evaluator.py"}),
                         ids=lambda p: p.name)
def test_only_the_evaluator_imports_a_thread_module(path):
    assert thread_imports(path.read_text(encoding="utf-8")) == []
