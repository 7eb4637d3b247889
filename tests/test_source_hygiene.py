"""No orphaned import or private helper in condmc.

A refactor that deletes a branch or moves a helper can leave behind an import
that nothing uses, or a private function, class or constant that nothing calls.
Both still run, so nothing else fails; these checks parse src/condmc with ast
alone and fail instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "condmc").glob("*.py"))
CHECKED = [path for path in SOURCES if path.name != "__init__.py"]
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _read_names(tree):
    """Every name a module reads: loaded names, attribute names and the names
    it imports from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _imported(tree):
    """(bound name, line) of every import of a module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_definitions(tree):
    """(name, line) of the module's private top-level functions, classes and
    constants; dunder names such as __all__ are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _loaded(tree):
    """The names a module reads locally: loaded names and attribute bases."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_every_module_is_checked():
    assert {"functionals.py", "optimizer.py", "sde.py", "weakderiv.py"} <= {
        path.name for path in CHECKED}


@pytest.mark.parametrize("path", CHECKED, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = TREES[path.name]
    used = _loaded(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", CHECKED, ids=lambda path: path.name)
def test_every_private_helper_is_referenced(path):
    reads = [name for tree in TREES.values() for name in _read_names(tree)]
    orphans = [f"{name} (line {line})" for name, line in _private_definitions(TREES[path.name])
               if name not in reads]
    assert not orphans, f"{path.name} defines private names nothing references: {orphans}"
