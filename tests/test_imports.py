"""Every name a library module imports is used in that module.

``__init__.py`` only re-exports, and ``from __future__`` imports are
directives, so both are skipped.  Quoted annotations count as uses.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hypercert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    roots = [tree]
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                roots.append(ast.parse(node.value, mode="eval"))
    return {node.id for root in roots for node in ast.walk(root) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
