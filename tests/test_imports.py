"""What the library imports, and when.

Every name a library module imports is used in that module: ``__init__.py``
only re-exports, and ``from __future__`` imports are directives, so both
are skipped, and quoted annotations count as uses.  A fresh process imports
only what it runs: the CLI's set-up loads no command's own modules, and the
package's exports resolve on first access.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercert

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    # dataclasses imports inspect, ast, dis and tokenize: every fresh process
    # would compile them.  Records are NamedTuples or __slots__ classes.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in modules


def added_modules(code):
    """Names that running ``code`` in a fresh interpreter, with the library
    on its path, adds to what the bare interpreter has loaded."""
    script = f"import sys\nbare = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - bare))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


# What the benchmark's set-up probe does: the CLI's parser and every shipped data file.
SETUP = """
import json
from importlib import resources
import hypercert.cli as cli
from hypercert import fixtures
cli.build_parser()
manifest = json.loads(resources.files("hypercert.data").joinpath("fixtures.json").read_text(encoding="ascii"))
for spec in manifest.values():
    for name in spec["files"].values():
        (fixtures.load_fixture_matrix if name.endswith(".json") else fixtures.load_fixture_poly)(name)
"""


def test_setup_imports_only_what_it_runs():
    added = added_modules(SETUP)
    assert {"hypercert.cli", "hypercert.fixtures", "hypercert.detrep", "hypercert.wire"} <= added
    unused = {"dataclasses", "inspect", "hashlib"} | {f"hypercert.{m}" for m in ("clifford", "quadratic", "hyperbolicity", "realroots")}
    assert added & unused == set()


def test_package_import_loads_no_submodule():
    assert {name for name in added_modules("import hypercert") if name.startswith("hypercert.")} == set()


def test_each_export_is_its_home_modules_object():
    for name in hypercert.__all__:
        value = getattr(hypercert, name)
        assert value.__module__.startswith("hypercert.")
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from hypercert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hypercert.__all__)
    assert set(hypercert.__all__) <= set(dir(hypercert))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'hypercert' has no attribute 'verify'"):
        hypercert.verify
